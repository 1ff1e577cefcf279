import random

import pytest

from bsrig import (
    GroupWord,
    IDENTITY,
    NormalForm,
    WordSyntaxError,
    abelianization_image,
    b_length,
    bs,
    cyclically_reduce,
    format_word,
    invert,
    is_identity,
    multiply,
    normalize,
    parse_word,
    power,
    to_group_word,
    word_nf,
)
from bsrig.oracles import (
    oracle_b_length,
    oracle_is_identity,
    oracle_scan,
    random_word,
    with_inserted_relator,
)
from bsrig.words import _scan

G23 = bs(2, 3)
GROUPS = [bs(2, 3), bs(2, -2), bs(3, 6), bs(1, 2)]


def test_presentation_derived_fields():
    G = bs(4, -6)
    assert (G.k, G.n0, G.m0) == (2, 2, -3)
    assert bs(2, 3).is_standard
    assert bs(2, -2).is_standard
    assert not bs(1, 2).is_standard
    assert not bs(3, 2).is_standard
    with pytest.raises(ValueError):
        bs(0, 3)


def test_parse_examples():
    assert parse_word("b a^2 B").syllables == (("b", 1), ("a", 2), ("b", -1))
    assert parse_word("a^3 a^-3").syllables == ()
    assert parse_word("A^2 b^2").syllables == (("a", -2), ("b", 2))
    assert parse_word("").syllables == ()
    assert parse_word("e").syllables == ()
    assert parse_word("ba^2B").syllables == (("b", 1), ("a", 2), ("b", -1))
    assert parse_word("A^-2").syllables == (("a", 2),)


def test_parse_errors_carry_offset():
    with pytest.raises(WordSyntaxError) as err:
        parse_word("a^2 c")
    assert err.value.offset == 4
    with pytest.raises(WordSyntaxError) as err:
        parse_word("a^")
    assert err.value.offset == 2
    with pytest.raises(WordSyntaxError) as err:
        parse_word("b a^- 3")
    assert err.value.offset == 5


def _tokens_or_error(scan, text, names):
    try:
        return scan(text, names)
    except WordSyntaxError as exc:
        return str(exc), exc.offset


def _random_text(rng):
    """Terms over a..d and e with ASCII and non-ASCII digits in exponents,
    stray symbols, and runs of Unicode whitespace."""
    digits = "01234567890123456789\u0663\uff15"
    parts = []
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.8:
            parts.append(rng.choice("aAbBcCdDe"))
            if rng.random() < 0.5:
                exp = "".join(rng.choice(digits) for _ in range(rng.randint(0, 3)))
                parts.append("^" + rng.choice(["", "-"]) + exp)
        else:
            parts.append(rng.choice("^-q.Z9\u0663"))
        parts.append("".join(rng.choice(" \t\n\u00a0\u2003\x1c") for _ in range(rng.randint(0, 2))))
    return "".join(parts)


def test_scanner_matches_character_oracle():
    rng = random.Random(44)
    outcomes = set()
    for _ in range(5000):
        text = _random_text(rng)
        for names in ("ab", "cd"):
            got = _tokens_or_error(_scan, text, names)
            assert got == _tokens_or_error(oracle_scan, text, names), (text, names)
            outcomes.add(got[0].split()[0] if isinstance(got, tuple) else "tokens")
    assert outcomes == {"tokens", "unexpected", "expected", "'e'"}


def test_format_round_trip():
    rng = random.Random(1)
    for _ in range(200):
        w = random_word(rng, max_b=4, max_exp=100)
        assert parse_word(format_word(w)) == w
    assert format_word(GroupWord(())) == "e"


def test_normalize_presentation_relation():
    assert word_nf("b a^2 B", G23) == NormalForm((), 3)
    assert word_nf("B a^3 b", G23) == NormalForm((), 2)


def test_normalize_right_push():
    # a^{3j+s} b = a^s b a^{2j} in BS(2,3)
    assert word_nf("a^7 b", G23) == NormalForm(((1, 1),), 4)
    assert format_word(word_nf("a^7 b", G23)) == "a b a^4"


def test_normalize_is_canonical_form():
    rng = random.Random(2)
    for G in GROUPS:
        for _ in range(300):
            nf = normalize(random_word(rng, max_b=5, max_exp=1000), G)
            for idx, (s, e) in enumerate(nf.prefix):
                bound = abs(G.m) if e == 1 else abs(G.n)
                assert 0 <= s < bound
                if idx:
                    assert not (nf.prefix[idx - 1][1] == -e and s == 0)


def test_is_identity_examples():
    assert is_identity(parse_word("b a^2 b^-1 a^-3"), G23)
    assert not is_identity(parse_word("b a b^-1 a^-1"), G23)
    assert is_identity(parse_word("b a^2 b^-1 a^2"), bs(2, -2))


def test_normalize_idempotent_and_multiplicative():
    rng = random.Random(3)
    for G in GROUPS:
        for _ in range(200):
            u = random_word(rng, max_b=3, max_exp=10**4)
            v = random_word(rng, max_b=3, max_exp=10**4)
            nu, nv = normalize(u, G), normalize(v, G)
            assert normalize(to_group_word(nu), G) == nu
            assert normalize(parse_word(format_word(nu)), G) == nu
            both = normalize(GroupWord.of(u.syllables + v.syllables), G)
            assert multiply(nu, nv, G) == both


def test_group_laws():
    rng = random.Random(4)
    for G in GROUPS:
        e = IDENTITY
        for _ in range(100):
            g = normalize(random_word(rng, max_b=4, max_exp=100), G)
            h = normalize(random_word(rng, max_b=4, max_exp=100), G)
            assert multiply(e, g, G) == g
            assert multiply(g, e, G) == g
            assert invert(invert(g, G), G) == g
            assert multiply(g, invert(g, G), G) == e
            assert invert(multiply(g, h, G), G) == multiply(invert(h, G), invert(g, G), G)
    assert multiply(word_nf("b", G23), word_nf("b^-1", G23), G23) == IDENTITY


def test_power():
    rng = random.Random(5)
    for _ in range(50):
        g = normalize(random_word(rng, max_b=3, max_exp=30), G23)
        acc = IDENTITY
        for z in range(4):
            assert power(g, z, G23) == acc
            assert power(g, -z, G23) == invert(acc, G23)
            acc = multiply(acc, g, G23)


def test_b_length_examples():
    assert b_length(parse_word("b a b^-1"), G23) == 2
    assert b_length(parse_word("b a^2 b^-1"), G23) == 0
    assert b_length(parse_word("b^3 a b^-1"), G23) == 4


def test_word_problem_against_pinch_oracle():
    rng = random.Random(6)
    for G in GROUPS:
        for _ in range(400):
            w = random_word(rng, max_b=5, max_exp=10**5)
            nf = normalize(w, G)
            assert (nf == IDENTITY) == oracle_is_identity(w, G, rng)
            assert len(nf.prefix) == oracle_b_length(w, G, rng)


def test_uniqueness_under_relator_insertion():
    rng = random.Random(7)
    for G in GROUPS:
        for _ in range(2500):
            w = random_word(rng, max_b=4, max_exp=10**5)
            variant = with_inserted_relator(w, G, rng)
            assert normalize(variant, G) == normalize(w, G)


def test_cyclic_reduction_examples():
    conj, core = cyclically_reduce(word_nf("a^5", G23), G23)
    assert (conj, core) == (IDENTITY, NormalForm((), 5))
    conj, core = cyclically_reduce(word_nf("b a b^-1", G23), G23)
    assert conj == word_nf("b", G23)
    assert core == NormalForm((), 1)
    _, core = cyclically_reduce(word_nf("a b", G23), G23)
    assert len(core.prefix) == 1


def test_cyclic_reduction_properties():
    rng = random.Random(8)
    for G in GROUPS:
        for _ in range(150):
            g = normalize(random_word(rng, max_b=4, max_exp=50), G)
            conj, core = cyclically_reduce(g, G)
            assert multiply(multiply(invert(conj, G), g, G), conj, G) == core
            assert len(core.prefix) <= len(g.prefix)
            if core.prefix:
                s1, e1 = core.prefix[0]
                _, ek = core.prefix[-1]
                if ek == -e1:
                    c = abs(G.m) if e1 == 1 else abs(G.n)
                    assert (core.tail + s1) % c != 0


def test_abelianization_examples():
    assert abelianization_image(parse_word("b a^2 b^-1 a^-3"), G23) == (0, 0)
    assert abelianization_image(parse_word("a^4"), bs(2, 5)) == (0, 1)
    assert abelianization_image(parse_word("b^2 a^7"), bs(2, 2)) == (2, 7)


def _affine_image(w, G):
    # x -> A x + B over exact rationals; a acts by x + 1 and b by (m/n) x.
    # This is a homomorphism (b (x+n) pulled through b^-1 gives x + m), so
    # identity words must land on the identity map. It is not faithful, so
    # it only ever falsifies.
    from fractions import Fraction

    ratio = Fraction(G.m, G.n)
    A, B = Fraction(1), Fraction(0)
    for letter, exp in w.syllables:
        if letter == "a":
            A2, B2 = Fraction(1), Fraction(exp)
        else:
            A2, B2 = ratio**exp, Fraction(0)
        A, B = A * A2, A * B2 + B
    return A, B


def test_affine_representation_falsifier():
    rng = random.Random(55)
    for G in GROUPS:
        for _ in range(500):
            w = random_word(rng, max_b=5, max_exp=10**4)
            if is_identity(w, G):
                assert _affine_image(w, G) == (1, 0)
            built = with_inserted_relator(GroupWord(()), G, rng)
            assert is_identity(built, G)
            assert _affine_image(built, G) == (1, 0)


def test_abelianization_is_homomorphic_falsifier():
    rng = random.Random(9)
    for G in GROUPS:
        d = abs(G.m - G.n)
        for _ in range(200):
            u = random_word(rng, max_b=3, max_exp=100)
            v = random_word(rng, max_b=3, max_exp=100)
            bu, au = abelianization_image(u, G)
            bv, av = abelianization_image(v, G)
            bc, ac = abelianization_image(GroupWord.of(u.syllables + v.syllables), G)
            assert bc == bu + bv
            assert ac == ((au + av) % d if d else au + av)
            if is_identity(u, G):
                assert (bu, au) == (0, 0)
