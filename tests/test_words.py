import random

import pytest

from bsrig import (
    GroupWord,
    IDENTITY,
    NormalForm,
    WordSyntaxError,
    bs,
    cyclically_reduce,
    format_word,
    invert,
    multiply,
    normalize,
    parse_word,
    power,
    to_group_word,
    word_nf,
)
from bsrig.oracles import (
    abelianization_image,
    oracle_b_length,
    oracle_is_identity,
    oracle_scan,
    random_nf,
    random_word,
    with_inserted_relator,
)
from bsrig import words
from bsrig.words import Value, concat_words, inverse_word

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
    # the crossing table against the relation: a^t b^e = a^{t0} b^e a^{d q}
    # for t = c q + t0, checked as a free word by the oracle's pinch
    # elimination, which shares no code with the crossing loop
    rng = random.Random(5)
    params = [sign * v for v in range(1, 7) for sign in (1, -1)]
    for G in (bs(n, m) for n in params for m in params):
        for e, (c, d) in zip((1, -1), G.carries):
            assert c > 0, G
            for t in range(-3 * c, 3 * c + 1):
                q, t0 = divmod(t, c)
                w = GroupWord.of((("a", t), ("b", e), ("a", -d * q), ("b", -e), ("a", -t0)))
                assert oracle_is_identity(w, G, rng), (G, e, t)


class _Single(Value):
    __slots__ = ("x",)


class _Triple(Value):
    __slots__ = ("x", "y", "z")


@pytest.mark.parametrize("cls, fields", [(_Single, (7,)), (_Triple, ("u", (1, 2), None))])
def test_value_derives_equality_and_hash_from_its_slots(cls, fields):
    value = cls(*fields)
    assert value == cls(*fields) and not value != cls(*fields)
    assert len({value, cls(*fields)}) == 1
    for i in range(len(fields)):
        assert value != cls(*fields[:i], (fields[i],), *fields[i + 1 :])
    # a fieldless subclass keeps its parent's methods, yet only equals its own class
    twin_cls = type("Twin", (cls,), {"__slots__": ()})
    twin = twin_cls(*fields)
    assert (twin_cls.__eq__, twin_cls.__hash__) == (cls.__eq__, cls.__hash__)
    assert twin == twin_cls(*fields) and value != twin and twin != value
    assert value != fields and fields != value
    # the hash of the field tuple, also for one field
    assert hash(value) == hash(fields) == hash(twin)


def test_parse_examples():
    assert parse_word("b a^2 B").syllables == (("b", 1), ("a", 2), ("b", -1))
    assert parse_word("a^3 a^-3").syllables == ()
    assert parse_word("A^2 b^2").syllables == (("a", -2), ("b", 2))
    assert parse_word("").syllables == ()
    assert parse_word("e").syllables == ()
    assert parse_word("ba^2B").syllables == (("b", 1), ("a", 2), ("b", -1))
    assert parse_word("A^-2").syllables == (("a", 2),)


def test_group_word_text_and_letters():
    # the text form spells inverse letters with a negative exponent
    assert str(parse_word("b a^2 B")) == "b a^2 b^-1"
    with pytest.raises(ValueError, match="letter must be 'a' or 'b'"):
        GroupWord.of([("c", 1)])


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


def test_exponent_past_the_digit_limit_is_a_syntax_error():
    # outside cli.run the interpreter refuses to convert that many digits;
    # the parser and the character scanner report it as bad input, at the
    # digits, also where a syntax error follows
    nines = "9" * 5000
    with pytest.raises(WordSyntaxError, match=r"interpreter's \d+-digit limit") as err:
        parse_word("b a^-" + nines)
    assert err.value.offset == 5
    for text in ("b a^-" + nines, "a^" + nines + " c", "a^9 b^-" + nines + " e^2"):
        assert _result_or_error(parse_word, text) == _result_or_error(_oracle_parse, text)


def _result_or_error(parse, text):
    try:
        return parse(text)
    except WordSyntaxError as exc:
        return str(exc), exc.offset


def _oracle_parse(text):
    return GroupWord.of(oracle_scan(text))


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
        got = _result_or_error(parse_word, text)
        assert got == _result_or_error(_oracle_parse, text), text
        outcomes.add(got[0].split()[0] if isinstance(got, tuple) else "tokens")
    assert outcomes == {"tokens", "unexpected", "expected", "'e'"}


def test_parser_matches_the_merged_character_oracle():
    # the whole parser, terms, tokens and merge, against the character
    # scanner; the terms stop short of a text's end exactly when it is no
    # word
    rng = random.Random(45)
    texts = [_random_text(rng) for _ in range(5000)]
    texts += ["ba^2B", "a^3a^-3", "e e", "ee", "b^0", "b a^0 B", "a^2b^0a^-2", "AAa^2", "a^-0", "Bb", "e^2", "a ^2", "a^-"]
    texts.append("b a^-" + "9" * 5000)
    # a cancellation exposes a top letter equal to the next token
    texts += ["a b B a", "b a A B b", "a A a A", "B b B", "ab^2B^2A", "e a b B e A", "a b B " * 10_000]
    assert parse_word("a b B a").syllables == (("a", 2),)
    # a long word that is bad only at its last character: the check must
    # back out of each term in constant time to stay linear
    long = "b a^12 B A^-3 a^4 B " * 10_000
    texts += [long, long[:-1] + "c", long[:-1] + "^"]
    outcomes = set()
    for text in texts:
        want = _result_or_error(_oracle_parse, text)
        assert _result_or_error(parse_word, text) == want, text[:80]
        no_word = isinstance(want, tuple) and not want[0].startswith("exponent over")
        assert (words._WORD.match(text).end() < len(text)) == no_word, text[:80]
        outcomes.add(want[0].split()[0] if isinstance(want, tuple) else "word")
    assert outcomes == {"word", "unexpected", "expected", "'e'", "exponent"}


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
    assert word_nf("b a^2 b^-1 a^-3", G23) == IDENTITY
    assert word_nf("b a b^-1 a^-1", G23) != IDENTITY
    assert word_nf("b a^2 b^-1 a^2", bs(2, -2)) == IDENTITY


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


def test_each_product_builds_once_and_pushes_once(monkeypatch):
    # a product crosses all its letters in one push, never one call per
    # letter; power makes one product per square and per set bit after
    # the first, which takes its square as it is
    pushed = []
    push = words._push

    def counting_push(*args):
        pushed.append(args)
        return push(*args)

    G = bs(2, -3)
    w = parse_word("b^7 a^5 B^3 a b^40 A^9 B")
    g = normalize(w, G)
    monkeypatch.setattr(words, "_push", counting_push)
    for call in (lambda: normalize(w, G), lambda: multiply(g, g, G), lambda: invert(g, G)):
        pushed.clear()
        call()
        assert len(pushed) == 1
    for z in (1, 2, 5, 13, -6, -64):
        pushed.clear()
        power(g, z, G)
        products = bin(abs(z)).count("1") - 1 + abs(z).bit_length() - 1 + (z < 0)
        assert len(pushed) == products, z


# n < 0, both negative, |n| = |m| = 1 with m < 0, and n | m with m < 0
SIGNED_GROUPS = [bs(-2, 3), bs(-3, -5), bs(1, -1), bs(2, -4)]


def _expanded_letters(w):
    """The letters and tail of w with every b-syllable b^k spelled out as
    the letter (s, e) after the a-power s, then |k| - 1 letters (0, e)."""
    letters, s = [], 0
    for letter, exp in w.syllables:
        if letter == "a":
            s += exp
        elif exp:
            e = 1 if exp > 0 else -1
            letters += [(s, e)] + [(0, e)] * (abs(exp) - 1)
            s = 0
    return letters, s


def _mixed_b_word(rng, G):
    """Single letters, runs b^{+-k} with 2 <= k <= 5, and pinch chains
    b^d a^{n^d j} B^d and B^d a^{m^d j} b^d between a-powers."""
    syllables = []
    for _ in range(rng.randint(0, 10)):
        syllables.append(("a", rng.choice((0, rng.randint(-99, 99)))))
        shape, e = rng.randrange(3), rng.choice((1, -1))
        if shape == 0:
            syllables.append(("b", e))
        elif shape == 1:
            syllables.append(("b", e * rng.randint(2, 5)))
        else:
            d = rng.randint(1, 3)
            power = (G.n if e == 1 else G.m) ** d * rng.randint(-9, 9)
            syllables += [("b", e * d), ("a", power), ("b", -e * d)]
    return GroupWord.of(syllables)


def _assert_normal(nf, G):
    for idx, (s, e) in enumerate(nf.prefix):
        assert 0 <= s < (abs(G.m) if e == 1 else abs(G.n)), (G, nf)
        assert not (idx and nf.prefix[idx - 1][1] == -e and s == 0), (G, nf)


def test_builder_on_signed_groups_against_the_pinch_oracle():
    # b-runs up to b^40 either way and a-powers up to 10^30; a quarter of
    # the v are u^-1 with a relator inserted, so u v pops every letter of u
    rng = random.Random(13)
    identities = 0
    for G in SIGNED_GROUPS:
        for _ in range(80):
            u = random_word(rng, max_b=40, max_exp=10**30)
            if rng.random() < 0.25:
                v = with_inserted_relator(inverse_word(u), G, rng)
            else:
                v = random_word(rng, max_b=40, max_exp=10**30)
            uv = concat_words(u, v)
            nu, nv, product = normalize(u, G), normalize(v, G), normalize(uv, G)
            for word, nf in ((u, nu), (v, nv), (uv, product)):
                _assert_normal(nf, G)
                assert len(nf.prefix) == oracle_b_length(word, G, rng), (G, word)
                assert (nf == IDENTITY) == oracle_is_identity(word, G, rng), (G, word)
            identities += product == IDENTITY
            assert multiply(nu, nv, G) == product
            inverse = invert(nu, G)
            _assert_normal(inverse, G)
            assert inverse == normalize(inverse_word(u), G)
            assert multiply(nu, inverse, G) == IDENTITY == multiply(inverse, nu, G)
            assert multiply(multiply(nu, nv, G), inverse, G) == multiply(nu, multiply(nv, inverse, G), G)
            assert invert(product, G) == multiply(invert(nv, G), inverse, G)
            acc = IDENTITY
            for z in range(4):
                assert power(nu, z, G) == acc and power(nu, -z, G) == invert(acc, G)
                acc = multiply(acc, nu, G)
            y, z = rng.randint(-9, 9), rng.randint(-9, 9)
            assert power(nu, y + z, G) == multiply(power(nu, y, G), power(nu, z, G), G)
    assert identities >= 60
    # normalize of single letters, runs and pinch chains, in the wide-tail
    # groups too, against a push of every b spelled out as its own letter;
    # every tenth word also holds b^0 syllables, which GroupWord.of drops
    pinched = 0
    for G in WIDE_TAIL_GROUPS:
        for trial in range(60):
            w = _mixed_b_word(rng, G)
            if trial % 10 == 0:
                w = GroupWord(w.syllables + (("b", 0), ("a", 7), ("b", 0)))
            nf = normalize(w, G)
            _assert_normal(nf, G)
            assert nf == words._push((), 0, *_expanded_letters(w), G), (G, w)
            assert len(nf.prefix) == oracle_b_length(w, G, rng), (G, w)
            pinched += len(nf.prefix) < len(_expanded_letters(w)[0])
    assert pinched >= 150


# the signed groups, the reference chamber, BS(1, m) and n = m
WIDE_TAIL_GROUPS = SIGNED_GROUPS + [bs(2, 3), bs(1, 2), bs(2, 2), bs(-3, 5)]


def _spelled(*nfs):
    return GroupWord.of(syllable for nf in nfs for syllable in to_group_word(nf).syllables)


def test_wide_tails_cross_a_run_as_the_spelled_word_does():
    # u's tail is 100 to 20000 bits wide, just past the width of the right
    # factor's carry product C (a split) or at most half of it (none); the
    # right factor is random, u^-1 (every letter pinches) or u^-1 with
    # another tail (a partial cascade).  normalize starts from the identity
    # and never splits, so the spelled word is the reference
    rng = random.Random(33)
    identities = splits = checked = 0
    for G in WIDE_TAIL_GROUPS:
        widest = max(abs(G.n), abs(G.m)).bit_length()
        for trial in range(18):
            u = normalize(random_word(rng, max_b=rng.choice((4, 40, 300)), max_exp=99), G)
            v = normalize(random_word(rng, max_b=rng.choice((4, 40, 300)), max_exp=99), G)
            k = len(u.prefix if trial % 3 else v.prefix)  # v's b-length
            bits = (
                rng.randint(100, 20_000),
                max(k * widest, 64) + rng.randint(1, 3),
                rng.randint(1, max(k * widest // 2, 1)),
            )[trial // 3 % 3]
            splits += bits > max(k * widest, 64)
            tail = rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1 << (bits - 1))
            u = NormalForm(u.prefix, tail)
            if trial % 3 == 1:
                v = invert(u, G)
            elif trial % 3 == 2:
                delta = rng.randint(-9, 9) * (G.n * G.m) ** rng.randint(0, 9)
                v = invert(NormalForm(u.prefix, tail - delta), G)
            product = multiply(u, v, G)
            assert product == normalize(_spelled(u, v), G), (G, trial)
            assert invert(u, G) == normalize(inverse_word(to_group_word(u)), G), (G, trial)
            z = rng.randint(-3, 3)
            spelled = _spelled(*[u] * abs(z))
            assert power(u, z, G) == normalize(spelled if z > 0 else inverse_word(spelled), G)
            identities += product == IDENTITY
            if len(u.prefix) + len(v.prefix) <= 12:
                assert (product == IDENTITY) == oracle_is_identity(_spelled(u, v), G, rng)
                checked += 1
    assert identities >= 40 and splits >= 40 and checked >= 20


def test_a_wide_tail_crosses_a_run_in_one_division(monkeypatch):
    # a 100000-bit tail by b^500 in BS(2,3): one division of the full
    # width, where one per letter would make 500
    wide = []

    def counting_divmod(x, y):
        if x.bit_length() > 50_000:
            wide.append(x.bit_length())
        return divmod(x, y)

    u = NormalForm((), random.Random(7).getrandbits(100_000) | 1 << 99_999)
    v = word_nf("b^500", G23)
    monkeypatch.setattr(words, "divmod", counting_divmod, raising=False)
    product = multiply(u, v, G23)
    assert len(wide) == 1
    monkeypatch.undo()
    assert product == normalize(_spelled(u, v), G23)


def test_b_length_examples():
    assert word_nf("b a b^-1", G23).b_length == 2
    assert word_nf("b a^2 b^-1", G23).b_length == 0
    assert word_nf("b^3 a b^-1", G23).b_length == 4


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


def _rotate_by_multiplication(g, G):
    """cyclically_reduce by the loop that slicing the normal form replaced:
    each rotation conjugates the core by its first letter a^{s_1} b^{e_1}."""
    conj = IDENTITY
    core = g
    while core.prefix:
        s1, e1 = core.prefix[0]
        _, ek = core.prefix[-1]
        if ek != -e1:
            break
        c = abs(G.m) if e1 == 1 else abs(G.n)
        if (core.tail + s1) % c != 0:
            break
        w = NormalForm(((s1, e1),), 0)
        conj = multiply(conj, w, G)
        core = multiply(multiply(invert(w, G), core, G), w, G)
    return conj, core


# n, m of either sign, |n| = |m|, |n| = 1 and n | m
ROTATION_GROUPS = [
    bs(2, 3), bs(2, -3), bs(3, 4), bs(4, 6), bs(2, 2), bs(-2, 3),
    bs(3, -4), bs(1, 2), bs(1, -1), bs(1, 1), bs(-3, -5),
]


def test_cyclic_reduction_matches_rotation_by_multiplication():
    # 3300 conjugates u c u^-1; a bare a-power c rotates all the way down
    rng = random.Random(10)
    deep = 0
    for G in ROTATION_GROUPS:
        for _ in range(300):
            u = random_nf(rng, G, max_b=8, max_exp=10**6)
            if rng.random() < 0.4:
                c = NormalForm((), rng.randint(-(10**6), 10**6))
            else:
                c = random_nf(rng, G, max_b=4, max_exp=10**6)
            g = multiply(multiply(u, c, G), invert(u, G), G)
            conj, core = cyclically_reduce(g, G)
            assert (conj, core) == _rotate_by_multiplication(g, G), (G, g)
            deep += len(conj.prefix) >= 3
    assert deep >= 300


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
            if normalize(w, G) == IDENTITY:
                assert _affine_image(w, G) == (1, 0)
            built = with_inserted_relator(GroupWord(()), G, rng)
            assert normalize(built, G) == IDENTITY
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
            if normalize(u, G) == IDENTITY:
                assert (bu, au) == (0, 0)
