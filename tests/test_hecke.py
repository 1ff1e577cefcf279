import random
from math import lcm

import pytest

from bsrig import (
    CosetProfile,
    DoubleCoset,
    GroupWord,
    HeckeElement,
    IDENTITY,
    NormalForm,
    a_power,
    bs,
    candidates,
    coset_profile,
    decompose_self_inverse,
    double_coset,
    f_set,
    f_set_member,
    hecke,
    hecke_convolve,
    invert,
    multiply,
    normalize,
    qc_member,
    same_double_coset,
    word_nf,
    words,
)
from bsrig.oracles import (
    oracle_candidate_convolve,
    oracle_conjugates,
    oracle_convolve,
    oracle_profile,
    random_nf,
    scan_double_coset,
)
from bsrig.words import InternalError

G23 = bs(2, 3)


def all_standard_groups(max_abs_m=6):
    for n in range(2, max_abs_m + 1):
        for am in range(n, max_abs_m + 1):
            for m in (am, -am):
                yield bs(n, m)


def test_profile_of_b_letters_across_the_grid():
    for G in all_standard_groups():
        sign = 1 if G.m > 0 else -1
        assert coset_profile(word_nf("b", G), G) == CosetProfile(G.n, abs(G.m), sign * G.n)
        assert coset_profile(word_nf("B", G), G) == CosetProfile(abs(G.m), G.n, G.m)


def test_profile_examples():
    assert coset_profile(word_nf("a^5", G23), G23) == CosetProfile(1, 1, 1)
    assert coset_profile(word_nf("b a b^-1", G23), G23) == CosetProfile(3, 3, 3)
    assert coset_profile(word_nf("b^2", G23), G23) == CosetProfile(4, 9, 4)


def test_profile_postcondition_rejects_corrupted_triples(monkeypatch):
    # g a^L = a^r g pins both r and L: a fold that comes out with r + 1, -L
    # or L + 1 must fail the postcondition, g in <a> included
    profile = CosetProfile
    corruptions = (
        lambda l, r, L: profile(l, r + 1, L),
        lambda l, r, L: profile(l, r, -L),
        lambda l, r, L: profile(l, r, L + 1),
    )
    rng = random.Random(13)
    groups = (G23, bs(2, -3), bs(3, 4), bs(2, 2), bs(-2, 3), bs(1, 2))
    for G in groups:
        for k in range(30):
            g = a_power(rng.randint(-50, 50)) if k < 5 else random_nf(rng, G, max_b=4, max_exp=30)
            for corrupt in corruptions:
                with monkeypatch.context() as patch:
                    patch.setattr(hecke, "CosetProfile", corrupt)
                    with pytest.raises(InternalError):
                        coset_profile(g, G)


def test_conjugation_cascade_matches_the_product_oracle():
    # the cascade and g a^z = a^y g by two products accept and reject the
    # same (z, y): true profiles, their r + 1, -L and L + 1 corruptions,
    # multiples of them, and random z of either sign
    rng = random.Random(14)
    groups = (G23, bs(2, -3), bs(1, 1), bs(1, -1), bs(-2, 3), bs(-3, -5), bs(2, 2), bs(3, 6))
    accepted = rejected = 0
    for G in groups:
        for k in range(40):
            g = a_power(rng.randint(-50, 50)) if k < 5 else random_nf(rng, G, max_b=4, max_exp=30)
            p = coset_profile(g, G)
            pairs = [(p.L, p.r), (p.L, p.r + 1), (-p.L, p.r), (p.L + 1, p.r)]
            pairs += [(j * p.L, j * p.r) for j in (-3, -1, 2)]
            pairs += [(z, rng.randint(-90, 90)) for z in rng.sample(range(-60, 61), 4)]
            for z, y in pairs:
                verdict = hecke._conjugate_exponent(g, z, G) == y
                assert verdict == oracle_conjugates(g, z, y, G), (G, g, z, y)
                accepted += verdict
                rejected += not verdict
                centralizes = hecke._conjugate_exponent(g, z, G) == z
                assert centralizes == oracle_conjugates(g, z, z, G), (G, g, z)
    assert accepted > 1000 and rejected > 1000


def test_profile_and_double_coset_work_is_the_prefix_check(monkeypatch):
    # neither the profile postcondition nor double_coset does group
    # arithmetic: the check that a^i g has the chosen prefix is a carry
    # pass, which still rejects a wrong translate index or digit
    pushed = []
    push = words._push

    def counting_push(*args):
        pushed.append(args)
        return push(*args)

    translate = hecke._translate

    def off_by_one(letters, G):
        digits, (i, x, R, S) = translate(letters, G)
        return digits, (i + 1, x, R, S)

    def bumped(letters, G):
        digits, state = translate(letters, G)
        (t, e), *rest = digits
        return [(t + 1, e), *rest], state

    for G in (G23, bs(2, -3), bs(3, 4)):
        for text in ("a^5", "b", "B", "b^2 a B a^-1 b^3"):
            g = word_nf(text, G)
            with monkeypatch.context() as patch:
                patch.setattr(words, "_push", counting_push)
                coset_profile(g, G)
                double_coset(g, G)
                assert pushed == []
                multiply(g, g, G)  # the counter sees group arithmetic
                assert len(pushed) == 1
            pushed.clear()
            if g.prefix:
                for corrupt in (off_by_one, bumped):
                    with monkeypatch.context() as patch:
                        patch.setattr(hecke, "_translate", corrupt)
                        with pytest.raises(InternalError):
                            double_coset(g, G)


def test_profile_against_brute_search():
    rng = random.Random(10)
    groups = (G23, bs(2, -3), bs(4, 6), bs(2, -2), bs(-2, 3), bs(3, 2), bs(1, 2), bs(3, -4))
    for G in groups:
        for _ in range(40):
            g = random_nf(rng, G, max_b=3, max_exp=20)
            p = coset_profile(g, G)
            assert (p.l, p.r, p.L) == oracle_profile(g, G)


def test_l_equals_r_of_inverse():
    rng = random.Random(11)
    for _ in range(1000):
        g = random_nf(rng, G23, max_b=4, max_exp=100)
        p = coset_profile(g, G23)
        q = coset_profile(invert(g, G23), G23)
        assert p.l == q.r and p.r == q.l
        assert abs(p.L) == p.l


def test_profile_constant_on_double_cosets():
    rng = random.Random(12)
    for _ in range(200):
        g = random_nf(rng, G23, max_b=3, max_exp=30)
        i, j = rng.randint(-20, 20), rng.randint(-20, 20)
        translated = multiply(multiply(a_power(i), g, G23), a_power(j), G23)
        assert coset_profile(translated, G23) == coset_profile(g, G23)


def test_f_set_membership():
    assert f_set_member(2, G23)
    assert not f_set_member(5, G23)
    assert not f_set_member(3, bs(4, 6))  # k = 2 does not divide 3
    assert f_set_member(6, bs(4, 6))
    assert not f_set_member(2, bs(4, 6))  # k alone needs s + t > 0
    assert f_set_member(2, bs(2, 4))  # n0 = 1 frees the exponent
    with pytest.raises(ValueError):
        f_set_member(0, G23)
    with pytest.raises(ValueError):
        f_set_member(2, bs(1, 2))


def test_f_set_enumeration():
    assert f_set(2, G23) == {2, 3, 4, 6, 9}
    assert f_set(1, bs(4, 6)) == {4, 6}
    assert f_set(0, G23) == set()
    assert f_set(2, bs(2, 2)) == {2}


def test_observed_l_values_lie_in_f_set():
    rng = random.Random(13)
    seen = set()
    for _ in range(2000):
        g = random_nf(rng, G23, max_b=4, max_exp=8)
        p = coset_profile(g, G23)
        seen.add(p.l)
        assert p.l == 1 or f_set_member(p.l, G23)
        assert p.r == 1 or f_set_member(p.r, G23)
    assert {1, 2, 3, 4, 6, 9}.issubset(seen)


def test_profile_ratio_lies_in_the_cyclic_ratio_group():
    from fractions import Fraction

    rng = random.Random(40)
    for G in (G23, bs(2, -3), bs(4, 6), bs(2, -2)):
        base = Fraction(G.n, abs(G.m))
        for _ in range(150):
            p = coset_profile(random_nf(rng, G, max_b=4, max_exp=15), G)
            ratio = Fraction(p.l, p.r)
            if base == 1:
                assert ratio == 1
                continue
            while ratio < 1:
                ratio /= base
            while ratio > 1:
                ratio *= base
            assert ratio == 1


def test_double_coset_canonical_representative():
    D = double_coset(word_nf("a^2 b a^5", G23), G23)
    assert str(D) == "b"
    assert not same_double_coset(word_nf("b", G23), word_nf("B", G23), G23)
    rng = random.Random(14)
    for _ in range(100):
        g = random_nf(rng, G23, max_b=3, max_exp=20)
        conj = multiply(multiply(a_power(1), g, G23), a_power(-1), G23)
        assert same_double_coset(g, conj, G23)
        D = double_coset(g, G23)
        assert D.representative.tail == 0
        # minimal among all tail-zeroed left translates
        for i in range(D.profile.r):
            cand = NormalForm(multiply(a_power(i), g, G23).prefix, 0)
            assert D.sort_key() <= DoubleCoset(cand, D.profile).sort_key()
    # the digit-by-digit choice equals the scan over all r(g) translates
    groups = (
        bs(2, -3), bs(3, 4), bs(2, 2), bs(2, -2), bs(-2, 3),
        bs(3, 2), bs(1, 2), bs(1, -1), bs(3, -4), bs(-4, -6),
    )
    for G in groups:
        compared = 0
        while compared < 30:
            g = random_nf(rng, G, max_b=4, max_exp=40)
            if coset_profile(g, G).r <= 2000:
                assert double_coset(g, G) == scan_double_coset(g, G), (G, g)
                compared += 1
    # far past any scan: r(b^200) = 3^200
    D = double_coset(word_nf("b^200", G23), G23)
    assert str(D) == "b^200"
    assert D.profile == CosetProfile(2**200, 3**200, 2**200)


def test_double_coset_membership_enumeration():
    # b^-1 is in no <a>-double coset of b: check small translates directly
    b = word_nf("b", G23)
    B = word_nf("B", G23)
    for i in range(-4, 5):
        for j in range(-4, 5):
            cand = multiply(multiply(a_power(i), b, G23), a_power(j), G23)
            assert cand != B


def test_qc_member():
    assert qc_member(word_nf("a^9", G23), G23)
    assert qc_member(word_nf("b", bs(2, 2)), bs(2, 2))
    assert not qc_member(word_nf("b", bs(2, -2)), bs(2, -2))
    assert qc_member(word_nf("b a b^-1", G23), G23)
    # definition through the word problem
    g = word_nf("b a b^-1", G23)
    p = coset_profile(g, G23)
    assert multiply(multiply(g, a_power(p.l), G23), invert(g, G23), G23) == a_power(p.l)


def test_qc_is_a_normal_subgroup_on_samples():
    rng = random.Random(15)
    G = bs(2, -2)
    members = []
    for _ in range(300):
        g = random_nf(rng, G, max_b=3, max_exp=10)
        if qc_member(g, G):
            members.append(g)
    assert len(members) >= 20
    for _ in range(60):
        g, h = rng.choice(members), rng.choice(members)
        assert qc_member(multiply(g, h, G), G)
        assert qc_member(invert(g, G), G)
        x = random_nf(rng, G, max_b=2, max_exp=10)
        assert qc_member(multiply(multiply(x, g, G), invert(x, G), G), G)


def test_centralizes():
    # g a^z = a^z g iff the cascade conjugates a^z to itself
    assert hecke._conjugate_exponent(word_nf("a", G23), 7, G23) == 7
    assert hecke._conjugate_exponent(word_nf("b^2", bs(2, -2)), 2, bs(2, -2)) == 2
    assert hecke._conjugate_exponent(word_nf("b", G23), 2, G23) != 2


def amalgam_embed(text, G):
    """Letterwise substitution c -> a, d -> b^-1 a b on a word over c, d.
    The image generates <a, b^-1 a b>, an amalgam of two copies of Z glued
    along nZ and mZ when 2 <= n <= |m| and |m| != 2."""
    G.require_standard("amalgam embedding")
    if abs(G.m) == 2:
        raise ValueError("amalgam embedding needs |m| != 2")
    items = []
    for term in text.split():
        letter, _, exp = term.partition("^")
        e = int(exp) if exp else 1
        if letter == "c":
            items.append(("a", e))
        elif letter == "d":
            items += [("b", -1), ("a", e), ("b", 1)]
        else:
            raise ValueError(f"unexpected letter {letter!r}")
    return GroupWord.of(items)


def test_amalgam_embed():
    assert amalgam_embed("c^2", G23).syllables == (("a", 2),)
    assert amalgam_embed("d", G23).syllables == (("b", -1), ("a", 1), ("b", 1))
    image = amalgam_embed(f"c^{G23.n} d^-{G23.m}", G23)
    assert normalize(image, G23) == IDENTITY
    with pytest.raises(Exception):
        amalgam_embed("c x", G23)
    with pytest.raises(ValueError):
        amalgam_embed("c", bs(2, 2))
    with pytest.raises(ValueError):
        amalgam_embed("c", bs(2, -2))


def _random_reduced_amalgam_word(rng, G):
    # c^{n_0} d^{m_1} c^{n_1} ... d^{m_k} c^{n_k}, interior c-exponents
    # outside nZ, all d-exponents outside mZ
    k = rng.randint(0, 3)
    parts = []
    n0 = rng.randint(-8, 8)
    if k == 0 and n0 == 0:
        n0 = 1
    if n0:
        parts.append(f"c^{n0}")
    for i in range(k):
        e = 0
        while e % G.m == 0:
            e = rng.randint(-8, 8)
        parts.append(f"d^{e}")
        if i < k - 1:
            e = 0
            while e % G.n == 0:
                e = rng.randint(-8, 8)
            parts.append(f"c^{e}")
        else:
            e = rng.randint(-8, 8)
            if e and e % G.n == 0:
                e += 1
            if e:
                parts.append(f"c^{e}")
    return " ".join(parts)


def test_amalgam_injectivity_on_reduced_words():
    rng = random.Random(16)
    for G in (G23, bs(2, -3), bs(3, 5)):
        for _ in range(150):
            text = _random_reduced_amalgam_word(rng, G)
            image = amalgam_embed(text, G)
            assert normalize(image, G) != IDENTITY


def test_amalgam_image_centralizes_the_core_subgroup():
    # the image subgroup <a, b^-1 a b> commutes with a^n: a trivially, and
    # b^-1 a b because (b^-1 a b)^m = b^-1 a^m b = a^n
    rng = random.Random(41)
    for G in (G23, bs(2, -3), bs(3, 5)):
        for _ in range(60):
            image = normalize(amalgam_embed(_random_reduced_amalgam_word(rng, G), G), G)
            assert hecke._conjugate_exponent(image, G.n, G) == G.n


def test_qc_member_matches_word_problem_definition():
    rng = random.Random(42)
    for G in (G23, bs(2, -2), bs(2, 2), bs(4, 6)):
        for _ in range(150):
            g = random_nf(rng, G, max_b=3, max_exp=15)
            l = coset_profile(g, G).l
            direct = multiply(multiply(g, a_power(l), G), invert(g, G), G) == a_power(l)
            assert qc_member(g, G) == direct


def test_lcm_l_values():
    def lcm_l(*texts):
        return lcm(*(coset_profile(word_nf(t, G23), G23).l for t in texts))

    assert lcm_l("a") == 1
    assert lcm_l("b", "B") == 6
    assert lcm_l("b a b^-1") == 3
    # the lcm of l-values is again an l-value
    assert lcm_l("b", "b^2") == 4 == coset_profile(word_nf("b^2", G23), G23).l
    assert f_set_member(lcm_l("b", "b^2"), G23)


def _add(x, y):
    """The sum of two Hecke elements, a merge of their terms."""
    acc = dict(x.terms)
    for D, c in y.terms:
        acc[D] = acc.get(D, 0) + c
    return HeckeElement.from_dict(acc)


def test_convolution_unit():
    rng = random.Random(17)
    unit = HeckeElement.single(double_coset(IDENTITY, G23))
    for _ in range(20):
        x = HeckeElement.single(double_coset(random_nf(rng, G23, max_b=2, max_exp=10), G23))
        assert hecke_convolve(unit, x, G23) == x
        assert hecke_convolve(x, unit, G23) == x


def test_convolution_frozen_instance():
    Tb = HeckeElement.single(double_coset(word_nf("b", G23), G23))
    TB = HeckeElement.single(double_coset(word_nf("B", G23), G23))
    prod = hecke_convolve(Tb, TB, G23)
    assert prod.as_json() == [
        {"coset": "e", "coeff": 3},
        {"coset": "b a b^-1", "coeff": 1},
    ]


def test_convolution_degree_identity():
    rng = random.Random(18)
    pairs = [(word_nf("b^4", G23), word_nf("B^4", G23))]
    for _ in range(25):
        g = random_nf(rng, G23, max_b=2, max_exp=8)
        pairs.append((g, random_nf(rng, G23, max_b=2, max_exp=8)))
    for g, h in pairs:
        d, e = double_coset(g, G23), double_coset(h, G23)
        prod = hecke_convolve(HeckeElement.single(d), HeckeElement.single(e), G23)
        assert sum(c * F.profile.l for F, c in prod.terms) == d.profile.l * e.profile.l


def test_convolution_matches_definition_oracle():
    rng = random.Random(23)
    coeffs = (-3, -2, -1, 2, 3)
    for G in (bs(2, 3), bs(2, -3), bs(3, 4), bs(2, 2), bs(2, -2), bs(3, 6)):
        for _ in range(40):
            x = HeckeElement.single(
                double_coset(random_nf(rng, G, max_b=2, max_exp=8), G), rng.choice(coeffs)
            )
            y = HeckeElement.from_dict({
                double_coset(random_nf(rng, G, max_b=2, max_exp=8), G): rng.choice(coeffs)
                for _ in range(2)
            })
            assert hecke_convolve(x, y, G) == oracle_convolve(x, y, G)
    # gcd(l(d), r(e)) < l(d): the candidates repeat with a shorter period
    for G in (bs(2, 3), bs(2, -3), bs(3, 4)):
        for k in (2, 3):
            d = double_coset(word_nf(f"b^{k}", G), G)
            for text in ("a", "a^5", "b", "b a^2", "b^2 a", "b^2 a^3", "B"):
                e = double_coset(word_nf(text, G), G)
                x, y = HeckeElement.single(d), HeckeElement.single(e, rng.choice(coeffs))
                assert hecke_convolve(x, y, G) == oracle_convolve(x, y, G)


def test_convolution_matches_the_candidate_loop():
    # the residue walk against the loop that canonicalises each candidate
    # d a^i e on its own, at b-length up to 3, and against the definition
    rng = random.Random(32)
    for G in (bs(2, 3), bs(2, -3), bs(3, 4), bs(2, 2), bs(3, 6)):
        for k in range(40):
            x = HeckeElement.single(double_coset(random_nf(rng, G, max_b=3, max_exp=12), G), rng.choice((1, -2)))
            y = HeckeElement.from_dict({
                double_coset(random_nf(rng, G, max_b=3, max_exp=12), G): rng.choice((1, 3))
                for _ in range(2)
            })
            prod = hecke_convolve(x, y, G)
            assert prod == oracle_candidate_convolve(x, y, G), (G, x, y)
            if k < 8:
                assert prod == oracle_convolve(x, y, G), (G, x, y)


def test_convolution_work_follows_gcd(monkeypatch):
    # the walk canonicalises at most gcd(l(d), r(e)) leaves, one per class
    # of candidates d a^i e sharing a prefix
    leaf = candidates._leaf

    def convolve_counting(u, v):
        x, y = (HeckeElement.single(double_coset(word_nf(t, G23), G23)) for t in (u, v))
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(candidates, "_leaf", lambda top, G: calls.append(top) or leaf(top, G))
            return hecke_convolve(x, y, G23), len(calls)

    prod, calls = convolve_counting("b^16", "a")
    assert calls == 1 and prod.as_json() == [{"coset": "b^16", "coeff": 1}]
    prod, calls = convolve_counting("b^4", "B^4")
    assert calls == 16 and dict(prod.terms)[double_coset(IDENTITY, G23)] == 3**4


def test_each_translate_step_of_the_walk_covers_one_letter(monkeypatch):
    # every cell of the walk carries its translate state, so the pass
    # advances one letter per cell and a leaf resumes over none; d d^-1
    # for d = b a b a B B has single-candidate classes three letters deep
    translate = candidates._translate
    steps = []

    def counting(letters, G, *state):
        steps.append(len(letters))
        return translate(letters, G, *state)

    rng = random.Random(5)
    for G in (G23, bs(2, -3), bs(3, 4)):
        elements = [word_nf(text, G) for text in ("b a b a B B", "b^3", "b a B", "a b^2 a^-1 B")]
        elements += [random_nf(rng, G, max_b=3, max_exp=9) for _ in range(6)]
        for g in elements:
            D, Dinv = double_coset(g, G), double_coset(invert(g, G), G)
            with monkeypatch.context() as patch:
                patch.setattr(candidates, "_translate", counting)
                hecke_convolve(HeckeElement.single(D), HeckeElement.single(Dinv), G)
                hecke_convolve(HeckeElement.single(Dinv), HeckeElement.single(D), G)
                try:
                    decompose_self_inverse(g, G)
                except ValueError:  # conjugates in one double coset
                    pass
    assert steps and set(steps) == {1}, sorted(set(steps))


def test_a_fractional_coefficient_is_a_bug(monkeypatch):
    # T_b * T_B in BS(2,3) weighs each leaf by l(B) = 3 over the leaf's l;
    # a leaf in the coset of b, with l = 2, would get the coefficient 3/2
    b = double_coset(word_nf("b", G23), G23)
    B = double_coset(word_nf("B", G23), G23)
    monkeypatch.setattr(candidates, "residue_walk", lambda *args: iter([(b, 1)]))
    with pytest.raises(InternalError, match="is not an integer"):
        hecke_convolve(HeckeElement.single(b), HeckeElement.single(B), G23)


def test_a_walk_that_miscounts_a_leaf_is_a_bug(monkeypatch):
    # T_b * T_B in BS(2,3) is 3 T_e + T_{b a B}, right degrees 3 * 1 + 1 * 3
    # = 6 = r(b) r(B); doubling the count of one leaf keeps every coefficient
    # an integer and only the right degree sum sees it
    b = double_coset(word_nf("b", G23), G23)
    B = double_coset(word_nf("B", G23), G23)
    walk = candidates.residue_walk

    def first_leaf_doubled(*args):
        leaves = walk(*args)
        F, count = next(leaves)
        yield F, 2 * count
        yield from leaves

    x, y = HeckeElement.single(b), HeckeElement.single(B)
    assert sum(c * F.profile.r for F, c in hecke_convolve(x, y, G23).terms) == 6
    monkeypatch.setattr(candidates, "residue_walk", first_leaf_doubled)
    with pytest.raises(InternalError, match=r"right degrees of b \* b\^-1 sum to 9, not 3 \* 2"):
        hecke_convolve(x, y, G23)


def test_self_inverse_product_matches_decomposition():
    # T_g * T_{g^-1} = r(g) T_e + the sum of the decomposition's coset terms
    rng = random.Random(24)
    accepted = 0
    for G in (bs(2, 3), bs(2, -3), bs(3, 4)):
        for _ in range(80):
            g = random_nf(rng, G, max_b=2, max_exp=8)
            if not g.prefix:
                continue
            try:
                dec = decompose_self_inverse(g, G)
            except ValueError:
                continue
            accepted += 1
            prod = hecke_convolve(
                HeckeElement.single(double_coset(g, G)),
                HeckeElement.single(double_coset(invert(g, G), G)),
                G,
            )
            want = HeckeElement.single(double_coset(IDENTITY, G), coset_profile(g, G).r)
            for t in dec.terms:
                if t.coset is not None:
                    want = _add(want, HeckeElement.single(t.coset))
            assert prod == want
    assert accepted >= 60


def test_convolution_representative_independence():
    rng = random.Random(19)
    for _ in range(15):
        g = random_nf(rng, G23, max_b=2, max_exp=8)
        h = random_nf(rng, G23, max_b=2, max_exp=8)
        g2 = multiply(multiply(a_power(rng.randint(-6, 6)), g, G23), a_power(rng.randint(-6, 6)), G23)
        h2 = multiply(multiply(a_power(rng.randint(-6, 6)), h, G23), a_power(rng.randint(-6, 6)), G23)
        lhs = hecke_convolve(
            HeckeElement.single(double_coset(g, G23)),
            HeckeElement.single(double_coset(h, G23)),
            G23,
        )
        rhs = hecke_convolve(
            HeckeElement.single(double_coset(g2, G23)),
            HeckeElement.single(double_coset(h2, G23)),
            G23,
        )
        assert lhs == rhs


def test_convolution_associative_on_samples():
    rng = random.Random(20)
    for _ in range(6):
        xs = [
            HeckeElement.single(double_coset(random_nf(rng, G23, max_b=1, max_exp=6), G23))
            for _ in range(3)
        ]
        left = hecke_convolve(hecke_convolve(xs[0], xs[1], G23), xs[2], G23)
        right = hecke_convolve(xs[0], hecke_convolve(xs[1], xs[2], G23), G23)
        assert left == right


def test_convolution_is_bilinear():
    b = HeckeElement.single(double_coset(word_nf("b", G23), G23))
    B = HeckeElement.single(double_coset(word_nf("B", G23), G23))
    e2 = HeckeElement.single(double_coset(IDENTITY, G23), 2)
    lhs = hecke_convolve(_add(b, e2), B, G23)
    rhs = _add(hecke_convolve(b, B, G23), hecke_convolve(e2, B, G23))
    assert lhs == rhs


def test_hecke_element_addition_and_json():
    D = double_coset(word_nf("b", G23), G23)
    E = double_coset(IDENTITY, G23)
    x = HeckeElement.from_dict({D: 2, E: -1})
    y = HeckeElement.from_dict({D: -2, E: 3})
    assert _add(x, y) == HeckeElement.from_dict({E: 2})
    assert x.as_json() == [{"coset": "e", "coeff": -1}, {"coset": "b", "coeff": 2}]
    assert dict(x.terms)[D] == 2 and dict(y.terms)[D] == -2
