import random
from math import lcm

import pytest

from bsrig import (
    CosetProfile,
    HeckeElement,
    IDENTITY,
    a_power,
    amalgam_embed,
    bs,
    centralizes,
    coset_profile,
    decompose_self_inverse,
    double_coset,
    f_set,
    f_set_member,
    hecke_convolve,
    hecke_unit,
    invert,
    is_identity,
    multiply,
    normalize,
    qc_member,
    same_double_coset,
    word_nf,
)
from bsrig.oracles import oracle_convolve, oracle_profile, random_nf

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


def test_profile_against_brute_search():
    rng = random.Random(10)
    for G in (G23, bs(2, -3), bs(4, 6), bs(2, -2)):
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
        from bsrig.words import NormalForm, nf_sort_key

        for i in range(D.profile.r):
            cand = multiply(a_power(i), g, G23)
            assert nf_sort_key(D.representative) <= nf_sort_key(NormalForm(cand.prefix, 0))


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
    assert centralizes(word_nf("a", G23), 7, G23)
    assert centralizes(word_nf("b^2", bs(2, -2)), 2, bs(2, -2))
    assert not centralizes(word_nf("b", G23), 2, G23)
    with pytest.raises(ValueError):
        centralizes(word_nf("a", G23), 0, G23)


def test_amalgam_embed():
    assert amalgam_embed("c^2", G23).syllables == (("a", 2),)
    assert amalgam_embed("d", G23).syllables == (("b", -1), ("a", 1), ("b", 1))
    image = amalgam_embed(f"c^{G23.n} d^-{G23.m}", G23)
    assert is_identity(image, G23)
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
            assert not is_identity(image, G)


def test_amalgam_image_centralizes_the_core_subgroup():
    # the image subgroup <a, b^-1 a b> commutes with a^n: a trivially, and
    # b^-1 a b because (b^-1 a b)^m = b^-1 a^m b = a^n
    rng = random.Random(41)
    for G in (G23, bs(2, -3), bs(3, 5)):
        for _ in range(60):
            image = normalize(amalgam_embed(_random_reduced_amalgam_word(rng, G), G), G)
            assert centralizes(image, G.n, G)


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


def test_convolution_unit():
    rng = random.Random(17)
    unit = hecke_unit(G23)
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
                    want = want.add(HeckeElement.single(t.coset))
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
    lhs = hecke_convolve(b.add(e2), B, G23)
    rhs = hecke_convolve(b, B, G23).add(hecke_convolve(e2, B, G23))
    assert lhs == rhs


def test_hecke_element_addition_and_json():
    D = double_coset(word_nf("b", G23), G23)
    E = double_coset(IDENTITY, G23)
    x = HeckeElement.from_dict({D: 2, E: -1})
    y = HeckeElement.from_dict({D: -2, E: 3})
    assert x.add(y) == HeckeElement.from_dict({E: 2})
    assert x.as_json() == [{"coset": "e", "coeff": -1}, {"coset": "b", "coeff": 2}]
    assert x.coeff(D) == 2 and y.coeff(D) == -2
