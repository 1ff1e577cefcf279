import random

import pytest

from bsrig import (
    BimoduleSum,
    Irreducible,
    ONE,
    RootOfUnity,
    bs,
    char_of,
    char_product,
    coset_profile,
    decompose_self_inverse,
    double_coset,
    enumerate_omega,
    exchange_partners,
    invert,
    isomorphic,
    omega_member,
    word_nf,
)
from bsrig.oracles import random_nf

G23 = bs(2, 3)


def test_root_of_unity_normalization():
    assert RootOfUnity.of(3, 12) == RootOfUnity(1, 4)
    assert RootOfUnity.of(-1, 12) == RootOfUnity(11, 12)
    assert RootOfUnity.of(7, 7) == ONE
    assert RootOfUnity.of(1, 3).power(-1) == RootOfUnity(2, 3)
    assert RootOfUnity.of(1, 12).power(12) == ONE
    assert str(RootOfUnity.of(5, 10)) == "1/2"


def test_char_product_examples():
    assert char_product(RootOfUnity.of(1, 3), RootOfUnity.of(2, 3)) == ONE
    assert char_product(RootOfUnity.of(1, 12), RootOfUnity.of(1, 18)) == RootOfUnity(5, 36)
    w = RootOfUnity.of(3, 7)
    assert char_product(w, ONE) == w


def test_omega_membership():
    assert omega_member(RootOfUnity.of(1, 12), G23)
    assert omega_member(ONE, G23)
    assert not omega_member(RootOfUnity.of(1, 5), G23)
    assert omega_member(RootOfUnity.of(1, 8), bs(2, 4))
    assert not omega_member(RootOfUnity.of(1, 9), bs(2, 4))
    with pytest.raises(ValueError):
        omega_member(ONE, bs(1, 2))


def test_omega_closed_under_product_and_inverse():
    pool = enumerate_omega(G23, 36)
    assert RootOfUnity.of(1, 12) in pool
    rng = random.Random(28)
    for _ in range(100):
        w, u = rng.choice(pool), rng.choice(pool)
        assert omega_member(char_product(w, u), G23)
        assert omega_member(w.inverse(), G23)


def test_char_of():
    assert char_of(word_nf("b", G23), G23) == RootOfUnity(1, 3)
    assert char_of(word_nf("a", G23), G23) == ONE
    assert char_of(word_nf("B", G23), G23) == RootOfUnity(1, 2)


def test_isomorphic():
    kb = Irreducible.coset_module(double_coset(word_nf("b", G23), G23))
    kb_conj = Irreducible.coset_module(double_coset(word_nf("a b A", G23), G23))
    assert isomorphic(kb, kb_conj, G23)
    assert not isomorphic(
        Irreducible.character(RootOfUnity.of(1, 3)),
        Irreducible.character(RootOfUnity.of(2, 3)),
        G23,
    )
    assert not isomorphic(kb, Irreducible.character(RootOfUnity.of(1, 3)), G23)
    trivial_coset = Irreducible.coset_module(double_coset(word_nf("a^5", G23), G23))
    assert isomorphic(trivial_coset, Irreducible.character(ONE), G23)
    assert (kb.left_dim, kb.right_dim) == (2, 3)


def test_tensor_dims():
    kb = BimoduleSum.of([Irreducible.coset_module(double_coset(word_nf("b", G23), G23))])
    kB = BimoduleSum.of([Irreducible.coset_module(double_coset(word_nf("B", G23), G23))])
    chi = BimoduleSum.of([Irreducible.character(RootOfUnity.of(1, 3))])
    # dimensions of a relative tensor product multiply on each side
    def dims(x, y):
        return x.left_dim * y.left_dim, x.right_dim * y.right_dim

    assert (kb.left_dim, kb.right_dim, kB.left_dim, kB.right_dim) == (2, 3, 3, 2)
    assert (chi.left_dim, chi.right_dim) == (1, 1)
    assert dims(kb, kB) == (6, 6)
    assert dims(kb, kb) == (4, 9)
    assert dims(chi, kb) == (2, 3)
    assert dims(kb, chi) == (2, 3)


def test_decompose_b_exactly():
    dec = decompose_self_inverse(word_nf("b", G23), G23)
    assert dec.as_json() == [
        {"char": "0/1"},
        {"char": "1/3"},
        {"char": "2/3"},
        {"coset": "b a b^-1", "l": 3, "r": 3},
    ]
    assert dec.left_dim == dec.right_dim == 6


def test_decompose_b_inverse_exactly():
    dec = decompose_self_inverse(word_nf("B", G23), G23)
    assert dec.as_json() == [
        {"char": "0/1"},
        {"char": "1/2"},
        {"coset": "b^-1 a b", "l": 2, "r": 2},
        {"coset": "b^-1 a^2 b", "l": 2, "r": 2},
    ]
    assert dec.left_dim == dec.right_dim == 6


def test_decompose_identity_like():
    dec = decompose_self_inverse(word_nf("a^4", G23), G23)
    assert dec.as_json() == [{"char": "0/1"}]


def test_decompose_dimension_conservation_and_nonisomorphism():
    rng = random.Random(29)
    for G in (G23, bs(2, -3)):
        done = 0
        while done < 100:
            g = random_nf(rng, G, max_b=2, max_exp=15)
            try:
                dec = decompose_self_inverse(g, G)
            except ValueError:
                continue
            done += 1
            p = coset_profile(g, G)
            assert dec.left_dim == p.l * p.r
            assert dec.right_dim == p.l * p.r
            for i, x in enumerate(dec.terms):
                for y in dec.terms[i + 1 :]:
                    assert not isomorphic(x, y, G)


def test_decompose_rejects_collapsing_conjugates():
    # b^2 a^2 b^-2 collapses to b a^3 b^-1 whose index r = 3 differs from
    # r(b^2) = 9, so the labeled sum cannot close
    with pytest.raises(ValueError, match="does not close"):
        decompose_self_inverse(word_nf("b^2", G23), G23)
    assert coset_profile(word_nf("b^2 a^2 b^-2", G23), G23).r == 3
    assert coset_profile(word_nf("b^2", G23), G23).r == 9
    with pytest.raises(ValueError):
        decompose_self_inverse(word_nf("b", bs(1, 2)), bs(1, 2))


def test_exchange_partners_examples():
    partners = exchange_partners(ONE, word_nf("a", G23), G23)
    assert partners == {ONE}
    partners = exchange_partners(RootOfUnity.of(1, 3), word_nf("B", G23), G23)
    assert partners == {RootOfUnity(2, 9), RootOfUnity(5, 9), RootOfUnity(8, 9)}
    G2m3 = bs(2, -3)
    partners = exchange_partners(RootOfUnity.of(1, 3), word_nf("B", G2m3), G2m3)
    assert partners == {RootOfUnity(1, 9), RootOfUnity(4, 9), RootOfUnity(7, 9)}


def test_exchange_partners_brute_force_agreement():
    rng = random.Random(30)
    pool = enumerate_omega(G23, 24)
    big = enumerate_omega(G23, 216)
    for _ in range(50):
        w = rng.choice(pool)
        g = random_nf(rng, G23, max_b=2, max_exp=10)
        p = coset_profile(g, G23)
        partners = exchange_partners(w, g, G23)
        target = w.power(p.r)
        for mu in partners:
            assert mu.power(p.L) == target
        brute = {mu for mu in big if mu.power(p.L) == target}
        assert {mu for mu in partners if mu.den <= 216} == brute
    with pytest.raises(ValueError):
        exchange_partners(RootOfUnity.of(1, 5), word_nf("b", G23), G23)


def test_exchange_partners_agree_with_relation_predicate():
    rng = random.Random(43)
    pool = enumerate_omega(G23, 18)
    for _ in range(30):
        w = rng.choice(pool)
        g = random_nf(rng, G23, max_b=2, max_exp=10)
        partners = exchange_partners(w, g, G23)
        p = coset_profile(g, G23)
        # the exchange relation w^{r(g)} = u^{L(g)}
        for mu in partners:
            assert omega_member(mu, G23) and w.power(p.r) == mu.power(p.L)
        others = {mu for mu in enumerate_omega(G23, 9 * w.den) if mu not in partners}
        for mu in list(others)[:40]:
            if mu.den <= abs(p.L) * w.den:
                assert w.power(p.r) != mu.power(p.L)


def test_contragredient_dimension_swap():
    rng = random.Random(31)
    for _ in range(60):
        g = random_nf(rng, G23, max_b=3, max_exp=15)
        D = double_coset(g, G23)
        Dinv = double_coset(invert(g, G23), G23)
        assert (D.profile.l, D.profile.r) == (Dinv.profile.r, Dinv.profile.l)


def test_bimodule_sum_ordering():
    terms = [
        Irreducible.coset_module(double_coset(word_nf("b", G23), G23)),
        Irreducible.character(RootOfUnity.of(2, 3)),
        Irreducible.character(ONE),
    ]
    s = BimoduleSum.of(terms)
    assert s.as_json() == [
        {"char": "0/1"},
        {"char": "2/3"},
        {"coset": "b", "l": 2, "r": 3},
    ]
