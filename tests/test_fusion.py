import random
import re
from fractions import Fraction
from math import gcd

import pytest

from bsrig import (
    Irreducible,
    ONE,
    RootOfUnity,
    SignWitness,
    bs,
    candidates,
    coset_profile,
    decompose_self_inverse,
    double_coset,
    exchange_partners,
    invert,
    multiply,
    omega_member,
    sign_witness,
    word_nf,
)
from bsrig.oracles import (
    canonical_sum,
    enumerate_omega,
    isomorphic,
    oracle_decompose_self_inverse,
    oracle_exchange_partners,
    random_nf,
)
from bsrig.words import InternalError

G23 = bs(2, 3)


def test_root_of_unity_normalization():
    assert RootOfUnity.of(3, 12) == RootOfUnity(1, 4)
    assert RootOfUnity.of(-1, 12) == RootOfUnity(11, 12)
    assert RootOfUnity.of(7, 7) == ONE
    assert RootOfUnity.of(1, 3).power(-1) == RootOfUnity(2, 3)
    assert RootOfUnity.of(1, 12).power(12) == ONE
    assert str(RootOfUnity.of(5, 10)) == "1/2"


def test_root_of_unity_is_a_read_only_value():
    w = RootOfUnity(1, 3)
    for field in ("num", "den"):
        with pytest.raises(AttributeError):
            setattr(w, field, 2)
    assert (w.num, w.den) == (1, 3)
    assert repr(w) == "RootOfUnity(num=1, den=3)" and str(w) == "1/3"
    assert RootOfUnity.of(2, 6) == w and hash(RootOfUnity.of(2, 6)) == hash(w)
    assert w != RootOfUnity(2, 3) and w != (1, 3) and w != Fraction(1, 3)
    assert w.__eq__((1, 3)) is NotImplemented
    assert len({w, RootOfUnity.of(-2, -6), RootOfUnity(2, 3)}) == 2
    # the labels and certificates that hold roots keep comparing by value
    chi = Irreducible(char=RootOfUnity.of(4, 12))
    assert chi == Irreducible(char=w) and hash(chi) == hash(Irreducible(char=w))
    assert chi != Irreducible(char=RootOfUnity(2, 3))
    wit = sign_witness(2, 3)
    assert wit == SignWitness(1, RootOfUnity(1, 12), RootOfUnity(1, 18))
    assert hash(wit) == hash(sign_witness(2, 3)) and wit != sign_witness(2, -3)
    for n in range(2, 7):
        for m in [v for am in range(n + 1, 9) for v in (am, -am)]:
            wit, k = sign_witness(n, m), gcd(n, m)
            n0, m0 = n // k, m // k
            assert wit.omega == RootOfUnity.of(1, k * n0 ** (wit.t + 1) * m0**wit.t)
            assert wit.mu == RootOfUnity.of(1, k * n0**wit.t * m0 ** (wit.t + 1))


def _product(w, u):
    """Composition of character twists: angles add mod 1."""
    return RootOfUnity.of(w.num * u.den + u.num * w.den, w.den * u.den)


def test_char_product_examples():
    assert _product(RootOfUnity.of(1, 3), RootOfUnity.of(2, 3)) == ONE
    assert _product(RootOfUnity.of(1, 12), RootOfUnity.of(1, 18)) == RootOfUnity(5, 36)
    w = RootOfUnity.of(3, 7)
    assert _product(w, ONE) == w


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
    assert pool == sorted(pool, key=lambda w: Fraction(w.num, w.den))
    rng = random.Random(28)
    for _ in range(100):
        w, u = rng.choice(pool), rng.choice(pool)
        assert omega_member(_product(w, u), G23)
        assert omega_member(w.power(-1), G23)


def test_char_of():
    # the generating character of g is exp(2 pi i / r(g))
    def char_of(text):
        return RootOfUnity.of(1, coset_profile(word_nf(text, G23), G23).r)

    assert char_of("b") == RootOfUnity(1, 3)
    assert char_of("a") == ONE
    assert char_of("B") == RootOfUnity(1, 2)


def test_isomorphic():
    kb = Irreducible(coset=double_coset(word_nf("b", G23), G23))
    kb_conj = Irreducible(coset=double_coset(word_nf("a b A", G23), G23))
    assert isomorphic(kb, kb_conj, G23)
    assert not isomorphic(
        Irreducible(char=RootOfUnity.of(1, 3)),
        Irreducible(char=RootOfUnity.of(2, 3)),
        G23,
    )
    assert not isomorphic(kb, Irreducible(char=RootOfUnity.of(1, 3)), G23)
    trivial_coset = Irreducible(coset=double_coset(word_nf("a^5", G23), G23))
    assert isomorphic(trivial_coset, Irreducible(char=ONE), G23)
    assert (kb.left_dim, kb.right_dim) == (2, 3)


def test_tensor_dims():
    kb = canonical_sum([Irreducible(coset=double_coset(word_nf("b", G23), G23))])
    kB = canonical_sum([Irreducible(coset=double_coset(word_nf("B", G23), G23))])
    chi = canonical_sum([Irreducible(char=RootOfUnity.of(1, 3))])
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
    # r(b^2) = 9, so the labeled sum cannot close; the refusal names that
    # double coset
    with pytest.raises(ValueError) as refusal:
        decompose_self_inverse(word_nf("b^2", G23), G23)
    assert str(refusal.value) == (
        "labeled decomposition does not close for b^2: "
        "the conjugates in <a> b a b^-1 <a> have r=3 instead of r(g)=9"
    )
    assert coset_profile(word_nf("b^2 a^2 b^-2", G23), G23).r == 3
    assert coset_profile(word_nf("b^2", G23), G23).r == 9
    with pytest.raises(ValueError):
        decompose_self_inverse(word_nf("b", bs(1, 2)), bs(1, 2))


def _refusal(decompose, g, G):
    """The ValueError with which decompose refuses g, or None."""
    try:
        decompose(g, G)
    except ValueError as exc:
        return exc
    return None


def test_decompose_matches_the_conjugate_loop_oracle():
    # the residue walk and the loop over i agree, refusals included: both
    # refuse, and the coset the walk names is one of the conjugates, with
    # r != r(g)
    rng = random.Random(31)
    refused = 0
    for G in (bs(2, 3), bs(2, -3), bs(3, 4), bs(2, 2), bs(3, 6)):
        for _ in range(60):
            g = random_nf(rng, G, max_b=3, max_exp=12)
            want = _refusal(oracle_decompose_self_inverse, g, G)
            if want is None:
                assert decompose_self_inverse(g, G) == oracle_decompose_self_inverse(g, G), (G, g)
                continue
            got = _refusal(decompose_self_inverse, g, G)
            assert got is not None, (G, g)
            assert str(got).startswith(f"labeled decomposition does not close for {g}: ")
            named = double_coset(word_nf(re.search(r"in <a> (.*) <a> have", str(got))[1], G), G)
            p = coset_profile(g, G)
            assert named.profile.r != p.r
            i = int(re.search(r"at i=(\d+)", str(want))[1])
            conjugates = {
                double_coset(multiply(multiply(g, word_nf(f"a^{j}", G), G), invert(g, G), G), G)
                for j in range(1, p.l)
            }
            assert named in conjugates and 0 < i < p.l
            refused += 1
    assert refused >= 50


def test_a_leaf_with_two_conjugates_is_a_bug(monkeypatch):
    # b in BS(3,4) has l = 3, r = 4 and two conjugates b a^i B, each with
    # l = r = 4: one leaf holding both keeps the dimension sums at 12 = l r,
    # so only the one-conjugate-per-leaf check sees the repeated term
    G = bs(3, 4)
    g = word_nf("b", G)
    walk = candidates.residue_walk

    def one_leaf_of_two(*args):
        D, _ = next(walk(*args))
        yield D, 2

    cosets = decompose_self_inverse(g, G).terms[4:]
    assert [(t.left_dim, t.right_dim) for t in cosets] == [(4, 4)] * 2
    monkeypatch.setattr(candidates, "residue_walk", one_leaf_of_two)
    with pytest.raises(InternalError, match="2 conjugates of b share one leaf"):
        decompose_self_inverse(g, G)


def test_a_walk_that_loses_a_leaf_is_a_bug(monkeypatch):
    # b in BS(2,3) has l = 2, r = 3: without its one coset term the three
    # characters total 3 on each side instead of l r = 6
    monkeypatch.setattr(candidates, "residue_walk", lambda *args: iter(()))
    with pytest.raises(InternalError, match="dimension bookkeeping"):
        decompose_self_inverse(word_nf("b", G23), G23)


def test_decompose_builds_the_canonical_order():
    # the terms come out in canonical_sum's order without its sort, on a
    # grid of words a^s b^e a^t (b^f a^(s-t)), accepted and refused alike
    accepted = refused = 0
    for G in (bs(2, 3), bs(2, -3), bs(3, 4), bs(2, 2), bs(3, 6)):
        for e, f in ((1, 0), (-1, 0), (1, 1), (1, -1), (-1, 1), (-1, -1), (2, 0), (-2, 0)):
            for s in range(-2, 3):
                for t in range(-3, 4):
                    text = f"a^{s} b^{e} a^{t}" + (f" b^{f} a^{s - t}" if f else "")
                    g = word_nf(text, G)
                    if _refusal(oracle_decompose_self_inverse, g, G) is not None:
                        assert _refusal(decompose_self_inverse, g, G) is not None, (G, text)
                        refused += 1
                        continue
                    out = decompose_self_inverse(g, G)
                    assert out == canonical_sum(out.terms) == oracle_decompose_self_inverse(g, G), (G, text)
                    accepted += 1
    assert (accepted, refused) == (980, 420)


def test_refusals_stop_at_the_first_collapsing_leaf(monkeypatch):
    # a refusal canonicalises no more leaves than the loop over i makes
    # conjugates before it refuses: b^2 in BS(2,3), B^4 in BS(3,4) and the
    # refused sign patterns of the coset ladder benchmark, each in all three
    # of its groups
    leaf = candidates._leaf
    leaves = []
    monkeypatch.setattr(candidates, "_leaf", lambda top, G: leaves.append(top) or leaf(top, G))
    cases = [((2, 3), "b^2", 2), ((3, 4), "B^4", 4)]
    ladder = (
        "a b a b a^-29", "a^2 b a^2 b a^-12", "b^3 a^-17", "a b a^3 b^2 a^-6",
        "b^-2 a^-24", "b^-1 a b^-1 a^9", "a^2 b^-2 a^43",
    )
    for n, m in ((2, 3), (2, -3), (3, 4)):
        cases += [((n, m), text, None) for text in ladder]
    for (n, m), text, at in cases:
        G = bs(n, m)
        g = word_nf(text, G)
        want = _refusal(oracle_decompose_self_inverse, g, G)
        assert want is not None, (G, text)
        i = int(re.search(r"at i=(\d+)", str(want))[1])
        assert at in (None, i)
        leaves.clear()
        assert _refusal(decompose_self_inverse, g, G) is not None
        assert 1 <= len(leaves) <= i, (G, text, len(leaves), i)


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


def test_exchange_partners_are_all_L_solutions():
    # k = gcd(n, m) > 1 except in BS(2,3): Omega bounds the primes of k that
    # divide neither n0 nor m0, yet no solution of u^L = w^r falls outside
    rng = random.Random(44)
    for n, m in ((2, 3), (4, 6), (6, 10), (6, -10), (6, 9), (12, 18)):
        G = bs(n, m)
        pool = enumerate_omega(G, 40)
        for _ in range(15):
            w = rng.choice(pool)
            g = random_nf(rng, G, max_b=3, max_exp=10)
            p = coset_profile(g, G)
            partners = exchange_partners(w, g, G)
            assert partners == oracle_exchange_partners(w, g, G)
            assert len(partners) == abs(p.L)
            for mu in partners:
                assert mu.power(p.L) == w.power(p.r)
                assert omega_member(mu, G)


def test_exchange_partners_match_fraction_oracle():
    rng = random.Random(45)
    signed = 0
    for n, m in ((2, 3), (2, -3), (3, 4), (4, 6), (6, 10), (6, -10), (12, 18)):
        G = bs(n, m)
        pool = enumerate_omega(G, 36)
        elements = [word_nf(text, G) for text in ("a", "b", "B", "b^2 a B")]
        elements += [random_nf(rng, G, max_b=3, max_exp=10) for _ in range(12)]
        for g in elements:
            L = coset_profile(g, G).L
            for w in (ONE, *rng.sample(pool, 3)):
                assert exchange_partners(w, g, G) == oracle_exchange_partners(w, g, G)
                signed += L < 0 and w != ONE
    assert signed >= 30
    with pytest.raises(ValueError):
        oracle_exchange_partners(RootOfUnity.of(1, 5), word_nf("b", G23), G23)


def test_contragredient_dimension_swap():
    rng = random.Random(31)
    for _ in range(60):
        g = random_nf(rng, G23, max_b=3, max_exp=15)
        D = double_coset(g, G23)
        Dinv = double_coset(invert(g, G23), G23)
        assert (D.profile.l, D.profile.r) == (Dinv.profile.r, Dinv.profile.l)


def test_bimodule_sum_ordering():
    terms = [
        Irreducible(coset=double_coset(word_nf("b", G23), G23)),
        Irreducible(char=RootOfUnity.of(2, 3)),
        Irreducible(char=ONE),
    ]
    s = canonical_sum(terms)
    assert s.as_json() == [
        {"char": "0/1"},
        {"char": "2/3"},
        {"coset": "b", "l": 2, "r": 3},
    ]
    # characters over unlike denominators still sort by angle
    chars = [RootOfUnity.of(x, d) for x, d in ((3, 4), (1, 2), (2, 5), (1, 3), (5, 6), (0, 1))]
    mixed = canonical_sum(Irreducible(char=w) for w in chars)
    assert [t.char for t in mixed.terms] == sorted(chars, key=lambda w: Fraction(w.num, w.den))
