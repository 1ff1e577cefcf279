import random
from types import SimpleNamespace

import pytest

from bsrig import (
    ABS_M_MISMATCH,
    N_MISMATCH,
    NO_OBSTRUCTION,
    ONE,
    SIGN_MISMATCH,
    RootOfUnity,
    bs,
    canonicalize,
    coset_profile,
    crossed_product_obstruction,
    is_amenable,
    is_isomorphic,
    omega_member,
    recover_parameters,
    rigidity,
    sign_witness,
    word_nf,
)
from bsrig.oracles import random_nf
from bsrig.words import InternalError

NONZERO = [v for v in range(-6, 7) if v]


def test_canonicalize_examples():
    assert canonicalize(-2, -3) == (2, 3)
    assert canonicalize(3, 2) == (2, 3)
    assert canonicalize(-3, 2) == (2, -3)
    assert canonicalize(1, 5) == (1, 5)
    assert canonicalize(5, -1) == (1, -5)
    assert canonicalize(2, -2) == (2, -2)
    assert canonicalize(-2, 2) == (2, -2)
    with pytest.raises(ValueError):
        canonicalize(0, 2)


def test_canonicalize_idempotent_and_in_chamber():
    for n in NONZERO:
        for m in NONZERO:
            c = canonicalize(n, m)
            assert 1 <= c[0] <= abs(c[1])
            assert canonicalize(*c) == c
            assert is_isomorphic(n, m, *c)


def test_is_isomorphic_examples():
    assert is_isomorphic(2, 3, 3, 2)
    assert not is_isomorphic(2, 3, 2, -3)
    assert is_isomorphic(2, 3, 2, 3)
    assert is_isomorphic(2, 3, -2, -3)
    assert is_isomorphic(2, 2, -2, -2)


def test_is_isomorphic_matches_canonical_forms():
    # is_isomorphic compares canonical forms; the multiset criterion
    # {n1, m1} = {eps n2, eps m2} is the independent check
    for n1 in NONZERO:
        for m1 in NONZERO:
            mine = sorted((n1, m1))
            for n2 in NONZERO:
                for m2 in NONZERO:
                    multiset = mine == sorted((n2, m2)) or mine == sorted((-n2, -m2))
                    assert is_isomorphic(n1, m1, n2, m2) == multiset


def test_is_isomorphic_is_an_equivalence():
    rng = random.Random(32)
    pairs = [(rng.choice(NONZERO), rng.choice(NONZERO)) for _ in range(25)]
    for p in pairs:
        assert is_isomorphic(*p, *p)
    for p in pairs:
        for q in pairs:
            assert is_isomorphic(*p, *q) == is_isomorphic(*q, *p)
    for p in pairs:
        for q in pairs:
            for r in pairs:
                if is_isomorphic(*p, *q) and is_isomorphic(*q, *r):
                    assert is_isomorphic(*p, *r)


def test_is_amenable():
    assert is_amenable(1, 5)
    assert is_amenable(-1, 7)
    assert is_amenable(7, -1)
    assert not is_amenable(2, 2)
    assert not is_amenable(2, 3)


def test_recover_parameters_examples():
    assert recover_parameters({(2, 3), (3, 2), (4, 9), (1, 1)}) == (2, 3)
    assert recover_parameters({(2, 2), (4, 4)}) == (2, 2)
    assert recover_parameters({(4, 6), (6, 4)}) == (4, 6)
    with pytest.raises(ValueError):
        recover_parameters({(1, 1)})
    # 3/4 is the largest ratio below 1, and 2 * 4/3 is no integer
    for sample in ({(3, 4), (2, 5)}, {(6, 8), (2, 5)}):
        with pytest.raises(ValueError, match=r"^sampled ratios are inconsistent: n=2, generator=3/4$"):
            recover_parameters(sample)


def test_recover_parameters_from_sampled_profiles():
    rng = random.Random(33)
    for n in range(2, 7):
        for am in range(n, 7):
            for m in (am, -am):
                G = bs(n, m)
                profiles = {(n, abs(m)), (abs(m), n)}  # b and b^-1 are always sampled
                for _ in range(60):
                    g = random_nf(rng, G, max_b=3, max_exp=10)
                    p = coset_profile(g, G)
                    profiles.add((p.l, p.r))
                assert recover_parameters(profiles) == (n, abs(m))


def test_sign_witness_2_3():
    wit = sign_witness(2, 3)
    assert wit.t == 1
    assert wit.omega == RootOfUnity(1, 12)
    assert wit.mu == RootOfUnity(1, 18)
    assert wit.omega.power(2) == wit.mu.power(3) == RootOfUnity(1, 6)
    assert wit.mu.power(6) == RootOfUnity(1, 3) != ONE


def test_sign_witness_2_4():
    wit = sign_witness(2, 4)
    assert wit.t == 2
    assert wit.omega == RootOfUnity(1, 8)
    assert wit.mu == RootOfUnity(1, 16)
    assert wit.omega.power(2) == wit.mu.power(4) == RootOfUnity(1, 4)
    assert wit.mu.power(8) == RootOfUnity(1, 2) != ONE


def test_sign_witness_rejects_square_case():
    with pytest.raises(ValueError):
        sign_witness(2, 2)
    with pytest.raises(ValueError):
        sign_witness(3, -3)
    with pytest.raises(ValueError):
        sign_witness(3, 2)


def test_sign_witness_relations_hold_across_the_grid():
    for n in range(2, 7):
        for am in range(n + 1, 7):
            for m in (am, -am):
                wit = sign_witness(n, m)
                G = bs(n, m)
                assert wit.omega.power(n) == wit.mu.power(m)
                assert wit.mu.power(2 * m) != ONE
                assert omega_member(wit.omega, G)
                assert omega_member(wit.mu, G)


def test_a_broken_witness_is_a_bug(monkeypatch):
    # each re-verification of sign_witness against a construction that
    # breaks it: roots of order d + 1 for (2,3) give omega^2 = 2/13 and
    # mu^3 = 3/19; trivial roots keep the relation and have mu^6 = 1
    order_d_plus_1 = SimpleNamespace(of=lambda num, den: RootOfUnity.of(num, den + 1))
    trivial = SimpleNamespace(of=lambda num, den: ONE)
    broken = [
        ("RootOfUnity", order_d_plus_1, "relation omega"),
        ("RootOfUnity", trivial, r"mu\^\(2m\) = 1"),
        ("omega_member", lambda w, G: False, "outside Omega"),
    ]
    for name, value, message in broken:
        with monkeypatch.context() as patch:
            patch.setattr(rigidity, name, value)
            with pytest.raises(InternalError, match=message):
                sign_witness(2, 3)


def test_obstruction_examples():
    assert crossed_product_obstruction(2, 3, 2, 3).kind == NO_OBSTRUCTION
    v = crossed_product_obstruction(2, 3, 2, -3)
    assert v.kind == SIGN_MISMATCH
    assert v.witness is not None and v.witness.t == 1
    assert str(v.witness.omega) == "1/12" and str(v.witness.mu) == "1/18"
    assert crossed_product_obstruction(2, 2, 2, -2).kind == NO_OBSTRUCTION
    assert crossed_product_obstruction(2, 3, 2, 5).kind == ABS_M_MISMATCH
    assert crossed_product_obstruction(2, 3, 3, 3).kind == N_MISMATCH


def test_obstruction_rejects_non_canonical_input():
    with pytest.raises(ValueError):
        crossed_product_obstruction(3, 2, 2, 3)
    with pytest.raises(ValueError):
        crossed_product_obstruction(1, 2, 2, 3)
    with pytest.raises(ValueError):
        crossed_product_obstruction(2, 3, -2, 3)


def test_obstruction_matrix_matches_direct_case_split():
    for n1 in range(2, 7):
        for am1 in range(n1, 7):
            for m1 in (am1, -am1):
                for n2 in range(2, 7):
                    for am2 in range(n2, 7):
                        for m2 in (am2, -am2):
                            verdict = crossed_product_obstruction(n1, m1, n2, m2)
                            if n1 != n2:
                                expected = N_MISMATCH
                            elif am1 != am2:
                                expected = ABS_M_MISMATCH
                            elif n1 != am1 and m1 != m2:
                                expected = SIGN_MISMATCH
                            else:
                                expected = NO_OBSTRUCTION
                            assert verdict.kind == expected
                            if expected == SIGN_MISMATCH:
                                assert verdict.witness is not None
                            else:
                                assert verdict.witness is None


def test_obstruction_consistent_with_isomorphism():
    for n in range(2, 7):
        for am in range(n, 7):
            for m in (am, -am):
                assert crossed_product_obstruction(n, m, n, m).kind == NO_OBSTRUCTION


def test_w_relation_examples():
    # the exchange relation w^{r(g)} = u^{L(g)} for roots w, u in Omega
    def relation(w, u, text, G):
        assert omega_member(w, G) and omega_member(u, G)
        p = coset_profile(word_nf(text, G), G)
        return w.power(p.r) == u.power(p.L)

    G = bs(2, 3)
    assert relation(ONE, ONE, "b a b^-1", G)
    assert relation(RootOfUnity.of(1, 12), RootOfUnity.of(1, 18), "B", G)
    G2 = bs(2, -3)
    assert not relation(RootOfUnity.of(1, 12), RootOfUnity.of(1, 18), "B", G2)
    assert not omega_member(RootOfUnity.of(1, 5), G)


def test_verdict_json_shapes():
    assert crossed_product_obstruction(2, 3, 2, 5).as_json() == {"verdict": "abs_m_mismatch"}
    sj = crossed_product_obstruction(2, 3, 2, -3).as_json()
    assert sj == {
        "verdict": "sign_mismatch",
        "witness": {"t": 1, "omega": "1/12", "mu": "1/18"},
    }
