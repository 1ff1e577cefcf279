"""The acceptance checks, at desk scale and at full scale.

Each check is a function of ``(rng, sizes)`` verifying one criterion:
oracle agreement for the word problem, index profiles against brute
search, fusion bookkeeping, exchange partners, obstruction verdicts, the
isomorphism criterion, tree geometry and the quasi-centralizer.  The
table has two size rows.  ``DESK`` is what the CLI subcommand
``selftest`` runs, seeded by ``--seed``, so the installed package can
vouch for itself without a test harness.  ``FULL`` is what
``tests/test_acceptance.py`` runs, each check with its own seed and time
budget in seconds.
"""

from __future__ import annotations

import random
from types import SimpleNamespace as Sizes
from typing import Callable

from . import fusion, hecke, oracles, rigidity, tree, words
from .words import bs, word_nf


def _titled(title: str):
    """Attach the check's title, a format string over its sizes."""
    def mark(check):
        check.title = title
        return check
    return mark


@_titled("word problem: idempotent, oracle-exact, abelianization-sound")
def _word_problem(rng: random.Random, s: Sizes) -> None:
    for G in (bs(2, 3), bs(2, -2), bs(3, 6), bs(1, 2)):
        for _ in range(s.samples):
            w = oracles.random_word(rng, max_b=s.max_b, max_exp=s.max_exp)
            nf = words.normalize(w, G)
            assert words.normalize(words.to_group_word(nf), G) == nf
            assert (nf == words.IDENTITY) == oracles.oracle_is_identity(w, G, rng)
            assert len(nf.prefix) == oracles.oracle_b_length(w, G, rng)
            if nf == words.IDENTITY:
                assert words.abelianization_image(w, G) == (0, 0)
            variant = oracles.with_inserted_relator(w, G, rng)
            assert words.normalize(variant, G) == nf


@_titled("coset index profiles of b letters and l(g) = r(g^-1)")
def _profiles(rng: random.Random, s: Sizes) -> None:
    for n in range(2, s.max_param + 1):
        for am in range(n, s.max_param + 1):
            for m in (am, -am):
                G = bs(n, m)
                L = n if m > 0 else -n
                assert hecke.coset_profile(word_nf("b", G), G) == hecke.CosetProfile(n, am, L)
                assert hecke.coset_profile(word_nf("B", G), G) == hecke.CosetProfile(am, n, m)
    G = bs(2, 3)
    for _ in range(s.samples):
        g = oracles.random_nf(rng, G, max_b=s.max_b, max_exp=s.max_exp)
        p = hecke.coset_profile(g, G)
        assert (p.l, p.r, p.L) == oracles.oracle_profile(g, G)
        ginv = words.invert(g, G)
        q = hecke.coset_profile(ginv, G)
        assert p.l == q.r and p.r == q.l
        # the defining identity g a^L g^-1 = a^r, by the word problem
        conj = words.multiply(words.multiply(g, words.a_power(p.L), G), ginv, G)
        assert conj == words.a_power(p.r)


@_titled("observed l-values fill the index value set")
def _index_values(rng: random.Random, s: Sizes) -> None:
    G = bs(2, 3)
    seen = set()
    for _ in range(s.samples):
        g = oracles.random_nf(rng, G, max_b=4, max_exp=s.max_exp)
        l = hecke.coset_profile(g, G).l
        seen.add(l)
        assert l == 1 or hecke.f_set_member(l, G)
    assert s.cover.issubset(seen), f"missing l-values {sorted(s.cover - seen)}"


@_titled("self-inverse decompositions conserve dimension")
def _self_inverse_fusion(rng: random.Random, s: Sizes) -> None:
    G = bs(2, 3)
    assert fusion.decompose_self_inverse(word_nf("b", G), G).as_json() == [
        {"char": "0/1"},
        {"char": "1/3"},
        {"char": "2/3"},
        {"coset": "b a b^-1", "l": 3, "r": 3},
    ]
    for n, m in s.groups:
        G = bs(n, m)
        done = 0
        while done < s.samples:
            g = oracles.random_nf(rng, G, max_b=2, max_exp=s.max_exp)
            try:
                d = fusion.decompose_self_inverse(g, G)
            except ValueError:
                continue  # a collapsing conjugate: outside the operation's domain
            done += 1
            p = hecke.coset_profile(g, G)
            assert d.left_dim == d.right_dim == p.l * p.r
            for i, x in enumerate(d.terms):
                for y in d.terms[i + 1 :]:
                    assert not fusion.isomorphic(x, y, G)


@_titled("exchange partners match enumeration up to denominator {brute_den}")
def _exchange(rng: random.Random, s: Sizes) -> None:
    G = bs(2, 3)
    pool = fusion.enumerate_omega(G, s.pool_den)
    brute_pool = fusion.enumerate_omega(G, s.brute_den)
    for _ in range(s.samples):
        w = rng.choice(pool)
        g = oracles.random_nf(rng, G, max_b=2, max_exp=s.max_exp)
        p = hecke.coset_profile(g, G)
        partners = fusion.exchange_partners(w, g, G)
        target = w.power(p.r)
        assert all(mu.power(p.L) == target for mu in partners)
        brute = {mu for mu in brute_pool if mu.power(p.L) == target}
        assert {mu for mu in partners if mu.den <= s.brute_den} == brute


@_titled("obstruction verdicts across the canonical grid")
def _obstruction(rng: random.Random, s: Sizes) -> None:
    bound = s.max_param + 1
    canonical = [(n, m) for n in range(2, bound) for am in range(n, bound) for m in (am, -am)]
    for n1, m1 in canonical:
        for n2, m2 in canonical:
            if n1 != n2:
                expect = rigidity.N_MISMATCH
            elif abs(m1) != abs(m2):
                expect = rigidity.ABS_M_MISMATCH
            elif n1 != abs(m1) and m1 != m2:
                expect = rigidity.SIGN_MISMATCH
            else:
                expect = rigidity.NO_OBSTRUCTION
            assert rigidity.crossed_product_obstruction(n1, m1, n2, m2).kind == expect
    v = rigidity.crossed_product_obstruction(2, 3, 2, -3)
    wit = v.witness
    assert v.kind == rigidity.SIGN_MISMATCH and wit is not None
    assert wit.t == 1
    assert wit.omega == fusion.RootOfUnity(1, 12) and wit.mu == fusion.RootOfUnity(1, 18)
    assert str(wit.omega) == "1/12" and str(wit.mu) == "1/18"
    assert wit.omega.power(2) == wit.mu.power(3)
    assert wit.mu.power(6) != fusion.ONE
    assert rigidity.crossed_product_obstruction(2, 2, 2, -2).kind == rigidity.NO_OBSTRUCTION


@_titled("isomorphism matches the multiset criterion on [-{max_param},{max_param}]")
def _isomorphism(rng: random.Random, s: Sizes) -> None:
    values = [v for v in range(-s.max_param, s.max_param + 1) if v]
    pairs = [(n, m) for n in values for m in values]
    canon = {pair: rigidity.canonicalize(*pair) for pair in pairs}
    for n1, m1 in pairs:
        c1 = canon[n1, m1]
        assert rigidity.canonicalize(*c1) == c1
        mine = sorted((n1, m1))
        for n2, m2 in pairs:
            multiset = mine == sorted((n2, m2)) or mine == sorted((-n2, -m2))
            same = rigidity.is_isomorphic(n1, m1, n2, m2)
            assert same == multiset == (c1 == canon[n2, m2])


@_titled("tree classification, powers, common fixed vertices, ball size")
def _tree(rng: random.Random, s: Sizes) -> None:
    G = bs(2, 3)
    assert tree.classify(word_nf("b", G), G) == tree.Hyperbolic(1)
    assert tree.classify(word_nf("b a B", G), G) == tree.Elliptic(word_nf("b", G))

    hyperbolic_seen = 0
    while hyperbolic_seen < s.hyperbolic:
        g = oracles.random_nf(rng, G, max_b=s.max_b, max_exp=s.max_exp)
        if not isinstance(tree.classify(g, G), tree.Hyperbolic):
            continue
        hyperbolic_seen += 1
        for z in (-3, -2, -1, 1, 2, 3):
            assert isinstance(tree.classify(words.power(g, z, G), G), tree.Hyperbolic)

    pairs_seen = 0
    while pairs_seen < s.pairs:
        g = oracles.random_elliptic(rng, G, max_conj_b=2, deep=True)
        h = oracles.random_elliptic(rng, G, max_conj_b=2, deep=True)
        if not isinstance(tree.classify(words.multiply(g, h, G), G), tree.Elliptic):
            continue
        pairs_seen += 1
        found = tree.common_fixed_vertex([g, h], G, 8)
        assert found is not None
        v, _ = found
        assert tree.fixes_vertex(g, v, G) and tree.fixes_vertex(h, v, G)

    base = tree.base_vertex(G)
    assert len({base} | set(tree.vertex_neighbors(base, G))) == 1 + G.n + abs(G.m)
    dot = tree.export_ball(base, 1, G)
    assert sum(1 for line in dot.splitlines() if line.endswith('";')) == 1 + G.n + abs(G.m)


@_titled("quasi-centralizer structure of BS(2,-2)")
def _quasi_centralizer(rng: random.Random, s: Sizes) -> None:
    G = bs(2, -2)
    b = word_nf("b", G)
    assert not hecke.qc_member(b, G)
    assert hecke.qc_member(word_nf("b^2", G), G)
    members = []
    for _ in range(s.member_samples):
        g = oracles.random_nf(rng, G, max_b=3, max_exp=s.max_exp)
        if hecke.qc_member(g, G):
            members.append(g)
    assert len(members) >= s.min_members, f"only {len(members)} members sampled"
    for _ in range(s.closure_samples):
        g, h = rng.choice(members), rng.choice(members)
        assert hecke.qc_member(words.multiply(g, h, G), G)
        x = oracles.random_nf(rng, G, max_b=2, max_exp=10)
        assert hecke.qc_member(words.multiply(words.multiply(x, g, G), words.invert(x, G), G), G)
    for _ in range(s.centralizer_samples):
        g = oracles.random_nf(rng, G, max_b=3, max_exp=s.max_exp)
        assert hecke.centralizes(g, 2, G) != hecke.centralizes(words.multiply(g, b, G), 2, G)


# The two size rows of the check table, keyed by check in criterion order.
DESK = {
    _word_problem: Sizes(samples=300, max_b=5, max_exp=10**4),
    _profiles: Sizes(max_param=4, samples=25, max_b=3, max_exp=20),
    _index_values: Sizes(samples=400, max_exp=12, cover={1, 2, 3, 4}),
    _self_inverse_fusion: Sizes(groups=[(2, 3)], samples=20, max_exp=10),
    _exchange: Sizes(pool_den=12, brute_den=72, samples=10, max_exp=8),
    _obstruction: Sizes(max_param=4),
    _isomorphism: Sizes(max_param=4),
    _tree: Sizes(hyperbolic=10, max_b=3, max_exp=10, pairs=5),
    _quasi_centralizer: Sizes(
        member_samples=60, max_exp=10, min_members=10, closure_samples=10, centralizer_samples=30
    ),
}
FULL = {
    _word_problem: Sizes(seed=101, budget=10.0, samples=10**4, max_b=6, max_exp=10**6),
    _profiles: Sizes(seed=102, budget=5.0, max_param=6, samples=10**3, max_b=4, max_exp=10**3),
    _index_values: Sizes(seed=103, budget=5.0, samples=4000, max_exp=8, cover={1, 2, 3, 4, 6, 9}),
    _self_inverse_fusion: Sizes(
        seed=104, budget=5.0, groups=[(2, 3), (2, -3)], samples=100, max_exp=15
    ),
    _exchange: Sizes(seed=105, budget=10.0, pool_den=24, brute_den=216, samples=50, max_exp=10),
    _obstruction: Sizes(seed=106, budget=1.0, max_param=6),
    _isomorphism: Sizes(seed=107, budget=1.0, max_param=6),
    _tree: Sizes(seed=108, budget=10.0, hyperbolic=100, max_b=4, max_exp=20, pairs=100),
    _quasi_centralizer: Sizes(
        seed=109, budget=5.0, member_samples=300, max_exp=20, min_members=20,
        closure_samples=100, centralizer_samples=100,
    ),
}
CHECKS = tuple(FULL)


def title(check: Callable[[random.Random, Sizes], None], sizes: Sizes) -> str:
    """The check's title with the sizes filled in."""
    return check.title.format_map(vars(sizes))


def run_selftest(seed: int = 0) -> tuple[int, int, list[str]]:
    """Run every check at desk scale; returns (passed, failed, report lines).

    The checks are assert statements, so under python -O, which strips
    them, none is run and all count as failed."""
    if not __debug__:
        return 0, len(CHECKS), [
            f"none of the {len(CHECKS)} checks could run: they are assert "
            "statements, which python -O removes"
        ]
    passed = failed = 0
    lines = []
    for check in CHECKS:
        sizes = DESK[check]
        try:
            check(random.Random(seed), sizes)
        except AssertionError as exc:
            failed += 1
            detail = f": {exc}" if str(exc) else ""
            lines.append(f"FAIL {title(check, sizes)}{detail}")
        else:
            passed += 1
            lines.append(f"ok   {title(check, sizes)}")
    lines.append(f"{passed} passed, {failed} failed")
    return passed, failed, lines
