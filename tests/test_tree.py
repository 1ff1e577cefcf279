import random

import pytest

from bsrig import (
    Elliptic,
    Hyperbolic,
    IDENTITY,
    NormalForm,
    TreeEdge,
    a_power,
    base_vertex,
    bs,
    classify,
    common_fixed_vertex,
    conjugated_by,
    edge_of,
    edge_range,
    edge_source,
    export_ball,
    fixes_vertex,
    invert,
    multiply,
    power,
    vertex_distance,
    vertex_neighbors,
    vertex_of,
    word_nf,
)
from bsrig.oracles import random_elliptic, random_nf

G23 = bs(2, 3)


def test_source_and_range_of_base_edge():
    e = edge_of(IDENTITY, G23)
    assert edge_source(e, G23) == base_vertex(G23)
    assert edge_range(e, G23) == vertex_of(word_nf("B", G23), G23)


def test_range_example():
    e = edge_of(word_nf("a", G23), G23)
    assert edge_range(e, G23) == vertex_of(word_nf("a B", G23), G23)


def test_vertex_of_absorbs_tail():
    assert vertex_of(word_nf("a^7", G23), G23) == base_vertex(G23)
    assert vertex_of(word_nf("b a^5", G23), G23) == vertex_of(word_nf("b", G23), G23)


def test_source_range_well_defined():
    rng = random.Random(21)
    for _ in range(100):
        g = random_nf(rng, G23, max_b=3, max_exp=20)
        z = rng.randint(-10, 10)
        shifted = multiply(g, NormalForm((), G23.n * z), G23)
        assert edge_of(shifted, G23) == edge_of(g, G23)
        e1, e2 = edge_of(g, G23), edge_of(shifted, G23)
        assert edge_source(e1, G23) == edge_source(e2, G23)
        assert edge_range(e1, G23) == edge_range(e2, G23)


def test_fixes_vertex():
    assert fixes_vertex(word_nf("a^4", G23), base_vertex(G23), G23)
    assert fixes_vertex(word_nf("b a b^-1", G23), vertex_of(word_nf("b", G23), G23), G23)
    assert not fixes_vertex(word_nf("b", G23), base_vertex(G23), G23)


def test_classify_examples():
    assert classify(word_nf("a", G23), G23) == Elliptic(IDENTITY)
    assert classify(word_nf("b", G23), G23) == Hyperbolic(1)
    assert classify(word_nf("b a b^-1", G23), G23) == Elliptic(word_nf("b", G23))


def test_classify_witness_is_valid():
    rng = random.Random(22)
    for _ in range(100):
        g = random_nf(rng, G23, max_b=4, max_exp=20)
        kind = classify(g, G23)
        if isinstance(kind, Elliptic):
            assert fixes_vertex(g, vertex_of(kind.witness, G23), G23)
        else:
            assert kind.translation_length >= 1


def test_classify_conjugation_equivariance():
    rng = random.Random(23)
    for _ in range(100):
        g = random_nf(rng, G23, max_b=3, max_exp=15)
        h = random_nf(rng, G23, max_b=2, max_exp=15)
        conj = conjugated_by(g, h, G23)
        assert isinstance(classify(g, G23), Elliptic) == isinstance(classify(conj, G23), Elliptic)


def test_fixed_vertices_transport():
    rng = random.Random(24)
    for _ in range(60):
        g = random_elliptic(rng, G23)
        h = random_nf(rng, G23, max_b=2, max_exp=10)
        v = vertex_of(classify(g, G23).witness, G23)
        # h^-1 g h fixes h^-1 v
        moved = vertex_of(multiply(invert(h, G23), v.rep, G23), G23)
        assert fixes_vertex(conjugated_by(g, h, G23), moved, G23)


def test_hyperbolic_powers_stay_hyperbolic():
    rng = random.Random(25)
    found = 0
    while found < 100:
        g = random_nf(rng, G23, max_b=4, max_exp=15)
        if not isinstance(classify(g, G23), Hyperbolic):
            continue
        found += 1
        for z in (-3, -2, -1, 1, 2, 3):
            assert isinstance(classify(power(g, z, G23), G23), Hyperbolic)
    # powers of an elliptic element stay elliptic
    assert isinstance(classify(power(word_nf("b a B", G23), -2, G23), G23), Elliptic)


def test_common_fixed_vertex_examples():
    found = common_fixed_vertex([word_nf("a", G23), word_nf("a^3", G23)], G23, 4)
    assert found == (base_vertex(G23), IDENTITY)
    found = common_fixed_vertex([word_nf("b a b^-1", G23)], G23, 4)
    assert found is not None
    assert found[0] == vertex_of(word_nf("b", G23), G23)
    assert found[1] == word_nf("b", G23)


def test_common_fixed_vertex_rejects_hyperbolic():
    with pytest.raises(ValueError):
        common_fixed_vertex([word_nf("b", G23)], G23, 4)


def test_common_fixed_vertex_instance_with_hyperbolic_product():
    g = word_nf("a^2", G23)
    h = word_nf("b a^3 b^-1", G23)
    assert isinstance(classify(g, G23), Elliptic)
    assert isinstance(classify(h, G23), Elliptic)
    # the product is hyperbolic, so no common fixed vertex can exist
    assert isinstance(classify(multiply(g, h, G23), G23), Hyperbolic)
    assert common_fixed_vertex([g, h], G23, 4) is None


def test_elliptic_pairs_with_elliptic_product_share_a_vertex():
    rng = random.Random(26)
    checked = 0
    while checked < 40:
        g = random_elliptic(rng, G23, max_conj_b=2, deep=True)
        h = random_elliptic(rng, G23, max_conj_b=2, deep=True)
        if not isinstance(classify(multiply(g, h, G23), G23), Elliptic):
            continue
        checked += 1
        found = common_fixed_vertex([g, h], G23, 8)
        assert found is not None
        v, g0 = found
        assert v.rep == g0
        assert fixes_vertex(g, v, G23) and fixes_vertex(h, v, G23)


def _ball_minimum(gs, G, radius):
    """The least common fixed vertex within radius of the first element's
    witness vertex, by an independent walk over the whole ball; or None."""
    v0 = vertex_of(classify(gs[0], G).witness, G)
    frontier = [v0]
    seen = {v0}
    for _ in range(radius):
        nxt = []
        for u in frontier:
            for w in vertex_neighbors(u, G):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    fixed = [u for u in seen if all(fixes_vertex(g, u, G) for g in gs)]
    return min(fixed, key=lambda u: (len(u.rep.prefix), u.rep.prefix, u.rep.tail), default=None)


def _nontrivial_nf(rng, G):
    while True:
        u = random_nf(rng, G, max_b=2, max_exp=6)
        if u.prefix:
            return u


def test_returned_vertex_is_ball_minimal():
    rng = random.Random(27)
    for _ in range(25):
        g = random_elliptic(rng, G23, max_conj_b=2, deep=True)
        found = common_fixed_vertex([g], G23, 5)
        assert found is not None
        v, _ = found
        # no fixed vertex in the ball has a shorter representative
        assert v == _ball_minimum([g], G23, 5)
    # sets of deep elliptic elements u a^p u^-1 whose conjugators u extend
    # the first one's, so the least common fixed vertex is often not the
    # first element's witness vertex
    off_witness = 0
    for G in (G23, bs(2, -3)):
        for size in (2, 3) * 6:
            c = _nontrivial_nf(rng, G)
            gs = []
            for i in range(size):
                u = c if i == 0 else multiply(c, _nontrivial_nf(rng, G), G)
                p = rng.choice((-2, -1, 1, 2)) * G.n * G.m
                gs.append(multiply(multiply(u, a_power(p), G), invert(u, G), G))
            found = common_fixed_vertex(gs, G, 5)
            best = _ball_minimum(gs, G, 5)
            assert found == (None if best is None else (best, best.rep))
            v0 = vertex_of(classify(gs[0], G).witness, G)
            off_witness += best is not None and best != v0
    assert off_witness >= 8


def test_vertex_neighbors_and_distance():
    v = base_vertex(G23)
    nbrs = vertex_neighbors(v, G23)
    assert len(nbrs) == G23.n + abs(G23.m)
    assert len(set(nbrs)) == len(nbrs)
    for w in nbrs:
        assert vertex_distance(v, w, G23) == 1
    assert vertex_distance(v, v, G23) == 0
    far = vertex_of(word_nf("b a b a b^-1", G23), G23)
    assert vertex_distance(v, far, G23) == 3


def test_export_ball_radius_zero():
    dot = export_ball(base_vertex(G23), 0, G23)
    assert dot == 'digraph bass_serre_ball {\n  "e";\n}\n'


def test_export_ball_radius_one():
    dot = export_ball(base_vertex(G23), 1, G23)
    vertex_lines = [ln for ln in dot.splitlines() if ln.endswith('";')]
    edge_lines = [ln for ln in dot.splitlines() if "->" in ln]
    assert len(vertex_lines) == 1 + G23.n + abs(G23.m)
    assert len(edge_lines) == 5
    assert dot == export_ball(base_vertex(G23), 1, G23)


def test_ball_growth_matches_regular_tree():
    for G in (G23, bs(2, -2)):
        d = G.n + abs(G.m)
        dot = export_ball(base_vertex(G), 2, G)
        n_vertices = sum(1 for ln in dot.splitlines() if ln.endswith('";'))
        assert n_vertices == 1 + d + d * (d - 1)


def test_export_ball_handshake():
    for radius in (1, 2):
        dot = export_ball(base_vertex(G23), radius, G23)
        edges = [ln for ln in dot.splitlines() if "->" in ln]
        degree = {}
        for ln in edges:
            src, rest = ln.strip().split(" -> ")
            dst = rest.split(" [")[0]
            degree[src] = degree.get(src, 0) + 1
            degree[dst] = degree.get(dst, 0) + 1
        assert sum(degree.values()) == 2 * len(edges)


def test_edge_type_roundtrip():
    e = TreeEdge(NormalForm(((0, 1),), 1))
    assert edge_source(e, G23).rep == NormalForm(((0, 1),), 0)
