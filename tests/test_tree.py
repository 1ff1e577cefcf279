import random

import pytest

from bsrig import (
    Elliptic,
    Hyperbolic,
    IDENTITY,
    NormalForm,
    TreeVertex,
    a_power,
    bs,
    classify,
    common_fixed_vertex,
    conjugated_by,
    cyclically_reduce,
    export_ball,
    fixes_vertex,
    format_word,
    invert,
    multiply,
    power,
    vertex_distance,
    vertex_neighbors,
    vertex_of,
    word_nf,
)
from bsrig import cli, tree, words
from bsrig.oracles import (
    oracle_common_fixed_vertex,
    oracle_export_ball,
    oracle_separates,
    oracle_translation_length,
    random_elliptic,
    random_nf,
)
from bsrig.words import concat_words, to_group_word

G23 = bs(2, 3)


def edge_of(g, G):
    """The positive edge g<a^n>: the NormalForm with tail reduced into [0, |n|)."""
    return NormalForm(g.prefix, g.tail % abs(G.n))


def edge_source(e, G):
    """source(g<a^n>) = g<a>."""
    return vertex_of(e, G)


def edge_range(e, G):
    """range(g<a^n>) = g b^-1 <a>."""
    return vertex_of(multiply(e, NormalForm(((0, -1),), 0), G), G)


def test_source_and_range_of_base_edge():
    e = edge_of(IDENTITY, G23)
    assert edge_source(e, G23) == vertex_of(IDENTITY, G23)
    assert edge_range(e, G23) == vertex_of(word_nf("B", G23), G23)


def test_range_example():
    e = edge_of(word_nf("a", G23), G23)
    assert edge_range(e, G23) == vertex_of(word_nf("a B", G23), G23)


def test_vertex_of_absorbs_tail():
    assert vertex_of(word_nf("a^7", G23), G23) == vertex_of(IDENTITY, G23)
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
    assert fixes_vertex(word_nf("a^4", G23), vertex_of(IDENTITY, G23), G23)
    assert fixes_vertex(word_nf("b a b^-1", G23), vertex_of(word_nf("b", G23), G23), G23)
    assert not fixes_vertex(word_nf("b", G23), vertex_of(IDENTITY, G23), G23)


def test_fixes_vertex_matches_conjugation():
    # one product g h against the conjugate h^-1 g h, on the witness vertex
    # of an elliptic g, on its neighbours and on random vertices, with
    # random (mostly hyperbolic) elements mixed in
    rng = random.Random(27)
    groups = (G23, bs(2, -3), bs(3, 4), bs(2, 2), bs(-2, 3), bs(1, 2), bs(1, 1), bs(1, -1))
    pairs = moved = moved_next_to_fixed = 0
    for G in groups:
        for k in range(50):
            g = random_elliptic(rng, G, deep=k % 2 == 1)
            v0 = vertex_of(classify(g, G).witness, G)
            x = random_nf(rng, G, max_b=3, max_exp=20)
            near = [(g, v0)] + [(g, w) for w in vertex_neighbors(v0, G)]
            far = [(g, vertex_of(random_nf(rng, G, max_b=3), G)), (x, v0)]
            for i, (h, v) in enumerate(near + far):
                fixed = fixes_vertex(h, v, G)
                assert fixed == (not conjugated_by(h, v.rep, G).prefix), (G, h, v)
                pairs += 1
                moved += not fixed
                moved_next_to_fixed += 0 < i < len(near) and not fixed
    assert pairs >= 2000 and moved >= 0.3 * pairs and moved_next_to_fixed >= 300


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
    assert found == (vertex_of(IDENTITY, G23), IDENTITY)
    found = common_fixed_vertex([word_nf("b a b^-1", G23)], G23, 4)
    assert found is not None
    assert found[0] == vertex_of(word_nf("b", G23), G23)
    assert found[1] == word_nf("b", G23)


def test_common_fixed_vertex_rejects_hyperbolic():
    with pytest.raises(ValueError):
        common_fixed_vertex([word_nf("b", G23)], G23, 4)


def test_common_fixed_vertex_needs_an_element():
    with pytest.raises(ValueError, match="at least one element"):
        common_fixed_vertex([], G23, 1)


def test_common_fixed_vertex_refuses_a_negative_radius():
    # the CLI checks --radius itself, so only a library call gets here
    with pytest.raises(ValueError, match="radius bound must be nonnegative"):
        common_fixed_vertex([word_nf("a", G23)], G23, -1)
    # with no element, the missing element is the error at any bound
    with pytest.raises(ValueError, match="at least one element"):
        common_fixed_vertex([], G23, -1)


def test_common_fixed_vertex_instance_with_hyperbolic_product():
    g = word_nf("a^2", G23)
    h = word_nf("b a^3 b^-1", G23)
    assert isinstance(classify(g, G23), Elliptic)
    assert isinstance(classify(h, G23), Elliptic)
    # the product is hyperbolic, so no common fixed vertex can exist
    assert isinstance(classify(multiply(g, h, G23), G23), Hyperbolic)
    assert common_fixed_vertex([g, h], G23, 4) is None


def test_common_fixed_vertex_work_is_one_product_per_pair_and_element(monkeypatch, capsys):
    # one product per pair decides absence, whatever the radius; otherwise
    # one product per element checks the deepest witness vertex, where a
    # ball search makes thousands at radius 5
    calls = 0

    def counted(g, h, G):
        nonlocal calls
        calls += 1
        return multiply(g, h, G)

    monkeypatch.setattr("bsrig.tree.multiply", counted)
    absent = ["a^6", "b a^5 b a^-3 b a^2 B a^3 B a^-5 B"]  # the tree_walk shape
    deep = ["b a b a^6 B a^-1 B", "b a b a B a B a^6 b a^-1 b a^-1 B a^-1 B"]
    for radius in (5, 40):
        for words, expect in ((absent, None), (deep, "b a b a b^-1")):
            gs = [word_nf(w, G23) for w in words]
            calls = 0
            found = common_fixed_vertex(gs, G23, radius)
            assert (found and str(found[0])) == expect
            pairs = len(gs) * (len(gs) - 1) // 2
            assert calls == (pairs if expect is None else pairs + len(gs))
    # fixed makes one tree call: absent costs the pairs up to the separating
    # one, here (0, 1), (0, 2), (0, 3) of the k(k-1)/2 = 6, and a vertex,
    # found or beyond the radius, one product per pair and per element
    vertex = "b a b a b^-1"
    for words, radius, out, expect in (
        (["a^2", "a^4", "a^6", "b a^3 B"], "8", "absent", 3),
        (deep, "0", "none within radius 0; --radius 2 finds one", 1 + 2),
        (deep, "2", f"vertex={vertex} g0={vertex}", 1 + 2),
    ):
        calls = 0
        assert cli.run(["--group", "2,3", "fixed", *words, "--radius", radius]) == 0
        assert (capsys.readouterr().out, calls) == (out + "\n", expect), words


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


def _shared_conjugator_set(rng, G):
    """1-4 elliptic elements (w u_i) a^(p_i) (w u_i)^-1 that share a random
    conjugator w with |w|_b <= 5; about half of the powers p_i are deep."""
    w = random_nf(rng, G, max_b=5, max_exp=6)
    gs = []
    for _ in range(rng.randint(1, 4)):
        c = multiply(w, random_nf(rng, G, max_b=2, max_exp=6), G)
        p = rng.choice((-1, 1)) * rng.randint(1, 4) * (G.n * G.m if rng.random() < 0.5 else 1)
        gs.append(multiply(multiply(c, a_power(p), G), invert(c, G), G))
    return gs


def test_least_fixed_vertex_matches_the_walk():
    # the pair criterion and the closed form against the walk alone, at
    # every radius 0..max |g|_b // 2 + 1: on 2800 sets of 2-4 elliptic
    # elements, half of them deep, and on sets of 1-4 elements that share a
    # conjugator, in three more groups too; each certificate is checked on
    # the words, and every earlier pair's product is elliptic; each vertex's
    # distance d is the least radius at which the walk finds it
    rng = random.Random(28)
    shared_rng = random.Random(29)
    oracle_rng = random.Random(0)
    absent = present = 0
    groups = (G23, bs(2, -3), bs(3, 4), bs(2, 2), bs(3, 6), bs(1, 2), bs(-3, 5))
    for G in groups + (bs(1, 1), bs(1, -1), bs(5, 5)):
        sets = [
            [random_elliptic(rng, G, max_conj_b=2, deep=deep) for _ in range(rng.randint(2, 4))]
            for deep in (False, True) * 200
        ] if G in groups else []
        sets += [_shared_conjugator_set(shared_rng, G) for _ in range(120)]
        for gs in sets:
            radius = max(len(g.prefix) for g in gs) // 2  # the walk's bound
            walks = [oracle_common_fixed_vertex(gs, G, r) for r in range(radius + 2)]
            assert [common_fixed_vertex(gs, G, r) for r in range(radius + 2)] == walks, (G, gs)
            v, d = tree.least_fixed_vertex(gs, G)
            assert (v is None) == (walks[radius] is None), (G, gs)
            if v is not None:
                assert d <= radius and walks[d] == (v, v.rep), (G, gs)
                assert d == 0 or walks[d - 1] is None, (G, gs)
                present += 1
                continue
            absent += 1
            certificate = d  # the separating pair
            assert oracle_separates(gs, certificate, G, oracle_rng), certificate
            i, j, t = certificate
            assert not oracle_separates(gs, (i, j, t + 1), G, oracle_rng)
            pairs = [(x, y) for x in range(len(gs)) for y in range(x + 1, len(gs))]
            for x, y in pairs[: pairs.index((i, j))]:
                p = concat_words(to_group_word(gs[x]), to_group_word(gs[y]))
                assert oracle_translation_length(p, G, oracle_rng) <= 0
    assert absent >= 600 and present >= 600, (absent, present)


def _ball_minima(gs, G, radius):
    """For each r in 0..radius, the least common fixed vertex within r of the
    first element's witness vertex, or None, by an independent walk over the
    whole ball."""
    v0 = vertex_of(classify(gs[0], G).witness, G)
    frontier = [v0]
    seen = {v0}
    fixed = []
    minima = []
    for r in range(radius + 1):
        if r:
            nxt = []
            for u in frontier:
                for w in vertex_neighbors(u, G):
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        fixed += [u for u in frontier if all(fixes_vertex(g, u, G) for g in gs)]
        minima.append(min(fixed, key=lambda u: (len(u.rep.prefix), u.rep.prefix, u.rep.tail), default=None))
    return minima


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
        assert v == _ball_minima([g], G23, 5)[5]
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
            best = _ball_minima(gs, G, 5)[5]
            assert found == (None if best is None else (best, best.rep))
            v0 = vertex_of(classify(gs[0], G).witness, G)
            off_witness += best is not None and best != v0
    assert off_witness >= 8
    # every radius 1..5, also in groups with |n| = |m|, n < 0 and n = 1: pairs
    # of independent elliptic elements, whose product is often hyperbolic,
    # and nested deep triples as above
    hyperbolic = beyond_radius_1 = 0
    for G in (G23, bs(2, -3), bs(3, 4), bs(2, 2), bs(3, -3), bs(-2, 3), bs(1, 2)):
        for nested in (False, True) * 2:
            if nested:
                c = _nontrivial_nf(rng, G)
                us = [c] + [multiply(c, _nontrivial_nf(rng, G), G) for _ in range(2)]
                gs = [multiply(multiply(u, a_power(G.n * G.m), G), invert(u, G), G) for u in us]
            else:
                gs = [random_elliptic(rng, G, max_conj_b=2) for _ in range(2)]
            hyperbolic += any(
                isinstance(classify(multiply(g, h, G), G), Hyperbolic) for g in gs for h in gs
            )
            minima = _ball_minima(gs, G, 5)
            for radius in range(1, 6):
                best = minima[radius]
                assert common_fixed_vertex(gs, G, radius) == (None if best is None else (best, best.rep))
            beyond_radius_1 += minima[1] is None and minima[5] is not None
    assert hyperbolic >= 5 and beyond_radius_1 >= 3


def test_vertex_neighbors_and_distance():
    v = vertex_of(IDENTITY, G23)
    nbrs = vertex_neighbors(v, G23)
    assert len(nbrs) == G23.n + abs(G23.m)
    assert len(set(nbrs)) == len(nbrs)
    for w in nbrs:
        assert vertex_distance(v, w, G23) == 1
    assert vertex_distance(v, v, G23) == 0
    far = vertex_of(word_nf("b a b a b^-1", G23), G23)
    assert vertex_distance(v, far, G23) == 3


def test_export_ball_radius_zero():
    dot = export_ball(vertex_of(IDENTITY, G23), 0, G23)
    assert dot == 'digraph bass_serre_ball {\n  "e";\n}\n'


def test_export_ball_radius_one():
    dot = export_ball(vertex_of(IDENTITY, G23), 1, G23)
    vertex_lines = [ln for ln in dot.splitlines() if ln.endswith('";')]
    edge_lines = [ln for ln in dot.splitlines() if "->" in ln]
    assert len(vertex_lines) == 1 + G23.n + abs(G23.m)
    assert len(edge_lines) == 5
    assert dot == export_ball(vertex_of(IDENTITY, G23), 1, G23)


def test_ball_growth_matches_regular_tree():
    for G in (G23, bs(2, -2)):
        d = G.n + abs(G.m)
        dot = export_ball(vertex_of(IDENTITY, G), 2, G)
        n_vertices = sum(1 for ln in dot.splitlines() if ln.endswith('";'))
        assert n_vertices == 1 + d + d * (d - 1)


def test_export_ball_handshake():
    for radius in (1, 2):
        dot = export_ball(vertex_of(IDENTITY, G23), radius, G23)
        edges = [ln for ln in dot.splitlines() if "->" in ln]
        degree = {}
        for ln in edges:
            src, rest = ln.strip().split(" -> ")
            dst = rest.split(" [")[0]
            degree[src] = degree.get(src, 0) + 1
            degree[dst] = degree.get(dst, 0) + 1
        assert sum(degree.values()) == 2 * len(edges)


def test_edge_type_roundtrip():
    e = NormalForm(((0, 1),), 1)
    assert edge_of(e, G23) == e
    assert edge_source(e, G23).rep == NormalForm(((0, 1),), 0)


# groups with n, m of either sign, |n| = |m|, |n| = 1 and |n| > |m|
DIFFERENTIAL_GROUPS = [
    bs(2, 3), bs(2, -3), bs(3, 4), bs(2, 2), bs(-2, 3),
    bs(3, -3), bs(1, 2), bs(1, -1), bs(2, -4), bs(3, 2),
]


def _neighbor_steps(G):
    """The steps (i, -1), i < |n|, then (j, 1), j < |m|, to a vertex's
    neighbours v a^s b^e <a>."""
    return [(i, -1) for i in range(abs(G.n))] + [(j, 1) for j in range(abs(G.m))]


def _multiplied_neighbors(v, G):
    """vertex_neighbors by group multiplication: v a^i b^-1 <a> for i < |n|,
    then v a^j b <a> for j < |m|."""
    return [vertex_of(multiply(v.rep, NormalForm((step,), 0), G), G) for step in _neighbor_steps(G)]


def _reference_ball(center, radius, G):
    """export_ball by the construction the rep-reading walk replaced: the
    whole ball from multiplied neighbours, each edge read off the product
    that reached one of its ends.  Adjacent vertices lie at distances one
    apart, so every edge of the ball has an end v inside the radius, where
    the product g = v a^i b^-1 gives the edge v a^i <a^n> into g<a>, and
    g = v a^j b the edge g<a^n> from g<a> into g b^-1 <a> = v <a>.  An edge
    between two such ends comes once from each; each product is made and
    each vertex and edge formatted once."""
    steps = _neighbor_steps(G)
    ball = {center}
    sphere = [center]
    edges = set()  # (source, range, edge)
    for _ in range(radius):
        grown = []
        for v in sphere:
            for s, e in steps:
                g = multiply(v.rep, NormalForm(((s, e),), 0), G)
                w = vertex_of(g, G)
                if w not in ball:
                    grown.append(w)
                edges.add((v, w, NormalForm(v.rep.prefix, s)) if e == -1 else (w, v, edge_of(g, G)))
        sphere = grown
        ball.update(sphere)
    label = {v: str(v) for v in ball}
    edges = [(label[src], label[dst], format_word(e)) for src, dst, e in edges]
    lines = ["digraph bass_serre_ball {"]
    lines += [f'  "{text}";' for text in sorted(label.values())]
    lines += [f'  "{src}" -> "{dst}" [label="{lab}"];' for src, dst, lab in sorted(edges)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _random_vertex(rng, G, b_length, start=None):
    """A vertex b_length farther from the base vertex than start (the base
    vertex itself by default), by a random walk that never steps back."""
    v = vertex_of(IDENTITY, G) if start is None else start
    for _ in range(b_length):
        v = rng.choice([w for w in _multiplied_neighbors(v, G) if w.rep.b_length > v.rep.b_length])
    return v


def test_vertex_neighbors_match_multiplication():
    # 600 vertices, neighbour order included
    rng = random.Random(28)
    for G in DIFFERENTIAL_GROUPS:
        for _ in range(60):
            v = _random_vertex(rng, G, rng.randint(0, 5))
            assert vertex_neighbors(v, G) == _multiplied_neighbors(v, G), (G, v)


def test_export_ball_matches_multiplied_reference():
    # 320 (group, centre, radius) cases, compared byte for byte
    rng = random.Random(29)
    for G in DIFFERENTIAL_GROUPS:
        for center in [_random_vertex(rng, G, b) for b in (0, 1, 2, 3, 4, 4, 3, 2)]:
            for radius in range(4):
                dot = export_ball(center, radius, G)
                assert dot == _reference_ball(center, radius, G), (G, center, radius)


def _one_digit_changed(rng, v, G):
    """v's rep with one digit s_k replaced by another of its range, if some
    other digit keeps the rep pinch-free; None otherwise."""
    p = v.rep.prefix
    if not p:
        return None
    k = rng.randrange(len(p))
    s, e = p[k]
    digits = [
        t for t in range(abs(G.m if e == 1 else G.n))
        if t != s and (t or k == 0 or p[k - 1][1] != -e)
    ]
    if not digits:
        return None
    return TreeVertex(NormalForm(p[:k] + ((rng.choice(digits), e),) + p[k + 1:], 0))


def test_vertex_distance_matches_multiplication():
    # pairs with a random vertex, every neighbour, an ancestor, a descendant
    # and a rep with one digit changed, in both orders
    rng = random.Random(30)
    pairs = 0
    for G in DIFFERENTIAL_GROUPS:
        for _ in range(15):
            u = _random_vertex(rng, G, rng.randint(0, 6))
            p = u.rep.prefix
            vs = [_random_vertex(rng, G, rng.randint(0, 6)), *vertex_neighbors(u, G)]
            vs.append(TreeVertex(NormalForm(p[: rng.randint(0, len(p))], 0)))
            vs.append(_random_vertex(rng, G, rng.randint(1, 3), start=u))
            vs.append(_one_digit_changed(rng, u, G))
            for v in filter(None, vs):
                for x, y in ((u, v), (v, u)):
                    expected = len(multiply(invert(x.rep, G), y.rep, G).prefix)
                    assert vertex_distance(x, y, G) == expected, (G, x, y)
                    pairs += 1
    assert pairs >= 2000


def test_classification_and_distance_do_no_group_arithmetic(monkeypatch):
    pushed = []
    push = words._push

    def counting_push(*args):
        pushed.append(args)
        return push(*args)

    def spell(*parts):
        return word_nf(" ".join(text for count, text in parts for _ in range(count)), G23)

    elliptic = spell((200, "b a"), (1, "a^2"), (200, "A B"))
    hyperbolic = spell((50, "b a"), (1, "b a^2"), (50, "A B"))
    u = vertex_of(spell((100, "b a")), G23)
    v = vertex_of(spell((60, "b a"), (40, "a B")), G23)
    monkeypatch.setattr(words, "_push", counting_push)
    assert isinstance(classify(elliptic, G23), Elliptic)
    assert isinstance(classify(hyperbolic, G23), Hyperbolic)
    for g in (elliptic, hyperbolic):
        assert len(cyclically_reduce(g, G23)[0].prefix) >= 50
    assert vertex_distance(u, v, G23) > 50
    assert pushed == []
    multiply(u.rep, v.rep, G23)  # the counter sees group arithmetic
    assert len(pushed) == 1


def test_export_ball_extends_merged_runs_across_the_base_vertex():
    # centres whose rep ends in a merged b-run, at radii up to |centre| + 2,
    # so the walk climbs through the base vertex and down its other branches
    cases = 0
    for G in DIFFERENTIAL_GROUPS + [bs(1, 1), bs(-3, -5)]:
        for word in ("b^3", "a B^2", "b a b^2"):
            center = vertex_of(word_nf(word, G), G)
            for radius in range(center.rep.b_length + 3):
                assert export_ball(center, radius, G) == _reference_ball(center, radius, G), (G, word, radius)
                cases += 1
    assert cases == 12 * (6 + 5 + 6)


def test_export_ball_extends_long_merged_runs():
    # runs of nine letters of either sign, and a run of six after an
    # a-syllable, so the b-run texts reach exponents up to 14 in both signs
    for G, radii in ((G23, 6), (bs(1, 1), 6), (bs(-3, -5), 4)):
        for word in ("b^9", "B^9", "a b^6 a B^3"):
            center = vertex_of(word_nf(word, G), G)
            for radius in range(radii):
                assert export_ball(center, radius, G) == _reference_ball(center, radius, G), (G, word, radius)


def test_export_ball_orders_two_digit_exponents_as_text():
    # a^10 sorts before a^2 as text, the one place where the suffix order
    # of the walk differs from numeric order
    cases = 0
    for G in (bs(2, 13), bs(12, 13), bs(-11, 12)):
        for word in ("e", "a^10 b", "a^2 B", "a^11 B a^3 b"):
            center = vertex_of(word_nf(word, G), G)
            for radius in range(3):
                assert export_ball(center, radius, G) == _reference_ball(center, radius, G), (G, word, radius)
                cases += 1
    assert cases == 36


def _ball_lines(dot):
    """The vertex labels and the (source, range) pairs of the edges, in the order of the DOT text."""
    lines = dot.splitlines()[1:-1]
    vertices = [ln[3:-2] for ln in lines if "->" not in ln]
    edges = [tuple(ln[3:].split('" [label=')[0].split('" -> "')) for ln in lines if "->" in ln]
    return vertices, edges


def test_export_ball_lines_are_in_output_order():
    rng = random.Random(31)
    with_base = 0
    for G in DIFFERENTIAL_GROUPS + [bs(2, 13), bs(-11, 12)]:
        for _ in range(6):
            center = _random_vertex(rng, G, rng.randint(0, 5))
            radius = rng.randint(0, 4 if abs(G.n) + abs(G.m) < 9 else 2)
            vertices, edges = _ball_lines(export_ball(center, radius, G))
            assert all(u < v for u, v in zip(vertices, vertices[1:])), (G, center, radius)
            assert all(f < g for f, g in zip(edges, edges[1:])), (G, center, radius)
            assert len(edges) == len(vertices) - 1
            if "e" in vertices:  # the base vertex and its edges come last
                with_base += 1
                base_edges = [f for f in edges if f[0] == "e"]
                assert vertices[-1] == "e" and edges[len(edges) - len(base_edges):] == base_edges
    assert with_base >= 10


def test_export_ball_matches_the_breadth_first_oracle():
    # 432 (group, centre, radius) cases against the sorted breadth-first walk
    rng = random.Random(32)
    cases = 0
    for G in DIFFERENTIAL_GROUPS + [bs(1, 1), bs(-3, -5)]:
        for center in [_random_vertex(rng, G, b) for b in (0, 1, 2, 3, 4, 5)]:
            for radius in range(6):
                assert export_ball(center, radius, G) == oracle_export_ball(center, radius, G), (G, center, radius)
                cases += 1
    assert cases == 432


BALL_CENTERS = ("e", "b^3", "a B^2", "b a b^2", "b^2 a b a B^4")


def test_export_ball_formats_each_syllable_once_per_call(monkeypatch):
    # each a-exponent and b-run exponent is formatted at most once per call,
    # so the count is bounded by d, the radius and |centre|, not the ball size
    formatted = []

    def counting_fmt(letter, exp):
        formatted.append((letter, exp))
        return words._fmt_syllable(letter, exp)

    monkeypatch.setattr(tree, "_fmt_syllable", counting_fmt)
    d, radius = abs(G23.n) + abs(G23.m), 5
    for text in BALL_CENTERS:
        center = vertex_of(word_nf(text, G23), G23)
        formatted.clear()
        assert export_ball(center, radius, G23).count('";\n') == 1 + 5 * (4**radius - 1) // 3
        assert len(set(formatted)) == len(formatted), (text, formatted)
        assert len(formatted) <= d + 2 * (radius + center.rep.b_length), (text, len(formatted))


def test_export_ball_formats_no_vertex_from_scratch(monkeypatch):
    pushed, formatted = [], []
    push = words._push

    def counting_push(*args):
        pushed.append(args)
        return push(*args)

    def counting_format(w):
        formatted.append(w)
        return format_word(w)

    centers = [vertex_of(word_nf(text, G23), G23) for text in BALL_CENTERS]
    monkeypatch.setattr(words, "_push", counting_push)
    monkeypatch.setattr(tree, "format_word", counting_format)
    radius = 5
    for center in centers:
        line = f'  "{center}";\n'
        formatted.clear()
        dot = export_ball(center, radius, G23)
        assert line in dot and dot.count('";\n') == 1 + 5 * (4**radius - 1) // 3
        assert len(formatted) <= min(radius, center.rep.b_length) + 1, (center, len(formatted))
    assert pushed == []
    formatted.clear()
    tree.format_word(centers[1].rep)  # the counters see a call through the patched names
    multiply(centers[1].rep, centers[2].rep, G23)
    assert len(formatted) == 1 and len(pushed) == 1
