"""The Bass-Serre tree of BS(n, m) and elliptic/hyperbolic classification.

Vertices are cosets g<a>, positive edges are cosets g<a^n>, with
source(g<a^n>) = g<a> and range(g<a^n>) = g b^-1 <a>.  The group acts by
left multiplication; the tree is (|n| + |m|)-regular.  The right-pushed
normal form makes cosets canonical: a vertex is the normal form with tail
zeroed, an edge the NormalForm with tail reduced into [0, |n|).  The
vertex rep spells the geodesic from the base vertex <a>, so adjacent
vertices differ by one letter a^s b^e at the end of the longer rep, and
geodesics part where reps do: no multiplication needed.  A ball is
exported by the same rule, walked as a tree: labels extend their
parents' by one syllable, whose text is formatted once per call.

An element is elliptic iff its cyclically reduced core is an a-power;
otherwise it is hyperbolic and translates along an axis by the cyclically
reduced b-length.  Common fixed vertices are found by a walk along
geodesics, not by a ball search: each step costs one product g h per
element, and the next vertex is read off the reps of h<a> and g h<a>.
"""

from __future__ import annotations

from .words import (
    BsPresentation,
    NormalForm,
    Value,
    _set,
    cyclically_reduce,
    _fmt_syllable,
    format_word,
    multiply,
)

__all__ = [
    "TreeVertex",
    "Elliptic",
    "Hyperbolic",
    "vertex_of",
    "vertex_neighbors",
    "vertex_distance",
    "fixes_vertex",
    "classify",
    "common_fixed_vertex",
    "export_ball",
]


class TreeVertex(Value):
    __slots__ = ("rep",)

    def __init__(self, rep: NormalForm):  # rep.tail = 0
        _set(self, "rep", rep)

    def __str__(self) -> str:
        return format_word(self.rep)


def vertex_of(g: NormalForm, G: BsPresentation) -> TreeVertex:
    return TreeVertex(NormalForm(g.prefix, 0))


def fixes_vertex(g: NormalForm, v: TreeVertex, G: BsPresentation) -> bool:
    """g fixes the vertex h<a> iff g h<a> = h<a>, i.e. g h and h share
    their prefix: one product."""
    return multiply(g, v.rep, G).prefix == v.rep.prefix


def _steps(G: BsPresentation, last: int) -> list[tuple[int, int] | None]:
    """The steps (s, e) to the |n| + |m| neighbours v a^s b^e <a> of a vertex
    v whose rep ends in a b-letter of sign last (0 at the base vertex), in
    neighbour order: ranges of the edges v a^s <a^n> (e = -1, s < |n|), then
    sources of the edges v a^s b <a^n> (e = 1, s < |m|).  Each step appends
    (s, e) to v's rep, except the one pinch the normal form allows, (0, -last),
    which leads to v's parent and is given as None."""
    return [
        None if s == 0 and e == -last else (s, e)
        for e, count in ((-1, abs(G.n)), (1, abs(G.m)))
        for s in range(count)
    ]


def vertex_neighbors(v: TreeVertex, G: BsPresentation) -> list[TreeVertex]:
    """The |n| + |m| adjacent vertices, read off v's rep by _steps."""
    prefix = v.rep.prefix
    last = prefix[-1][1] if prefix else 0
    return [
        TreeVertex(NormalForm(prefix[:-1] if step is None else prefix + (step,), 0))
        for step in _steps(G, last)
    ]


def vertex_distance(u: TreeVertex, v: TreeVertex, G: BsPresentation) -> int:
    """Tree distance: |u| + |v| - 2 (length of the reps' common prefix)."""
    p, q = u.rep.prefix, v.rep.prefix
    common = next((i for i, (x, y) in enumerate(zip(p, q)) if x != y), min(len(p), len(q)))
    return len(p) + len(q) - 2 * common


class Elliptic(Value):
    __slots__ = ("witness",)

    def __init__(self, witness: NormalForm):  # witness^-1 g witness lies in <a>
        _set(self, "witness", witness)


class Hyperbolic(Value):
    __slots__ = ("translation_length",)

    def __init__(self, translation_length: int):
        _set(self, "translation_length", translation_length)


def classify(g: NormalForm, G: BsPresentation) -> Elliptic | Hyperbolic:
    conj, core = cyclically_reduce(g, G)
    if core.prefix:
        return Hyperbolic(len(core.prefix))
    return Elliptic(conj)


def absence_radius(gs) -> int:
    """max |g|_b // 2 over the elements gs: a common fixed vertex, if there
    is one, lies within this distance of the first element's witness
    vertex, so from this radius on common_fixed_vertex returning None
    proves that there is none."""
    return max(len(g.prefix) for g in gs) // 2


def common_fixed_vertex(
    gs, G: BsPresentation, radius_bound: int
) -> tuple[TreeVertex, NormalForm] | None:
    """The common fixed vertex of least b-length of the elements of gs, with
    its representative, if it lies within radius_bound >= 0 of the first
    element's witness vertex v0; None otherwise.  Rejects hyperbolic input.

    A walk along geodesics (Serre, Trees, I.6.5): while some g moves the
    current vertex v, step to the first vertex of the geodesic from v to
    g v.  One product g h gives g v's rep k, and the step is read off the
    reps: one letter down along k if k extends v's rep h, else up to h's
    parent.  The geodesic from v to g v runs through the projection of v
    onto Fix(g), which contains the common fixed subtree X, so the walk
    follows the geodesic from v0 to X.  It ends at the least vertex of X,
    since every geodesic from the base vertex into X runs through v0, the
    projection of the base vertex onto Fix(g1).  A nonempty X is nearest
    the base vertex at the farthest of its projections onto the Fix(g), at
    distance max |g|_b / 2: the walk takes at most absence_radius(gs)
    steps, and from that radius on None proves absence.
    """
    gs = list(gs)
    if not gs:
        raise ValueError("need at least one element")
    if radius_bound < 0:
        raise ValueError("radius bound must be nonnegative")
    classes = [classify(g, G) for g in gs]
    for g, c in zip(gs, classes):
        if isinstance(c, Hyperbolic):
            raise ValueError(f"element {format_word(g)} is hyperbolic, it fixes no vertex")
    v = vertex_of(classes[0].witness, G)
    for _ in range(min(radius_bound, absence_radius(gs)) + 1):
        h = v.rep.prefix
        k = next((k for k in (multiply(g, v.rep, G).prefix for g in gs) if k != h), None)
        if k is None:
            return v, v.rep
        v = TreeVertex(NormalForm(k[: len(h) + 1] if k[: len(h)] == h else h[:-1], 0))
    return None


class _Syllables(dict):
    """The text " x^k" of each exponent k of one letter x, formatted on first use."""

    def __init__(self, letter: str):
        self.letter = letter

    def __missing__(self, k: int) -> str:
        text = self[k] = f" {_fmt_syllable(self.letter, k)}"
        return text


def _grow(sphere: list, children: list, a: _Syllables, b: _Syllables, edges: list) -> list:
    """The children of the labelled vertices (label, stem, run, c) in sphere,
    where run is the signed exponent of the label's last b-run, c its sign
    and stem the label before it; a vertex steps by children[c].  A child's
    label is its parent's extended by one syllable, from the texts in a and
    b, not re-formatted; a step with s = 0 merges into the last b-run (b
    becomes b^2).  The ball edge between the two goes to edges."""
    grown = []
    for label, stem, run, c in sphere:
        for s, e in children[c]:
            if s:  # run = 0 only at the base vertex, whose label e is dropped
                st, r = (label + a[s] if run else a[s][1:]), e
            else:
                st, r = stem, run + e
            child = st + b[r] if st else b[r][1:]
            if e == 1:  # child b^-1 <a> = parent: the edge child<a^n> runs from child to parent
                edges.append((child, label, child))
            else:  # child = parent a^s b^-1 <a>: the range of the edge parent a^s <a^n>
                edges.append((label, child, st if s else label))
            grown.append((child, st, r, e))
    return grown


def export_ball(center: TreeVertex, radius: int, G: BsPresentation) -> str:
    """DOT description of the ball subgraph: vertex label = canonical coset
    word, directed edges source -> range with the edge coset word as label,
    everything ordered lexicographically by label.  For d = |n| + |m| > 2 the
    ball has 1 + d((d-1)^R - 1)/(d - 2) vertices at radius R (1 + 2R for
    d = 2), and one edge fewer.

    A walk of the ball as a tree rooted at the base vertex, with no visited
    set and no group arithmetic.  Each vertex steps to its children, the
    steps of _steps but the pinch; only the path from the centre toward the
    base vertex also steps up, skipping the branch it came from.  A child's
    label is its parent's plus one syllable, whose text is formatted once
    per call, not once per vertex; edge labels are read off the same
    strings, and format_word runs once, for the farthest ancestor of the
    centre within the radius."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    # children[c]: the steps out of a vertex whose last b-run has sign c
    children = [[step for step in _steps(G, c) if step] for c in (0, 1, -1)]
    a, b = _Syllables("a"), _Syllables("b")
    prefix = center.rep.prefix
    top = len(prefix) - min(radius, len(prefix))
    label = format_word(NormalForm(prefix[:top], 0))
    run = 0
    for s, e in reversed(prefix[:top]):  # the last b-run: syllables back to the first with s != 0
        run += e
        if s:
            break
    edges: list[tuple[str, str, str]] = []
    path = [(label, label.rpartition(" ")[0], run, (run > 0) - (run < 0))]
    for step in prefix[top:]:  # a sphere of one vertex takes the same steps whatever its c
        path += _grow(path[-1:], [[step]] * 3, a, b, edges)
    labels = [vertex[0] for vertex in path]
    for up, root in zip(range(radius), reversed(path)):  # root lies up steps above the centre
        skip = prefix[len(prefix) - up] if up else None  # the branch toward the centre
        steps = [[step for step in children[root[3]] if step != skip]] * 3
        sphere = [root]
        for _ in range(radius - up):
            sphere = _grow(sphere, steps, a, b, edges)
            steps = children
            labels += [vertex[0] for vertex in sphere]
    labels.sort()
    edges.sort()
    vertices = '";\n  "'.join(labels)
    lines = [f'  "{src}" -> "{dst}" [label="{lab}"];\n' for src, dst, lab in edges]
    return f'digraph bass_serre_ball {{\n  "{vertices}";\n{"".join(lines)}}}\n'
