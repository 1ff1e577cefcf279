"""The Bass-Serre tree of BS(n, m) and elliptic/hyperbolic classification.

Vertices are cosets g<a>, positive edges are cosets g<a^n>, with
source(g<a^n>) = g<a> and range(g<a^n>) = g b^-1 <a>.  The group acts by
left multiplication; the tree is (|n| + |m|)-regular.  The right-pushed
normal form makes cosets canonical: a vertex is the normal form with tail
zeroed, an edge the normal form with tail reduced into [0, |n|).  The
vertex rep spells the geodesic from the base vertex <a>, so the b-length
of the rep is the distance to the base vertex.

An element is elliptic iff its cyclically reduced core is an a-power;
otherwise it is hyperbolic and translates along an axis by the cyclically
reduced b-length.  Common fixed vertices are found by a walk along
geodesics, not by a ball search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import (
    BsPresentation,
    NormalForm,
    IDENTITY,
    conjugated_by,
    cyclically_reduce,
    format_word,
    invert,
    multiply,
)

__all__ = [
    "TreeVertex",
    "TreeEdge",
    "Elliptic",
    "Hyperbolic",
    "vertex_of",
    "edge_range",
    "base_vertex",
    "vertex_neighbors",
    "vertex_distance",
    "fixes_vertex",
    "classify",
    "common_fixed_vertex",
    "export_ball",
]


@dataclass(frozen=True, slots=True)
class TreeVertex:
    rep: NormalForm  # tail = 0

    def __str__(self) -> str:
        return format_word(self.rep)


@dataclass(frozen=True, slots=True)
class TreeEdge:
    rep: NormalForm  # tail in [0, |n|)

    def __str__(self) -> str:
        return format_word(self.rep)


def vertex_of(g: NormalForm, G: BsPresentation) -> TreeVertex:
    return TreeVertex(NormalForm(g.prefix, 0))


def base_vertex(G: BsPresentation) -> TreeVertex:
    return TreeVertex(IDENTITY)


def edge_range(e: TreeEdge, G: BsPresentation) -> TreeVertex:
    return vertex_of(multiply(e.rep, NormalForm(((0, -1),), 0), G), G)


def fixes_vertex(g: NormalForm, v: TreeVertex, G: BsPresentation) -> bool:
    """g fixes the vertex h<a> iff h^-1 g h lies in <a>."""
    return not conjugated_by(g, v.rep, G).prefix


def vertex_neighbors(v: TreeVertex, G: BsPresentation) -> list[TreeVertex]:
    """The |n| + |m| adjacent vertices: ranges of the edges v a^i <a^n> and
    sources of the edges v a^j b <a^n>."""
    out = []
    for i in range(abs(G.n)):
        out.append(vertex_of(multiply(v.rep, NormalForm(((i, -1),), 0), G), G))
    for j in range(abs(G.m)):
        out.append(vertex_of(multiply(v.rep, NormalForm(((j, 1),), 0), G), G))
    return out


def vertex_distance(u: TreeVertex, v: TreeVertex, G: BsPresentation) -> int:
    """Tree distance, read off as the b-length of u^-1 v."""
    return len(multiply(invert(u.rep, G), v.rep, G).prefix)


@dataclass(frozen=True, slots=True)
class Elliptic:
    witness: NormalForm  # witness^-1 g witness lies in <a>


@dataclass(frozen=True, slots=True)
class Hyperbolic:
    translation_length: int


def classify(g: NormalForm, G: BsPresentation) -> Elliptic | Hyperbolic:
    conj, core = cyclically_reduce(g, G)
    if core.prefix:
        return Hyperbolic(len(core.prefix))
    return Elliptic(conj)


def _ball(center: TreeVertex, radius: int, G: BsPresentation) -> set[TreeVertex]:
    """The vertices within distance radius of center."""
    ball = {center}
    sphere = [center]
    for _ in range(radius):
        sphere = [w for v in sphere for w in vertex_neighbors(v, G) if w not in ball]
        ball.update(sphere)
    return ball


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
    its representative, if it lies within radius_bound of the first
    element's witness vertex v0; None otherwise.  Rejects hyperbolic input.

    A walk along geodesics (Serre, Trees, I.6.5): while some g moves the
    current vertex v, step to the first vertex of the geodesic from v to
    g v, spelled by v's rep and the first syllable of v's conjugate of g.
    That geodesic runs through the projection of v onto Fix(g), which
    contains the common fixed subtree X, so the walk follows the geodesic
    from v0 to X.  It ends at the least vertex of X, since every geodesic
    from the base vertex into X runs through v0, the projection of the base
    vertex onto Fix(g1).  A nonempty X is nearest the base vertex at the
    farthest of its projections onto the Fix(g), at distance
    max |g|_b / 2: the walk takes at most absence_radius(gs) steps, and
    from that radius on None proves absence.
    """
    gs = list(gs)
    if not gs:
        raise ValueError("need at least one element")
    if radius_bound <= 0:
        raise ValueError("radius bound must be positive")
    classes = [classify(g, G) for g in gs]
    for g, c in zip(gs, classes):
        if isinstance(c, Hyperbolic):
            raise ValueError(f"element {format_word(g)} is hyperbolic, it fixes no vertex")
    v = vertex_of(classes[0].witness, G)
    for _ in range(min(radius_bound, absence_radius(gs)) + 1):
        moved = next((c for c in (conjugated_by(g, v.rep, G) for g in gs) if c.prefix), None)
        if moved is None:
            return v, v.rep
        v = vertex_of(multiply(v.rep, NormalForm(moved.prefix[:1], 0), G), G)
    return None


def export_ball(center: TreeVertex, radius: int, G: BsPresentation) -> str:
    """DOT description of the ball subgraph: vertex label = canonical coset
    word, directed edges source -> range with the edge coset word as label,
    everything ordered lexicographically by label."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    ball = _ball(center, radius, G)

    labels = sorted(str(v) for v in ball)
    edges = []
    for v in ball:
        for i in range(abs(G.n)):
            e = TreeEdge(NormalForm(v.rep.prefix, i))
            rg = edge_range(e, G)
            if rg in ball:
                edges.append((str(v), str(rg), str(e)))
    edges.sort()

    lines = ["digraph bass_serre_ball {"]
    for label in labels:
        lines.append(f'  "{label}";')
    for src, dst, lab in edges:
        lines.append(f'  "{src}" -> "{dst}" [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
