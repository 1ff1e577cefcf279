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
reduced b-length.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import (
    BsPresentation,
    NormalForm,
    IDENTITY,
    b_letter,
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
    "edge_of",
    "edge_source",
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


def edge_of(g: NormalForm, G: BsPresentation) -> TreeEdge:
    return TreeEdge(NormalForm(g.prefix, g.tail % abs(G.n)))


def base_vertex(G: BsPresentation) -> TreeVertex:
    return TreeVertex(IDENTITY)


def edge_source(e: TreeEdge, G: BsPresentation) -> TreeVertex:
    return TreeVertex(NormalForm(e.rep.prefix, 0))


def edge_range(e: TreeEdge, G: BsPresentation) -> TreeVertex:
    return vertex_of(multiply(e.rep, b_letter(-1), G), G)


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


def _ball(center: TreeVertex, radius: int, G: BsPresentation):
    """The vertices within distance radius of center, sphere by sphere,
    each sphere in breadth-first order (neighbors in vertex_neighbors
    order).  The next sphere is built only after the previous one has been
    consumed, so a caller that stops early does no further work."""
    seen = {center}
    sphere = [center]
    for _ in range(radius):
        yield from sphere
        nxt = []
        for v in sphere:
            for w in vertex_neighbors(v, G):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        sphere = nxt
    yield from sphere


def _fixes_all(gs: list[NormalForm], v: TreeVertex, G: BsPresentation) -> bool:
    return all(fixes_vertex(g, v, G) for g in gs)


def common_fixed_vertex(
    gs, G: BsPresentation, radius_bound: int
) -> tuple[TreeVertex, NormalForm] | None:
    """Search the ball of the given radius around the first element's witness
    vertex for a vertex fixed by every element of gs.

    Returns the common fixed vertex of least b-length together with its
    representative, or None if the ball holds no common fixed vertex.  The
    search is bounded: absence is not a disproof.  Rejects hyperbolic input.

    The first vertex the breadth-first walk finds is already the least one.
    The witness vertex v0 of the first element g1 has b-length
    |g1|_b / 2 = d(base, Fix(g1)), so it is the projection of the base
    vertex onto the subtree Fix(g1).  Every geodesic from the base vertex
    into the common fixed subtree X, a subtree of Fix(g1), therefore passes
    through v0, and the vertex of X nearest v0 is the unique vertex of X of
    least b-length.  It lies in the ball whenever any vertex of X does.
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
    v0 = vertex_of(classes[0].witness, G)
    hit = next((v for v in _ball(v0, radius_bound, G) if _fixes_all(gs, v, G)), None)
    return None if hit is None else (hit, hit.rep)


def export_ball(center: TreeVertex, radius: int, G: BsPresentation) -> str:
    """DOT description of the ball subgraph: vertex label = canonical coset
    word, directed edges source -> range with the edge coset word as label,
    everything ordered lexicographically by label."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    ball = set(_ball(center, radius, G))

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
