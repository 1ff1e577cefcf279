"""The Bass-Serre tree of BS(n, m) and elliptic/hyperbolic classification.

Vertices are cosets g<a>, positive edges are cosets g<a^n>, with
source(g<a^n>) = g<a> and range(g<a^n>) = g b^-1 <a>.  The group acts by
left multiplication; the tree is (|n| + |m|)-regular.  The right-pushed
normal form makes cosets canonical: a vertex is the normal form with tail
zeroed, an edge the NormalForm with tail reduced into [0, |n|).  The
vertex rep spells the geodesic from the base vertex <a>, so adjacent
vertices differ by one letter a^s b^e at the end of the longer rep, and
geodesics part where reps do: no multiplication needed.

An element is elliptic iff its cyclically reduced core is an a-power;
otherwise it is hyperbolic and translates along an axis by the cyclically
reduced b-length.  Common fixed vertices are found by a walk along
geodesics, not by a ball search: each step costs one product g h per
element, and the next vertex is read off the reps of h<a> and g h<a>.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import (
    BsPresentation,
    NormalForm,
    IDENTITY,
    cyclically_reduce,
    format_word,
    multiply,
)

__all__ = [
    "TreeVertex",
    "Elliptic",
    "Hyperbolic",
    "vertex_of",
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


def vertex_of(g: NormalForm, G: BsPresentation) -> TreeVertex:
    return TreeVertex(NormalForm(g.prefix, 0))


def base_vertex(G: BsPresentation) -> TreeVertex:
    return TreeVertex(IDENTITY)


def fixes_vertex(g: NormalForm, v: TreeVertex, G: BsPresentation) -> bool:
    """g fixes the vertex h<a> iff g h<a> = h<a>, i.e. g h and h share
    their prefix: one product."""
    return multiply(g, v.rep, G).prefix == v.rep.prefix


def _neighbor(v: TreeVertex, s: int, e: int) -> TreeVertex:
    """The vertex v a^s b^e <a>, for s in the normal-form range of e: v's rep
    with (s, e) appended, unless that is the one pinch the normal form
    allows (s = 0 after b^-e), where it is v's parent."""
    prefix = v.rep.prefix
    if s == 0 and prefix and prefix[-1][1] == -e:
        return TreeVertex(NormalForm(prefix[:-1], 0))
    return TreeVertex(NormalForm(prefix + ((s, e),), 0))


def vertex_neighbors(v: TreeVertex, G: BsPresentation) -> list[TreeVertex]:
    """The |n| + |m| adjacent vertices: ranges of the edges v a^i <a^n> and
    sources of the edges v a^j b <a^n>."""
    steps = [(i, -1) for i in range(abs(G.n))] + [(j, 1) for j in range(abs(G.m))]
    return [_neighbor(v, s, e) for s, e in steps]


def vertex_distance(u: TreeVertex, v: TreeVertex, G: BsPresentation) -> int:
    """Tree distance: |u| + |v| - 2 (length of the reps' common prefix)."""
    p, q = u.rep.prefix, v.rep.prefix
    common = next((i for i, (x, y) in enumerate(zip(p, q)) if x != y), min(len(p), len(q)))
    return len(p) + len(q) - 2 * common


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


def export_ball(center: TreeVertex, radius: int, G: BsPresentation) -> str:
    """DOT description of the ball subgraph: vertex label = canonical coset
    word, directed edges source -> range with the edge coset word as label,
    everything ordered lexicographically by label."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    labels = {center: str(center)}
    edges = []
    sphere = [center]
    for _ in range(radius):
        pairs = [(u, w) for u in sphere for w in vertex_neighbors(u, G) if w not in labels]
        sphere = [w for _, w in pairs]
        labels.update((w, str(w)) for w in sphere)
        for u, w in pairs:
            # the child c is the end with the longer rep, one letter a^s b^e past its parent p
            c, p = (w, u) if len(w.rep.prefix) > len(u.rep.prefix) else (u, w)
            s, e = c.rep.prefix[-1]
            if e == 1:  # c b^-1 <a> = p: the edge c<a^n> runs from c to p
                edges.append((labels[c], labels[p], labels[c]))
            else:  # c = p a^s b^-1 <a>: the range of the edge p a^s <a^n>
                label = format_word(NormalForm(p.rep.prefix, s)) if s else labels[p]
                edges.append((labels[p], labels[c], label))
    edges.sort()

    lines = ["digraph bass_serre_ball {"]
    for label in sorted(labels.values()):
        lines.append(f'  "{label}";')
    for src, dst, lab in edges:
        lines.append(f'  "{src}" -> "{dst}" [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
