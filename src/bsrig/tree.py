"""The Bass-Serre tree of BS(n, m) and elliptic/hyperbolic classification.

Vertices are cosets g<a>, positive edges are cosets g<a^n>, with
source(g<a^n>) = g<a> and range(g<a^n>) = g b^-1 <a>.  The group acts by
left multiplication; the tree is (|n| + |m|)-regular.  The right-pushed
normal form makes cosets canonical: a vertex is the normal form with tail
zeroed, an edge the NormalForm with tail reduced into [0, |n|).  The
vertex rep spells the geodesic from the base vertex <a>, so adjacent
vertices differ by one letter a^s b^e at the end of the longer rep, and
geodesics part where reps do: no multiplication needed.  A ball is
exported by the same rule, in one depth-first walk that extends each
label by one syllable and emits the lines already in output order.

An element is elliptic iff its cyclically reduced core is an a-power;
otherwise it is hyperbolic and translates along an axis by the cyclically
reduced b-length.  One scan, least_fixed_vertex, settles a common fixed
vertex of elliptic elements.  Either some pairwise product is hyperbolic,
which one product per pair decides, and that pair and its translation
length certify absence; or the deepest witness vertex is the least common
one, read off the witnesses, not searched for, and one product per
element checks it.
"""

from __future__ import annotations

from .words import (
    BsPresentation,
    InternalError,
    NormalForm,
    Value,
    _cyclic_span,
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
    "least_fixed_vertex",
    "common_fixed_vertex",
    "export_ball",
]


class TreeVertex(Value):
    __slots__ = ("rep",)  # rep.tail = 0

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
    __slots__ = ("witness",)  # witness^-1 g witness lies in <a>


class Hyperbolic(Value):
    __slots__ = ("translation_length",)


def classify(g: NormalForm, G: BsPresentation) -> Elliptic | Hyperbolic:
    i, j, _ = _cyclic_span(g, G)
    if j > i:
        return Hyperbolic(j - i)
    return Elliptic(NormalForm(g.prefix[:i], 0))


def least_fixed_vertex(
    gs, G: BsPresentation
) -> tuple[TreeVertex, int] | tuple[None, tuple[int, int, int]]:
    """(v, d): the common fixed vertex v of least b-length of the elliptic
    gs and its distance d from the first element's witness vertex; or
    (None, (i, j, t)) when there is none: the first pair i < j whose product
    g_i g_j is hyperbolic, t its translation length.  Rejects hyperbolic input.

    Serre, Trees, I.6.5: for elliptic g and h, gh is hyperbolic exactly when
    Fix(g) and Fix(h) are disjoint, and then t = 2 d(Fix g, Fix h); subtrees
    that meet pairwise have a common vertex.  So one product per pair decides
    absence, and the pair certifies it.  Otherwise the witness vertex
    prefix[:i] of each g is the projection of the base vertex onto Fix(g),
    which contains the common fixed subtree X, so every geodesic from the
    base vertex into X runs through all the witness vertices: the deepest of
    them is the least vertex of X, i_top - i_0 from the first.  One product
    per element checks that each element fixes it."""
    gs = list(gs)
    if not gs:
        raise ValueError("need at least one element")
    spans = [_cyclic_span(g, G) for g in gs]  # classify's, with no values built
    for g, (i, j, _) in zip(gs, spans):
        if j > i:
            raise ValueError(f"element {format_word(g)} is hyperbolic, it fixes no vertex")
    for i, g in enumerate(gs):
        for j in range(i + 1, len(gs)):
            lo, hi, _ = _cyclic_span(multiply(g, gs[j], G), G)
            if hi > lo:
                return None, (i, j, hi - lo)
    top, deepest = max(zip((i for i, _, _ in spans), gs), key=lambda pair: pair[0])
    v = TreeVertex(NormalForm(deepest.prefix[:top], 0))
    if not all(fixes_vertex(g, v, G) for g in gs):
        raise InternalError("internal error: an element moves the deepest witness vertex")
    return v, top - spans[0][0]


def common_fixed_vertex(
    gs, G: BsPresentation, radius_bound: int
) -> tuple[TreeVertex, NormalForm] | None:
    """least_fixed_vertex's vertex with its rep, if it lies within
    radius_bound >= 0 of the first element's witness vertex; None otherwise,
    and at any radius_bound when the elements fix no common vertex."""
    gs = list(gs)
    if gs and radius_bound < 0:  # an empty gs is least_fixed_vertex's error
        raise ValueError("radius bound must be nonnegative")
    v, d = least_fixed_vertex(gs, G)
    return (v, v.rep) if v is not None and d <= radius_bound else None


def export_ball(center: TreeVertex, radius: int, G: BsPresentation) -> str:
    """DOT description of the ball subgraph: vertex label = canonical coset
    word, directed edges source -> range with the edge coset word as label,
    everything ordered lexicographically by label.  For d = |n| + |m| > 2 the
    ball has 1 + d((d-1)^R - 1)/(d - 2) vertices at radius R (1 + 2R for
    d = 2), and one edge fewer.

    One depth-first walk emits the lines in output order, with no group
    arithmetic and no sort of the ball.  A vertex's children are its label
    plus one syllable, " a^s b^k" (s >= 1), or "b^k" and "a^s b^k" at the
    base vertex e.  Labels below a vertex go on from its label with a space,
    and a suffix that extends a sibling's goes on with ^ or a digit: taken
    in the text order of their suffixes, the labels come sorted, e last.
    Each vertex v emits its edges v a^s <a^n> into v a^s b^-1 <a> that end
    in the ball, in range order.  A child spends |k| of its parent's budget
    radius - dist(v, centre); along the centre's syllables, dist is read off
    the centre's rep.  Off them, equal budgets give equal lines up to the
    label, so each budget's lines are built once, with \\0 for the label."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    limit = {-1: abs(G.n), 1: abs(G.m)}  # the steps (s, e) of _steps have s < limit[e]
    prefix = center.rep.prefix
    size = len(prefix)
    a = {s: f" {_fmt_syllable('a', s)}" if s else "" for s in range(max(limit.values()))}
    b = {k: f" {_fmt_syllable('b', k)}" for k in range(-radius - 1, radius + 1) if k}
    heads = sorted(range(1, len(a)), key=a.__getitem__)
    exps = sorted(range(1, radius + 1), key=str)
    parts = {0: ('  "\0";\n', "", "")}  # the lines of an off-centre vertex, with \0 for its label

    def grow(v: str, budget: int, i: int) -> tuple[str, str, str]:
        """The vertex lines, v's edge lines but v<a^n>'s and the edge lines below v, of the ball at
        v, which spells the centre's first i letters if i < size; v = "" is the base vertex."""
        off = [x for x in exps if x <= budget] if budget > 0 else []  # off the centre
        spans = nears = (off[:1], off, off[1:])  # in text order: " b" < " b^-x" < " b^x"
        s0 = e0 = run = 0
        if i < size:  # the centre's next syllable a^s0 b^(e0 run), and the b-runs along it
            s0, e0 = prefix[i]
            run = next((j for j in range(i + 1, size) if prefix[j][0]), size) - i
            low, high = max(1, -budget), budget + 2 * run
            for k in range(e0 * (radius + 1), e0 * (high + 2), e0):  # b-runs beyond the radius
                if k not in b:
                    b[k] = f" {_fmt_syllable('b', k)}"
            near = sorted(range(low, high + 1), key=str)
            nears = (near[:low == 1], near, near[low == 1:])
        cut = 0 if v else 1  # the base vertex's children drop the leading space
        vertices = [f'  "{v}";\n'] if v and budget >= 0 else []
        own, edges = [], []
        for s in heads if v else (*heads, 0):
            head = v + a[s]
            for j, e in enumerate((1, -1, 1)):
                along = s == s0 and e == e0  # the centre's next syllable
                for x in (nears if along else spans)[j] if s < limit[e] else ():
                    k = e * x
                    on = along and x <= run  # spells more of the centre
                    left = budget + x if on else budget - x + 2 * run * along
                    w = (head + b[k])[cut:]
                    if k == -1 and budget >= 0:  # v a^s <a^n> into w
                        own.append(f'  "{v or "e"}" -> "{w}" [label="{head[cut:] or "e"}"];\n')
                    r0 = (head + b[k - 1])[cut:] if k != 1 else v or "e"  # w<a^n> into r0<a>
                    r0_in_ball = left or (e < 0 and x < run if on else e > 0)
                    edge = f'  "{w}" -> "{r0}" [label="{w}"];\n' if r0_in_ball else ""
                    if on and x == run:  # the centre or its next syllable
                        mine, ahead, below = grow(w, left, i + run)
                    else:  # each budget's lines are built once
                        part = parts[left] = parts.get(left) or grow("\0", left, size)
                        mine, ahead = part[0].replace("\0", w), part[1].replace("\0", w)
                        below = part[2].replace("\0", w)
                    vertices.append(mine)
                    first = b[k - 1] < b[k] + " a" if k != 1 else v
                    edges += (edge, ahead, below) if first else (ahead, edge, below)
        if not v:  # e sorts after every other label
            return "".join(vertices + ['  "e";\n'] * (budget >= 0)), "", "".join(edges + own)
        return "".join(vertices), "".join(own), "".join(edges)

    # the walk starts at e, or at the centre's last syllable boundary outside the ball
    start = next((i for i in range(size - radius - 1, 0, -1) if prefix[i][0]), 0)
    v = format_word(NormalForm(prefix[:start], 0)) if start else ""
    vertices, own, below = grow(v, radius - size + start, start)
    return f"digraph bass_serre_ball {{\n{vertices}{own}{below}}}\n"
