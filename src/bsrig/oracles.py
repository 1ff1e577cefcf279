"""Independent verification paths and random samplers.

The reducer here deliberately shares no code with the normal-form builder:
it works on raw syllable lists, looks for pinches b a^s b^-1 (n | s) and
b^-1 a^s b (m | s) anywhere in the word, and collapses them in a random
order.  Britton's criterion then decides triviality of the reduced word.
The index-profile oracle searches exponents one by one through the word
problem instead of propagating constraints.  The scanner tokenizes words
one character at a time, as a reference for the parser's single pattern.
The double coset oracle scans all r(g) left translates a^i g for the
least tail-zeroed one, instead of choosing the representative digit by
digit.  The convolution oracle counts Hecke coefficients from their
definition, one scan canonicalisation per (candidate, right coset) pair.
The candidate oracles build each candidate d a^i e of a convolution, or
each conjugate g a^i g^-1 of a self-inverse decomposition, by two products
and canonicalise it on its own, instead of walking the candidates by
residue class with a shared prefix.
The fixed-vertex oracle walks along geodesics from the first witness
vertex, one product per element and step, for up to half the largest
b-length of the elements, instead of reading the deepest witness vertex
off the words and deciding absence by a hyperbolic pairwise product; the
walk proves absence by running out.  A separating pair's certificate is
checked on the concatenated words, the translation length t of
p = g_i g_j as |p p|_b - |p|_b, with no tree code.
The ball oracle walks the tree breadth first, one sphere at a time, and
sorts the labels and the edges at the end, instead of emitting them in
output order.
The exchange oracle solves L * angle(u) = r * angle(w) mod 1 in Fraction
arithmetic, one division per solution, instead of listing integer residues.
The commutation oracle decides g a^z = a^y g by comparing two products
instead of running the divisibility cascade, and the modular ratio reads
r(g) / l(g) off the b-exponent sum alone, with no bound on r.
The abelianization image, the listing of Omega up to a denominator,
label equality of irreducibles and the canonical order of their sums are
the checks the acceptance table and the tests make on words, exchange
partners and decompositions.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from fractions import Fraction
from math import gcd

from .fusion import ONE, BimoduleSum, Irreducible, RootOfUnity, angle_key, omega_member
from .hecke import DoubleCoset, HeckeElement, coset_profile, double_coset
from .tree import Hyperbolic, TreeVertex, _steps, classify, vertex_of
from .words import (
    BsPresentation,
    GroupWord,
    InternalError,
    NormalForm,
    WordSyntaxError,
    _fmt_syllable,
    a_power,
    concat_words,
    format_word,
    inverse_word,
    invert,
    multiply,
    normalize,
    to_group_word,
)

__all__ = [
    "oracle_scan",
    "pinch_eliminate",
    "oracle_is_identity",
    "oracle_b_length",
    "abelianization_image",
    "oracle_profile",
    "oracle_conjugates",
    "modular_ratio",
    "scan_double_coset",
    "oracle_convolve",
    "oracle_candidate_convolve",
    "oracle_decompose_self_inverse",
    "oracle_exchange_partners",
    "oracle_common_fixed_vertex",
    "oracle_translation_length",
    "oracle_separates",
    "oracle_export_ball",
    "enumerate_omega",
    "isomorphic",
    "random_word",
    "random_nf",
    "with_inserted_relator",
    "random_elliptic",
]


def oracle_scan(text: str) -> list[tuple[str, int]]:
    """Tokenize ``letter power?`` terms character by character; the same
    tokens and the same WordSyntaxError (message and offset) as the parser."""
    table = {"a": ("a", 1), "A": ("a", -1), "b": ("b", 1), "B": ("b", -1)}
    out: list[tuple[str, int]] = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "e":
            if i + 1 < size and text[i + 1] == "^":
                raise WordSyntaxError("'e' takes no exponent", i + 1)
            i += 1
            continue
        if ch not in table:
            raise WordSyntaxError(f"unexpected character {ch!r}", i)
        letter, sign = table[ch]
        i += 1
        exp = 1
        if i < size and text[i] == "^":
            i += 1
            neg = False
            if i < size and text[i] == "-":
                neg = True
                i += 1
            j = i
            while j < size and "0" <= text[j] <= "9":
                j += 1
            if j == i:
                raise WordSyntaxError("expected digits after '^'", i)
            try:
                exp = int(text[i:j])
            except ValueError:
                limit = sys.get_int_max_str_digits()
                message = f"exponent over the interpreter's {limit}-digit limit"
                raise WordSyntaxError(message, i) from None
            if neg:
                exp = -exp
            i = j
        out.append((letter, sign * exp))
    return out


def _pinch_sites(sylls: tuple[tuple[str, int], ...], G: BsPresentation) -> list[int]:
    """Start indices of collapsible triples b^{+} a^s b^{-} with n | s or
    b^{-} a^s b^{+} with m | s.  Merged syllables keep s nonzero, and a
    zero-power pinch would already have merged away."""
    sites = []
    for i in range(len(sylls) - 2):
        x, y, z = sylls[i], sylls[i + 1], sylls[i + 2]
        if x[0] != "b" or y[0] != "a" or z[0] != "b":
            continue
        if x[1] > 0 > z[1] and y[1] % G.n == 0:
            sites.append(i)
        elif x[1] < 0 < z[1] and y[1] % G.m == 0:
            sites.append(i)
    return sites


def pinch_eliminate(w: GroupWord, G: BsPresentation, rng: random.Random) -> GroupWord:
    """Britton-reduce by collapsing pinches in a random order."""
    sylls = w.syllables
    while True:
        sites = _pinch_sites(sylls, G)
        if not sites:
            return GroupWord(sylls)
        i = rng.choice(sites)
        x, y, z = sylls[i], sylls[i + 1], sylls[i + 2]
        step = 1 if x[1] > 0 else -1
        mid = y[1] // G.n * G.m if step == 1 else y[1] // G.m * G.n
        repl = [("b", x[1] - step), ("a", mid), ("b", z[1] + step)]
        sylls = GroupWord.of(sylls[:i] + tuple(repl) + sylls[i + 3 :]).syllables


def oracle_is_identity(w: GroupWord, G: BsPresentation, rng: random.Random) -> bool:
    return not pinch_eliminate(w, G, rng).syllables


def oracle_b_length(w: GroupWord, G: BsPresentation, rng: random.Random) -> int:
    reduced = pinch_eliminate(w, G, rng)
    return sum(abs(exp) for letter, exp in reduced.syllables if letter == "b")


def abelianization_image(w: GroupWord, G: BsPresentation) -> tuple[int, int]:
    """Image in the abelianization: (sum of b-exponents, sum of a-exponents),
    the a-part reduced mod |m - n| when m != n (the relation abelianizes to
    a^{m-n} = e).  Componentwise additive, so it falsifies wrong identities."""
    b_sum = 0
    a_sum = 0
    for letter, exp in w.syllables:
        if letter == "a":
            a_sum += exp
        else:
            b_sum += exp
    d = abs(G.m - G.n)
    if d:
        a_sum %= d
    return b_sum, a_sum


def oracle_profile(g: NormalForm, G: BsPresentation, bound: int = 10**6) -> tuple[int, int, int]:
    """(l, r, L) by brute search: smallest exponents achieving membership,
    each conjugation decided by the word problem."""
    ginv = invert(g, G)
    l = r = None
    for z in range(1, bound + 1):
        if l is None and not multiply(multiply(g, a_power(z), G), ginv, G).prefix:
            l = z
        if r is None and not multiply(multiply(ginv, a_power(z), G), g, G).prefix:
            r = z
        if l is not None and r is not None:
            break
    if l is None or r is None:
        raise RuntimeError(f"profile search exceeded bound {bound}")
    for L in (l, -l):
        if multiply(multiply(g, a_power(L), G), ginv, G) == a_power(r):
            return l, r, L
    raise RuntimeError("no signed exponent matches, which contradicts almost normality")


def oracle_conjugates(g: NormalForm, z: int, y: int, G: BsPresentation) -> bool:
    """True iff g a^z = a^y g, one product on each side compared by the word
    problem: the profile postcondition for (z, y) = (L, r), centralizing
    a^z for y = z."""
    return multiply(g, a_power(z), G) == multiply(a_power(y), g, G)


def modular_ratio(g: NormalForm, G: BsPresentation) -> Fraction:
    """r(g) / l(g) as the modular function of the Hecke pair,
    (|m0| / |n0|)^sigma with sigma the b-exponent sum of g: a homomorphism
    to the positive rationals, read off the b-letters alone."""
    sigma = sum(e for _, e in g.prefix)
    return Fraction(abs(G.m0), abs(G.n0)) ** sigma


def scan_double_coset(g: NormalForm, G: BsPresentation) -> DoubleCoset:
    """<a> g <a> with the least of the tail-zeroed translates a^i g
    (0 <= i < r(g)), by b-length and then prefix, each one multiplied out."""
    profile = coset_profile(g, G)
    base = NormalForm(g.prefix, 0)
    best = base
    for i in range(1, profile.r):
        prefix = multiply(a_power(i), base, G).prefix
        if (len(prefix), prefix) < (len(best.prefix), best.prefix):
            best = NormalForm(prefix, 0)
    return DoubleCoset(best, profile)


def oracle_convolve(x: HeckeElement, y: HeckeElement, G: BsPresentation) -> HeckeElement:
    """Convolution by the definition: writing E = union of <a> e a^j over
    0 <= j < l(e), the coefficient of F at a representative f is

        c^F = #{ j : f (e a^j)^-1 in D },

    over the support candidates, the double cosets of d a^i e for
    0 <= i < l(d)."""
    acc: dict[DoubleCoset, int] = {}
    for D, cD in x.terms:
        d = D.representative
        for E, cE in y.terms:
            e = E.representative
            candidates: dict[DoubleCoset, None] = {}
            for i in range(D.profile.l):
                F = scan_double_coset(multiply(multiply(d, a_power(i), G), e, G), G)
                candidates.setdefault(F)
            for F in candidates:
                f = F.representative
                count = 0
                for j in range(E.profile.l):
                    t = multiply(f, invert(multiply(e, a_power(j), G), G), G)
                    if scan_double_coset(t, G) == D:
                        count += 1
                if count:
                    acc[F] = acc.get(F, 0) + cD * cE * count
    return HeckeElement.from_dict(acc)


def oracle_candidate_convolve(x: HeckeElement, y: HeckeElement, G: BsPresentation) -> HeckeElement:
    """hecke_convolve with each of the gcd(l(d), r(e)) candidates d a^i e
    built by two products and canonicalised on its own."""
    acc: dict[DoubleCoset, int] = {}
    for D, cD in x.terms:
        d = D.representative
        for E, cE in y.terms:
            e = E.representative
            period = gcd(D.profile.l, E.profile.r)
            hits = Counter(
                double_coset(multiply(multiply(d, a_power(i), G), e, G), G)
                for i in range(period)
            )
            for F, count in hits.items():
                c, rem = divmod(E.profile.l * count * (D.profile.l // period), F.profile.l)
                if rem:
                    raise InternalError(
                        f"internal error: coefficient of {F} in {D} * {E} is not an integer"
                    )
                acc[F] = acc.get(F, 0) + cD * cE * c
    return HeckeElement.from_dict(acc)


def canonical_sum(terms) -> BimoduleSum:
    """The terms in canonical order: characters first, by angle, then coset
    modules by representative."""
    terms = list(terms)
    angle = angle_key(t.char for t in terms if t.char is not None)

    def key(t: Irreducible) -> tuple:
        if t.char is not None:
            return (0, angle(t.char))
        return (1, t.coset.sort_key())

    terms.sort(key=key)
    return BimoduleSum(tuple(terms))


def oracle_decompose_self_inverse(g: NormalForm, G: BsPresentation) -> BimoduleSum:
    """decompose_self_inverse with each conjugate g a^i g^-1, 0 < i < l(g),
    built by two products and canonicalised in order of i; it refuses at
    the first i whose conjugate has r != r(g), and names that i."""
    G.require_standard("self-inverse decomposition")
    p = coset_profile(g, G)
    terms = []
    for i in range(p.r):
        q = gcd(i, p.r)
        terms.append(Irreducible(char=RootOfUnity(i // q, p.r // q)))
    ginv = invert(g, G)
    for i in range(1, p.l):
        conj = multiply(multiply(g, a_power(i), G), ginv, G)
        D = double_coset(conj, G)
        if D.profile.r != p.r:
            raise ValueError(
                f"labeled decomposition does not close for {g}: the conjugate "
                f"at i={i} has r={D.profile.r} instead of r(g)={p.r}"
            )
        terms.append(Irreducible(coset=D))
    out = canonical_sum(terms)
    if out.left_dim != p.l * p.r or out.right_dim != p.l * p.r:
        raise InternalError("internal error: dimension bookkeeping is inconsistent")
    return out


def oracle_exchange_partners(w: RootOfUnity, g: NormalForm, G: BsPresentation) -> set[RootOfUnity]:
    """The |L(g)| solutions u of u^{L(g)} = w^{r(g)} as (r angle(w) + j) / L
    mod 1 for 0 <= j < |L|, with the same ValueError for w outside Omega."""
    if not omega_member(w, G):
        raise ValueError(f"{w} is not in Omega for {G}")
    p = coset_profile(g, G)
    target = Fraction(w.num * p.r, w.den)
    angles = ((target + j) / p.L for j in range(abs(p.L)))
    return {RootOfUnity.of(u.numerator, u.denominator) for u in angles}


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


def oracle_export_ball(center: TreeVertex, radius: int, G: BsPresentation) -> str:
    """export_ball by a breadth-first walk of the ball as a tree rooted at
    the base vertex, which then sorts the labels and the edges.  Each vertex
    steps to its children, the steps of _steps but the pinch; only the path
    from the centre toward the base vertex also steps up, skipping the
    branch it came from.  A child's label is its parent's plus one
    syllable, and format_word runs once, for the farthest ancestor of the
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


def oracle_common_fixed_vertex(
    gs, G: BsPresentation, radius_bound: int
) -> tuple[TreeVertex, NormalForm] | None:
    """common_fixed_vertex by a walk along geodesics, the reference for its
    closed form: while some g moves the current vertex v, step to the
    first vertex of the geodesic from v to g v, read off the reps of v and
    g v.  No pair check, so absence shows only as a walk that runs out,
    which proves it once the walk has gone max |g|_b // 2 steps: a common
    fixed vertex lies within that distance of the first witness vertex."""
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
    for _ in range(min(radius_bound, max(len(g.prefix) for g in gs) // 2) + 1):
        h = v.rep.prefix
        k = next((k for k in (multiply(g, v.rep, G).prefix for g in gs) if k != h), None)
        if k is None:
            return v, v.rep
        v = TreeVertex(NormalForm(k[: len(h) + 1] if k[: len(h)] == h else h[:-1], 0))
    return None


def oracle_translation_length(w: GroupWord, G: BsPresentation, rng: random.Random) -> int:
    """|w w|_b - |w|_b by pinch elimination: the translation length of a
    hyperbolic w, at least 1, and at most 0 for an elliptic w = c a^z c^-1,
    whose square c a^2z c^-1 is no longer."""
    return oracle_b_length(concat_words(w, w), G, rng) - oracle_b_length(w, G, rng)


def oracle_separates(
    gs, certificate: tuple[int, int, int], G: BsPresentation, rng: random.Random
) -> bool:
    """Whether (i, j, t) certifies that the elliptic gs fix no common vertex:
    i < j index gs, and g_i g_j, concatenated as words, is hyperbolic with
    translation length t."""
    i, j, t = certificate
    if not 0 <= i < j < len(gs) or t < 1:
        return False
    p = concat_words(to_group_word(gs[i]), to_group_word(gs[j]))
    return oracle_translation_length(p, G, rng) == t


def enumerate_omega(G: BsPresentation, max_den: int) -> list[RootOfUnity]:
    """All members of Omega with denominator at most max_den, sorted by angle."""
    out = [ONE]
    for den in range(2, max_den + 1):
        if not omega_member(RootOfUnity(1, den), G):
            continue
        for num in range(1, den):
            if gcd(num, den) == 1:
                out.append(RootOfUnity(num, den))
    out.sort(key=angle_key(out))
    return out


def isomorphic(x: Irreducible, y: Irreducible, G: BsPresentation) -> bool:
    """Label equality: coset modules match iff their double cosets agree,
    characters iff their fractions agree.  The trivial module has the two
    spellings K(unit coset) and K[0/1], which are identified."""
    if x.char is not None and y.char is not None:
        return x.char == y.char
    if x.char is None and y.char is None:
        return x.coset.representative == y.coset.representative
    ch, co = (x, y) if x.char is not None else (y, x)
    return ch.char.num == 0 and not co.coset.representative.prefix


# ---------------------------------------------------------------------------
# samplers

def random_word(rng: random.Random, max_b: int = 6, max_exp: int = 10**6) -> GroupWord:
    """Random free word: up to max_b b-letters in signed runs, interleaved
    with a-powers of magnitude up to max_exp."""
    items: list[tuple[str, int]] = []
    total_b = rng.randint(0, max_b)
    runs: list[int] = []
    while total_b > 0:
        run = rng.randint(1, total_b)
        runs.append(run if rng.random() < 0.5 else -run)
        total_b -= run
    for run in runs:
        if rng.random() < 0.8:
            items.append(("a", rng.randint(-max_exp, max_exp)))
        items.append(("b", run))
    if rng.random() < 0.8:
        items.append(("a", rng.randint(-max_exp, max_exp)))
    return GroupWord.of(items)


def random_nf(
    rng: random.Random, G: BsPresentation, max_b: int = 4, max_exp: int = 50
) -> NormalForm:
    return normalize(random_word(rng, max_b=max_b, max_exp=max_exp), G)


def with_inserted_relator(w: GroupWord, G: BsPresentation, rng: random.Random) -> GroupWord:
    """Insert a conjugate of the defining relator (or its inverse) at a random
    syllable boundary; the result is the same group element."""
    relator = GroupWord.of([("b", 1), ("a", G.n), ("b", -1), ("a", -G.m)])
    if rng.random() < 0.5:
        relator = inverse_word(relator)
    conj = random_word(rng, max_b=2, max_exp=8)
    padded = concat_words(concat_words(conj, relator), inverse_word(conj))
    pos = rng.randint(0, len(w.syllables))
    return GroupWord.of(w.syllables[:pos] + padded.syllables + w.syllables[pos:])


def random_elliptic(
    rng: random.Random, G: BsPresentation, max_conj_b: int = 2, deep: bool = False
) -> NormalForm:
    """A random conjugate u a^p u^-1; with deep=True the power p is a
    multiple of n*m, which fixes a whole neighborhood of the u-vertex."""
    u = normalize(random_word(rng, max_b=max_conj_b, max_exp=6), G)
    p = rng.randint(1, 4) * (1 if rng.random() < 0.5 else -1)
    if deep:
        p *= G.n * G.m
    return multiply(multiply(u, a_power(p), G), invert(u, G), G)
