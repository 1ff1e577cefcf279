"""The benchmark workloads: inputs, operations and correctness checks.

Each workload is a fixed list of operations (one pass) built from a seed.
An operation calls into the package only through the ``Layers`` handles it
is given (see tracing.py); its inputs are parsed from generated text during
set-up.  ``check`` runs outside the timed region on the outputs of the first
pass and returns the slots whose output is wrong.  Documented domain
refusals (a collapsing conjugate in ``decompose_self_inverse``, an absent
common fixed vertex) are correct answers when the check confirms them.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable, NamedTuple

import gen

ROOT = Path(__file__).resolve().parent.parent


class Op(NamedTuple):
    kind: str
    call: Callable  # call(layers, *args)
    args: tuple
    ladder: tuple | None = None  # (growth metric, rung) when the op is a ladder rung
    expect: object = None  # expected answer, when the construction fixes it


class In(NamedTuple):
    """An input still in text form, parsed by ``materialize`` at set-up:
    tag G (the group), w (free word), nf (normal form), nfs (list of normal
    forms), T (Hecke element of one double coset), v (tree vertex), root
    (root of unity), profiles (the (l, r) pairs of a list of words)."""

    tag: str
    group: tuple | None
    data: object = None


def materialize(mods, op: Op) -> Op:
    """The operation with its inputs parsed through the package's API."""
    W = mods.words

    def resolve(x):
        if not isinstance(x, In):
            return x
        G = W.bs(*x.group) if x.group else None
        if x.tag == "G":
            return G
        if x.tag == "w":
            return W.parse_word(x.data)
        if x.tag == "nf":
            return W.normalize(W.parse_word(x.data), G)
        if x.tag == "nfs":
            return [W.normalize(W.parse_word(t), G) for t in x.data]
        if x.tag == "T":
            return mods.hecke.HeckeElement.single(mods.hecke.double_coset(W.normalize(W.parse_word(x.data), G), G))
        if x.tag == "v":
            return mods.tree.vertex_of(W.normalize(W.parse_word(x.data), G), G)
        if x.tag == "root":
            return mods.fusion.RootOfUnity.of(*x.data)
        if x.tag == "profiles":
            profiles = (mods.hecke.coset_profile(W.normalize(W.parse_word(t), G), G) for t in x.data)
            return sorted({(p.l, p.r) for p in profiles})
        raise ValueError(f"unknown input tag {x.tag}")

    return op._replace(args=tuple(resolve(a) for a in op.args))


class Raised:
    """An exception an operation raised, compared by type and message."""

    def __init__(self, exc: BaseException):
        self.kind = type(exc).__name__
        self.message = str(exc)

    def __eq__(self, other):
        return isinstance(other, Raised) and (self.kind, self.message) == (other.kind, other.message)

    def __str__(self):
        return f"!{self.kind}"


def canon(x) -> str:
    """Canonical text of an output, independent of container types."""
    if isinstance(x, (set, frozenset)):
        return "{" + ",".join(sorted(canon(v) for v in x)) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canon(v) for v in x) + "]"
    if hasattr(x, "as_json"):
        return json.dumps(x.as_json(), sort_keys=True)
    if hasattr(x, "representative"):  # DoubleCoset
        return f"{x.representative}|{canon(x.profile)}"
    if hasattr(x, "witness"):  # Elliptic
        return f"elliptic:{x.witness}"
    if hasattr(x, "translation_length"):
        return f"hyperbolic:{x.translation_length}"
    return str(x)


# ---------------------------------------------------------------------------
# operation bodies: each is one closed-loop operation

def _parse_normalize(L, text, G):
    return L.words.normalize(L.words.parse_word(text), G)


def _normalize(L, w, G):
    return L.words.normalize(w, G)


def _eq(L, w1, w2, G):
    return L.words.normalize(w1, G) == L.words.normalize(w2, G)


def _call(layer: str, name: str) -> Callable:
    def body(L, *args):
        return getattr(getattr(L, layer), name)(*args)

    body.__name__ = f"_{name}"
    return body


_multiply = _call("words", "multiply")
_invert = _call("words", "invert")
_power = _call("words", "power")
_cyc = _call("words", "cyclically_reduce")
_classify = _call("tree", "classify")
_profile = _call("hecke", "coset_profile")
_double_coset = _call("hecke", "double_coset")
_same_dc = _call("hecke", "same_double_coset")
_qc = _call("hecke", "qc_member")
_convolve = _call("hecke", "hecke_convolve")
_decompose = _call("fusion", "decompose_self_inverse")
_exchange = _call("fusion", "exchange_partners")
_fixed = _call("tree", "common_fixed_vertex")
_ball = _call("tree", "export_ball")
_distance = _call("tree", "vertex_distance")
_neighbors = _call("tree", "vertex_neighbors")
_recover = _call("rigidity", "recover_parameters")
_obstruction = _call("rigidity", "crossed_product_obstruction")
_witness = _call("rigidity", "sign_witness")
_canonicalize = _call("rigidity", "canonicalize")


# ---------------------------------------------------------------------------
# independent arithmetic used by the checks

def _omega_member(q: Fraction, n: int, m: int) -> bool:
    """The order of exp(2 pi i q) divides some k n0^s |m0|^t."""
    k = gcd(n, m)
    d = q.denominator
    for p in (abs(n // k), abs(m // k)):
        while p > 1 and (g := gcd(d, p)) > 1:
            d //= g
    return k % d == 0


def _witness_ok(wit, n: int, m: int) -> bool:
    om, mu = Fraction(wit.omega.num, wit.omega.den), Fraction(wit.mu.num, wit.mu.den)
    return (
        (om * n - mu * m) % 1 == 0
        and (mu * 2 * m) % 1 != 0
        and _omega_member(om, n, m)
        and _omega_member(mu, n, m)
    )


def _verdict(n1, m1, n2, m2) -> str:
    """The obstruction rule: n must agree, then |m|, then the sign of m
    unless n = |m|."""
    if n1 != n2:
        return "n_mismatch"
    if abs(m1) != abs(m2):
        return "abs_m_mismatch"
    if n1 != abs(m1) and m1 != m2:
        return "sign_mismatch"
    return "no_obstruction"


def _word(M, g):
    return M.words.to_group_word(g)


def _oracle_equal(M, w1, w2, G, rng) -> bool:
    """Equality decided by the pinch eliminator alone."""
    W = M.words
    return M.oracles.oracle_is_identity(W.concat_words(w1, W.inverse_word(w2)), G, rng)


def _elliptic_ok(M, g, cls, G) -> bool:
    W = M.words
    if hasattr(cls, "witness"):
        return not W.conjugated_by(g, cls.witness, G).prefix
    # a hyperbolic element v c v^-1 has |g^2| - |g| = |c|, its translation length
    return W.multiply(g, g, G).b_length - g.b_length == cls.translation_length >= 1


# ---------------------------------------------------------------------------
# words_stream

WS_GROUPS = ((2, 3), (2, -3), (3, 4), (4, 6), (1, 2))
WS_B = (1, 2, 4, 8, 16, 32, 64, 128)
WS_BITS = (8, 64, 512, 4096)
PARSE_BITS = 16384  # parsing is linear in text length; cap the text per word
EXP_LADDER = tuple(8 << i for i in range(10))  # 8 .. 4096 bits
PAIRS = ((2, 3), (2, -3), (3, 4), (3, -4), (4, 6), (4, -6), (2, 2), (3, -3), (2, 4))


def build_words_stream(rng):
    ops = []
    for n, m in WS_GROUPS:
        G = In("G", (n, m))

        def nf(text):
            return In("nf", (n, m), text)

        profiled = ["b"]
        for i, k in enumerate(WS_B):
            # inputs parsed at set-up pair long words with small exponents
            # and short words with large ones; parse_normalize covers every pair
            bits = WS_BITS[-1 - i % len(WS_BITS)]
            for b in WS_BITS:
                if k * b <= PARSE_BITS:
                    ops.append(Op("parse_normalize", _parse_normalize, (gen.word(rng, k, n, m, b), G)))
            y = gen.word(rng, k, n, m, bits)
            ops.append(Op("multiply", _multiply, (nf(gen.word(rng, k, n, m, bits)), nf(y), G)))
            ops.append(Op("invert", _invert, (nf(gen.word(rng, k, n, m, bits)), G)))
            if k <= 16:
                ops.append(Op("power", _power, (nf(y), 2 + i, G)))
            sy = gen.syllables(rng, gen.signs(rng, k, n, m), n, m, bits)
            equal = i % 2 == 0
            other = gen.with_relator(rng, sy, n, m) if equal else gen.perturbed(sy)
            ops.append(Op("eq", _eq, (In("w", None, gen.text(sy)), In("w", None, other), G), expect=equal))
            u = gen.syllables(rng, gen.signs(rng, max(1, k // 4), n, m), n, m, bits, tail=False)
            core = gen.syllables(rng, gen.signs(rng, max(1, k // 2), n, m), n, m, bits)
            conj = nf(gen.text(u + core + gen.inverse(u)))
            ell = nf(gen.text(u + [(gen.a_exp(rng, bits), 0)] + gen.inverse(u)))
            ops.append(Op("cyclically_reduce", _cyc, (conj, G)))
            ops.append(Op("classify", _classify, (conj if equal else ell, G)))
            p = gen.word(rng, k, n, m, bits)
            profiled.append(p)
            ops.append(Op("coset_profile", _profile, (nf(p), G)))
        if 2 <= n <= abs(m):
            ops.append(Op("recover_parameters", _recover, (In("profiles", (n, m), profiled),), expect=(n, abs(m))))
            if n != abs(m):
                ops.append(Op("sign_witness", _witness, (n, m)))
    for bits in EXP_LADDER:
        for _ in range(4):
            w = In("w", None, gen.word(rng, 16, 2, 3, bits))
            tag = ("words.normalize.growth_per_exp_doubling", bits.bit_length() - 1)
            ops.append(Op("normalize", _normalize, (w, In("G", (2, 3))), ladder=tag))
    for _ in range(8):
        (n1, m1), (n2, m2) = rng.choice(PAIRS), rng.choice(PAIRS)
        ops.append(Op("crossed_product_obstruction", _obstruction, (n1, m1, n2, m2), expect=_verdict(n1, m1, n2, m2)))
        a, b = rng.choice(PAIRS)
        a, b = rng.choice(((a, b), (-a, -b), (b, a), (-b, -a)))
        ops.append(Op("canonicalize", _canonicalize, (a, b)))
    return ops


def check_words_stream(M, ops, outs, rng):
    W, H, O = M.words, M.hecke, M.oracles
    wrong = set()
    for i, (op, out) in enumerate(zip(ops, outs)):
        sampled = i % 5 == 0
        a = op.args
        if op.kind in ("parse_normalize", "normalize"):
            w, G = (W.parse_word(a[0]) if op.kind == "parse_normalize" else a[0]), a[1]
            ok = W.normalize(W.to_group_word(out), G) == out
            if ok and sampled:
                ok = O.oracle_b_length(w, G, rng) == out.b_length and _oracle_equal(M, w, _word(M, out), G, rng)
        elif op.kind == "multiply":
            x, y, G = a
            ok = W.multiply(out, W.invert(y, G), G) == x
            if ok and sampled:
                ok = _oracle_equal(M, W.concat_words(_word(M, x), _word(M, y)), _word(M, out), G, rng)
        elif op.kind == "invert":
            x, G = a
            ok = W.multiply(x, out, G) == W.IDENTITY and W.multiply(out, x, G) == W.IDENTITY
            if ok and sampled:
                ok = _oracle_equal(M, W.inverse_word(_word(M, x)), _word(M, out), G, rng)
        elif op.kind == "power":
            x, z, G = a
            acc = W.IDENTITY
            for _ in range(z):
                acc = W.multiply(acc, x, G)
            ok = acc == out
        elif op.kind == "eq":
            w1, w2, G = a
            ok = out is op.expect
            if ok and sampled:
                ok = _oracle_equal(M, w1, w2, G, rng) is op.expect
        elif op.kind == "cyclically_reduce":
            g, G = a
            conj, core = out
            ok = W.conjugated_by(g, conj, G) == core and core.b_length <= g.b_length
        elif op.kind == "classify":
            ok = _elliptic_ok(M, a[0], out, a[1])
        elif op.kind == "coset_profile":
            g, G = a
            ok = out.l == H.coset_profile(W.invert(g, G), G).r
            if ok and sampled and out.r <= 3000:
                ok = O.oracle_profile(g, G) == (out.l, out.r, out.L)
        elif op.kind == "recover_parameters":
            ok = out == op.expect
        elif op.kind == "sign_witness":
            ok = _witness_ok(out, *a)
        elif op.kind == "crossed_product_obstruction":
            n1, m1 = a[0], a[1]
            ok = out.kind == op.expect and (out.kind != "sign_mismatch" or _witness_ok(out.witness, n1, m1))
        elif op.kind == "canonicalize":
            n, m = out
            ok = 1 <= n <= abs(m) and sorted(out) in (sorted(a), sorted((-a[0], -a[1])))
        else:
            ok = False
        if isinstance(out, Raised) or not ok:
            wrong.add(i)
    return wrong


# ---------------------------------------------------------------------------
# coset_ladder

CL_GROUPS = ((2, 3), (2, -3), (3, 4))


def build_coset_ladder(rng):
    ops = []
    for n, m in CL_GROUPS:
        G = In("G", (n, m))
        three = abs(m) == 3  # r(b^k) = 3^k; in BS(3,4) it is 4^k

        def sy(sgn):
            return gen.syllables(rng, sgn, n, m, 4)

        def nf(sgn):
            return In("nf", (n, m), gen.text(sy(sgn)))

        # Rung caps keep the slowest call near 0.1 s.  Below the ten
        # slowest slots sit the b^7 double cosets (3 per group), so the
        # tail order statistic falls among calls of one kind and size.
        kmax = 8 if three else 5
        for k in range(1, kmax + 1):
            tag = ("hecke.double_coset.growth_per_b", k) if three and k >= 3 else None
            for _ in range(3 if k == 7 else 2):
                ops.append(Op("double_coset", _double_coset, (nf((1,) * k), G), ladder=tag))
        for k in range(1, min(kmax, 7)):
            g = gen.text(sy((1,) * k))
            h = f"a^{rng.randrange(1, 100)} {g} a^{rng.randrange(1, 100)}"
            ops.append(Op("same_double_coset", _same_dc, (In("nf", (n, m), g), In("nf", (n, m), h), G), expect=True))
            ops.append(Op("same_double_coset", _same_dc, (In("nf", (n, m), g), nf((1,) * (k - 1) + (-1,)), G), expect=False))
        for k in (1, 2, 4, 8, 16):
            ops.append(Op("qc_member", _qc, (nf((1,) * k + (-1,) * k), G)))
            ops.append(Op("qc_member", _qc, (nf((1,) * k), G)))
        for k in range(1, 4 if three else 3):
            g = sy((1,) * k)
            tag = ("hecke.hecke_convolve.growth_per_b", k) if three else None
            pair = (In("T", (n, m), gen.text(g)), In("T", (n, m), gen.text(gen.inverse(g))))
            ops.append(Op("hecke_convolve", _convolve, (*pair, G), ladder=tag))
        for _ in range(3):
            pair = [In("T", (n, m), gen.text(sy(gen.signs(rng, 1, n, m)))) for _ in range(2)]
            ops.append(Op("hecke_convolve", _convolve, (*pair, G)))
        for sgn in ((1,), (-1,), (1, -1), (-1, 1), (1, 1, -1, -1), (1, 1), (1, 1, 1), (-1, -1)):
            ops.append(Op("decompose_self_inverse", _decompose, (nf(sgn), G)))
        if three:
            ops.append(Op("decompose_self_inverse", _decompose, (nf((1, 1, 1, -1, -1, -1)), G)))
        w = In("root", None, (1, 3))
        for k in ((2, 4, 6, 8, 10, 12) if three else (2, 4, 6, 8)):
            tag = ("fusion.exchange_partners.growth_per_b", k) if three and k >= 4 else None
            ops.append(Op("exchange_partners", _exchange, (w, nf((1,) * k), G), ladder=tag))
        for k in (4, 8, 16, 32, 64):
            for _ in range(2):
                tag = ("hecke.coset_profile.growth_per_b", k)
                ops.append(Op("coset_profile", _profile, (nf(gen.signs(rng, k, n, m)), G), ladder=tag))
    return ops


def _convolve_matches(M, g, dec, G) -> bool:
    """T_g * T_{g^-1} = r(g) T_e + sum of the decomposition's coset terms."""
    H, W = M.hecke, M.words
    p = H.coset_profile(g, G)
    prod = H.hecke_convolve(
        H.HeckeElement.single(H.double_coset(g, G)),
        H.HeckeElement.single(H.double_coset(W.invert(g, G), G)),
        G,
    )
    want = {"e": p.r}
    for t in dec.terms:
        if t.coset is not None:
            want[str(t.coset)] = want.get(str(t.coset), 0) + 1
    return {str(D): c for D, c in prod.terms} == want


def check_coset_ladder(M, ops, outs, rng):
    W, H, O = M.words, M.hecke, M.oracles
    wrong = set()
    for i, (op, out) in enumerate(zip(ops, outs)):
        a = op.args
        G = a[-1]
        refused = isinstance(out, Raised)
        if refused and op.kind != "decompose_self_inverse":
            wrong.add(i)
            continue
        if op.kind == "double_coset":
            g = a[0]
            rep = out.representative
            ok = (
                out.profile == H.coset_profile(g, G)
                and rep.tail == 0
                and [e for _, e in rep.prefix] == [e for _, e in g.prefix]
            )
            if ok and out.profile.r <= 729:
                ok = O.oracle_profile(g, G) == (out.profile.l, out.profile.r, out.profile.L)
                translates = [W.multiply(W.a_power(j), g, G).prefix for j in range(out.profile.r)]
                ok = ok and rep.prefix == min(translates, key=lambda pre: (len(pre), pre))
        elif op.kind == "same_double_coset":
            ok = out is op.expect
        elif op.kind in ("qc_member", "coset_profile"):
            g = a[0]
            p = H.coset_profile(g, G)
            ok = p.l == H.coset_profile(W.invert(g, G), G).r
            if p.r <= 729:
                p = H.CosetProfile(*O.oracle_profile(g, G))
            ok = ok and out == (p.L == p.l == p.r if op.kind == "qc_member" else p)
        elif op.kind == "hecke_convolve":
            x, y = a[0], a[1]
            degree = sum(c * F.profile.l for F, c in out.terms)
            ok = degree == sum(cx * D.profile.l * cy * E.profile.l for D, cx in x.terms for E, cy in y.terms)
        elif op.kind == "decompose_self_inverse":
            g = a[0]
            p = H.coset_profile(g, G)
            if refused:
                # a refusal is right iff some conjugate g a^i g^-1 drops the index
                ginv = W.invert(g, G)
                conj = (W.multiply(W.multiply(g, W.a_power(j), G), ginv, G) for j in range(1, p.l))
                ok = out.kind == "ValueError" and any(O.oracle_profile(c, G)[1] != p.r for c in conj)
            else:
                ok = (
                    out.left_dim == out.right_dim == p.l * p.r
                    and sum(t.char is not None for t in out.terms) == p.r
                    and _convolve_matches(M, g, out, G)
                )
        elif op.kind == "exchange_partners":
            w, g = a[0], a[1]
            p = H.coset_profile(g, G)
            target = Fraction(w.num * p.r, w.den)
            n, m = G.n, G.m
            want = set()
            if abs(p.L) <= 10**4:
                for j in range(abs(p.L)):
                    q = (target + j) / p.L % 1
                    if _omega_member(q, n, m):
                        want.add(q)
            got = {Fraction(u.num, u.den) for u in out}
            ok = all((u * p.L - target) % 1 == 0 and _omega_member(u, n, m) for u in got)
            ok = ok and (got == want or abs(p.L) > 10**4)
        else:
            ok = False
        if not ok:
            wrong.add(i)
    return wrong


# ---------------------------------------------------------------------------
# tree_walk

TW_GROUPS = ((2, 3), (2, -3))


def build_tree_walk(rng):
    ops = []
    for n, m in TW_GROUPS:
        G = In("G", (n, m))

        def nf(sylls):
            return In("nf", (n, m), gen.text(sylls))

        def vertex(k):
            return In("v", (n, m), gen.text(gen.syllables(rng, gen.signs(rng, k, n, m), n, m, 3, tail=False)))

        for j in range(8):
            # u a^{p n m} u^-1 fixes the whole radius-1 ball at u<a>, and
            # v = u a^x b^{+-1} is a neighbour of u, fixed by v a^q v^-1
            u = gen.syllables(rng, gen.signs(rng, 1 + j % 4, n, m), n, m, 3, tail=False)
            v = u + [(rng.randrange(-9, 10), rng.choice((1, -1)))]
            g1 = u + [(rng.randint(1, 4) * n * m, 0)] + gen.inverse(u)
            g2 = v + [(rng.randint(1, 9), 0)] + gen.inverse(v)
            ops.append(Op("fixed_found", _fixed, (In("nfs", (n, m), [gen.text(g2), gen.text(g1)]), G, 4)))
        for radius in range(1, 6):
            for _ in range(2):
                # a^6 and u a^2 u^-1 with u = b a^x b a^y b: their fixed
                # subtrees are disjoint, so the product is hyperbolic
                u = [(0, 1), (rng.randrange(-20, 21), 1), (rng.randrange(-20, 21), 1)]
                gs = In("nfs", (n, m), ["a^6", gen.text(u + [(2, 0)] + gen.inverse(u))])
                tag = ("tree.common_fixed_vertex.growth_per_radius", radius)
                ops.append(Op("fixed_absent", _fixed, (gs, G, radius), ladder=tag))
            tag = ("tree.export_ball.growth_per_radius", radius)
            ops.append(Op("export_ball", _ball, (vertex(rng.randint(0, 2)), radius, G), ladder=tag))
        for j in range(16):
            ops.append(Op("vertex_distance", _distance, (vertex(1 + j % 8), vertex(1 + (j * 3) % 8), G)))
            ops.append(Op("vertex_neighbors", _neighbors, (vertex(j % 8), G)))
            u = gen.syllables(rng, gen.signs(rng, 1 + j % 4, n, m), n, m, 8, tail=False)
            core = [(gen.a_exp(rng, 8), 0)] if j % 2 else gen.syllables(rng, gen.signs(rng, 1 + j % 3, n, m), n, m, 8)
            ops.append(Op("classify", _classify, (nf(u + core + gen.inverse(u)), G)))
    return ops


def ball_size(d: int, radius: int) -> int:
    """Vertices within the radius in a d-regular tree."""
    return 1 + d * sum((d - 1) ** i for i in range(radius))


def check_tree_walk(M, ops, outs, rng):
    W, T, O = M.words, M.tree, M.oracles
    wrong = set()

    def dist(u, v, G):
        return O.oracle_b_length(W.concat_words(W.inverse_word(_word(M, u.rep)), _word(M, v.rep)), G, rng)

    for i, (op, out) in enumerate(zip(ops, outs)):
        a = op.args
        if isinstance(out, Raised):
            wrong.add(i)
            continue
        if op.kind == "fixed_found":
            gs, G, _ = a
            ok = out is not None and out[1] == out[0].rep and all(T.fixes_vertex(g, out[0], G) for g in gs)
        elif op.kind == "fixed_absent":
            (g1, g2), G, _ = a
            # hyperbolic iff squaring lengthens: elliptic u a^k u^-1 squares to u a^2k u^-1
            p = W.concat_words(_word(M, g1), _word(M, g2))
            ok = out is None and O.oracle_b_length(W.concat_words(p, p), G, rng) > O.oracle_b_length(p, G, rng)
        elif op.kind == "export_ball":
            center, radius, G = a
            lines = out.splitlines()
            nodes = [s for s in lines if s.endswith('";') and "->" not in s]
            edges = [s for s in lines if "->" in s]
            size = ball_size(abs(G.n) + abs(G.m), radius)
            ok = len(nodes) == size and len(edges) == size - 1 and f'  "{center}";' in nodes
        elif op.kind == "vertex_distance":
            u, v, G = a
            ok = out == dist(u, v, G)
        elif op.kind == "vertex_neighbors":
            v, G = a
            ok = len(set(out)) == len(out) == abs(G.n) + abs(G.m) and all(dist(v, w, G) == 1 for w in out)
        elif op.kind == "classify":
            ok = _elliptic_ok(M, a[0], out, a[1])
        else:
            ok = False
        if not ok:
            wrong.add(i)
    return wrong


# ---------------------------------------------------------------------------
# the command line (measured in the traced run of words_stream)

def readme_examples() -> list[tuple[list[str], str | None]]:
    """(argv, expected stdout) for each ``$ bsrig ...`` line of README
    except selftest; the expected stdout is None where README shows none."""
    out = []
    lines = (ROOT / "README.md").read_text().splitlines()
    for i, line in enumerate(lines):
        if not line.startswith("$ bsrig "):
            continue
        argv = shlex.split(line[2:], comments=True)[1:]
        if argv[-1:] == ["selftest"]:
            continue
        shown = []
        for nxt in lines[i + 1 :]:
            if nxt.startswith("$ ") or nxt.startswith("```"):
                break
            shown.append(nxt)
        out.append((argv, "\n".join(shown) + "\n" if shown else None))
    return out


def run_cli(argv: list[str]) -> tuple[int, str]:
    """The command line as a user runs it: a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "bsrig.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout


def cli_output_ok(M, argv: list[str], shown: str | None, code: int, stdout: str) -> bool:
    """Exit code 0 and stdout byte-identical to README; where README shows
    no output, a check of the command's own claim."""
    W, T = M.words, M.tree
    if code != 0:
        return False
    if shown is not None:
        return stdout == shown
    G = W.bs(*map(int, argv[1].split(","))) if argv[0] == "--group" else None
    cmd = argv[2] if G else argv[0]
    if cmd == "tree-ball":
        nodes = [s for s in stdout.splitlines() if s.endswith('";') and "->" not in s]
        return len(nodes) == ball_size(abs(G.n) + abs(G.m), int(argv[4]))
    if cmd == "fixed":
        fields = dict(f.split("=", 1) for f in stdout.split())
        v = T.vertex_of(W.word_nf(fields["vertex"], G), G)
        words = [s for s in argv[3:] if not s.startswith("--") and not s.isdigit()]
        return all(T.fixes_vertex(W.word_nf(s, G), v, G) for s in words)
    if cmd == "invariants":
        doc = json.loads(stdout)
        return (doc["n"], doc["m"]) == (G.n, G.m)
    return False


class Workload(NamedTuple):
    build: Callable
    check: Callable


WORKLOADS = {
    "words_stream": Workload(build_words_stream, check_words_stream),
    "coset_ladder": Workload(build_coset_ladder, check_coset_ladder),
    "tree_walk": Workload(build_tree_walk, check_tree_walk),
}
