"""Coset combinatorics of the pair <a> <= BS(n, m).

The cyclic subgroup <a> is almost normal: every double coset <a> g <a>
splits into finitely many one-sided cosets.  The three indices attached to
an element are

    l(g) = smallest z > 0 with g a^z g^-1 in <a>   (left cosets <a> g a^j),
    r(g) = smallest z > 0 with g^-1 a^z g in <a>   (left translates a^i g <a>),
    L(g) = the signed exponent with g a^{L(g)} g^-1 = a^{r(g)}, |L(g)| = l(g).

All three, and the canonical representative of <a> g <a>, come out of one
left-to-right pass over the b-letters of the normal form that follows every
left translate a^i g at once.  Invariant: the translates a^{i + R y} (y in
Z) still in play share the least prefix so far and push a^{x + S y} into
the next letter, whose digit x + S y mod c (c = |m| for b, |n| for b^-1)
is least on one class of y modulo c / gcd(S, c).  Every division is exact,
and at the end a^R g = g a^S, so r = R, L = S and l = |S|.  The pass checks
g a^L g^-1 = a^r without multiplying: conjugating a^L by g runs a
divisibility cascade over the b-letters of g from the right, which decides
the equation by Britton's lemma.  The set of
values taken by l on the whole group is F + {1} where
F = {k n0^s |m0|^t : s + t > 0}.

Convolution and self-inverse fusion canonicalise their candidates by the
residue walk of ``candidates``, which they alone import.
"""

from __future__ import annotations

from collections import Counter
from math import gcd

from .words import (
    BsPresentation,
    InternalError,
    NormalForm,
    Value,
)

__all__ = [
    "CosetProfile",
    "DoubleCoset",
    "HeckeElement",
    "coset_profile",
    "f_set_member",
    "f_set",
    "double_coset",
    "same_double_coset",
    "qc_member",
    "hecke_convolve",
]


class CosetProfile(Value):
    __slots__ = ("l", "r", "L")

    def as_json(self) -> dict:
        return {"l": self.l, "r": self.r, "L": self.L}


# The state (i, x, R, S) before any letter: each translate a^y pushes a^y.
_START = (0, 0, 1, 1)


def _translate(letters, G: BsPresentation, state: tuple = _START):
    """The translate pass of the module docstring over the (s, e) letters
    of a normal form's prefix, resumed from the state (i, x, R, S) after
    the letters before them: the digits (t, e) of the least tail-zeroed
    translate, and the state after the last letter.  Each letter pushes
    a^{x + S y} through b^e by the carries (c, d) of b^e."""
    i, x, R, S = state
    up, down = G.carries
    digits = []
    for s, e in letters:
        c, d = up if e == 1 else down
        x += s
        h = gcd(S, c)
        q = c // h
        t = x % h
        y = (t - x) // h * pow(S // h, -1, q) % q
        digits.append((t, e))
        i += R * y
        R *= q
        # x + S y - t is a multiple of c as a whole; x alone need not be
        x = (x + S * y - t) // c * d
        S = S // h * d
    return digits, (i, x, R, S)


def _profile(g: NormalForm, R: int, S: int, G: BsPresentation) -> CosetProfile:
    """The profile (|S|, R, S) that a translate pass over g ended with."""
    profile = CosetProfile(abs(S), R, S)
    # postcondition g a^L g^-1 = a^r, decided by the conjugation cascade
    if _conjugate_exponent(g, profile.L, G) != profile.r:
        raise InternalError(f"internal error: profile {profile} fails verification for {g}")
    return profile


def _conjugate_exponent(g: NormalForm, z: int, G: BsPresentation) -> int | None:
    """The exponent of g a^z g^-1, or None when it is not in <a>.

    Inside out, every a-syllable of g commutes with the current a-power,
    and b^e a^z b^-e is a^{z / c * d} when c | z, with (c, d) the carries
    of b^-e: a^{c q} b^-e = b^-e a^{d q}.  When c does not divide z the
    word is reduced with b-letters left, so by Britton's lemma g a^z g^-1
    is not in <a>."""
    up, down = G.carries
    for _, e in reversed(g.prefix):
        c, d = down if e == 1 else up
        q, t = divmod(z, c)
        if t:
            return None
        z = q * d
    return z


def coset_profile(g: NormalForm, G: BsPresentation) -> CosetProfile:
    """(l(g), r(g), L(g)) by the translate pass: the translates with the
    least prefix are a^{i + r(g) y}, and a^{r(g)} g = g a^{L(g)}."""
    _, (_, _, R, S) = _translate(g.prefix, G)
    return _profile(g, R, S, G)


def f_set_member(z: int, G: BsPresentation) -> bool:
    """Membership of z in F = {k n0^s |m0|^t : s, t >= 0, s + t > 0}."""
    G.require_standard("index value set")
    if z <= 0:
        raise ValueError(f"index values are positive, got {z}")
    if z % G.k:
        return False
    y = z // G.k
    n0, m0a = G.n0, abs(G.m0)
    s = t = 0
    if n0 > 1:
        while y % n0 == 0:
            y //= n0
            s += 1
    if m0a > 1:
        while y % m0a == 0:
            y //= m0a
            t += 1
    if y != 1:
        return False
    # when n0 or |m0| is 1 the exponent s + t > 0 can be met for free
    return s + t > 0 or n0 == 1 or m0a == 1


def f_set(depth: int, G: BsPresentation) -> set[int]:
    """All k n0^s |m0|^t with 1 <= s + t <= depth."""
    G.require_standard("index value set")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    n0, m0a = G.n0, abs(G.m0)
    out: set[int] = set()
    for s in range(depth + 1):
        for t in range(depth + 1 - s):
            if s + t > 0:
                out.add(G.k * n0**s * m0a**t)
    return out


# ---------------------------------------------------------------------------
# double cosets

class DoubleCoset(Value):
    """<a> g <a>, held by its canonical representative: the lexicographically
    least of the r(g) tail-zeroed translates a^i g (0 <= i < r(g))."""

    __slots__ = ("representative", "profile")

    def sort_key(self) -> tuple:
        """Deterministic total order: b-length, then prefix, then tail."""
        rep = self.representative
        return (len(rep.prefix), rep.prefix, rep.tail)

    def __str__(self) -> str:
        return str(self.representative)


def double_coset(g: NormalForm, G: BsPresentation) -> DoubleCoset:
    """<a> g <a>, its representative chosen digit by digit from the left by
    the translate pass, in O(b-length) arithmetic steps."""
    digits, state = _translate(g.prefix, G)
    return _coset(g.prefix, tuple(digits), state, G)


def _coset(letters: tuple, digits: tuple, state: tuple, G: BsPresentation) -> DoubleCoset:
    """The double coset of the prefix ``letters`` whose translate pass chose
    ``digits`` and ended in the state (i, x, R, S), at the translate a^i."""
    i, _, R, S = state
    rep = NormalForm(digits, 0)
    profile = _profile(rep, R, S, G)
    # postcondition: the translate a^i g has the chosen prefix.  a^i only
    # carries through the b-letters of g, as in words._push when
    # nothing pinches: the carry out of b^e is a multiple of the c that
    # would pinch b^-e
    up, down = G.carries
    tail = i
    for (s, e), (t, _) in zip(letters, digits):
        c, d = up if e == 1 else down
        q, t0 = divmod(tail + s, c)
        if t0 != t:
            g = NormalForm(letters, 0)
            raise InternalError(f"internal error: a^{i} {g} does not have prefix {digits}")
        tail = d * q
    return DoubleCoset(rep, profile)


def same_double_coset(g: NormalForm, h: NormalForm, G: BsPresentation) -> bool:
    return double_coset(g, G).representative == double_coset(h, G).representative


# ---------------------------------------------------------------------------
# quasi-centralizer check

def qc_member(g: NormalForm, G: BsPresentation) -> bool:
    """True iff g a^{l(g)} g^-1 = a^{l(g)}, i.e. L(g) = +l(g) and r(g) = l(g).
    These elements are exactly the ones centralizing a finite-index subgroup
    of <a>."""
    p = coset_profile(g, G)
    return p.L == p.l and p.r == p.l


# ---------------------------------------------------------------------------
# convolution on the double coset algebra

class HeckeElement(Value):
    """Integer combination of double cosets, sparse and zero-free."""

    __slots__ = ("terms",)  # ((DoubleCoset, coefficient), ...)

    @staticmethod
    def from_dict(coeffs: dict[DoubleCoset, int]) -> "HeckeElement":
        items = [(D, c) for D, c in coeffs.items() if c != 0]
        items.sort(key=lambda item: item[0].sort_key())
        return HeckeElement(tuple(items))

    @staticmethod
    def single(D: DoubleCoset, coeff: int = 1) -> "HeckeElement":
        return HeckeElement.from_dict({D: coeff})

    def as_json(self) -> list[dict]:
        return [{"coset": str(D), "coeff": c} for D, c in self.terms]


def hecke_convolve(x: HeckeElement, y: HeckeElement, G: BsPresentation) -> HeckeElement:
    """Convolution product extended bilinearly from double cosets.

    For double cosets D, E with representatives d, e, the coefficient of a
    double coset F with representative f is

        c^F = l(e) * #{ i < l(d) : d a^i e in F } / l(f).

    D is the union of its l(d) left cosets <a> d a^i and E of its l(e)
    left cosets <a> e a^j.  The pairs (i, j) hit each of the l(f) left
    cosets of F exactly c^F times, and d a^i e a^j lies in F iff d a^i e
    does, so counting over i alone fixes every coefficient and the division
    is exact (Krieg, Hecke algebras, Mem. AMS 435).  The unit coset acts as
    identity, and the degree maps T_D -> l(d) and T_D -> r(d) are
    multiplicative: sum_F c^F l(f_F) = l(d) l(e), which the counting
    gives by construction, and sum_F c^F r(f_F) = r(d) r(e), which it does
    not, so each product of two cosets is checked against the second.

    The double coset of d a^i e only depends on i mod g, g = gcd(l(d),
    r(e)): d a^{i + L(d)} e = a^{r(d)} d a^i e with |L(d)| = l(d), and
    d a^{i + r(e)} e = d a^i e a^{L(e)}.  So the count over i < l(d) is
    l(d) / g times the count over i < g.  The g candidates are counted by
    one residue walk, which canonicalises each class of candidates sharing
    a prefix once: one leaf for d = b^16, e = a, at most l(d) for e = d^-1.
    """
    from .candidates import residue_walk  # compiled only once a product is taken

    acc: dict[DoubleCoset, int] = {}
    for D, cD in x.terms:
        d = D.representative
        for E, cE in y.terms:
            e = E.representative
            period = gcd(D.profile.l, E.profile.r)
            hits = Counter()
            for F, count in residue_walk(d.prefix, 0, period, e.prefix, G):
                hits[F] += count
            degree = 0  # sum_F c^F r(f_F), which must be r(d) r(e)
            for F, count in hits.items():
                c, rem = divmod(E.profile.l * count * (D.profile.l // period), F.profile.l)
                if rem:
                    raise InternalError(
                        f"internal error: coefficient of {F} in {D} * {E} is not an integer"
                    )
                degree += c * F.profile.r
                acc[F] = acc.get(F, 0) + cD * cE * c
            if degree != D.profile.r * E.profile.r:
                raise InternalError(
                    f"internal error: the right degrees of {D} * {E} sum to {degree},"
                    f" not {D.profile.r} * {E.profile.r}"
                )
    return HeckeElement.from_dict(acc)
