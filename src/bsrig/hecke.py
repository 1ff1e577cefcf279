"""Coset combinatorics of the pair <a> <= BS(n, m).

The cyclic subgroup <a> is almost normal: every double coset <a> g <a>
splits into finitely many one-sided cosets.  The three indices attached to
an element are

    l(g) = smallest z > 0 with g a^z g^-1 in <a>   (left cosets <a> g a^j),
    r(g) = smallest z > 0 with g^-1 a^z g in <a>   (left translates a^i g <a>),
    L(g) = the signed exponent with g a^{L(g)} g^-1 = a^{r(g)}, |L(g)| = l(g).

All three come out of one integer propagation over the b-letters of the
normal form, with every division exact.  The set of values taken by l on
the whole group is F + {1} where F = {k n0^s |m0|^t : s + t > 0}.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd

from .words import (
    BsPresentation,
    GroupWord,
    NormalForm,
    a_power,
    _scan,
    invert,
    multiply,
    nf_sort_key,
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
    "centralizes",
    "amalgam_embed",
    "hecke_convolve",
    "hecke_unit",
]


@dataclass(frozen=True, slots=True)
class CosetProfile:
    l: int
    r: int
    L: int

    def as_json(self) -> dict:
        return {"l": self.l, "r": self.r, "L": self.L}


def coset_profile(g: NormalForm, G: BsPresentation) -> CosetProfile:
    """Compute (l(g), r(g), L(g)) by one right-to-left pass.

    Invariant while scanning a suffix of the b-letters: the exponents z with
    (suffix) a^z (suffix)^-1 in <a> are exactly A*Z, and a^{A w} conjugates
    to a^{E w}.  Crossing one more letter with constraint c (c = |n| for b,
    c = |m| for b^-1) tightens A by j = c / gcd(c, E) and scales E by m/n or
    n/m; both divisions are exact because E*j is a multiple of c.
    """
    n, m = G.n, G.m
    A, E = 1, 1
    for s, e in reversed(g.prefix):
        c = abs(n) if e == 1 else abs(m)
        j = c // gcd(c, E)
        A *= j
        Ej = E * j
        E = (Ej // n) * m if e == 1 else (Ej // m) * n
    profile = CosetProfile(A, abs(E), A if E > 0 else -A)
    # postcondition g a^L g^-1 = a^r, checked through the word problem
    if multiply(multiply(g, a_power(profile.L), G), invert(g, G), G) != a_power(profile.r):
        raise RuntimeError(f"internal error: profile {profile} fails verification for {g}")
    return profile


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

@dataclass(frozen=True, slots=True)
class DoubleCoset:
    """<a> g <a>, held by its canonical representative: the lexicographically
    least of the r(g) tail-zeroed translates a^i g (0 <= i < r(g))."""

    representative: NormalForm
    profile: CosetProfile

    @property
    def is_unit(self) -> bool:
        return not self.representative.prefix

    def sort_key(self) -> tuple:
        return nf_sort_key(self.representative)

    def __str__(self) -> str:
        return str(self.representative)


def double_coset(g: NormalForm, G: BsPresentation) -> DoubleCoset:
    profile = coset_profile(g, G)
    base = NormalForm(g.prefix, 0)
    best = base
    best_key = nf_sort_key(base)
    for i in range(1, profile.r):
        cand = multiply(a_power(i), base, G)
        cand = NormalForm(cand.prefix, 0)
        key = nf_sort_key(cand)
        if key < best_key:
            best, best_key = cand, key
    return DoubleCoset(best, profile)


def same_double_coset(g: NormalForm, h: NormalForm, G: BsPresentation) -> bool:
    return double_coset(g, G).representative == double_coset(h, G).representative


# ---------------------------------------------------------------------------
# quasi-centralizer and centralizer checks

def qc_member(g: NormalForm, G: BsPresentation) -> bool:
    """True iff g a^{l(g)} g^-1 = a^{l(g)}, i.e. L(g) = +l(g) and r(g) = l(g).
    These elements are exactly the ones centralizing a finite-index subgroup
    of <a>."""
    p = coset_profile(g, G)
    return p.L == p.l and p.r == p.l


def centralizes(g: NormalForm, z: int, G: BsPresentation) -> bool:
    """True iff g commutes with a^z, decided by the word problem."""
    if z == 0:
        raise ValueError("need a nonzero power of a")
    return multiply(multiply(g, a_power(z), G), invert(g, G), G) == a_power(z)


def amalgam_embed(text: str, G: BsPresentation) -> GroupWord:
    """Letterwise substitution c -> a, d -> b^-1 a b on a word over c, d.

    The image generates the subgroup <a, b^-1 a b>, an amalgam of two copies
    of Z glued along n Z and m Z; the substitution is injective on reduced
    amalgam words.  Only available for 2 <= n <= |m| with |m| != 2, where
    that amalgam description holds.
    """
    G.require_standard("amalgam embedding")
    if abs(G.m) == 2:
        raise ValueError("amalgam embedding needs |m| != 2")
    items: list[tuple[str, int]] = []
    for letter, exp in _scan(text, "cd"):
        if letter == "c":
            items.append(("a", exp))
        else:
            items.extend((("b", -1), ("a", exp), ("b", 1)))
    return GroupWord.of(items)


# ---------------------------------------------------------------------------
# convolution on the double coset algebra

@dataclass(frozen=True, slots=True)
class HeckeElement:
    """Integer combination of double cosets, sparse and zero-free."""

    terms: tuple[tuple[DoubleCoset, int], ...]

    @staticmethod
    def from_dict(coeffs: dict[DoubleCoset, int]) -> "HeckeElement":
        items = [(D, c) for D, c in coeffs.items() if c != 0]
        items.sort(key=lambda item: item[0].sort_key())
        return HeckeElement(tuple(items))

    @staticmethod
    def single(D: DoubleCoset, coeff: int = 1) -> "HeckeElement":
        return HeckeElement.from_dict({D: coeff})

    def coeff(self, D: DoubleCoset) -> int:
        for e, c in self.terms:
            if e == D:
                return c
        return 0

    def add(self, other: "HeckeElement") -> "HeckeElement":
        acc = {D: c for D, c in self.terms}
        for D, c in other.terms:
            acc[D] = acc.get(D, 0) + c
        return HeckeElement.from_dict(acc)

    def as_json(self) -> list[dict]:
        return [{"coset": str(D), "coeff": c} for D, c in self.terms]


def hecke_unit(G: BsPresentation) -> HeckeElement:
    return HeckeElement.single(double_coset(NormalForm((), 0), G))


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
    identity, and the degree map T_D -> l(d) is multiplicative:
    sum_F c^F l(f_F) = l(d) l(e).
    """
    acc: dict[DoubleCoset, int] = {}
    for D, cD in x.terms:
        d = D.representative
        for E, cE in y.terms:
            e = E.representative
            hits = Counter(
                double_coset(multiply(multiply(d, a_power(i), G), e, G), G)
                for i in range(D.profile.l)
            )
            for F, count in hits.items():
                c, rem = divmod(E.profile.l * count, F.profile.l)
                if rem:
                    raise RuntimeError(
                        f"internal error: coefficient of {F} in {D} * {E} is not an integer"
                    )
                acc[F] = acc.get(F, 0) + cD * cE * c
    return HeckeElement.from_dict(acc)
