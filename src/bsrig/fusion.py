"""Symbolic fusion bookkeeping for the irreducible bimodule labels of the
pair <a> <= BS(n, m).

Two families of labels occur: coset modules K_D, one per double coset D,
with dimension pair (l, r) read from the coset profile, and character
twists K_w, one per root of unity w in the group

    Omega = {w : w^f = 1 for some f in F},

all of dimension (1, 1).  Roots of unity are exact reduced fractions of a
full turn; the whole calculus is an exact order argument and floating
point would destroy it.

The one decomposition provided is the self-inverse product: the tensor
square labels of K_g against K_{g^-1} split as r(g) characters generated
by exp(2 pi i / r(g)) plus the coset modules of g a^i g^-1 for
0 < i < l(g), with total dimension l(g) r(g) on both sides.  The exchange
criterion for moving a character across K_g is w^{r(g)} = u^{L(g)}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .words import BsPresentation, NormalForm, a_power, invert, multiply
from .hecke import DoubleCoset, coset_profile, double_coset

__all__ = [
    "RootOfUnity",
    "ONE",
    "Irreducible",
    "BimoduleSum",
    "omega_member",
    "enumerate_omega",
    "char_of",
    "isomorphic",
    "decompose_self_inverse",
    "exchange_partners",
    "char_product",
]


@dataclass(frozen=True, slots=True)
class RootOfUnity:
    """exp(2 pi i num/den) with gcd(num, den) = 1 and 0 <= num < den."""

    num: int
    den: int

    @staticmethod
    def of(num: int, den: int) -> "RootOfUnity":
        return RootOfUnity.from_fraction(Fraction(num, den))

    @staticmethod
    def from_fraction(angle: Fraction) -> "RootOfUnity":
        angle %= 1
        return RootOfUnity(angle.numerator, angle.denominator)

    @property
    def angle(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def is_one(self) -> bool:
        return self.num == 0

    @property
    def order(self) -> int:
        return self.den

    def power(self, z: int) -> "RootOfUnity":
        return RootOfUnity.from_fraction(Fraction(self.num * z, self.den))

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity.from_fraction(-self.angle)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


ONE = RootOfUnity(0, 1)


def char_product(w: RootOfUnity, u: RootOfUnity) -> RootOfUnity:
    """Composition of character twists: addition of angles mod 1."""
    return RootOfUnity.from_fraction(w.angle + u.angle)


def omega_member(w: RootOfUnity, G: BsPresentation) -> bool:
    """True iff the order of w divides some k n0^s |m0|^t: strip every prime
    shared with n0 m0 from the order, the residue must divide k."""
    G.require_standard("Omega membership")
    d = w.den
    q = abs(G.n0 * G.m0)
    if q > 1:
        g = gcd(d, q)
        while g > 1:
            d //= g
            g = gcd(d, q)
    return G.k % d == 0


def enumerate_omega(G: BsPresentation, max_den: int) -> list[RootOfUnity]:
    """All members of Omega with denominator at most max_den, sorted by angle."""
    out = [ONE]
    for den in range(2, max_den + 1):
        if not omega_member(RootOfUnity(1, den), G):
            continue
        for num in range(1, den):
            if gcd(num, den) == 1:
                out.append(RootOfUnity(num, den))
    out.sort(key=lambda w: w.angle)
    return out


def char_of(g: NormalForm, G: BsPresentation) -> RootOfUnity:
    """The generating character attached to g: exp(2 pi i / r(g))."""
    return RootOfUnity.of(1, coset_profile(g, G).r)


@dataclass(frozen=True, slots=True)
class Irreducible:
    """Either a character twist (char set) or a coset module (coset set)."""

    char: RootOfUnity | None = None
    coset: DoubleCoset | None = None

    @staticmethod
    def character(w: RootOfUnity) -> "Irreducible":
        return Irreducible(char=w)

    @staticmethod
    def coset_module(D: DoubleCoset) -> "Irreducible":
        return Irreducible(coset=D)

    @property
    def is_char(self) -> bool:
        return self.char is not None

    @property
    def left_dim(self) -> int:
        return 1 if self.char is not None else self.coset.profile.l

    @property
    def right_dim(self) -> int:
        return 1 if self.char is not None else self.coset.profile.r

    def sort_key(self) -> tuple:
        # characters first, ordered by angle; then cosets by representative
        if self.char is not None:
            return (0, self.char.angle, ())
        return (1, Fraction(0), self.coset.sort_key())

    def as_json(self) -> dict:
        if self.char is not None:
            return {"char": str(self.char)}
        return {"coset": str(self.coset), "l": self.left_dim, "r": self.right_dim}

    def __str__(self) -> str:
        if self.char is not None:
            return f"K[{self.char}]"
        return f"K({self.coset})"


def isomorphic(x: Irreducible, y: Irreducible, G: BsPresentation) -> bool:
    """Label equality: coset modules match iff their double cosets agree,
    characters iff their fractions agree.  The trivial module has the two
    spellings K(unit coset) and K[0/1], which are identified."""
    if x.is_char and y.is_char:
        return x.char == y.char
    if not x.is_char and not y.is_char:
        return x.coset.representative == y.coset.representative
    ch, co = (x, y) if x.is_char else (y, x)
    return ch.char.is_one and co.coset.is_unit


@dataclass(frozen=True, slots=True)
class BimoduleSum:
    """Formal multiset of irreducibles; terms kept in canonical order so
    multiset equality is tuple equality."""

    terms: tuple[Irreducible, ...]

    @staticmethod
    def of(terms) -> "BimoduleSum":
        return BimoduleSum(tuple(sorted(terms, key=lambda t: t.sort_key())))

    @property
    def left_dim(self) -> int:
        return sum(t.left_dim for t in self.terms)

    @property
    def right_dim(self) -> int:
        return sum(t.right_dim for t in self.terms)

    def as_json(self) -> list[dict]:
        return [t.as_json() for t in self.terms]


def decompose_self_inverse(g: NormalForm, G: BsPresentation) -> BimoduleSum:
    """Split the product of K_g with K_{g^-1} into irreducibles:

        r(g) character terms  w_g^i,  w_g = exp(2 pi i / r(g)),  0 <= i < r(g)
        l(g) - 1 coset terms  K(<a> g a^i g^-1 <a>),  1 <= i < l(g)

    Left and right dimension both total l(g) r(g) and the terms are pairwise
    nonisomorphic.

    The labeled sum only closes when every conjugate g a^i g^-1 keeps the
    full index r(g); an inner pinch (say g = b^2, i = 2, where b^2 a^2 b^-2
    collapses to b a^3 b^-1 with r = 3 < 9) breaks the dimension count, and
    the true summand there is a strictly larger induced module.  Elements
    with a collapsing conjugate are rejected rather than mislabeled.
    """
    G.require_standard("self-inverse decomposition")
    p = coset_profile(g, G)
    w = RootOfUnity.of(1, p.r)
    terms = [Irreducible.character(w.power(i)) for i in range(p.r)]
    ginv = invert(g, G)
    for i in range(1, p.l):
        conj = multiply(multiply(g, a_power(i), G), ginv, G)
        D = double_coset(conj, G)
        if D.profile.r != p.r:
            raise ValueError(
                f"labeled decomposition does not close for {g}: the conjugate "
                f"at i={i} has r={D.profile.r} instead of r(g)={p.r}"
            )
        terms.append(Irreducible.coset_module(D))
    out = BimoduleSum.of(terms)
    if out.left_dim != p.l * p.r or out.right_dim != p.l * p.r:
        raise RuntimeError("internal error: dimension bookkeeping is inconsistent")
    return out


def exchange_partners(w: RootOfUnity, g: NormalForm, G: BsPresentation) -> set[RootOfUnity]:
    """All u in Omega with u^{L(g)} = w^{r(g)}: the |L(g)| exact solutions
    of L * angle(u) = r * angle(w) mod 1, filtered by Omega membership."""
    if not omega_member(w, G):
        raise ValueError(f"{w} is not in Omega for {G}")
    p = coset_profile(g, G)
    target = Fraction(w.num * p.r, w.den)
    out = set()
    for j in range(abs(p.L)):
        cand = RootOfUnity.from_fraction(Fraction(target + j, p.L))
        if omega_member(cand, G):
            out.add(cand)
    return out
