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

from math import gcd, lcm
from operator import attrgetter

from .words import BsPresentation, InternalError, NormalForm, Value, invert
from .hecke import DoubleCoset, coset_profile

__all__ = [
    "RootOfUnity",
    "ONE",
    "angle_key",
    "Irreducible",
    "BimoduleSum",
    "omega_member",
    "decompose_self_inverse",
    "exchange_partners",
]


class RootOfUnity:
    """exp(2 pi i num/den) with gcd(num, den) = 1 and 0 <= num < den.

    A read-only value: ``num`` and ``den`` have no setters, and equality and
    hashing go by the pair.  Exchange partners build and hash one per
    solution, so it stays outside the ``words.Value`` base: that base
    refuses plain assignment, so the constructor it derives stores each
    field through its slot descriptor's ``__set__``, and its hash goes
    through a field getter.  As a ``Value`` a root costs about 1.55 times
    as much to build as with these plain stores into private slots (280
    against 180 ns), and ``exchange 1/3 b^8`` in BS(2,3), 256 partners,
    about 1.4 times as much (0.16 against 0.115 ms; Python 3.11).
    The constructor trusts its arguments to be reduced; ``of`` reduces.
    """

    __slots__ = ("_num", "_den")

    num = property(attrgetter("_num"))
    den = property(attrgetter("_den"))

    def __init__(self, num: int, den: int):
        self._num = num
        self._den = den

    @staticmethod
    def of(num: int, den: int) -> "RootOfUnity":
        """exp(2 pi i num/den) reduced; ZeroDivisionError for den = 0."""
        if den < 0:
            num, den = -num, -den
        num %= den
        q = gcd(num, den)
        return RootOfUnity(num // q, den // q)

    def power(self, z: int) -> "RootOfUnity":
        return RootOfUnity.of(self._num * z, self._den)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        return f"RootOfUnity(num={self._num!r}, den={self._den!r})"

    def __str__(self) -> str:
        return f"{self._num}/{self._den}"


ONE = RootOfUnity(0, 1)


def angle_key(roots):
    """A sort key that orders the given roots by angle: each root's
    numerator over their common denominator, an exact integer."""
    scale = lcm(*(w.den for w in roots))
    return lambda w: w.num * (scale // w.den)


def omega_member(w: RootOfUnity, G: BsPresentation) -> bool:
    """True iff the order of w divides some k n0^s |m0|^t: strip every prime
    shared with n0 m0 from the order, the residue must divide k."""
    G.require_standard("Omega membership")
    d = w.den
    q = abs(G.n0 * G.m0)
    g = gcd(d, q)
    while g > 1:
        d //= g
        g = gcd(d, q)
    return G.k % d == 0


class Irreducible(Value, optional=2):
    """Either a character twist (char set) or a coset module (coset set)."""

    __slots__ = ("char", "coset")

    @property
    def left_dim(self) -> int:
        return 1 if self.char is not None else self.coset.profile.l

    @property
    def right_dim(self) -> int:
        return 1 if self.char is not None else self.coset.profile.r

    def as_json(self) -> dict:
        if self.char is not None:
            return {"char": str(self.char)}
        return {"coset": str(self.coset), "l": self.left_dim, "r": self.right_dim}


class BimoduleSum(Value):
    """Formal multiset of irreducibles; terms kept in the canonical order of
    ``oracles.canonical_sum``, so multiset equality is tuple equality."""

    __slots__ = ("terms",)

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

    The conjugates are P a^i P^-1, P the prefix of g, walked by residue
    class of i as in hecke_convolve.  P^-1 comes from ``invert``; the walk
    takes its prefix and drops its tail, a power of a on the right that
    leaves every double coset as it is.  Pinching classes come first, and
    the walk stops at the first double coset whose r differs from r(g),
    which the refusal names.

    Each leaf of the walk holds exactly one conjugate: two in one leaf
    would put P a^(i-j) P^-1 in <a>, so l(g) would divide 0 < |i - j| <
    l(g).  The terms come in the canonical order of oracles.canonical_sum
    without its sort: the characters are built in angle order, so only the
    coset terms are sorted.
    """
    from .candidates import residue_walk  # compiled only once a decomposition is asked for

    G.require_standard("self-inverse decomposition")
    p = coset_profile(g, G)
    chars = []
    for i in range(p.r):
        q = gcd(i, p.r)
        chars.append(Irreducible(char=RootOfUnity(i // q, p.r // q)))
    P = g.prefix
    cosets = []
    for D, count in residue_walk(P, 1, p.l - 1, invert(NormalForm(P, 0), G).prefix, G):
        if D.profile.r != p.r:
            raise ValueError(
                f"labeled decomposition does not close for {g}: the conjugates "
                f"in <a> {D} <a> have r={D.profile.r} instead of r(g)={p.r}"
            )
        # P a^i P^-1 and P a^j P^-1 in one leaf differ by a power of a on
        # the right, so P a^(i-j) P^-1 lies in <a> and l(g) divides i - j,
        # which 0 < i != j < l(g) rules out
        if count != 1:
            raise InternalError(f"internal error: {count} conjugates of {g} share one leaf")
        cosets.append(Irreducible(coset=D))
    cosets.sort(key=lambda t: t.coset.sort_key())
    out = BimoduleSum((*chars, *cosets))
    if out.left_dim != p.l * p.r or out.right_dim != p.l * p.r:
        raise InternalError("internal error: dimension bookkeeping is inconsistent")
    return out


def exchange_partners(w: RootOfUnity, g: NormalForm, G: BsPresentation) -> set[RootOfUnity]:
    """All u in Omega with u^{L(g)} = w^{r(g)}: the |L(g)| exact solutions
    of L * angle(u) = r * angle(w) mod 1, all in Omega.  Omega bounds only
    the primes p of k prime to n0 m0, by v_p(k); L = 1 for g in <a>, and
    once g has a b-letter the residue pass keeps v_p(L) = v_p(k) <= v_p(r),
    so w^r has order prime to p and v_p(order of u) <= v_p(L).

    Each solution has angle x / D with D = den(w) |L|: there L * x / D =
    sign(L) x / den(w), so the equation says sign(L) x = r num(w) mod
    den(w).  The partners are x / D for the |L| residues x in [0, D) with
    x = c mod den(w), c = sign(L) num(w) r mod den(w), each reduced by
    one gcd."""
    if not omega_member(w, G):
        raise ValueError(f"{w} is not in Omega for {G}")
    p = coset_profile(g, G)
    D = w.den * p.l
    c = (w.num * p.r if p.L > 0 else -w.num * p.r) % w.den
    out = set()
    for x in range(c, D, w.den):
        q = gcd(x, D)
        out.add(RootOfUnity(x // q, D // q))
    return out
