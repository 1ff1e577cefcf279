"""Isomorphism and crossed-product obstruction reports for BS(n, m).

BS(n1, m1) and BS(n2, m2) are isomorphic iff {n1, m1} = {eps n2, eps m2}
for some sign eps; every pair therefore has a unique canonical form with
1 <= n <= |m|.  The group is amenable iff |n| = 1 or |m| = 1.

For canonical nonamenable parameters the crossed-product comparison is an
obstruction test: stable isomorphism of the crossed products forces
n1 = n2 and |m1| = |m2| always, and additionally m1 = m2 when n1 != |m1|.
The sign case carries an exact certificate: a pair of roots of unity
omega, mu with omega^n = mu^m but mu^{2m} != 1, built from the smallest t
with |n0^t m0^t| > 2 as

    omega = exp(2 pi i / (k n0^{t+1} m0^t)),
    mu    = exp(2 pi i / (k n0^t m0^{t+1})).

A verdict of no_obstruction asserts nothing beyond the test not applying.
"""

from __future__ import annotations

from math import gcd

from .words import InternalError, Value, bs
from .fusion import ONE, RootOfUnity, omega_member

__all__ = [
    "NO_OBSTRUCTION",
    "N_MISMATCH",
    "ABS_M_MISMATCH",
    "SIGN_MISMATCH",
    "SignWitness",
    "RigidityVerdict",
    "canonicalize",
    "is_isomorphic",
    "is_amenable",
    "recover_parameters",
    "sign_witness",
    "crossed_product_obstruction",
]

NO_OBSTRUCTION = "no_obstruction"
N_MISMATCH = "n_mismatch"
ABS_M_MISMATCH = "abs_m_mismatch"
SIGN_MISMATCH = "sign_mismatch"


class SignWitness(Value):
    """Certificate separating BS(n, m) from BS(n, -m) when n != |m|."""

    __slots__ = ("t", "omega", "mu")

    def as_json(self) -> dict:
        return {"t": self.t, "omega": str(self.omega), "mu": str(self.mu)}


class RigidityVerdict(Value, optional=1):
    __slots__ = ("kind", "witness")  # a SignWitness for sign_mismatch, else None

    def as_json(self) -> dict:
        out: dict = {"verdict": self.kind}
        if self.witness is not None:
            out["witness"] = self.witness.as_json()
        return out


def _require_nonzero(*values: int) -> None:
    if any(v == 0 for v in values):
        raise ValueError("parameters must be nonzero")


def canonicalize(n: int, m: int) -> tuple[int, int]:
    """The unique pair with 1 <= n' <= |m'| reachable by the isomorphism
    moves (n, m) -> (-n, -m) and (n, m) -> (m, n)."""
    _require_nonzero(n, m)
    if abs(n) > abs(m):
        n, m = m, n
    return (-n, -m) if n < 0 else (n, m)


def is_isomorphic(n1: int, m1: int, n2: int, m2: int) -> bool:
    """{n1, m1} = {eps n2, eps m2} as multisets for some eps in {1, -1}."""
    return canonicalize(n1, m1) == canonicalize(n2, m2)


def is_amenable(n: int, m: int) -> bool:
    _require_nonzero(n, m)
    return abs(n) == 1 or abs(m) == 1


def recover_parameters(profiles) -> tuple[int, int]:
    """Recover (n, |m|) from a sample of (l, r) index pairs.

    n is the least l-value above 1.  The ratios l/r all lie in the cyclic
    group generated by n/|m|; the largest sampled ratio below 1 is that
    generator, so |m| = n divided by it.  When every ratio is 1 the group
    has n = |m|.  Ratios are compared by cross-multiplying the positive
    indices.  Rejects samples holding no l > 1.
    """
    pairs = set(profiles)
    ls = {l for l, _ in pairs if l > 1}
    if not ls:
        raise ValueError("sample contains no profile with l > 1")
    n = min(ls)
    p, q = 0, 1  # the largest ratio p/q below 1; 0/1 while there is none
    for l, r in pairs:
        if l < r and l * q > p * r:
            p, q = l, r
    if not p:
        return n, n
    abs_m, rest = divmod(n * q, p)
    if rest:
        g = gcd(p, q)
        raise ValueError(f"sampled ratios are inconsistent: n={n}, generator={p // g}/{q // g}")
    return n, abs_m


def sign_witness(n: int, m: int) -> SignWitness:
    """The exact certificate pair for canonical parameters with n != |m|;
    all defining relations are re-verified before returning."""
    if not 2 <= n <= abs(m):
        raise ValueError(f"need 2 <= n <= |m|, got ({n},{m})")
    if n == abs(m):
        raise ValueError("no sign witness exists when n = |m|")
    G = bs(n, m)
    k, n0, m0 = G.k, G.n0, G.m0
    # the least t with (n0 |m0|)^t > 2: n0 < |m0| are coprime, so n0 |m0| >= 2
    t = 2 if n0 * abs(m0) == 2 else 1
    omega = RootOfUnity.of(1, k * n0 ** (t + 1) * m0**t)
    mu = RootOfUnity.of(1, k * n0**t * m0 ** (t + 1))
    if omega.power(n) != mu.power(m):
        raise InternalError("internal error: witness relation omega^n = mu^m fails")
    if mu.power(2 * m) == ONE:
        raise InternalError("internal error: witness has mu^(2m) = 1")
    if not (omega_member(omega, G) and omega_member(mu, G)):
        raise InternalError("internal error: witness roots fall outside Omega")
    return SignWitness(t, omega, mu)


def crossed_product_obstruction(n1: int, m1: int, n2: int, m2: int) -> RigidityVerdict:
    """Obstruction verdict for canonical nonamenable parameter pairs.

    Order of tests: n mismatch, then |m| mismatch, then, when n != |m|,
    sign mismatch with a verified witness.  no_obstruction only means the
    test does not separate the two crossed products.
    """
    for n, m in ((n1, m1), (n2, m2)):
        if not 2 <= n <= abs(m):
            raise ValueError(f"need canonical nonamenable parameters 2 <= n <= |m|, got ({n},{m})")
    if n1 != n2:
        return RigidityVerdict(N_MISMATCH)
    if abs(m1) != abs(m2):
        return RigidityVerdict(ABS_M_MISMATCH)
    if n1 != abs(m1) and m1 != m2:
        return RigidityVerdict(SIGN_MISMATCH, sign_witness(n1, m1))
    return RigidityVerdict(NO_OBSTRUCTION)

