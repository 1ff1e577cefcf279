"""The residue walk over the candidates of a Hecke product.

Convolution counts the double cosets of d a^i e, i < gcd(l(d), r(e)),
and self-inverse fusion those of the conjugates P a^i P^-1, 0 < i < l(g).
The walk builds these candidates left to right in residue classes of i
that share a normal-form prefix, so that the crossings and the
translate pass of ``hecke`` along a shared prefix are done once per class,
not once per candidate.  Every cell carries the pass's state after its
letter, so a leaf only checks its digits.  Only ``hecke.hecke_convolve``
and ``fusion.decompose_self_inverse`` import this module, when they run.
"""

from __future__ import annotations

from math import gcd

from .hecke import _START, DoubleCoset, _coset, _translate
from .words import BsPresentation

__all__ = ["residue_walk"]


# The empty prefix chain: no letters, no digits and the start state.
_ROOT = ((), (), _START, None)


def _cell(top: tuple, s: int, e: int, G: BsPresentation) -> tuple:
    """The prefix chain ``top`` with the letter a^s b^e pushed: its letters,
    their translate digits, the translate state after them and ``top``."""
    (digit,), state = _translate(((s, e),), G, top[2])
    return top[0] + ((s, e),), top[1] + (digit,), state, top


def _leaf(top: tuple, G: BsPresentation) -> DoubleCoset:
    """The double coset of the prefix chain ``top``, from the digits and
    translate state that its cells carry."""
    return _coset(top[0], top[1], top[2], G)


def residue_walk(left: tuple, start: int, count: int, right, G: BsPresentation):
    """Yield (F, k) for the double cosets F of the candidates left a^i right,
    start <= i < start + count, where k > 0 candidates lie in F and the
    same F may come more than once; ``left`` and ``right`` are
    normal-form prefixes, (s, e) letters a^s b^e.

    The candidates are built left to right in residue classes {i = start +
    M j : j < size} that share a normal-form prefix and have a tail alpha +
    beta j affine in j.  The prefix is a chain of cells, one per letter,
    each holding the translate pass's digits and state up to it, so a
    pinch pops a letter and its translate state at once.  Crossing b^e
    splits a class by j mod c / gcd(beta, c), the period of its digit
    (alpha + beta j) mod c; the residue of digit 0, which may pinch, is
    walked first.  Once ``right`` is spent, a class differs only in its
    tail, so it lies in one double coset: each leaf is canonicalised once,
    whatever its size."""
    if not count:
        return
    top = _ROOT
    for s, e in left:
        top = _cell(top, s, e, G)
    up, down = G.carries
    crossings = [(s, e, *(up if e == 1 else down)) for s, e in right]
    todo = [(0, top, start, 1, count)]
    while todo:
        k, top, alpha, beta, size = todo.pop()
        for k in range(k, len(crossings)):
            s, e, c, d = crossings[k]
            if size > 1:
                g = gcd(beta, c)
                if g < c:
                    break
                beta = d * (beta // c)
            q, t = divmod(alpha + s, c)
            if t == 0 and top[0] and top[0][-1][1] == -e:
                # b^-e a^{c q} b^e = a^{d q}: pop the letter below
                top, alpha = top[3], top[0][-1][0] + d * q
            else:
                top, alpha = _cell(top, t, e, G), d * q
        else:
            yield _leaf(top, G), size
            continue
        # the digit depends on j mod c / g: split the class by it, with the
        # residue of digit 0, the one that may pinch, on top of the stack
        period = c // g
        zero = []
        for j in reversed(range(min(period, size))):
            task = (k, top, alpha + beta * j, beta * period, (size - j - 1) // period + 1)
            (zero if (alpha + s + beta * j) % c == 0 else todo).append(task)
        todo += zero
