"""Seeded text generators for the benchmark inputs.

Inputs are built as word text with this module's own generator, never with
the package's samplers, so a change to those samplers cannot change the
load.  The same ``random.Random`` state always yields the same text.
"""

from __future__ import annotations

import random


def a_exp(rng: random.Random, bits: int) -> int:
    """A signed integer of exactly ``bits`` bits."""
    v = rng.getrandbits(bits) | (1 << (bits - 1))
    return v if rng.random() < 0.5 else -v


def signs(rng: random.Random, k: int, n: int, m: int) -> tuple[int, ...]:
    """Random b-letter signs of length k.  A letter pair b .. B cannot avoid
    a pinch when |n| = 1 (n divides every a-power), nor B .. b when |m| = 1,
    so those transitions are left out in the amenable groups."""
    out: list[int] = []
    for _ in range(k):
        e = 1 if rng.random() < 0.5 else -1
        if out and e == -out[-1] and abs(n if out[-1] == 1 else m) == 1:
            e = out[-1]
        out.append(e)
    return tuple(out)


def syllables(rng: random.Random, sgn, n: int, m: int, bits: int, tail: bool = True) -> list:
    """Syllables [(x1, e1), ..., (xk, ek), (t, 0)] of the word
    a^x1 b^e1 ... a^xk b^ek a^t, whose normal form keeps every b-letter:
    the a-power between opposite letters is moved off the pinch condition
    (b a^x B pinches iff n | x, B a^x b iff m | x)."""
    out = []
    prev = 0
    for e in sgn:
        x = a_exp(rng, bits)
        if prev and e == -prev and x % (n if prev == 1 else m) == 0:
            x += 1
        out.append((x, e))
        prev = e
    if tail:
        out.append((a_exp(rng, bits), 0))
    return out


def text(sylls) -> str:
    parts = []
    for x, e in sylls:
        if x:
            parts.append(f"a^{x}")
        if e:
            parts.append("b" if e == 1 else "B")
    return " ".join(parts) or "e"


def inverse(sylls) -> list:
    """Syllables of the inverse word."""
    out = []
    for x, e in reversed(sylls):
        if e:
            out.append((0, -e))
        if x:
            out.append((-x, 0))
    return out


def word(rng: random.Random, k: int, n: int, m: int, bits: int) -> str:
    """Text of a random word whose normal form has b-length exactly k."""
    return text(syllables(rng, signs(rng, k, n, m), n, m, bits))


def with_relator(rng: random.Random, sylls, n: int, m: int) -> str:
    """Another spelling of the same element: a conjugate of the defining
    relator b a^n B a^-m inserted at a random syllable boundary."""
    conj = syllables(rng, signs(rng, rng.randint(0, 2), n, m), n, m, 3)
    rel = conj + [(0, 1), (n, -1), (-m, 0)] + inverse(conj)
    pos = rng.randint(0, len(sylls))
    return text(sylls[:pos] + rel + sylls[pos:])


def perturbed(sylls) -> str:
    """A different element: the first a-power raised by one."""
    x, e = sylls[0]
    return text([(x + 1, e)] + list(sylls[1:]))
