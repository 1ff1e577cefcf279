"""Independent verification paths and random samplers.

The reducer here deliberately shares no code with the normal-form builder:
it works on raw syllable lists, looks for pinches b a^s b^-1 (n | s) and
b^-1 a^s b (m | s) anywhere in the word, and collapses them in a random
order.  Britton's criterion then decides triviality of the reduced word.
The index-profile oracle searches exponents one by one through the word
problem instead of propagating constraints.  The scanner tokenizes words
one character at a time, as a reference for the parser's single pattern.
The convolution oracle counts Hecke coefficients from their definition,
one double coset canonicalisation per (candidate, right coset) pair.
"""

from __future__ import annotations

import random

from .hecke import DoubleCoset, HeckeElement, double_coset
from .words import (
    BsPresentation,
    GroupWord,
    NormalForm,
    WordSyntaxError,
    a_power,
    concat_words,
    inverse_word,
    invert,
    multiply,
    normalize,
)

__all__ = [
    "oracle_scan",
    "pinch_eliminate",
    "oracle_is_identity",
    "oracle_b_length",
    "oracle_profile",
    "oracle_convolve",
    "random_word",
    "random_nf",
    "with_inserted_relator",
    "random_elliptic",
]


def oracle_scan(text: str, names: str) -> list[tuple[str, int]]:
    """Tokenize ``letter power?`` terms character by character; the same
    tokens and the same WordSyntaxError (message and offset) as the parser."""
    lo0, lo1 = names[0], names[1]
    table = {lo0: (lo0, 1), lo0.upper(): (lo0, -1), lo1: (lo1, 1), lo1.upper(): (lo1, -1)}
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
            exp = int(text[i:j])
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
                F = double_coset(multiply(multiply(d, a_power(i), G), e, G), G)
                candidates.setdefault(F)
            for F in candidates:
                f = F.representative
                count = 0
                for j in range(E.profile.l):
                    t = multiply(f, invert(multiply(e, a_power(j), G), G), G)
                    if double_coset(t, G) == D:
                        count += 1
                if count:
                    acc[F] = acc.get(F, 0) + cD * cE * count
    return HeckeElement.from_dict(acc)


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
