"""Exact word arithmetic in the Baumslag-Solitar group BS(n, m).

BS(n, m) is the one-relator group <a, b | b a^n b^-1 = a^m> with n, m
nonzero.  Every element has a unique right-pushed normal form

    a^{s_1} b^{e_1} a^{s_2} b^{e_2} ... a^{s_k} b^{e_k} a^{t}

where each e_i is +1 or -1, the power s_i written just before b^{e_i}
satisfies 0 <= s_i < |m| when e_i = +1 and 0 <= s_i < |n| when e_i = -1,
and no pinch remains: there is no i with e_i = -e_{i+1} and s_{i+1} = 0.
The representative ranges come from pushing a-powers rightward through b
with a^m b = b a^n and through b^-1 with a^n b^-1 = b^-1 a^m.  With the
ranges constrained this way a pinch b a^s b^-1 (divisibility n | s) or
b^-1 a^s b (divisibility m | s) can only happen at s = 0, so the pinch
check is a single zero test.

Two words are equal in the group iff their normal forms coincide, which
decides the word problem.  The number k of b-letters in the normal form
is the b-length of the element.  All exponents are arbitrary-precision:
each crossing multiplies a-powers by m/n or n/m and fixed-width integers
would overflow silently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd

__all__ = [
    "BsPresentation",
    "GroupWord",
    "NormalForm",
    "WordSyntaxError",
    "IDENTITY",
    "bs",
    "parse_word",
    "format_word",
    "normalize",
    "word_nf",
    "is_identity",
    "multiply",
    "invert",
    "power",
    "conjugated_by",
    "b_length",
    "cyclically_reduce",
    "abelianization_image",
    "a_power",
    "b_letter",
    "to_group_word",
    "concat_words",
    "inverse_word",
    "nf_sort_key",
]


class WordSyntaxError(ValueError):
    """Malformed input word; ``offset`` is the byte position of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True, slots=True)
class BsPresentation:
    """Parameters of BS(n, m) together with the derived quantities

    k = gcd(|n|, |m|), n = k*n0, m = k*m0 (so gcd(n0, |m0|) = 1).
    """

    n: int
    m: int
    k: int
    n0: int
    m0: int

    @property
    def is_standard(self) -> bool:
        """True iff 2 <= n <= |m|, the reference chamber that lists every
        nonamenable example exactly once.  Index-value and fusion machinery
        requires it."""
        return 2 <= self.n <= abs(self.m)

    def require_standard(self, what: str) -> None:
        if not self.is_standard:
            raise ValueError(f"{what} requires 2 <= n <= |m|, got BS({self.n},{self.m})")

    def __str__(self) -> str:
        return f"BS({self.n},{self.m})"


def bs(n: int, m: int) -> BsPresentation:
    """Construct the presentation object for BS(n, m); n, m must be nonzero."""
    if n == 0 or m == 0:
        raise ValueError("BS(n, m) needs nonzero n and m")
    k = gcd(abs(n), abs(m))
    return BsPresentation(n, m, k, n // k, m // k)


@dataclass(frozen=True, slots=True)
class GroupWord:
    """A free word over {a, b}: merged syllables (letter, exponent) with all
    exponents nonzero and adjacent letters distinct."""

    syllables: tuple[tuple[str, int], ...]

    @staticmethod
    def of(items) -> "GroupWord":
        """Build a word from (letter, exponent) pairs, freely cancelling."""
        stack: list[tuple[str, int]] = []
        for letter, exp in items:
            if letter not in ("a", "b"):
                raise ValueError(f"letter must be 'a' or 'b', got {letter!r}")
            if exp == 0:
                continue
            if stack and stack[-1][0] == letter:
                merged = stack[-1][1] + exp
                if merged == 0:
                    stack.pop()
                else:
                    stack[-1] = (letter, merged)
            else:
                stack.append((letter, exp))
        return GroupWord(tuple(stack))

    def __str__(self) -> str:
        return format_word(self)


EMPTY_WORD = GroupWord(())


@dataclass(frozen=True, slots=True)
class NormalForm:
    """The right-pushed normal form: ``prefix`` holds the (s_i, e_i) pairs,
    ``tail`` the final a-exponent.  Field-by-field equality is equality in
    the group."""

    prefix: tuple[tuple[int, int], ...]
    tail: int

    @property
    def b_length(self) -> int:
        return len(self.prefix)

    def __str__(self) -> str:
        return format_word(self)


IDENTITY = NormalForm((), 0)


def a_power(z: int) -> NormalForm:
    return NormalForm((), z)


def b_letter(e: int) -> NormalForm:
    if e not in (1, -1):
        raise ValueError("b_letter takes e in {+1, -1}")
    return NormalForm(((0, e),), 0)


# ---------------------------------------------------------------------------
# parsing and printing

# one term per match: any non-space character, then an optional exponent;
# finditer skips exactly the whitespace between terms
_TERM = re.compile(r"(\S)(?:(\^)(-?)([0-9]*))?")


def _scan(text: str, names: str) -> list[tuple[str, int]]:
    """Tokenize ``letter power?`` terms over the two letters in ``names``
    (their uppercase forms denote inverses).  Raises WordSyntaxError with
    the byte offset of the first bad character."""
    lo0, lo1 = names[0], names[1]
    table = {lo0: (lo0, 1), lo0.upper(): (lo0, -1), lo1: (lo1, 1), lo1.upper(): (lo1, -1)}
    out: list[tuple[str, int]] = []
    for term in _TERM.finditer(text):
        ch, caret, minus, digits = term.groups()
        if ch == "e":
            # the canonical spelling of the identity re-parses as no term
            if caret:
                raise WordSyntaxError("'e' takes no exponent", term.start(2))
            continue
        if ch not in table:
            raise WordSyntaxError(f"unexpected character {ch!r}", term.start(1))
        if caret and not digits:
            raise WordSyntaxError("expected digits after '^'", term.start(4))
        letter, sign = table[ch]
        exp = int(digits) if caret else 1
        out.append((letter, -sign * exp if minus else sign * exp))
    return out


def parse_word(text: str) -> GroupWord:
    """Parse a word over a, b (A = a^-1, B = b^-1, optional ^exponents,
    optional whitespace between terms) into a freely merged GroupWord.
    Parsing never consults the group parameters."""
    return GroupWord.of(_scan(text, "ab"))


def _fmt_syllable(letter: str, exp: int) -> str:
    return letter if exp == 1 else f"{letter}^{exp}"


def format_word(w: "GroupWord | NormalForm") -> str:
    """Canonical text form: letters a, b with signed exponents, space
    separated, "e" for the identity.  Output re-parses to the same element."""
    if isinstance(w, NormalForm):
        w = to_group_word(w)
    if not w.syllables:
        return "e"
    return " ".join(_fmt_syllable(letter, exp) for letter, exp in w.syllables)


def to_group_word(nf: NormalForm) -> GroupWord:
    items: list[tuple[str, int]] = []
    for s, e in nf.prefix:
        items.append(("a", s))
        items.append(("b", e))
    items.append(("a", nf.tail))
    return GroupWord.of(items)


def concat_words(u: GroupWord, v: GroupWord) -> GroupWord:
    return GroupWord.of(u.syllables + v.syllables)


def inverse_word(w: GroupWord) -> GroupWord:
    return GroupWord.of((letter, -exp) for letter, exp in reversed(w.syllables))


# ---------------------------------------------------------------------------
# normalization

class _Builder:
    """Mutable accumulator maintaining the right-pushed pinch-free invariant
    while letters are appended on the right."""

    __slots__ = ("n", "m", "prefix", "tail")

    def __init__(self, G: BsPresentation, seed: NormalForm | None = None):
        self.n = G.n
        self.m = G.m
        if seed is None:
            self.prefix: list[tuple[int, int]] = []
            self.tail = 0
        else:
            self.prefix = list(seed.prefix)
            self.tail = seed.tail

    def push_a(self, z: int) -> None:
        self.tail += z

    def push_b(self, e: int) -> None:
        n, m = self.n, self.m
        prefix = self.prefix
        if e == 1:
            # cross b: a^t b = a^{t0} b a^{n q} with t = m q + t0
            t0 = self.tail % abs(m)
            q = (self.tail - t0) // m
            if t0 == 0 and prefix and prefix[-1][1] == -1:
                # pinch b^-1 a^{m q} b = a^{n q}
                s, _ = prefix.pop()
                self.tail = s + n * q
            else:
                prefix.append((t0, 1))
                self.tail = n * q
        else:
            # cross b^-1: a^t b^-1 = a^{t0} b^-1 a^{m q} with t = n q + t0
            t0 = self.tail % abs(n)
            q = (self.tail - t0) // n
            if t0 == 0 and prefix and prefix[-1][1] == 1:
                # pinch b a^{n q} b^-1 = a^{m q}
                s, _ = prefix.pop()
                self.tail = s + m * q
            else:
                prefix.append((t0, -1))
                self.tail = m * q

    def push_word(self, w: GroupWord) -> None:
        for letter, exp in w.syllables:
            if letter == "a":
                self.push_a(exp)
            else:
                e = 1 if exp > 0 else -1
                for _ in range(abs(exp)):
                    self.push_b(e)

    def push_normal(self, v: NormalForm) -> None:
        for s, e in v.prefix:
            self.push_a(s)
            self.push_b(e)
        self.push_a(v.tail)

    def done(self) -> NormalForm:
        return NormalForm(tuple(self.prefix), self.tail)


def normalize(w: GroupWord, G: BsPresentation) -> NormalForm:
    """Rewrite a free word to its unique right-pushed pinch-free form."""
    builder = _Builder(G)
    builder.push_word(w)
    return builder.done()


def word_nf(text: str, G: BsPresentation) -> NormalForm:
    """Parse and normalize in one step."""
    return normalize(parse_word(text), G)


def is_identity(w: GroupWord, G: BsPresentation) -> bool:
    return normalize(w, G) == IDENTITY


def multiply(u: NormalForm, v: NormalForm, G: BsPresentation) -> NormalForm:
    builder = _Builder(G, seed=u)
    builder.push_normal(v)
    return builder.done()


def invert(u: NormalForm, G: BsPresentation) -> NormalForm:
    builder = _Builder(G)
    builder.push_a(-u.tail)
    for s, e in reversed(u.prefix):
        builder.push_b(-e)
        builder.push_a(-s)
    return builder.done()


def power(u: NormalForm, z: int, G: BsPresentation) -> NormalForm:
    if z < 0:
        u = invert(u, G)
        z = -z
    acc = IDENTITY
    sq = u
    while z:
        if z & 1:
            acc = multiply(acc, sq, G)
        z >>= 1
        if z:
            sq = multiply(sq, sq, G)
    return acc


def conjugated_by(g: NormalForm, h: NormalForm, G: BsPresentation) -> NormalForm:
    """h^-1 g h."""
    return multiply(multiply(invert(h, G), g, G), h, G)


def b_length(w: GroupWord, G: BsPresentation) -> int:
    """Total number of b-letters in any reduced expression of w."""
    return len(normalize(w, G).prefix)


def cyclically_reduce(g: NormalForm, G: BsPresentation) -> tuple[NormalForm, NormalForm]:
    """Return (conjugator, core) with conjugator^-1 g conjugator = core and
    no cyclic rotation of core admitting a pinch.

    With the normal form constraints an interior pinch is impossible, so the
    only candidate is the wrap-around one: the last letter b^{e_k}, the
    cyclic a-power tail + s_1, and the first letter b^{e_1}.  A rotation is
    performed only when that pinch is verified (e_k = -e_1 and tail + s_1
    divisible by |m| or |n| according to e_1), so each rotation shortens the
    b-length by at least two and the loop terminates.
    """
    conj = IDENTITY
    core = g
    while core.prefix:
        s1, e1 = core.prefix[0]
        _, ek = core.prefix[-1]
        if ek != -e1:
            break
        c = abs(G.m) if e1 == 1 else abs(G.n)
        if (core.tail + s1) % c != 0:
            break
        w = NormalForm(((s1, e1),), 0)
        conj = multiply(conj, w, G)
        core = multiply(multiply(invert(w, G), core, G), w, G)
    return conj, core


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


def nf_sort_key(nf: NormalForm) -> tuple:
    """Deterministic total order: b-length, then prefix fields, then tail."""
    return (len(nf.prefix), nf.prefix, nf.tail)
