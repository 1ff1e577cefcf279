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

One crossing loop, ``_push``, appends a run of letters a^s b^e to a
normal form with the crossing table ``G.carries``, which ``bs`` computes
once per presentation.  By the relation a^{c q} b^e = b^e a^{d q},
a^{C Q} crosses a whole run as a^{A Q}, C and A the products of the
run's c and d, so a product divides a wide tail by C once instead of by
each c in turn.  ``normalize`` hands each single
b-letter to ``_push`` as it is and spells out only a true run b^k.
``parse_word`` makes one pass to take the terms and one to tokenize and
merge; where the terms stop is where a bad text fails.
"""

from __future__ import annotations

import re
import sys
from math import gcd
from operator import attrgetter

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
    "multiply",
    "invert",
    "power",
    "conjugated_by",
    "cyclically_reduce",
    "a_power",
    "to_group_word",
]


class InternalError(RuntimeError):
    """A broken internal invariant: a bug in bsrig, never bad input."""


class WordSyntaxError(ValueError):
    """Malformed input word; ``offset`` is the byte position of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class Value:
    """Base of the immutable value classes: plain ``__slots__`` classes with
    the behaviour of a frozen dataclass at a fraction of its import cost.

    A subclass writes only its ``__slots__`` (the fields, in order) and, as
    the class keyword ``optional``, how many trailing fields default to
    None; the base derives everything else from the slots.  The constructor
    takes the fields by position or keyword.  It is generated from source,
    as ``collections.namedtuple`` generates ``__new__``, and stores each
    field through the ``__set__`` of that slot's own member descriptor,
    bound into its globals: plain assignment is refused, and the generic
    ``object.__setattr__`` is slower (``NormalForm((), 0)`` takes about
    280 ns this way against 365 through it, Python 3.11).
    Equality holds only within the same class, field by field, and a value
    hashes as the tuple of its fields.  Assignment and deletion raise
    AttributeError, the repr reads ``Cls(field=value, ...)`` and pickling
    and copying go by the field tuple.  A subclass with ``__slots__ = ()``
    keeps its parent's constructor, equality and hash; one that adds slots
    below a class with fields is refused with TypeError, as its derived
    constructor, equality and hash would drop the inherited fields, and so
    is one with fields that writes its own ``__init__``, which the derived
    constructor would silently replace.
    """

    __slots__ = ()

    def __init_subclass__(cls, optional: int = 0):
        names = cls.__slots__
        if not names:
            return
        for base in cls.__mro__[1:]:
            if base.__dict__.get("__slots__"):
                raise TypeError(f"{cls.__qualname__} adds fields below {base.__qualname__}'s")
        if "__init__" in cls.__dict__:
            raise TypeError(f"{cls.__qualname__} writes an __init__, which the derived one would replace")
        fields = attrgetter(*names)  # the bare value for one field
        single = len(names) == 1

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return fields(self) == fields(other)

        def __hash__(self):
            return hash((fields(self),) if single else fields(self))

        namespace = {f"_set_{name}": cls.__dict__[name].__set__ for name in names}
        stores = "".join(f"\n _set_{name}(self, {name})" for name in names)
        exec(f"def __init__(self, {', '.join(names)}):{stores}", namespace)
        __init__ = namespace["__init__"]
        __init__.__defaults__ = (None,) * optional
        __init__.__qualname__ = f"{cls.__qualname__}.__init__"
        __init__.__module__ = cls.__module__
        cls.__init__, cls.__eq__, cls.__hash__ = __init__, __eq__, __hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)


class BsPresentation(Value):
    """Parameters of BS(n, m) together with the derived quantities

    k = gcd(|n|, |m|), n = k*n0, m = k*m0 (so gcd(n0, |m0|) = 1), and the
    crossing table carries = ((c, d) of b, (c, d) of b^-1): a^t b^e =
    a^{t mod c} b^e a^{d (t div c)}, with (c, d) = +-(m, n) for b and
    +-(n, m) for b^-1, signed so that c > 0; negating c and d together
    leaves d (t div c) as it is.
    """

    __slots__ = ("n", "m", "k", "n0", "m0", "carries")

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
    up = (m, n) if m > 0 else (-m, -n)
    down = (n, m) if n > 0 else (-n, -m)
    return BsPresentation(n, m, k, n // k, m // k, (up, down))


class GroupWord(Value):
    """A free word over {a, b}: merged syllables (letter, exponent) with all
    exponents nonzero and adjacent letters distinct."""

    __slots__ = ("syllables",)

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


class NormalForm(Value):
    """The right-pushed normal form: ``prefix`` holds the (s_i, e_i) pairs,
    ``tail`` the final a-exponent.  Field-by-field equality is equality in
    the group."""

    __slots__ = ("prefix", "tail")

    @property
    def b_length(self) -> int:
        return len(self.prefix)

    def __str__(self) -> str:
        return format_word(self)


IDENTITY = NormalForm((), 0)


def a_power(z: int) -> NormalForm:
    return NormalForm((), z)


# ---------------------------------------------------------------------------
# parsing and printing

_LETTERS = {"a": ("a", 1), "A": ("a", -1), "b": ("b", 1), "B": ("b", -1)}

# the longest run of terms at the start of a text, so a text is a word iff
# this match ends at its end.  The quantifiers are possessive: the match
# never backs into a term it took, so it stays linear in the text
_WORD = re.compile(r"(?:\s*+(?:[aAbB](?:\^-?[0-9]++)?+|e))*+\s*")
# the tokens of a run of terms: a letter and its signed digits, if any
_TOKEN = re.compile(r"([aAbB])(?:\^(-?[0-9]+))?")


def parse_word(text: str) -> GroupWord:
    """Parse a word over a, b (A = a^-1, B = b^-1, optional ^exponents,
    optional whitespace between terms) into a freely merged GroupWord.
    Parsing never consults the group parameters.  One match of ``_WORD``
    takes the terms, one findall tokenizes them and the same loop merges
    syllables.  A bad text raises WordSyntaxError at its first error: an
    exponent over the interpreter's digit limit, or else the first
    character no term takes."""
    end = _WORD.match(text).end()
    stack: list[tuple[str, int]] = []
    top = None  # the letter on top of the stack
    try:
        for ch, digits in _TOKEN.findall(text, 0, end):
            letter, exp = _LETTERS[ch]
            if digits:
                exp *= int(digits)
            if letter == top:
                exp += stack.pop()[1]
                top = stack[-1][0] if stack else None
            if exp:
                stack.append((letter, exp))
                top = letter
    except ValueError:  # only the interpreter's int-string limit rejects digits
        # an earlier exponent with the same digits would have failed first
        at = next(t.start(2) for t in _TOKEN.finditer(text, 0, end) if t[2] == digits)
        limit = sys.get_int_max_str_digits()
        message = f"exponent over the interpreter's {limit}-digit limit"
        raise WordSyntaxError(message, at + digits.startswith("-")) from None
    if end == len(text):
        return GroupWord(tuple(stack))
    # no term takes a caret after its letter with no digits, or after e
    before = text[end - 1] if end else ""
    if text[end] == "^" and before in _LETTERS:
        digits_at = end + 1 + text.startswith("-", end + 1)
        raise WordSyntaxError("expected digits after '^'", digits_at)
    if text[end] == "^" and before == "e":
        raise WordSyntaxError("'e' takes no exponent", end)
    raise WordSyntaxError(f"unexpected character {text[end]!r}", end)


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

def _push(prefix, t: int, letters, tail: int, G: BsPresentation) -> NormalForm:
    """prefix a^t a^{s_1} b^{e_1} ... a^{s_k} b^{e_k} a^{tail} in normal
    form, given a normal-form prefix and the (s, e) letters.  Crossing b^e
    turns a^t b^e into a^{t0} b^e a^{d q} with t = c q + t0; when t0 = 0
    right after b^-e, that is the pinch b^-e a^{c q} b^e = a^{d q}.

    A wide t crosses the whole run at once: with C and A the products of
    the letters' c and d, a^{C Q} crosses each letter as a^{(C/c) d Q},
    pinch or not, so t = C Q + r leaves the digits as r's and adds A Q to
    the tail.  For a T-bit t and k letters that is one division by the
    |C|-bit C, T |C| / w^2 steps on w-bit words, and k crossings below C,
    against k T / w for k full-width divisions; |C| is about k log2 c, so
    the split saves a factor of about w / log2 c.  t splits when it is
    wider than a word and than C can be."""
    up, down = G.carries
    prefix = list(prefix)
    if t.bit_length() > 64 and t.bit_length() > len(letters) * max(up[0], down[0]).bit_length():
        ups = (len(letters) + sum(e for _, e in letters)) // 2
        downs = len(letters) - ups
        q, t = divmod(t, up[0] ** ups * down[0] ** downs)
        tail += q * up[1] ** ups * down[1] ** downs
    for s, e in letters:
        c, d = up if e == 1 else down
        q, t0 = divmod(t + s, c)
        if t0 == 0 and prefix and prefix[-1][1] == -e:
            t = prefix.pop()[0] + d * q
        else:
            prefix.append((t0, e))
            t = d * q
    return NormalForm(tuple(prefix), t + tail)


def normalize(w: GroupWord, G: BsPresentation) -> NormalForm:
    """Rewrite a free word to its unique right-pushed pinch-free form: a
    single b^e after the a-power s is the letter (s, e) as it is, and a run
    b^k with |k| >= 2 is (s, e), then |k| - 1 letters (0, e)."""
    letters: list[tuple[int, int]] = []
    s = 0
    for letter, exp in w.syllables:
        if letter == "a":
            s += exp
        elif exp == 1 or exp == -1:
            letters.append((s, exp))
            s = 0
        elif exp:
            e = 1 if exp > 0 else -1
            letters.append((s, e))
            letters += [(0, e)] * (abs(exp) - 1)
            s = 0
    return _push((), 0, letters, s, G)


def word_nf(text: str, G: BsPresentation) -> NormalForm:
    """Parse and normalize in one step."""
    return normalize(parse_word(text), G)


def multiply(u: NormalForm, v: NormalForm, G: BsPresentation) -> NormalForm:
    return _push(u.prefix, u.tail, v.prefix, v.tail, G)


def invert(u: NormalForm, G: BsPresentation) -> NormalForm:
    """a^{-t} b^{-e_k} a^{-s_k} ... b^{-e_1} a^{-s_1}: a^{-t}, then the
    letters, so that a wide t crosses them at once."""
    letters = []
    t = 0
    for s, e in reversed(u.prefix):
        letters.append((-t, -e))
        t = s
    return _push((), -u.tail, letters, -t, G)


def power(u: NormalForm, z: int, G: BsPresentation) -> NormalForm:
    if z < 0:
        u = invert(u, G)
        z = -z
    acc = None
    while z:
        if z & 1:
            acc = u if acc is None else multiply(acc, u, G)
        z >>= 1
        if z:
            u = multiply(u, u, G)
    return IDENTITY if acc is None else acc


def conjugated_by(g: NormalForm, h: NormalForm, G: BsPresentation) -> NormalForm:
    """h^-1 g h."""
    return multiply(multiply(invert(h, G), g, G), h, G)


def _cyclic_span(g: NormalForm, G: BsPresentation) -> tuple[int, int, int]:
    """(i, j, tail) with core = NormalForm(g.prefix[i:j], tail), as
    cyclically_reduce describes; j - i is the core's b-length."""
    prefix, tail = g.prefix, g.tail
    up, down = G.carries
    i, j = 0, len(prefix)
    while i < j:
        s, e = prefix[i]
        c, d = up if e == 1 else down
        if prefix[j - 1][1] != -e:
            break
        q, t = divmod(tail + s, c)
        if t:
            break
        # b^-e a^{tail + s} b^e = a^{(tail + s) / c * d}
        tail = prefix[j - 1][0] + q * d
        i, j = i + 1, j - 1
    return i, j, tail


def cyclically_reduce(g: NormalForm, G: BsPresentation) -> tuple[NormalForm, NormalForm]:
    """Return (conjugator, core) with conjugator^-1 g conjugator = core and
    no cyclic rotation of core admitting a pinch.

    With the normal form constraints an interior pinch is impossible, so the
    only candidate is the wrap-around one: the last letter b^{e_k}, the
    cyclic a-power tail + s_1, and the first letter b^{e_1}.  A rotation,
    made only when that pinch is verified (e_k = -e_1 and c | tail + s_1,
    c = m for e_1 = 1, c = n for e_1 = -1), drops exactly those two letters
    and folds the pinched power into the tail: the conjugator is g's leading
    letters and the core its middle, sliced off with no multiplication.
    """
    i, j, tail = _cyclic_span(g, G)
    return NormalForm(g.prefix[:i], 0), NormalForm(g.prefix[i:j], tail)
