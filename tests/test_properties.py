"""Property-based tests on arbitrary input: exact roots of unity, the word
parser, the command line, Hecke convolution and exchange partners against
their definition oracles, the coset profile against the modular function,
and cyclic reduction against its contract.
Hypothesis comes with the ``test`` extra; the module is skipped where it
is not installed."""

import contextlib
import io
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from bsrig import (  # noqa: E402
    GroupWord,
    HeckeElement,
    RootOfUnity,
    WordSyntaxError,
    bs,
    conjugated_by,
    coset_profile,
    cyclically_reduce,
    double_coset,
    exchange_partners,
    format_word,
    hecke_convolve,
    invert,
    multiply,
    normalize,
    parse_word,
)
from bsrig.cli import COMMANDS, run  # noqa: E402
from bsrig.oracles import (  # noqa: E402
    enumerate_omega,
    modular_ratio,
    oracle_convolve,
    oracle_exchange_partners,
)

SETTINGS = settings(deadline=None, database=None, max_examples=200)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@SETTINGS
@given(st.integers(), st.integers())
@example(0, 5)
@example(-7, 3)
@example(7, -3)
@example(-4, -6)
@example(3, 0)
@example(0, 0)
def test_root_of_unity_of_is_the_angle_mod_one(p, q):
    if q == 0:
        with pytest.raises(ZeroDivisionError):
            RootOfUnity.of(p, q)
        # the command line reports it as a domain error
        code, out, err = _run(["--group", "2,3", "exchange", "--", f"{p}/{q}", "b"])
        assert (code, out) == (1, "") and "expected a fraction" in err
        return
    w = RootOfUnity.of(p, q)
    assert Fraction(w.num, w.den) == Fraction(p, q) % 1


# the word alphabet, other ASCII, Unicode whitespace and digits, and letters
# whose case mapping is not ASCII
ALPHABET = [chr(c) for c in range(128)] + list("\u00a0\u2003\u0663\uff15\u0130\u017f\u00e9")
ANY_TEXT = st.text(alphabet=ALPHABET, max_size=24)
WORD_TEXT = st.text(alphabet="aAbBe^- 0123456789\t", max_size=24)


@SETTINGS
@given(st.one_of(ANY_TEXT, WORD_TEXT))
@example("a^")
@example("e^2")
@example("b a^-12 B e A^3")
@example("a^" + "9" * 5000)  # past the interpreter's int-string limit
def test_parse_word_round_trips_or_raises_a_syntax_error(text):
    try:
        w = parse_word(text)
    except WordSyntaxError:
        return
    assert parse_word(format_word(w)) == w


# Words of at most four letters: a-powers up to 99 and single b-letters, so
# that b-length, and with it every index the commands loop over, stays at
# most 4 (the command line has no admission caps yet: convolve b^99 B^99
# would visit 2^99 candidates).
TERM = st.one_of(
    st.builds(lambda ch, e: f"{ch}^{e}", st.sampled_from("aA"), st.integers(-99, 99)),
    st.sampled_from("bB"),
)
WORD = st.one_of(st.lists(TERM, max_size=4).map(" ".join), st.text(alphabet=ALPHABET, max_size=6))
SMALL = st.integers(-1, 3).map(str)
PAIR = st.builds(lambda n, m: f"{n},{m}", st.integers(-4, 4), st.integers(-4, 4))
ROOT = st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(-9, 9))
VALUES = {"pair": PAIR, "pair1": PAIR, "pair2": PAIR, "root": ROOT, "radius": SMALL}


@st.composite
def argvs(draw):
    # selftest takes no input and has its own tests; at 0.2 s a run it
    # would dominate the time of this one
    name = draw(st.sampled_from(sorted(set(COMMANDS) - {"selftest"})))
    options, positionals = [], []
    for arg, spec in COMMANDS[name].args:
        if arg.startswith("--"):
            if draw(st.booleans()):
                options += [arg, draw(SMALL)]
        elif spec.get("nargs") == "+":
            positionals += draw(st.lists(WORD, min_size=1, max_size=3))
        else:
            positionals.append(draw(VALUES.get(arg, WORD)))
    n, m = draw(st.lists(st.sampled_from([2, 3, -2, -3, 1, -1, 0]), min_size=2, max_size=2))
    group = f"{n},{m}"
    head = draw(st.sampled_from([["--group", group], [f"--group={group}"]]))
    fmt = draw(st.sampled_from([[], ["--format", "json"]]))
    return [*head, name, *options, *fmt, *(["--", *positionals] if positionals else [])]


@settings(SETTINGS, max_examples=100)
@given(argvs())
def test_cli_exits_0_1_or_2_on_random_arguments(argv):
    code, _, _ = _run(argv)
    assert code in (0, 1, 2), argv


def words(max_b, max_a):
    """Free words a^{s_0} b^{e_1} a^{s_1} ... with at most max_b b-letters
    and a-powers up to max_a in absolute value."""
    power = st.integers(-max_a, max_a)
    syllables = st.lists(st.tuples(st.sampled_from([1, -1]), power), max_size=max_b)
    return st.builds(
        lambda head, rest: GroupWord.of([("a", head)] + [x for e, s in rest for x in (("b", e), ("a", s))]),
        power,
        syllables,
    )


ORACLE_GROUPS = [bs(2, 3), bs(2, -3), bs(3, 4), bs(2, 2)]
OMEGA = {G: enumerate_omega(G, 36) for G in ORACLE_GROUPS}


@settings(SETTINGS, max_examples=100)
@given(st.sampled_from(ORACLE_GROUPS), words(2, 20), words(2, 20), st.integers(1, 3))
def test_convolution_equals_the_definition_oracle(G, u, v, coeff):
    x = HeckeElement.single(double_coset(normalize(u, G), G))
    y = HeckeElement.single(double_coset(normalize(v, G), G), coeff)
    assert hecke_convolve(x, y, G) == oracle_convolve(x, y, G)


@settings(SETTINGS, max_examples=100)
@given(st.sampled_from(ORACLE_GROUPS), words(2, 20), st.data())
def test_exchange_partners_equal_the_fraction_oracle(G, u, data):
    w = data.draw(st.sampled_from(OMEGA[G]))
    g = normalize(u, G)
    assert exchange_partners(w, g, G) == oracle_exchange_partners(w, g, G)


# n, m of either sign, |n| = |m|, |n| = 1 and k = gcd(n, m) > 1
RATIO_GROUPS = [bs(2, 3), bs(-2, 3), bs(-2, -3), bs(1, -1), bs(2, 2), bs(3, 4), bs(6, -10)]


@SETTINGS
@given(st.sampled_from(RATIO_GROUPS), words(8, 10**6))
def test_profile_ratio_is_the_modular_function(G, u):
    # r * |n0|^sigma = l * |m0|^sigma, with no bound on r
    g = normalize(u, G)
    p = coset_profile(g, G)
    assert Fraction(p.r, p.l) == modular_ratio(g, G)


# n, m of either sign, |n| = |m| and |n| = 1
ROTATION_GROUPS = [bs(2, 3), bs(2, -3), bs(-2, 3), bs(3, -4), bs(2, 2), bs(1, -1)]


@settings(SETTINGS, max_examples=100)
@given(st.sampled_from(ROTATION_GROUPS), words(4, 10**6), words(2, 10**6))
def test_cyclic_reduction_slices_the_normal_form(G, u, c):
    # on conjugates u c u^-1, so that rotations happen
    u, c = normalize(u, G), normalize(c, G)
    g = multiply(multiply(u, c, G), invert(u, G), G)
    conj, core = cyclically_reduce(g, G)
    assert conj.tail == 0 and g.prefix[: len(conj.prefix)] == conj.prefix
    assert conjugated_by(g, conj, G) == core
    if core.prefix:
        (s1, e1), (_, ek) = core.prefix[0], core.prefix[-1]
        # no wrap-around pinch b^{e_k} a^{tail + s_1} b^{e_1} remains
        assert ek != -e1 or (core.tail + s1) % (G.m if e1 == 1 else G.n)
