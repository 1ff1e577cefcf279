import argparse
import ast
import inspect
import io
import json
import random
import sys
import textwrap
from fractions import Fraction

import pytest

from bsrig import cli, hecke, rigidity, tree
from bsrig.cli import run
from bsrig.fusion import RootOfUnity
from bsrig.oracles import (
    oracle_common_fixed_vertex,
    oracle_exchange_partners,
    random_elliptic,
    random_nf,
    random_word,
)
from bsrig.words import bs, conjugated_by, format_word, word_nf


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce_example(capsys):
    code, out, err = invoke(capsys, "--group", "2,3", "reduce", "b a^2 B")
    assert (code, out, err) == (0, "a^3\n", "")


def test_profile_example(capsys):
    code, out, _ = invoke(capsys, "--group", "2,3", "profile", "b")
    assert code == 0
    assert out == '{"l":2,"r":3,"L":2}\n'


def test_obstruction_example(capsys):
    code, out, _ = invoke(capsys, "obstruction", "2,3", "2,-3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "verdict": "sign_mismatch",
        "witness": {"t": 1, "omega": "1/12", "mu": "1/18"},
    }


def test_witness(capsys):
    code, out, _ = invoke(capsys, "witness", "2,4")
    assert code == 0
    assert json.loads(out) == {"t": 2, "omega": "1/8", "mu": "1/16"}


def test_iso(capsys):
    code, out, _ = invoke(capsys, "iso", "2,3", "3,2")
    assert (code, out) == (0, "true\n")
    code, out, _ = invoke(capsys, "iso", "2,3", "2,-3")
    assert (code, out) == (0, "false\n")


def test_eq_blength_qc(capsys):
    assert invoke(capsys, "--group", "2,3", "eq", "b a^2 b^-1", "a^3")[:2] == (0, "true\n")
    assert invoke(capsys, "--group", "2,3", "blength", "b^3 a b^-1")[:2] == (0, "4\n")
    assert invoke(capsys, "--group", "2,-2", "qc", "b")[:2] == (0, "false\n")
    assert invoke(capsys, "--group", "2,-2", "qc", "b^2")[:2] == (0, "true\n")


def test_classify_and_fixed(capsys):
    code, out, _ = invoke(capsys, "--group", "2,3", "classify", "b")
    assert code == 0
    assert json.loads(out) == {"kind": "hyperbolic", "translation_length": 1}
    code, out, _ = invoke(capsys, "--group", "2,3", "classify", "b a B")
    assert json.loads(out) == {"kind": "elliptic", "witness": "b"}
    code, out, _ = invoke(capsys, "--group", "2,3", "fixed", "b a B")
    assert (code, out) == (0, "vertex=b g0=b\n")
    code, out, _ = invoke(capsys, "--group", "2,3", "fixed", "b a B", "--format", "json")
    assert json.loads(out) == {"vertex": "b", "g0": "b"}
    code, out, _ = invoke(capsys, "--group", "2,3", "fixed", "a^2", "b a^3 B", "--radius", "4")
    assert code == 0
    assert out == "absent\n"


def test_coset_convolve_fuse(capsys):
    code, out, _ = invoke(capsys, "--group", "2,3", "coset", "a^2 b a^5")
    assert json.loads(out) == {"coset": "b", "l": 2, "r": 3, "L": 2}
    code, out, _ = invoke(capsys, "--group", "2,3", "convolve", "b", "B")
    assert json.loads(out) == [
        {"coset": "e", "coeff": 3},
        {"coset": "b a b^-1", "coeff": 1},
    ]
    code, out, _ = invoke(capsys, "--group", "2,3", "fuse-selfinv", "b")
    assert json.loads(out) == [
        {"char": "0/1"},
        {"char": "1/3"},
        {"char": "2/3"},
        {"coset": "b a b^-1", "l": 3, "r": 3},
    ]


def test_negative_parameters_after_equals_or_separator(capsys):
    code, out, _ = invoke(capsys, "--group=-2,3", "coset", "b")
    assert (code, out) == (0, '{"coset":"b","l":2,"r":3,"L":-2}\n')
    assert invoke(capsys, "iso", "--", "-2,-3", "2,3")[:2] == (0, "true\n")


def test_negative_group_as_a_separate_argument(capsys):
    for argv in (("profile", "b"), ("coset", "b a^3"), ("reduce", "b a^2 B")):
        spaced = invoke(capsys, "--group", "-2,3", *argv)
        assert spaced == invoke(capsys, "--group=-2,3", *argv)
        assert spaced[0] == 0 and spaced[2] == ""
    assert invoke(capsys, "--group", "-2,-3", "profile", "b")[:2] == (0, '{"l":2,"r":3,"L":2}\n')


def test_negative_group_after_an_abbreviated_option(capsys):
    want = invoke(capsys, "--group=-2,3", "profile", "b")
    assert want[0] == 0 and want[2] == ""
    assert invoke(capsys, "--gr", "-2,3", "profile", "b") == want
    assert invoke(capsys, "--gro=-2,3", "profile", "b") == want
    assert invoke(capsys, "--gr", "2,3", "profile", "b") == invoke(capsys, "--group=2,3", "profile", "b")


def test_many_separate_group_arguments(capsys):
    # each --group V is attached in one loop, not one call deep per pair
    once = invoke(capsys, "--group", "-2,3", "profile", "b")
    assert once[0] == 0
    assert invoke(capsys, *["--group", "-2,3"] * 2000, "profile", "b") == once


def test_fixed_says_whether_absence_is_proven(capsys):
    # the common fixed vertex b a b a b^-1 lies at distance 2 from the first
    # word's witness vertex, and the hint names that least radius
    pair = ("b a b a^6 B a^-1 B", "b a b a B a B a^6 b a^-1 b a^-1 B a^-1 B")
    for radius in ("0", "1"):
        code, out, _ = invoke(capsys, "--group", "2,3", "fixed", *pair, "--radius", radius)
        assert (code, out) == (0, f"none within radius {radius}; --radius 2 finds one\n")
    code, out, _ = invoke(capsys, "--group", "2,3", "fixed", *pair, "--radius", "1", "--format", "json")
    assert (code, json.loads(out)) == (0, {"vertex": None, "proven": False, "least_radius": 2})
    code, out, _ = invoke(capsys, "--group", "2,3", "fixed", *pair, "--radius", "2")
    assert (code, out) == (0, "vertex=b a b a b^-1 g0=b a b a b^-1\n")
    # radius 0 checks the witness vertex alone
    code, out, _ = invoke(capsys, "--group", "2,3", "fixed", "a", "--radius", "0")
    assert (code, out) == (0, "vertex=e g0=e\n")
    # a^2 and b a^3 B fix disjoint subtrees: their product is hyperbolic with
    # translation length 2, which proves it at any radius, 0 included
    certificate = {"pair": [0, 1], "translation_length": 2}
    for radius in ("0", "1", "5"):
        code, out, _ = invoke(capsys, "--group", "2,3", "fixed", "a^2", "b a^3 B", "--radius", radius)
        assert (code, out) == (0, "absent\n")
        code, out, _ = invoke(
            capsys, "--group", "2,3", "fixed", "a^2", "b a^3 B", "--radius", radius, "--format", "json"
        )
        assert (code, json.loads(out)) == (0, {"vertex": None, "proven": True, "certificate": certificate})
    # the first separating pair: a^2 and a^4 share the base vertex
    code, out, _ = invoke(capsys, "--group", "2,3", "fixed", "a^2", "a^4", "b a^3 B", "--format", "json")
    assert json.loads(out)["certificate"] == {"pair": [0, 2], "translation_length": 2}
    # on random elliptic sets with a common vertex, conjugated by a shared
    # word, the hinted radius is the least one at which the walk finds the
    # vertex, and it prints the vertex
    for G in (bs(2, 3), bs(2, -3)):
        rng = random.Random(30)
        hinted = 0
        for _ in range(150):
            w = random_nf(rng, G, max_b=3, max_exp=6)
            gs = [
                conjugated_by(random_elliptic(rng, G, 2, deep=rng.random() < 0.7), w, G)
                for _ in range(rng.randint(2, 3))
            ]
            if tree.least_fixed_vertex(gs, G)[0] is None:
                continue
            words = [format_word(g) for g in gs]
            group = ("--group", f"{G.n},{G.m}", "fixed", *words, "--radius")
            code, out, _ = invoke(capsys, *group, "0")
            if out.startswith("vertex="):
                continue
            hinted += 1
            least = int(out.removeprefix("none within radius 0; --radius ").removesuffix(" finds one\n"))
            code, out, _ = invoke(capsys, *group, "0", "--format", "json")
            assert json.loads(out) == {"vertex": None, "proven": False, "least_radius": least}, words
            assert oracle_common_fixed_vertex(gs, G, least - 1) is None, words
            v, _ = oracle_common_fixed_vertex(gs, G, least)
            assert invoke(capsys, *group, str(least)) == (0, f"vertex={v} g0={v}\n", ""), words
        assert hinted >= 30, hinted


def test_help_names_the_equals_form_and_the_radius(capsys):
    code, out, _ = invoke(capsys, "-h")
    assert code == 0 and "--group=-2,3" in "".join(out.split())
    code, out, _ = invoke(capsys, "fixed", "-h")
    words = " ".join(out.split())
    assert code == 0 and "witness vertex" in words and "absent is proven" in words


def test_exchange(capsys):
    code, out, _ = invoke(capsys, "--group", "2,3", "exchange", "1/3", "B")
    assert (code, out) == (0, "2/9 5/9 8/9\n")
    # an integer root is a whole number of turns
    whole = invoke(capsys, "--group", "2,3", "exchange", "1", "B")
    assert whole == invoke(capsys, "--group", "2,3", "exchange", "0/1", "B") == (0, "0/1 1/3 2/3\n", "")


def test_exchange_lists_partners_by_angle(capsys):
    # the integer sort key orders exactly as the Fraction angles do
    G = bs(2, 3)
    for root, word in (("1/3", "b^8"), ("-1/3", "B^6")):
        code, out, _ = invoke(capsys, "--group", "2,3", "exchange", "--", root, word)
        p, q = map(int, root.split("/"))
        partners = oracle_exchange_partners(RootOfUnity.of(p, q), word_nf(word, G), G)
        want = " ".join(str(u) for u in sorted(partners, key=lambda u: Fraction(u.num, u.den)))
        assert (code, out) == (0, want + "\n")


def test_tree_ball(capsys):
    code, out, _ = invoke(capsys, "--group", "2,3", "tree-ball", "e", "1")
    assert code == 0
    assert out.startswith("digraph bass_serre_ball {")
    assert out.count("->") == 5
    code, out, _ = invoke(capsys, "--group", "2,3", "tree-ball", "e", "0", "--format", "json")
    assert json.loads(out) == {"dot": 'digraph bass_serre_ball {\n  "e";\n}\n'}


def test_tree_ball_text_is_the_json_dot(capsys):
    argv = ("--group", "2,-3", "tree-ball", "b^2 a B", "3")
    code, text, _ = invoke(capsys, *argv)
    assert code == 0
    code, out, _ = invoke(capsys, *argv, "--format", "json")
    assert code == 0
    assert text == json.loads(out)["dot"]
    # 1 + d((d - 1)^R - 1)/(d - 2) vertices for d = 5, R = 3
    assert text.count('";\n') == 106
    assert '  "b^2 a b^-1";\n' in text


def test_json_is_written_in_slices(monkeypatch):
    # no write holds the whole document; the bytes are those of one json.dumps
    sizes = []

    class Recorder(io.StringIO):
        def write(self, text):
            sizes.append(len(text))
            return super().write(text)

    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert run(["--group", "2,3", "--format", "json", "tree-ball", "e", "5"]) == 0
    G = bs(2, 3)
    dot = tree.export_ball(tree.vertex_of(word_nf("e", G), G), 5, G)
    assert out.getvalue() == json.dumps({"dot": dot}, separators=(",", ":")) + "\n"
    assert len(dot) > 1 << 16 and max(sizes) <= 1 << 16


def test_tree_ball_holds_its_dot_once():
    a = argparse.Namespace(center=word_nf("b", bs(2, 3)), radius=2)
    payload, text = cli._tree_ball(a, bs(2, 3))
    assert text is payload["dot"]


def test_text_is_written_in_the_same_slices(monkeypatch):
    sizes = []

    class Recorder(io.StringIO):
        def write(self, text):
            sizes.append(len(text))
            return super().write(text)

    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert run(["--group", "2,3", "tree-ball", "e", "5"]) == 0
    G = bs(2, 3)
    dot = tree.export_ball(tree.vertex_of(word_nf("e", G), G), 5, G)
    assert out.getvalue() == dot and dot.endswith("\n")  # no second newline
    assert len(dot) > 1 << 16 and max(sizes) <= 1 << 16


def test_no_handler_reads_its_own_arguments():
    # _call reads every word, root and pair before the handler runs, so a
    # handler gets values and never the text of an argument
    readers = {"word_nf", "_parse_pair", "_parse_root"}
    for name, command in cli.COMMANDS.items():
        source = textwrap.dedent(inspect.getsource(command.handler))
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", getattr(node.func, "attr", None))
                assert called not in readers, f"{name}: {called}"


def test_invariants(capsys):
    code, out, _ = invoke(capsys, "--group", "4,-6", "invariants", "--depth", "1")
    assert code == 0
    assert json.loads(out) == {
        "n": 4,
        "m": -6,
        "k": 2,
        "n0": 2,
        "m0": -3,
        "standard_form": True,
        "amenable": False,
        "canonical": [4, -6],
        "index_values": [4, 6],
    }


def test_json_mode_emits_one_document(capsys):
    for argv in (
        ["--group", "2,3", "reduce", "b a^2 B", "--format", "json"],
        ["--group", "2,3", "eq", "b", "b", "--format", "json"],
        ["--group", "2,3", "blength", "b", "--format", "json"],
        ["--group", "2,-2", "qc", "b", "--format", "json"],
        ["--group", "2,3", "fixed", "a", "--format", "json"],
        ["iso", "2,3", "2,3", "--format", "json"],
    ):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        json.loads(out)  # exactly one document
        assert out.endswith("\n") and out.count("\n") == 1


def test_format_flag_accepted_before_the_subcommand(capsys):
    code, out, _ = invoke(capsys, "--group", "2,3", "--format", "json", "reduce", "b a^2 B")
    assert code == 0
    assert json.loads(out) == {"word": "a^3"}


def test_determinism(capsys):
    rng = random.Random(34)
    for _ in range(10):
        word = format_word(random_word(rng, max_b=3, max_exp=50))
        argv = ["--group", "2,3", "reduce", word]
        out1 = invoke(capsys, *argv)
        out2 = invoke(capsys, *argv)
        assert out1 == out2
    argv = ["--group", "2,3", "tree-ball", "b", "2"]
    assert invoke(capsys, *argv) == invoke(capsys, *argv)


def test_reduce_round_trip(capsys):
    rng = random.Random(35)
    for _ in range(20):
        word = format_word(random_word(rng, max_b=4, max_exp=100))
        _, out, _ = invoke(capsys, "--group", "2,3", "reduce", word)
        _, out2, _ = invoke(capsys, "--group", "2,3", "reduce", out.strip())
        assert out == out2


def test_exponent_past_the_digit_limit_is_exact(capsys):
    # run lifts the interpreter's limit on int <-> str conversion, which a
    # 5000-digit exponent exceeds outside it
    word = "a^" + "9" * 5000
    assert invoke(capsys, "--group", "2,3", "reduce", word) == (0, word + "\n", "")


EXIT_CODES = [
    # (exit code, argv, text on stderr); stdout is empty unless the code is 0
    (0, ["--group", "2,3", "profile", "b"], ""),
    # domain errors: a malformed word, a hyperbolic element or a negative
    # radius in fixed, a witness for n = |m|
    (1, ["--group", "2,3", "reduce", "a^2 q"], "offset"),
    (1, ["--group", "2,3", "fixed", "b"], "hyperbolic"),
    (1, ["--group", "2,3", "fixed", "a", "--radius", "-1"], "nonnegative"),
    (1, ["witness", "2,2"], ""),
    (1, ["--group", "2,3", "invariants", "--depth", "-1"], "nonnegative"),
    (1, ["--group", "2,3", "tree-ball", "e", "-1"], "nonnegative"),
    (1, ["--group", "2,3", "exchange", "1/", "b"], "expected a fraction"),
    (1, ["--group", "2,3", "exchange", "1/2/3", "b"], "expected a fraction"),
    # a root is ASCII digits only: no underscore, space or other script
    (1, ["--group", "2,3", "exchange", "1_0/3", "B"], "expected a fraction"),
    (1, ["--group", "2,3", "exchange", "--", " 1/3", "B"], "expected a fraction"),
    (1, ["--group", "2,3", "exchange", "\u0661/3", "B"], "expected a fraction"),
    # usage errors: a missing or malformed group, a malformed pair, an
    # unknown flag or subcommand, or none at all
    (2, ["reduce", "b"], "usage"),
    (2, ["--group", "2,0", "reduce", "b"], ""),
    (2, ["iso", "2", "3,4"], "expected 'n,m'"),
    (2, ["iso", "x,y", "2,3"], "expected two integers"),
    # every number is ASCII digits, like a root: no underscore, space or
    # other script in a pair or an integer argument, which is named
    (2, ["--group", "2_0,3", "invariants"], "expected two integers"),
    (2, ["--group", "\u0662,3", "reduce", "b"], "expected two integers"),
    (2, ["iso", "2,3", " 3,2"], "expected two integers"),
    (2, ["witness", "2,1_0"], "expected two integers"),
    (2, ["--group", "2,3", "tree-ball", "e", "\u0661"], "argument radius"),
    (2, ["--group", "2,3", "fixed", "a", "--radius", "1_0"], "argument --radius"),
    (2, ["--group", "2,3", "invariants", "--depth", " 2"], "argument --depth"),
    (2, ["--group", "2,3", "reduce", "b", "--bogus"], ""),
    (2, ["frobnicate"], ""),
    (2, [], "missing subcommand"),
    # --seed belongs to selftest alone; an option the top-level parser does
    # not know, before the subcommand, is named
    (2, ["--group", "2,3", "reduce", "b", "--seed", "1"], ""),
    (2, ["--seed", "1", "--group", "2,3", "reduce", "b"], "'--seed' before the subcommand"),
    (2, ["--bogus", "1", "--group", "2,3", "reduce", "b"], "'--bogus' before the subcommand"),
    # an internal error: the profile postcondition g a^L = a^r g fails
    (3, ["--group", "2,3", "profile", "b"], "bug"),
]


def test_exit_codes(capsys, monkeypatch):
    profile = hecke.CosetProfile
    for code, argv, err_part in EXIT_CODES:
        with monkeypatch.context() as patch:
            if code == 3:
                # a fold that comes out with r + 1 breaks the postcondition
                patch.setattr(hecke, "CosetProfile", lambda l, r, L: profile(l, r + 1, L))
            got, out, err = invoke(capsys, *argv)
        assert got == code and err_part in err, argv
        assert (out != "" and err == "") if code == 0 else out == "", argv


def test_an_unexpected_runtime_error_is_a_bug(capsys, monkeypatch):
    # no library code raises a plain RuntimeError, so one that escapes a
    # handler, a RecursionError say, is a bug and never bad input
    for exc in (RuntimeError("x"), RecursionError("maximum recursion depth exceeded")):

        def broken(a, G):
            raise exc

        reduce = cli.COMMANDS["reduce"]._replace(handler=broken)
        monkeypatch.setitem(cli.COMMANDS, "reduce", reduce)
        code, out, err = invoke(capsys, "--group", "2,3", "reduce", "b")
        assert (code, out) == (3, "") and str(exc) in err and "bug" in err, exc


def test_a_failed_witness_check_is_a_bug(capsys, monkeypatch):
    monkeypatch.setattr(rigidity, "omega_member", lambda w, G: False)
    code, out, err = invoke(capsys, "witness", "2,3")
    assert (code, out) == (3, "") and "outside Omega" in err and "bug" in err


def test_a_failed_fixed_vertex_check_is_a_bug(capsys, monkeypatch):
    # the closed form's vertex is checked on every element; absence is
    # decided by the pair scan, before that check
    monkeypatch.setattr(tree, "fixes_vertex", lambda g, v, G: False)
    code, out, err = invoke(capsys, "--group", "2,3", "fixed", "a^2", "b a^6 B")
    assert (code, out) == (3, "") and "witness vertex" in err and "bug" in err
    code, out, _ = invoke(capsys, "--group", "2,3", "fixed", "a^2", "b a^3 B")
    assert (code, out) == (0, "absent\n")


def test_running_out_of_memory_exits_1(capsys, monkeypatch):
    def exhausted(a, G):
        raise MemoryError

    monkeypatch.setitem(cli.COMMANDS, "reduce", cli.COMMANDS["reduce"]._replace(handler=exhausted))
    code, out, err = invoke(capsys, "--group", "2,3", "reduce", "b")
    assert (code, out, err) == (1, "", "bsrig: the command ran out of memory\n")


def test_a_failing_selftest_check_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(rigidity, "is_isomorphic", lambda n1, m1, n2, m2: False)
    code, out, err = invoke(capsys, "selftest")
    lines = out.splitlines()
    assert (code, err) == (1, "")
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL isomorphism matches the multiset criterion on [-4,4]"
    ]
    assert lines[-1].endswith(" passed, 1 failed")


def test_selftest_deterministic(capsys):
    argv = ["selftest", "--seed", "7"]
    assert invoke(capsys, *argv) == invoke(capsys, *argv)


def test_selftest_runs_clean(capsys):
    code, out, _ = invoke(capsys, "selftest", "--seed", "1")
    assert code == 0
    assert "0 failed" in out
    code, out, _ = invoke(capsys, "selftest", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0 and payload["passed"] >= 9
