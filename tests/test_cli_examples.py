"""The README's command-line examples and library session, and the command
run as a process."""

import ast
import doctest
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from bsrig.cli import run

ROOT = Path(__file__).resolve().parent.parent


def readme_examples():
    """(argv, shown stdout or None) for each ``$ bsrig ...`` line of
    README.md except selftest; None where README shows no output."""
    lines = (ROOT / "README.md").read_text().splitlines()
    out = []
    for i, line in enumerate(lines):
        if not line.startswith("$ bsrig "):
            continue
        argv = shlex.split(line[2:], comments=True)[1:]
        if argv[-1:] == ["selftest"]:
            continue
        shown = []
        for nxt in lines[i + 1 :]:
            if nxt.startswith(("$ ", "```")):
                break
            shown.append(nxt)
        out.append((argv, "\n".join(shown) + "\n" if shown else None))
    return out


def test_readme_examples_match(capsys):
    examples = readme_examples()
    assert len(examples) >= 14
    # every example shows its output but the DOT ball
    unshown = [argv for argv, shown in examples if shown is None]
    assert unshown == [["--group", "2,3", "tree-ball", "e", "1"]]
    for argv, shown in examples:
        code = run(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        if shown is not None:
            assert out == shown, argv


def test_readme_library_session():
    # only the fenced python blocks: over the whole file, doctest would read
    # each closing fence as expected output
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    report = []
    for i, block in enumerate(blocks):
        test = parser.get_doctest(block, {}, f"README python block {i}", "README.md", 0)
        runner.run(test, out=report.append)
    failed, attempted = runner.summarize(verbose=False)
    assert attempted >= 6 and failed == 0, "".join(report)


# what ``bsrig`` exports: the union of the five layer modules' ``__all__``
PUBLIC = {
    "ABS_M_MISMATCH", "BimoduleSum", "BsPresentation", "CosetProfile", "DoubleCoset",
    "Elliptic", "GroupWord", "HeckeElement", "Hyperbolic", "IDENTITY", "Irreducible",
    "NO_OBSTRUCTION", "N_MISMATCH", "NormalForm", "ONE", "RigidityVerdict", "RootOfUnity",
    "SIGN_MISMATCH", "SignWitness", "TreeVertex", "WordSyntaxError", "a_power", "angle_key",
    "bs", "canonicalize", "classify", "common_fixed_vertex", "conjugated_by", "coset_profile",
    "crossed_product_obstruction", "cyclically_reduce", "decompose_self_inverse",
    "double_coset", "exchange_partners", "export_ball", "f_set", "f_set_member",
    "fixes_vertex", "format_word", "hecke_convolve", "invert", "is_amenable",
    "is_isomorphic", "least_fixed_vertex", "multiply", "normalize", "omega_member",
    "parse_word", "power", "qc_member", "recover_parameters", "same_double_coset",
    "sign_witness", "to_group_word", "vertex_distance", "vertex_neighbors", "vertex_of",
    "word_nf",
}


def test_public_surface_is_the_layer_exports():
    import bsrig
    from bsrig import fusion, hecke, oracles, rigidity, tree, words

    layers = (words, hecke, tree, fusion, rigidity)
    assert set().union(*(module.__all__ for module in layers)) == PUBLIC
    assert all(hasattr(bsrig, name) for name in PUBLIC)
    # the checkers and samplers stay in their module
    assert not [name for name in oracles.__all__ if hasattr(bsrig, name)]


def test_names_reached_through_a_module_are_documented():
    # the public names a layer module defines outside its __all__ are the
    # ones README lists as reached through their module
    from bsrig import candidates, fusion, hecke, rigidity, tree, words

    defined = set()
    for module in (words, hecke, tree, fusion, rigidity, candidates):
        for node in ast.parse(Path(module.__file__).read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            prefix = module.__name__.removeprefix("bsrig.")
            defined |= {
                f"{prefix}.{name}" for name in names
                if not name.startswith("_") and name not in module.__all__
            }
    text = (ROOT / "README.md").read_text()
    paragraph = text[text.index("reached through their module"):].split("\n\n")[0]
    assert set(re.findall(r"`bsrig\.(\w+\.\w+)`", paragraph)) == defined


def test_layout_names_every_module():
    text = (ROOT / "README.md").read_text()
    block = text[text.index("## Layout"):].split("```")[1]
    named = set(re.findall(r"^  (\S+\.py) ", block, re.M))
    assert named == {path.name for path in (ROOT / "src" / "bsrig").glob("*.py")}


def _bsrig(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60
    )


def test_cli_import_leaves_selftest_for_its_command():
    # modules new to this interpreter's own start-up set, so site hooks and
    # the interpreter's version do not matter
    probe = (
        "import sys; before = set(sys.modules); import bsrig.cli; "
        "print(' '.join(sorted(set(sys.modules) - before))); "
        "code = bsrig.cli.run(['selftest']); "
        "print(code, 'bsrig.selftest' in sys.modules)"
    )
    proc = _bsrig("-c", probe)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    loaded = set(lines[0].split())
    assert "bsrig.cli" in loaded
    assert not loaded & {"dataclasses", "bsrig.selftest", "bsrig.oracles"}
    # the candidate walk is compiled only when a product or fusion runs
    assert "bsrig.candidates" not in loaded
    # the library keeps exact ratios in integers, off the fractions module
    assert not loaded & {"fractions", "decimal", "numbers"}
    assert lines[-2].endswith(" passed, 0 failed")
    assert lines[-1] == "0 True"


def test_main_prints_exact_integers_past_the_digit_limit(capsys):
    proc = _bsrig("-m", "bsrig.cli", "--group", "2,3", "profile", "b^10000")
    assert (proc.returncode, proc.stderr) == (0, "")
    # the in-process entry point lifts the limit for the call only
    limit = sys.get_int_max_str_digits()
    assert run(["--group", "2,3", "profile", "b^10000"]) == 0
    assert sys.get_int_max_str_digits() == limit
    captured = capsys.readouterr()
    assert captured.err == ""
    sys.set_int_max_str_digits(0)
    try:
        want = str(3**10000)
        for out in (proc.stdout, captured.out):
            assert out.split('"r":')[1].split(",")[0] == want
    finally:
        sys.set_int_max_str_digits(limit)


def test_selftest_refuses_to_run_without_assertions():
    proc = _bsrig("-O", "-m", "bsrig.cli", "selftest")
    assert proc.returncode == 1
    assert not any(line.startswith("ok") for line in proc.stdout.splitlines())
    assert "-O" in proc.stdout + proc.stderr


def test_acceptance_refuses_to_run_without_assertions():
    proc = _bsrig(
        "-O", "-m", "pytest", str(ROOT / "tests" / "test_acceptance.py"),
        "-k", "criterion_7", "-q", "-p", "no:cacheprovider",
    )
    assert proc.returncode != 0
    assert "-O" in proc.stdout + proc.stderr
