"""The README's command-line examples, and the command run as a process."""

import os
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
    for argv, shown in examples:
        code = run(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        if shown is not None:
            assert out == shown, argv


def _bsrig(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60
    )


def test_main_prints_exact_integers_past_the_digit_limit(capsys):
    proc = _bsrig("-m", "bsrig.cli", "--group", "2,3", "profile", "b^10000")
    assert (proc.returncode, proc.stderr) == (0, "")
    # the in-process entry point lifts the limit for the call only
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    assert run(["--group", "2,3", "profile", "b^10000"]) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    captured = capsys.readouterr()
    assert captured.err == ""
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        want = str(3**10000)
        for out in (proc.stdout, captured.out):
            assert out.split('"r":')[1].split(",")[0] == want
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_selftest_refuses_to_run_without_assertions():
    proc = _bsrig("-O", "-m", "bsrig.cli", "selftest")
    assert proc.returncode == 1
    assert not any(line.startswith("ok") for line in proc.stdout.splitlines())
    assert "-O" in proc.stdout + proc.stderr
