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


def test_main_prints_exact_integers_past_the_digit_limit():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "bsrig.cli", "--group", "2,3", "profile", "b^10000"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        r = proc.stdout.split('"r":')[1].split(",")[0]
        assert r == str(3**10000)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
