"""A recorded transcript of the command line: exit code, stdout and stderr
of a seeded grid of argv, replayed through ``cli.run`` and compared
exactly.

The grid covers every subcommand but ``selftest``, in text and JSON: good
words of b-length at most 4, words with a syntax error at several offsets,
bad roots, pairs and integers, a missing, zero or negative ``--group``,
and the commands that can meet two errors at once, so that the order in
which they are reported is pinned too.

Run the module as a script to write ``tests/cli_transcript.json``:

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

import contextlib
import io
import json
import os
import random
from pathlib import Path

from bsrig.cli import COMMANDS, run

TRANSCRIPT = Path(__file__).resolve().parent / "cli_transcript.json"
SEED = 0
PER_COMMAND = 22

GROUPS = ["2,3", "2,-3", "-2,3", "3,6", "1,2", "4,-6", "-1,1"]
SMALL_GROUPS = ["2,3", "2,-3", "-2,3", "1,2"]  # tree-ball's DOT text stays short
BAD_GROUPS = ["0,3", "2,0", "0,0", "2", "2,3,4", "x,3", "2, 3", "２,3"]
GOOD_ROOTS = ["1/3", "2/3", "-1/3", "1/2", "0", "5", "3/4", "-7/6", "1/-3", "4/8"]
BAD_ROOTS = ["1/0", "x", "1/", "/3", "1.5", "1//2", "1/ 3", "٣", "", "0x1"]
BAD_PAIRS = ["2", "2,3,4", "a,3", "0,3", "2,0", "2, 3", " 2,3", "", "2,٣", "2;3"]
BAD_INTEGERS = ["x", "1.5", " 1", "٣", "+1", "1_0", ""]
BAD_TOKENS = ["x", "^", "a^", "^2", "b^^2", "a^-", "*", "é", "a^ 2", "(", "b^2x"]


def _good_word(rng: random.Random, elliptic: bool = False) -> str:
    """A word of at most four b-letters; elliptic words are conjugates of
    a-powers."""
    if elliptic:
        u = rng.choice(["", "b", "B", "b a", "a B", "b b", "b a b"])
        inv = " ".join({"b": "B", "B": "b", "a": "A"}[t] for t in reversed(u.split()))
        return " ".join(filter(None, [u, f"a^{rng.randint(-12, 12)}", inv]))
    terms, b_letters = [], 0
    for _ in range(rng.randint(0, 5)):
        kind = rng.random()
        if kind < 0.45:
            terms.append(rng.choice(["a", "A", f"a^{rng.randint(-99, 99)}", f"A^{rng.randint(1, 9)}"]))
        elif b_letters < 4:
            k = rng.randint(1, min(2, 4 - b_letters))
            b_letters += k
            terms.append(rng.choice(["b", "B"]) if k == 1 else rng.choice(["b^2", "B^2", "b^-2"]))
        else:
            terms.append("e")
    return " ".join(terms) or rng.choice(["e", ""])


def _bad_word(rng: random.Random) -> str:
    text = _good_word(rng)
    at = rng.randint(0, len(text))
    return text[:at] + rng.choice(BAD_TOKENS) + text[at:]


def _word(rng, elliptic=False):
    return _bad_word(rng) if rng.random() < 0.3 else _good_word(rng, elliptic)


def _pick(rng, good, bad, p_bad=0.3):
    return rng.choice(bad) if rng.random() < p_bad else rng.choice(good)


def _pair(rng):
    good = [f"{n},{m}" for n in range(-6, 7) for m in range(-6, 7) if n and m]
    return _pick(rng, good, BAD_PAIRS, 0.35)


def _value(rng, name):
    """The text of one argument of a subcommand."""
    if name in ("word", "word1", "word2", "center"):
        return _word(rng)
    if name == "root":
        return _pick(rng, GOOD_ROOTS, BAD_ROOTS)
    if name.startswith("pair"):
        return _pair(rng)
    if name in ("radius", "--radius"):
        return _pick(rng, ["0", "1", "2"], ["-1", *BAD_INTEGERS], 0.25)
    if name == "--depth":
        return _pick(rng, ["0", "1", "2", "3"], ["-1", *BAD_INTEGERS], 0.25)
    raise AssertionError(name)


def _group(rng, name):
    roll = rng.random()
    g = rng.choice(SMALL_GROUPS if name == "tree-ball" else GROUPS)
    if roll < 0.08:
        return []  # missing
    if roll < 0.16:
        return ["--group", rng.choice(BAD_GROUPS)]
    if roll < 0.22:
        return ["--group", "-2,-3"]  # negative, joined before parsing
    if roll < 0.26:
        return ["--gr", g]
    return ["--group", g] if roll < 0.7 else [f"--group={g}"]


def _random_argv(rng, name):
    command = COMMANDS[name]
    options, positionals = [], []
    for arg, spec in command.args:
        if arg.startswith("--"):
            if rng.random() < 0.6:
                options += [arg, _value(rng, arg)]
        elif spec.get("nargs") == "+":
            elliptic = rng.random() < 0.6
            positionals += [_word(rng, elliptic) for _ in range(rng.randint(1, 3))]
        else:
            positionals.append(_value(rng, arg))
    head = _group(rng, name) if command.needs_group or rng.random() < 0.3 else []
    fmt = rng.choice([[], [], ["--format", "json"], ["--format=json"], ["--format", "text"]])
    before = fmt if rng.random() < 0.2 else []
    after = [] if before else fmt
    # a positional that looks like an option needs the separator; leave it
    # out now and then, which argparse reports
    dashed = any(p.startswith("-") for p in positionals)
    sep = ["--"] if positionals and (dashed and rng.random() < 0.9 or rng.random() < 0.2) else []
    return [*head, *before, name, *options, *after, *sep, *positionals]


# cases with two errors in one command, each also with one error alone
TWO_ERRORS = [
    ["--group", "2,3", "exchange", "1/0", "b x"],
    ["--group", "2,3", "exchange", "x", "a^"],
    ["--group", "2,3", "exchange", "1/3", "a^"],
    ["--group", "2,3", "exchange", "1/0", "b"],
    ["--group", "2,3", "fixed", "b x", "--radius", "-1"],
    ["--group", "2,3", "fixed", "a^2", "b ^", "--radius", "-1"],
    ["--group", "2,3", "fixed", "a^2", "--radius", "-1"],
    ["--group", "2,3", "fixed", "b a^3 B", "a^", "--radius", "2"],
    ["iso", "2", "3,0"],
    ["iso", "2,3", "3,0"],
    ["iso", "--", "-2", "x"],
    ["obstruction", "x,y", "0,1"],
    ["obstruction", "2,3", "2,3,4"],
    ["obstruction", "--", "-2,3", ""],
    ["--group", "2,3", "convolve", "b", "a^"],
    ["--group", "2,3", "convolve", "b x", "a^"],
    ["--group", "2,3", "convolve", "b", "B"],
    ["--group", "2,3", "tree-ball", "x", "-1"],
    ["--group", "2,3", "tree-ball", "--", "b ^", "-1"],
    ["--group", "2,3", "tree-ball", "b", "-1"],
    ["--group", "2,3", "eq", "b x", "a^"],
    ["--group", "2,3", "eq", "b", "a^"],
    ["--group", "0,3", "reduce", "x"],
    ["--group", "x", "iso", "2", "3"],
    ["reduce", "x"],
    ["--group", "2,3", "witness", "2,3"],
    ["witness", "2,2"],
    ["witness", "2,-2"],
]

# the parser's own paths: no subcommand, an unknown one, help
PARSER = [
    [],
    ["--group", "2,3"],
    ["--group", "2,3", "nope", "b"],
    ["--frob", "2,3", "reduce", "b"],
    ["--group"],
    ["--format", "xml", "--group", "2,3", "reduce", "b"],
    ["-h"],
    ["--group", "2,3", "reduce", "-h"],
    ["--group", "2,3", "reduce", "b", "--bogus"],
    ["--group", "2,3", "reduce"],
    ["--group", "2,3", "reduce", "b", "B"],
    ["--group", "-2,3", "reduce", "b a^2 B"],
    ["--group=-2,-3", "--format", "json", "reduce", "b a^2 B"],
]


def grid() -> list[list[str]]:
    rng = random.Random(SEED)
    names = sorted(set(COMMANDS) - {"selftest"})
    out = [_random_argv(rng, name) for name in names for _ in range(PER_COMMAND)]
    for argv in TWO_ERRORS + PARSER:
        out.append(argv)
        # the same in JSON, the option right after the subcommand
        at = next((i + 1 for i, arg in enumerate(argv) if arg in COMMANDS), None)
        if at is not None and "-h" not in argv:
            out.append([*argv[:at], "--format", "json", *argv[at:]])
    return out


def replay(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"argv": argv, "code": code, "out": out.getvalue(), "err": err.getvalue()}


def test_the_cli_replays_its_transcript(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to it
    recorded = json.loads(TRANSCRIPT.read_text())
    assert [entry["argv"] for entry in recorded] == grid()
    assert set(COMMANDS) - {"selftest"} <= {arg for entry in recorded for arg in entry["argv"]}
    differ = [entry["argv"] for entry in recorded if replay(entry["argv"]) != entry]
    assert not differ, f"{len(differ)} of {len(recorded)} differ, first {differ[:3]}"


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    transcript = [replay(argv) for argv in grid()]
    TRANSCRIPT.write_text(json.dumps(transcript, indent=0, ensure_ascii=True) + "\n")
    codes = [entry["code"] for entry in transcript]
    print(len(transcript), "argv,", {c: codes.count(c) for c in sorted(set(codes))},
          TRANSCRIPT.stat().st_size, "bytes")
