"""Command line front end.

One binary, subcommand style, declared once per subcommand in ``COMMANDS``:
help, arguments, whether ``--group n,m`` is needed (negative values
allowed, e.g. ``2,-3``) and a handler returning ``(payload, text)``.
``--format json`` emits exactly one JSON document on stdout, the payload;
text mode prints the text, or the payload where there is none.  Exit
codes: 0 success, 1 domain error or failed selftest, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, NamedTuple

from . import fusion, hecke, rigidity, selftest, tree, words
from .words import BsPresentation, bs, format_word, word_nf


class _UsageError(Exception):
    pass


class _Failed(Exception):
    """A result that is still printed, with exit code 1."""


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError(f"expected 'n,m', got {text!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise _UsageError(f"expected two integers in {text!r}") from None
    if n == 0 or m == 0:
        raise _UsageError("group parameters must be nonzero")
    return n, m


def _parse_root(text: str) -> fusion.RootOfUnity:
    parts = text.split("/")
    try:
        if len(parts) == 1:
            return fusion.RootOfUnity.of(int(parts[0]), 1)
        if len(parts) == 2:
            return fusion.RootOfUnity.of(int(parts[0]), int(parts[1]))
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"expected a fraction p/q, got {text!r}")


def _scalar(key: str, value):
    """A one-field result; its text form is the value's JSON spelling."""
    return {key: value}, json.dumps(value)


# ---------------------------------------------------------------------------
# handlers: (parsed arguments, group or None) -> (payload, text or None)

def _reduce(a, G):
    nf = format_word(word_nf(a.word, G))
    return {"word": nf}, nf


def _eq(a, G):
    return _scalar("equal", word_nf(a.word1, G) == word_nf(a.word2, G))


def _blength(a, G):
    return _scalar("b_length", words.b_length(words.parse_word(a.word), G))


def _profile(a, G):
    return hecke.coset_profile(word_nf(a.word, G), G).as_json(), None


def _qc(a, G):
    return _scalar("qc", hecke.qc_member(word_nf(a.word, G), G))


def _classify(a, G):
    kind = tree.classify(word_nf(a.word, G), G)
    if isinstance(kind, tree.Elliptic):
        return {"kind": "elliptic", "witness": format_word(kind.witness)}, None
    return {"kind": "hyperbolic", "translation_length": kind.translation_length}, None


def _fixed(a, G):
    found = tree.common_fixed_vertex([word_nf(w, G) for w in a.words], G, a.radius)
    if found is None:
        return {"vertex": None}, "absent"
    v, g0 = found
    return {"vertex": str(v), "g0": format_word(g0)}, f"vertex={v} g0={format_word(g0)}"


def _tree_ball(a, G):
    dot = tree.export_ball(tree.vertex_of(word_nf(a.center, G), G), a.radius, G)
    return {"dot": dot}, dot.rstrip("\n")


def _coset(a, G):
    D = hecke.double_coset(word_nf(a.word, G), G)
    return {"coset": str(D), "l": D.profile.l, "r": D.profile.r, "L": D.profile.L}, None


def _convolve(a, G):
    x = hecke.HeckeElement.single(hecke.double_coset(word_nf(a.word1, G), G))
    y = hecke.HeckeElement.single(hecke.double_coset(word_nf(a.word2, G), G))
    return hecke.hecke_convolve(x, y, G).as_json(), None


def _fuse_selfinv(a, G):
    return fusion.decompose_self_inverse(word_nf(a.word, G), G).as_json(), None


def _exchange(a, G):
    w = _parse_root(a.root)
    partners = sorted(fusion.exchange_partners(w, word_nf(a.word, G), G), key=lambda u: u.angle)
    return [str(u) for u in partners], " ".join(str(u) for u in partners)


def _invariants(a, G):
    payload = {
        "n": G.n,
        "m": G.m,
        "k": G.k,
        "n0": G.n0,
        "m0": G.m0,
        "standard_form": G.is_standard,
        "amenable": rigidity.is_amenable(G.n, G.m),
        "canonical": list(rigidity.canonicalize(G.n, G.m)),
    }
    if G.is_standard:
        payload["index_values"] = sorted(hecke.f_set(a.depth, G))
    return payload, None


def _iso(a, G):
    same = rigidity.is_isomorphic(*_parse_pair(a.pair1), *_parse_pair(a.pair2))
    return _scalar("isomorphic", same)


def _obstruction(a, G):
    verdict = rigidity.crossed_product_obstruction(*_parse_pair(a.pair1), *_parse_pair(a.pair2))
    return verdict.as_json(), None


def _witness(a, G):
    return rigidity.sign_witness(*_parse_pair(a.pair)).as_json(), None


def _selftest(a, G):
    passed, failed, lines = selftest.run_selftest(a.seed or 0)
    result = {"passed": passed, "failed": failed}, "\n".join(lines)
    if failed:
        raise _Failed(*result)
    return result


# ---------------------------------------------------------------------------
# the table

class Command(NamedTuple):
    help: str
    handler: Callable[[argparse.Namespace, BsPresentation | None], tuple]
    args: tuple = ()  # (name or flag, add_argument keywords) pairs
    needs_group: bool = True


def _arg(name: str, **options) -> tuple[str, dict]:
    return name, options


WORD = (_arg("word"),)
TWO_WORDS = (_arg("word1"), _arg("word2"))
TWO_PAIRS = (_arg("pair1"), _arg("pair2"))

COMMANDS = {
    "reduce": Command("normal form of a word", _reduce, WORD),
    "eq": Command("equality of two words in the group", _eq, TWO_WORDS),
    "blength": Command("b-length of a word", _blength, WORD),
    "profile": Command("coset indices (l, r, L)", _profile, WORD),
    "qc": Command("quasi-centralizer membership", _qc, WORD),
    "classify": Command("elliptic or hyperbolic", _classify, WORD),
    "fixed": Command(
        "common fixed vertex of elliptic words",
        _fixed,
        (_arg("words", nargs="+"), _arg("--radius", type=int, default=8)),
    ),
    "tree-ball": Command(
        "DOT export of a tree ball", _tree_ball, (_arg("center"), _arg("radius", type=int))
    ),
    "coset": Command("canonical double coset", _coset, WORD),
    "convolve": Command("double coset convolution", _convolve, TWO_WORDS),
    "fuse-selfinv": Command("self-inverse fusion decomposition", _fuse_selfinv, WORD),
    "exchange": Command(
        "exchange partners of a root of unity", _exchange, (_arg("root", help="angle p/q"), *WORD)
    ),
    "invariants": Command(
        "derived invariants of the group", _invariants, (_arg("--depth", type=int, default=3),)
    ),
    "iso": Command("isomorphism of two parameter pairs", _iso, TWO_PAIRS, needs_group=False),
    "obstruction": Command(
        "crossed product obstruction verdict", _obstruction, TWO_PAIRS, needs_group=False
    ),
    "witness": Command(
        "sign witness for n,|m| with n != |m|", _witness, (_arg("pair"),), needs_group=False
    ),
    "selftest": Command("run the acceptance checks at desk scale", _selftest, needs_group=False),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsrig",
        description="Exact computations in Baumslag-Solitar groups BS(n, m).",
    )
    parser.add_argument("--group", help="group parameters n,m (e.g. 2,3 or 2,-3)")
    parser.add_argument("--format", choices=["text", "json"], default=None)
    parser.add_argument("--seed", type=int, default=None)

    # SUPPRESS keeps a subcommand-level absence from clobbering a value
    # given before the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "json"], default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        for arg, options in command.args:
            p.add_argument(arg, **options)
    return parser


def _call(args: argparse.Namespace) -> tuple[tuple, int]:
    """((payload, text), exit code) of the chosen subcommand."""
    group = _parse_pair(args.group) if args.group else None
    if args.command is None:
        raise _UsageError("missing subcommand")
    command = COMMANDS[args.command]
    if command.needs_group and group is None:
        raise _UsageError("this subcommand needs --group n,m")
    try:
        return command.handler(args, bs(*group) if group else None), 0
    except _Failed as exc:
        return exc.args, 1


def run(argv: list[str]) -> int:
    """Entry point used by tests: returns the exit code, writing to the real
    stdout/stderr."""
    # exact answers such as r(b^10000) = 3^10000 exceed the interpreter's
    # default limit on int <-> str conversion (Python 3.11+); lift it for
    # the call only
    if not hasattr(sys, "get_int_max_str_digits"):
        return _dispatch(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _dispatch(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        (payload, text), code = _call(args)
        if args.format == "json" or text is None:
            out = json.dumps(payload, separators=(",", ":")) + "\n"
        else:
            out = text + "\n"
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        sys.stderr.write(f"bsrig: {exc}\n")
        return 2
    except (ValueError, RuntimeError) as exc:
        sys.stderr.write(f"bsrig: {exc}\n")
        return 1
    sys.stdout.write(out)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
