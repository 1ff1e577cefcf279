"""Command line front end.

One binary, subcommand style, declared once per subcommand in ``COMMANDS``:
help, arguments, whether ``--group n,m`` is needed and a handler
returning ``(payload, text)``.  Negative values are allowed: ``2,-3``;
argparse reads an argument that starts with ``-`` as an option, so
``--group -2,3`` is joined into ``--group=-2,3`` before parsing, and a
positional argument such as ``-2,-3`` or ``-1/3`` follows a ``--``
separator (``bsrig iso -- -2,-3 2,3``).
``--format json`` emits exactly one JSON document on stdout, the payload;
text mode prints the text, or the payload where there is none.  Exit
codes: 0 success, 1 domain error, failed selftest or out of memory, 2
usage error, 3 internal error (a broken invariant: a bug, never bad
input).  ``fixed`` prints ``absent`` (JSON ``"proven": true``) when no
common fixed vertex exists, at any radius, with the certificate in the
JSON: the first pair of words whose product is hyperbolic, and its
translation length.  A common fixed vertex beyond the radius prints
``none within radius R; --radius P finds one`` (``"proven": false``,
``"least_radius": P``), P its distance from the first word's witness vertex.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Callable, NamedTuple

from . import fusion, hecke, rigidity, tree
from .words import BsPresentation, bs, format_word, word_nf


class _UsageError(Exception):
    pass


class _Failed(Exception):
    """A result that is still printed, with exit code 1."""


# every number on the command line, in ASCII digits only: the spaces,
# underscores and other digits that int() takes are refused
_INTEGER = "-?[0-9]+"
_PAIR = re.compile(f"{_INTEGER},{_INTEGER}")
_FRACTION = re.compile(f"({_INTEGER})(?:/({_INTEGER}))?")


def _parse_pair(text: str) -> tuple[int, int]:
    if text.count(",") != 1:
        raise _UsageError(f"expected 'n,m', got {text!r}")
    if not _PAIR.fullmatch(text):
        raise _UsageError(f"expected two integers in {text!r}")
    n, m = map(int, text.split(","))
    if n == 0 or m == 0:
        raise _UsageError("group parameters must be nonzero")
    return n, m


def _integer(text: str) -> int:
    """An integer argument; argparse names the argument when this fails."""
    if not re.fullmatch(_INTEGER, text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _parse_root(text: str) -> fusion.RootOfUnity:
    """The root of angle p/q written "p/q" or "p"."""
    match = _FRACTION.fullmatch(text)
    den = int(match[2] or 1) if match else 0
    if not den:
        raise ValueError(f"expected a fraction p/q, got {text!r}")
    return fusion.RootOfUnity.of(int(match[1]), den)


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
    return _scalar("b_length", word_nf(a.word, G).b_length)


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
    gs = [word_nf(w, G) for w in a.words]
    if a.radius < 0:
        raise ValueError("radius bound must be nonnegative")
    v, d = tree.least_fixed_vertex(gs, G)
    if v is None:  # d is the separating pair
        certificate = {"pair": list(d[:2]), "translation_length": d[2]}
        return {"vertex": None, "proven": True, "certificate": certificate}, "absent"
    if d > a.radius:
        text = f"none within radius {a.radius}; --radius {d} finds one"
        return {"vertex": None, "proven": False, "least_radius": d}, text
    vertex = str(v)  # g0 is the vertex's own rep
    return {"vertex": vertex, "g0": vertex}, f"vertex={vertex} g0={vertex}"


def _tree_ball(a, G):
    dot = tree.export_ball(tree.vertex_of(word_nf(a.center, G), G), a.radius, G)
    return {"dot": dot}, dot


def _coset(a, G):
    D = hecke.double_coset(word_nf(a.word, G), G)
    return {"coset": str(D), **D.profile.as_json()}, None


def _convolve(a, G):
    x = hecke.HeckeElement.single(hecke.double_coset(word_nf(a.word1, G), G))
    y = hecke.HeckeElement.single(hecke.double_coset(word_nf(a.word2, G), G))
    return hecke.hecke_convolve(x, y, G).as_json(), None


def _fuse_selfinv(a, G):
    return fusion.decompose_self_inverse(word_nf(a.word, G), G).as_json(), None


def _exchange(a, G):
    w = _parse_root(a.root)
    partners = fusion.exchange_partners(w, word_nf(a.word, G), G)
    partners = [str(u) for u in sorted(partners, key=fusion.angle_key(partners))]
    return partners, " ".join(partners)


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
    from . import selftest  # with its oracles, loaded only for this command

    passed, failed, lines = selftest.run_selftest(a.seed)
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
RADIUS_HELP = (
    "largest distance of the vertex from the first word's witness vertex (default 8); "
    "absent is proven at any radius, by a pair of words with a hyperbolic product"
)

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
        (_arg("words", nargs="+"), _arg("--radius", type=_integer, default=8, help=RADIUS_HELP)),
    ),
    "tree-ball": Command(
        "DOT export of a tree ball", _tree_ball, (_arg("center"), _arg("radius", type=_integer))
    ),
    "coset": Command("canonical double coset", _coset, WORD),
    "convolve": Command("double coset convolution", _convolve, TWO_WORDS),
    "fuse-selfinv": Command("self-inverse fusion decomposition", _fuse_selfinv, WORD),
    "exchange": Command(
        "exchange partners of a root of unity", _exchange, (_arg("root", help="angle p/q"), *WORD)
    ),
    "invariants": Command(
        "derived invariants of the group", _invariants, (_arg("--depth", type=_integer, default=3),)
    ),
    "iso": Command("isomorphism of two parameter pairs", _iso, TWO_PAIRS, needs_group=False),
    "obstruction": Command(
        "crossed product obstruction verdict", _obstruction, TWO_PAIRS, needs_group=False
    ),
    "witness": Command(
        "sign witness for n,|m| with n != |m|", _witness, (_arg("pair"),), needs_group=False
    ),
    "selftest": Command(
        "run the acceptance checks at desk scale",
        _selftest,
        (_arg("--seed", type=_integer, default=0),),
        needs_group=False,
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsrig",
        description="Exact computations in Baumslag-Solitar groups BS(n, m).",
    )
    parser.add_argument("--group", help="group parameters n,m (e.g. 2,3, 2,-3 or --group=-2,3)")
    parser.add_argument("--format", choices=["text", "json"], default=None)

    # SUPPRESS keeps a subcommand-level absence from clobbering a value
    # given before the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "json"], default=argparse.SUPPRESS)

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
    # default limit on int <-> str conversion; lift it for the call only
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _dispatch(argv)
    finally:
        sys.set_int_max_str_digits(limit)


# the options the top-level parser declares, and whether each takes a value
_TOP_LEVEL = {"-h": False, "--help": False, "--group": True, "--format": True}


def _leading_options(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """argv with each ``--group V`` (or an abbreviation such as ``--gr V``)
    before the subcommand joined into ``--group=V`` when V is a pair, so
    that argparse does not read a negative n such as ``-2,3`` as an option.
    An option there that the top-level parser does not know, even as an
    abbreviation, is a usage error that names it; argparse would read its
    value as the subcommand and name neither."""
    out = []
    i = 0
    while i < len(argv) and argv[i].startswith("-") and argv[i] != "--":
        name, eq, _ = argv[i].partition("=")
        abbreviated = name.startswith("--") and len(name) > 2
        known = [opt for opt in _TOP_LEVEL if opt == name or abbreviated and opt.startswith(name)]
        if not known:
            parser.error(f"unknown option {name!r} before the subcommand; "
                         "a subcommand's options go after the subcommand")
        if eq or not _TOP_LEVEL[known[0]]:
            out.append(argv[i])
            i += 1
        elif known[0] == "--group" and i + 1 < len(argv) and _PAIR.fullmatch(argv[i + 1]):
            out.append(f"--group={argv[i + 1]}")
            i += 2
        else:
            out += argv[i : i + 2]
            i += 2
    return out + argv[i:]


def _dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_leading_options(argv, parser))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        (payload, text), code = _call(args)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        sys.stderr.write(f"bsrig: {exc}\n")
        return 2
    except RuntimeError as exc:  # InternalError or another bug, never bad input
        sys.stderr.write(f"bsrig: {exc}; this is a bug in bsrig, please report it\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"bsrig: {exc}\n")
        return 1
    except MemoryError:
        sys.stderr.write("bsrig: the command ran out of memory\n")
        return 1
    if args.format == "json" or text is None:
        # chunk by chunk, a long chunk such as a ball's DOT text in slices:
        # no whole second copy of the document is held, encoded or joined
        for chunk in json.JSONEncoder(separators=(",", ":")).iterencode(payload):
            for k in range(0, len(chunk), 1 << 16):
                sys.stdout.write(chunk[k : k + (1 << 16)])
        sys.stdout.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):  # a DOT text ends in its own newline
            sys.stdout.write("\n")
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
