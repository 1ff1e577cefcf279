"""Command line front end.

One binary, subcommand style, declared once per subcommand in ``COMMANDS``:
help, arguments, whether ``--group n,m`` is needed and a handler
``(arguments, group) -> (payload, text)``.  After the ``--group`` check
``_call`` reads the arguments (``_READ``) in the order the command declares
them, so the first bad one is reported: each word (``word``, ``word1``,
``word2``, ``center``, ``words``) into its normal form, ``root`` into a root
of unity and each pair (``pair``, ``pair1``, ``pair2``) into two integers.
Negative values are allowed: ``2,-3``; argparse reads an argument that
starts with ``-`` as an option, so ``--group -2,3`` is joined into
``--group=-2,3`` before parsing, and a positional argument such as ``-2,-3``
or ``-1/3`` follows ``--`` (``bsrig iso -- -2,-3 2,3``).  ``_dispatch``
writes both formats through one loop, in 64 KiB slices: ``--format json``
one JSON document, the payload; text mode the text, or the payload where
there is none; either ends in one newline.  Exit codes: 0 success, 1 domain
error, failed selftest or out of memory, 2 usage error, 3 internal error (a
broken invariant: a bug, never bad input).  ``fixed`` prints ``absent``
(JSON ``"proven": true``, with the first pair of words whose product is
hyperbolic and its translation length) when no common fixed vertex exists at
any radius, and ``none within radius R; --radius P finds one``
(``"least_radius": P``) for one farther than R from the first word's witness
vertex.
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
# handlers: (arguments as _call read them, group or None) -> (payload, text or None)

def _reduce(a, G):
    nf = format_word(a.word)
    return {"word": nf}, nf


def _eq(a, G):
    return _scalar("equal", a.word1 == a.word2)


def _blength(a, G):
    return _scalar("b_length", a.word.b_length)


def _profile(a, G):
    return hecke.coset_profile(a.word, G).as_json(), None


def _qc(a, G):
    return _scalar("qc", hecke.qc_member(a.word, G))


def _classify(a, G):
    kind = tree.classify(a.word, G)
    if isinstance(kind, tree.Elliptic):
        return {"kind": "elliptic", "witness": format_word(kind.witness)}, None
    return {"kind": "hyperbolic", "translation_length": kind.translation_length}, None


def _fixed(a, G):
    if a.radius < 0:
        raise ValueError("radius bound must be nonnegative")
    v, d = tree.least_fixed_vertex(a.words, G)
    if v is None:  # d is the separating pair
        certificate = {"pair": list(d[:2]), "translation_length": d[2]}
        return {"vertex": None, "proven": True, "certificate": certificate}, "absent"
    if d > a.radius:
        text = f"none within radius {a.radius}; --radius {d} finds one"
        return {"vertex": None, "proven": False, "least_radius": d}, text
    vertex = str(v)  # g0 is the vertex's own rep
    return {"vertex": vertex, "g0": vertex}, f"vertex={vertex} g0={vertex}"


def _tree_ball(a, G):
    dot = tree.export_ball(tree.vertex_of(a.center, G), a.radius, G)
    return {"dot": dot}, dot


def _coset(a, G):
    D = hecke.double_coset(a.word, G)
    return {"coset": str(D), **D.profile.as_json()}, None


def _convolve(a, G):
    x = hecke.HeckeElement.single(hecke.double_coset(a.word1, G))
    y = hecke.HeckeElement.single(hecke.double_coset(a.word2, G))
    return hecke.hecke_convolve(x, y, G).as_json(), None


def _fuse_selfinv(a, G):
    return fusion.decompose_self_inverse(a.word, G).as_json(), None


def _exchange(a, G):
    partners = fusion.exchange_partners(a.root, a.word, G)
    partners = [str(u) for u in sorted(partners, key=fusion.angle_key(partners))]
    return partners, " ".join(partners)


def _invariants(a, G):
    payload = {key: getattr(G, key) for key in ("n", "m", "k", "n0", "m0")}
    payload["standard_form"] = G.is_standard
    payload["amenable"] = rigidity.is_amenable(G.n, G.m)
    payload["canonical"] = list(rigidity.canonicalize(G.n, G.m))
    if G.is_standard:
        payload["index_values"] = sorted(hecke.f_set(a.depth, G))
    return payload, None


def _iso(a, G):
    return _scalar("isomorphic", rigidity.is_isomorphic(*a.pair1, *a.pair2))


def _obstruction(a, G):
    return rigidity.crossed_product_obstruction(*a.pair1, *a.pair2).as_json(), None


def _witness(a, G):
    return rigidity.sign_witness(*a.pair).as_json(), None


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
_READ = {
    **dict.fromkeys(("word", "word1", "word2", "center"), word_nf),
    "words": lambda texts, G: [word_nf(w, G) for w in texts],
    "root": lambda text, G: _parse_root(text),
    **dict.fromkeys(("pair", "pair1", "pair2"), lambda text, G: _parse_pair(text)),
}

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
    G = bs(*_parse_pair(args.group)) if args.group else None
    if args.command is None:
        raise _UsageError("missing subcommand")
    command = COMMANDS[args.command]
    if command.needs_group and G is None:
        raise _UsageError("this subcommand needs --group n,m")
    for name in (arg for arg, _ in command.args if arg in _READ):
        setattr(args, name, _READ[name](getattr(args, name), G))
    try:
        return command.handler(args, G), 0
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
    json_mode = args.format == "json" or text is None
    chunks = json.JSONEncoder(separators=(",", ":")).iterencode(payload) if json_mode else [text]
    # chunk by chunk, a long chunk such as a ball's DOT text in slices:
    # no whole second copy of the document is held, encoded or joined
    for chunk in chunks:
        for k in range(0, len(chunk), 1 << 16):
            sys.stdout.write(chunk[k : k + (1 << 16)])
    if json_mode or not text.endswith("\n"):  # a DOT text ends in its own newline
        sys.stdout.write("\n")
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
