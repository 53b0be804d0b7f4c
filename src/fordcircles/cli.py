"""Command-line interface: expansions, convergents, equivalence checks,
sweeps, and SVG rendering.

Exit status: 0 on success and on consistent checks or sweeps, 2 when an
inconsistency is found, 1 on usage errors.

Parsing: three routes, each giving the namespace the top parser would give.

1. ``check`` and ``cf`` take positionals only (``_POSITIONALS``).  When argv
   is one of them followed by exactly that many values, the namespace is
   built from argv and argparse is never imported.  A value is a token that
   does not start with ``-`` or that matches ``_NEGATIVE_NUMBER``, the
   pattern the parsers use as well.  The lemma: argparse 3.11's
   ``_parse_optional`` returns None (a positional) for such a token when the
   parser has no negative-number-like option strings (the ``check`` and
   ``cf`` parsers have only ``-h`` and ``--help``), and positionals with no
   ``type`` or ``choices`` are stored unchanged and in order.
2. Any other argv whose first argument names a command (options, ``--``,
   ``-h``, the wrong number of values, the other commands) is parsed by that
   command's own parser, one of the subparsers of the top parser, and the
   namespace gets ``command`` as the top parser would have set it.  For
   ``render FIG`` with ``FIG`` a figure name, the figure's parser takes
   argv[2:] and the namespace gets ``command`` and ``figure``: the
   ``render`` parser has only ``-h`` and the figure subparsers, so argparse
   would hand argv[2:] to that same parser, and the attributes it copies
   back are the same.  Arguments the figure parser leaves over give the
   same "unrecognized arguments" message either way, as ``_Parser.error``
   carries no ``prog``.  Any other ``render`` argv (``-h``, an unknown or
   abbreviated figure) goes to the ``render`` parser.
3. Every other argv (none, ``-h``, an option first, an unknown command) goes
   to the top parser.

Route 1 takes only argv that argparse would accept, and the others are
argparse, so help, usage errors and exit codes are argparse's own.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

from .cf import ContinuedFraction, cf_of_rational, convergents, value
from .real import CFStream, ExactReal, PeriodicCoefficients, RealNumber, golden_ratio, sqrt_real
from .verify import theorem_u_check, verify_sweep

REAL_SPEC_GRAMMAR = "<p>/<q> | golden | sqrt:<n> | cf:<b0>;<b1>,<b2>,...[,(<periodic block>)]"

#: json.dumps(report, indent=2) of a flat report is "{\n  " + this encoder's
#: output without its braces + "\n}"; this one runs on the C encoder, which
#: json.dumps skips whenever indent is set
_FLAT_REPORT = json.JSONEncoder(separators=(",\n  ", ": "))

#: the tokens starting with "-" that every parser takes as values: negative
#: rationals (-7/2, -1/-3) and windows (-1..1)
_NEGATIVE_NUMBER = re.compile(r"^-\d+(/-?\d+)?(\.\.-?\d+(/-?\d+)?)?$")

#: the commands whose parsers take only positionals: each one's (name, help)
#: in order
_POSITIONALS = {
    "cf": (("real", f"value ({REAL_SPEC_GRAMMAR})"),),
    "check": (("x", "reduced fraction a/b"), ("real", f"alpha ({REAL_SPEC_GRAMMAR})")),
}


class UsageError(Exception):
    pass


def parse_rational(text: str) -> Fraction:
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            if int(den) == 0:
                raise UsageError("zero denominator")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except ValueError:
        raise UsageError(f"not a rational: {text!r}") from None


def _parse_cf_spec(text: str) -> RealNumber:
    body = text[len("cf:"):]
    head, sep, tail = body.partition(";")
    b0 = int(head)
    if not sep or not tail.strip():
        return ExactReal(b0)
    plain, paren, block = tail.partition("(")
    if not paren:  # finite expansion: a rational value
        initial = [int(p) for p in plain.split(",")]
        return ExactReal(value(ContinuedFraction.from_coefficients([b0, *initial])))
    block, close, after = block.partition(")")
    if not close:
        raise ValueError("unterminated periodic block")
    if after.strip():
        raise ValueError("periodic block must end the spec")
    period = [int(p) for p in block.split(",")]
    plain, comma, rest = plain.rstrip().rpartition(",")
    if rest:
        raise ValueError("periodic block must follow a comma")
    initial = [int(p) for p in plain.split(",")] if comma else []
    return CFStream(b0, PeriodicCoefficients(period, initial), label=text)


def parse_real_spec(text: str) -> RealNumber:
    """Parse the real-number grammar used by all subcommands."""
    text = text.strip()
    try:
        if text == "golden":
            return golden_ratio()
        if text.startswith("sqrt:"):
            return sqrt_real(int(text[len("sqrt:"):]))
        if text.startswith("cf:"):
            return _parse_cf_spec(text)
        return ExactReal(parse_rational(text))
    except UsageError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad real-spec {text!r} ({exc}); grammar: {REAL_SPEC_GRAMMAR}") from None


def parse_window(text: str) -> tuple[Fraction, Fraction]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise UsageError(f"bad window {text!r}; expected LO..HI")
    window = (parse_rational(lo), parse_rational(hi))
    if window[0] >= window[1]:
        raise UsageError("window must satisfy lo < hi")
    return window


@functools.cache
def _build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        #: the top parser's command parsers, and render's figure parsers, by name
        commands: dict[str, argparse.ArgumentParser]
        figures: dict[str, argparse.ArgumentParser]

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = _NEGATIVE_NUMBER

        def error(self, message: str):  # argparse defaults to exit code 2
            raise UsageError(message)

    # the help text leaves out the docstring's paragraph on parsing
    parser = _Parser(prog="fordcircles",
                     description=__doc__ and __doc__.partition("\n\nParsing:")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p_cf = sub.add_parser("cf", help="print the continued fraction expansion")
    for name, text in _POSITIONALS["cf"]:
        p_cf.add_argument(name, help=text)

    p_conv = sub.add_parser("convergents", help="print the first K convergents")
    p_conv.add_argument("real", help=f"value ({REAL_SPEC_GRAMMAR})")
    p_conv.add_argument("-n", "--count", type=int, required=True, metavar="K")

    p_check = sub.add_parser("check", help="five-way equivalence report for one pair")
    for name, text in _POSITIONALS["check"]:
        p_check.add_argument(name, help=text)

    p_verify = sub.add_parser("verify", help="equivalence sweep over a rational grid")
    p_verify.add_argument("--max-den-x", type=int, required=True, metavar="X")
    p_verify.add_argument("--max-den-alpha", type=int, required=True, metavar="Y")
    p_verify.add_argument("--window", required=True, metavar="LO..HI")

    p_render = sub.add_parser("render", help="write an SVG figure")
    r_sub = p_render.add_subparsers(dest="figure", required=True)
    parser.figures = r_sub.choices

    def add_spec_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--window", default="0..1", metavar="LO..HI")
        p.add_argument("--max-den", type=int, default=20, metavar="N")
        p.add_argument("--width", type=int, default=800, metavar="PX")
        p.add_argument("-o", "--output", default=None, metavar="FILE")

    r_field = r_sub.add_parser("field", help="the Ford circle field")
    add_spec_args(r_field)

    r_chain = r_sub.add_parser("chain", help="a continued fraction chain")
    r_chain.add_argument("real", help=f"alpha ({REAL_SPEC_GRAMMAR})")
    r_chain.add_argument("--depth", type=int, required=True, metavar="K")
    add_spec_args(r_chain)

    r_wit = r_sub.add_parser("witness", help="the tangent-witness picture")
    r_wit.add_argument("x", help="reduced fraction a/b")
    r_wit.add_argument("real", help=f"alpha ({REAL_SPEC_GRAMMAR})")
    add_spec_args(r_wit)

    return parser


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {output!r}: {exc.strerror}") from None


def _run(args) -> int:
    if args.command == "cf":
        alpha = parse_real_spec(args.real)
        if isinstance(alpha, ExactReal):
            print(cf_of_rational(alpha.value))
        else:
            head, *tail = islice(alpha.coefficients(), 9)
            print(f"[{head};{','.join(map(str, tail))},...]")
        return 0

    if args.command == "convergents":
        for conv in convergents(parse_real_spec(args.real), args.count):
            print(conv)
        return 0

    if args.command == "check":
        report = theorem_u_check(parse_rational(args.x), parse_real_spec(args.real))
        print("{\n  " + _FLAT_REPORT.encode(report.to_json_dict())[1:-1] + "\n}")
        return 0 if report.consistent else 2

    if args.command == "verify":
        report = verify_sweep(args.max_den_x, args.max_den_alpha,
                              parse_window(args.window))
        print(json.dumps(report, indent=2))
        return 0 if not report["inconsistencies"] else 2

    assert args.command == "render"
    from .render import RenderSpec, render_chain, render_ford_field, render_statement_v

    spec = RenderSpec(window=parse_window(args.window), max_den=args.max_den,
                      width_px=args.width)
    if args.figure == "field":
        svg = render_ford_field(spec)
    elif args.figure == "chain":
        svg = render_chain(parse_real_spec(args.real), args.depth, spec)
    else:
        svg = render_statement_v(parse_rational(args.x), parse_real_spec(args.real), spec)
    _emit(svg, args.output)
    return 0


def _parse(argv: list[str]):
    """The namespace the top parser gives for argv: built from argv when it
    is ``check`` or ``cf`` with values only, else parsed by the figure's own
    parser when it is ``render`` and a figure, or by the command's own parser
    when argv[0] names a command (see the module docstring)."""
    positionals = _POSITIONALS.get(argv[0]) if argv else None
    if positionals is not None and len(argv) == len(positionals) + 1 and all(
            not token.startswith("-") or _NEGATIVE_NUMBER.match(token) for token in argv[1:]):
        return SimpleNamespace(command=argv[0], **{
            name: token for (name, _), token in zip(positionals, argv[1:])})
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    figure = parser.figures.get(argv[1]) if argv[0] == "render" and argv[1:] else None
    if figure is None:
        args = command.parse_args(argv[1:])
    else:
        args = figure.parse_args(argv[2:])
        args.figure = argv[1]
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    """Run one command; a usage error, a library ValueError or running out of
    memory is reported here, and only here, as ``error: ...`` on stderr with
    exit code 1."""
    try:
        return _run(_parse(sys.argv[1:] if argv is None else argv))
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; the input is too large for this process",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
