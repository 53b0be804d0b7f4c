"""CLI behavior: output shapes, exit codes, and the real-spec grammar."""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from itertools import islice
from math import gcd, isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fordcircles import cli
from fordcircles.cli import UsageError, main, parse_rational, parse_real_spec, parse_window
from fordcircles.real import CFStream, ExactReal
from fordcircles.verify import theorem_u_check


def same_stream(a: CFStream, b: CFStream, terms: int = 12) -> bool:
    return list(islice(a.coefficients(), terms)) == \
        list(islice(b.coefficients(), terms))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCf:
    def test_rational(self, capsys):
        code, out, err = run(capsys, "cf", "3/5")
        assert (code, out, err) == (0, "[0;1,1,2]\n", "")

    def test_negative(self, capsys):
        code, out, _ = run(capsys, "cf", "-7/2")
        assert code == 0 and out == "[-4;2]\n"

    def test_stream_prefix(self, capsys):
        code, out, _ = run(capsys, "cf", "sqrt:2")
        assert code == 0
        assert out.startswith("[1;2,2,") and out.rstrip().endswith(",...]")


class TestConvergents:
    def test_golden(self, capsys):
        code, out, _ = run(capsys, "convergents", "golden", "-n", "5")
        assert code == 0
        assert out.splitlines() == ["1/1", "2/1", "3/2", "5/3", "8/5"]

    def test_rational_exhaustion(self, capsys):
        code, _, err = run(capsys, "convergents", "3/5", "-n", "9")
        assert code == 1
        assert "exhausted" in err

    def test_count_validation(self, capsys):
        code, _, err = run(capsys, "convergents", "golden", "-n", "0")
        assert code == 1 and "count" in err


class TestCheck:
    def test_all_true_pair(self, capsys):
        code, out, _ = run(capsys, "check", "1/2", "3/5")
        assert code == 0
        report = json.loads(out)
        assert report == {
            "x": "1/2", "alpha": "3/5", "isInteger": False,
            "stmt_i": True, "stmt_ii": True, "stmt_iii": True,
            "stmt_iv": True, "stmt_v": True, "witness": "2/3",
            "consistent": True,
        }

    def test_all_false_pair(self, capsys):
        code, out, _ = run(capsys, "check", "1/3", "3/5")
        assert code == 0  # consistent, just not equivalent-true
        report = json.loads(out)
        assert report["stmt_i"] is False and report["witness"] is None

    def test_stream_alpha(self, capsys):
        code, out, _ = run(capsys, "check", "17/12", "sqrt:2")
        assert code == 0
        report = json.loads(out)
        assert report["alpha"] == "sqrt:2"
        assert all(report[k] for k in
                   ("stmt_i", "stmt_ii", "stmt_iii", "stmt_iv", "stmt_v"))

    def test_huge_sqrt_radicand(self, capsys):
        # sqrt(10**23 - 1) has a period far too long to collect up front;
        # its stream must be lazy for these to finish
        spec = "sqrt:99999999999999999999999"
        code, out, _ = run(capsys, "cf", spec)
        assert (code, out) == (0, "[316227766016;1,5,5,1,6,1,4,1,...]\n")
        code, out, _ = run(capsys, "check", "1897366596101/6", spec)
        assert code == 0
        report = json.loads(out)
        assert all(report[k] for k in
                   ("stmt_i", "stmt_ii", "stmt_iii", "stmt_iv", "stmt_v"))

    def test_cf_spec_alpha(self, capsys):
        code, out, _ = run(capsys, "check", "3/2", "cf:1;(1)")
        assert code == 0
        assert json.loads(out)["stmt_i"] is True


def check_text(x, alpha, integer, stmts, witness):
    flag = {True: "true", False: "false"}
    lines = [f'  "x": "{x}"', f'  "alpha": "{alpha}"', f'  "isInteger": {flag[integer]}']
    lines += [f'  "stmt_{k}": {flag[v]}' for k, v in zip(("i", "ii", "iii", "iv", "v"), stmts)]
    lines += [f'  "witness": ' + ("null" if witness is None else f'"{witness}"'),
              '  "consistent": true']
    return "{\n" + ",\n".join(lines) + "\n}\n"


class TestFrozenStdout:
    """Full stdout of pairs whose text is frozen (machine interface)."""

    @pytest.mark.parametrize("argv,want", [
        (["check", "1/2", "3/5"], check_text("1/2", "3/5", False, [True] * 5, "2/3")),
        (["check", "8/5", "golden"],
         check_text("8/5", "golden", False, [True] * 5, "13/8")),
        (["check", "7/5", "golden"],
         check_text("7/5", "golden", False, [False] * 5, None)),
        (["check", "1", "1"], check_text("1/1", "1", True, [True] * 5, "3/2")),
        (["convergents", "sqrt:2", "-n", "5"], "1/1\n3/2\n7/5\n17/12\n41/29\n"),
        (["check", "6765/4181", "golden"],
         check_text("6765/4181", "golden", False, [True] * 5, "10946/6765")),
        (["cf", "sqrt:7"], "[2;1,1,1,4,1,1,1,4,...]\n"),
        (["cf", "cf:1;2,(1,3)"], "[1;2,1,3,1,3,1,3,1,...]\n"),
        (["cf", "cf:-3;(1)"], "[-3;1,1,1,1,1,1,1,1,...]\n"),
        (["cf", "golden"], "[1;1,1,1,1,1,1,1,1,...]\n"),
        (["cf", "355/113"], "[3;7,16]\n"),
        (["cf", "7"], "[7]\n"),
        (["convergents", "cf:1;2,(1,3)", "-n", "6"], "1/1\n3/2\n4/3\n15/11\n19/14\n72/53\n"),
    ])
    def test_stdout(self, capsys, argv, want):
        assert run(capsys, *argv) == (0, want, "")


SPEC_TEXT = st.builds(
    str.__add__,
    st.sampled_from(["", "cf:", "sqrt:", "golden"]),
    st.text(alphabet="0123456789-/;,() ", max_size=10),
)
SPEC = st.one_of(
    SPEC_TEXT,
    st.text(alphabet="0123456789-;,() ", max_size=12).map("cf:".__add__),
    st.integers(-3, 400).map("sqrt:{}".format),
    st.builds("{}/{}".format, st.integers(-60, 60), st.integers(-3, 60)),
)
SMALL = st.builds("{}/{}".format, st.integers(-3, 3), st.integers(1, 4))
# inverted and empty windows included
WINDOW = st.builds("{}..{}".format, SMALL, SMALL)
RENDER_SPEC_ARGS = st.builds(
    lambda window, n, px: ["--window", window, "--max-den", str(n), "--width", str(px)],
    WINDOW, st.integers(-1, 12), st.sampled_from([10, 64, 200]))
ARGV = st.one_of(
    st.builds(lambda spec: ["cf", spec], SPEC),
    st.builds(lambda spec, k: ["convergents", spec, "-n", str(k)],
              SPEC, st.integers(-2, 15)),
    st.builds(lambda spec, a, b: ["check", f"{a}/{b}", spec],
              SPEC, st.integers(-80, 80), st.integers(1, 40)),
    st.builds(lambda x, y, window: ["verify", "--max-den-x", str(x),
                                    "--max-den-alpha", str(y), "--window", window],
              st.integers(-1, 8), st.integers(-1, 8), WINDOW),
    st.builds(lambda rest: ["render", "field", *rest], RENDER_SPEC_ARGS),
    st.builds(lambda spec, k, rest: ["render", "chain", spec, "--depth", str(k), *rest],
              SPEC, st.integers(-1, 8), RENDER_SPEC_ARGS),
    st.builds(lambda x, spec, rest: ["render", "witness", x, spec, *rest],
              SMALL, SPEC, RENDER_SPEC_ARGS),
)


@settings(max_examples=300, deadline=None)
@given(ARGV)
def test_real_spec_grammar_never_crashes(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()


class TestVerify:
    def test_small_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-den-x", "5",
                           "--max-den-alpha", "5", "--window", "0..1")
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"params", "totalChecked", "inconsistencies",
                               "elapsed"}
        assert report["inconsistencies"] == []
        assert report["totalChecked"] == 270

    def test_backend_flag(self, capsys):
        # the sweep has one engine, so there is no engine to pick
        code, out, err = run(capsys, "verify", "--max-den-x", "4",
                             "--max-den-alpha", "4", "--window", "0..1",
                             "--backend", "pure")
        assert (code, out) == (1, "")
        assert "error:" in err and "Traceback" not in err

    def test_unknown_backend_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--max-den-x", "4",
                             "--max-den-alpha", "4", "--window", "0..1",
                             "--backend", "compiled")
        assert (code, out) == (1, "")
        assert "error:" in err and "Traceback" not in err

    def test_bad_window(self, capsys):
        code, _, err = run(capsys, "verify", "--max-den-x", "5",
                           "--max-den-alpha", "5", "--window", "1..0")
        assert code == 1 and "window" in err

    def test_bad_caps(self, capsys):
        code, _, err = run(capsys, "verify", "--max-den-x", "0",
                           "--max-den-alpha", "5", "--window", "0..1")
        assert code == 1 and "caps" in err


class TestPinnedOutputs:
    """sha256 of the `check` and `verify` output, the counterpart of the SVG
    digests in test_render.py: any change to a statement's verdict, the
    witness, the exit code or the JSON layout shows here."""

    CHECK_SPECS = ("golden", "sqrt:2", "sqrt:94", "cf:1;2,(2)", "cf:-2;1,3,(1,4)",
                   "3/5", "-7/2", "355/113", "4", "1/1000")

    @staticmethod
    def captured(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    def test_check(self):
        # every reduced a/b with -4b <= a < 6b and b <= 12 against ten specs
        digest = hashlib.sha256()
        runs = 0
        for spec in self.CHECK_SPECS:
            for b in range(1, 13):
                for a in range(-4 * b, 6 * b):
                    if gcd(a, b) == 1:
                        code, out, err = self.captured(["check", f"{a}/{b}", spec])
                        digest.update(f"{code}|{out}|{err}".encode())
                        runs += 1
        assert runs == 4600
        assert digest.hexdigest() == \
            "9d5e8952a03e61cafb24b51219d3b0b79a3ffa97227ac5f0a6c89dfe6c68b640"

    @pytest.mark.parametrize("argv,want", [
        (["--max-den-x", "40", "--max-den-alpha", "25", "--window=-2..1"],
         "1154896a4e4f1caaf1a48f09dbf3ada680c4720e6b40dd7a1b942a2d3770f187"),
        (["--max-den-x", "12", "--max-den-alpha", "30", "--window", "1/3..5/2"],
         "316b28b5203c47a9f80d1c590434c1f98a9f3ef28291dbc6589a23409bd9ae9a"),
    ], ids=["40x25", "12x30"])
    def test_verify(self, argv, want):
        code, out, err = self.captured(["verify", *argv])
        report = json.loads(out)
        del report["elapsed"]
        text = f"{code}|{json.dumps(report, indent=2)}|{err}"
        assert hashlib.sha256(text.encode()).hexdigest() == want


def cf_text(b0, initial, period=None):
    terms = [str(b) for b in initial]
    if period is not None:
        terms.append("(" + ",".join(map(str, period)) + ")")
    return f"cf:{b0};" + ",".join(terms)


CHECK_SPEC = st.one_of(
    st.builds("{}/{}".format, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
    st.integers(-50, 50).map(str),
    st.just("golden"),
    st.integers(2, 10**4).filter(lambda n: isqrt(n) ** 2 != n).map("sqrt:{}".format),
    st.builds(cf_text, st.integers(-5, 5), st.lists(st.integers(1, 9), min_size=1, max_size=6)),
    st.builds(cf_text, st.integers(-5, 5), st.lists(st.integers(1, 9), max_size=3),
              st.lists(st.integers(1, 9), min_size=1, max_size=3)),
)
CHECK_X = st.builds("{}/{}".format, st.integers(-3 * 10**6, 3 * 10**6), st.integers(1, 10**6))


class TestCheckReportWriter:
    """`check` writes its flat report without json.dumps's indent; the bytes
    must be exactly those of json.dumps(report, indent=2)."""

    @settings(max_examples=150, deadline=None)
    @given(CHECK_X, CHECK_SPEC)
    @example("7/5", "golden")  # witness null, every statement false
    @example("832040/514229", "golden")  # every statement true
    @example("-3", "-7/2")  # a negative integer x
    @example("1", "1")  # isInteger true
    @example("3/2", "cf:1;(\u0662)")  # a label that ensure_ascii escapes
    @example("-999999/1000000", "cf:-1;(1,999)")
    def test_stdout_is_json_dumps_indent_2(self, x, spec):
        report = theorem_u_check(parse_rational(x), parse_real_spec(spec))
        want = json.dumps(report.to_json_dict(), indent=2) + "\n"
        assert TestPinnedOutputs.captured(["check", x, spec]) == \
            (0 if report.consistent else 2, want, "")


def parse_outcome(parse, argv):
    """What parse does with argv: its namespace, its usage error or its exit,
    with everything it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = ("vars", vars(parse(list(argv))))
        except UsageError as exc:
            result = ("usage", str(exc))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


RENDER_OPTIONS = ["--window", "-1..1", "--max-den", "7", "--width", "90", "-o", "f.svg"]
#: (argv, how both routes end: "vars", "usage" or "exit")
ARGV_CORPUS = [
    ([], "usage"),
    (["-h"], "exit"),
    (["--help"], "exit"),
    (["--window", "0..1", "check", "1/2", "3/5"], "usage"),
    (["-h", "check", "1/2", "3/5"], "exit"),
    (["frobnicate"], "usage"),
    (["frobnicate", "1/2"], "usage"),
    (["Check", "1/2", "3/5"], "usage"),
    (["cf", "3/5"], "vars"),
    (["cf", "-7/2"], "vars"),
    (["cf"], "usage"),
    (["cf", "3/5", "7"], "usage"),
    (["cf", "-h"], "exit"),
    (["convergents", "golden", "-n", "5"], "vars"),
    (["convergents", "-n", "-2", "sqrt:2"], "vars"),
    (["convergents", "golden", "--count=3"], "vars"),
    (["convergents", "golden"], "usage"),
    (["convergents", "golden", "-n", "x"], "usage"),
    (["convergents", "--help"], "exit"),
    (["check", "1/2", "3/5"], "vars"),
    (["check", "-7/2", "1/-3"], "vars"),
    (["check", "-1/-2", "-2/-3"], "vars"),
    (["check", "--", "-1", "golden"], "vars"),
    # the edge of the route that skips argparse: values only, two of them
    (["check", "-1..1", "golden"], "vars"),
    (["check", "-1 2", "golden"], "vars"),  # a value to argparse for its space
    (["check", "-1e3", "golden"], "usage"),
    (["check", "", "golden"], "vars"),
    (["check", "1/2", "--"], "usage"),
    (["cf", "--", "-7/2"], "vars"),
    (["cf", "-"], "vars"),
    (["check", "1/2"], "usage"),
    (["check", "1/2", "3/5", "7/8"], "usage"),
    (["check", "1/2", "3/5", "--window", "0..1"], "usage"),
    (["check", "-x", "1/2", "3/5"], "usage"),
    (["check", "-h"], "exit"),
    (["check", "1/2", "-h"], "exit"),
    (["verify", "--max-den-x", "5", "--max-den-alpha", "4", "--window", "-1..1"], "vars"),
    (["verify", "--max-den-x", "5", "--max-den-alpha", "4", "--window=-1/2..1/-3"], "vars"),
    (["verify", "--max-den-alpha", "4", "--max-den-x", "5", "--window", "1/3..5/2"], "vars"),
    (["verify", "--max-den-x", "5"], "usage"),
    (["verify", "--max-den-x", "five", "--max-den-alpha", "4", "--window", "0..1"], "usage"),
    (["verify", "--max-den-x", "5", "--max-den-alpha", "4", "--window", "0..1", "--backend",
      "pure"], "usage"),
    (["verify", "--max-den", "5", "--max-den-alpha", "4", "--window", "0..1"], "usage"),
    (["verify", "-h"], "exit"),
    (["render", "field"], "vars"),
    (["render", "field", *RENDER_OPTIONS], "vars"),
    (["render", "field", "--output", "f.svg", "--width=64"], "vars"),
    (["render", "chain", "golden", "--depth", "4"], "vars"),
    (["render", "chain", "-7/2", "--depth", "2", *RENDER_OPTIONS], "vars"),
    (["render", "witness", "1/2", "3/5"], "vars"),
    (["render", "witness", "-1/-2", "-7/2", *RENDER_OPTIONS], "vars"),
    (["render"], "usage"),
    (["render", "circles"], "usage"),
    (["render", "field", "1/2"], "usage"),
    (["render", "field", "--bogus"], "usage"),
    (["render", "field", "--max-den", "x"], "usage"),
    (["render", "chain", "golden"], "usage"),
    (["render", "chain", "--depth", "3"], "usage"),
    (["render", "witness", "1/2"], "usage"),
    (["render", "witness", "1/2", "3/5", "4/5"], "usage"),
    (["render", "--window", "0..1", "field"], "usage"),
    (["render", "-h"], "exit"),
    (["render", "field", "-h"], "exit"),
    (["render", "chain", "-h"], "exit"),
    (["render", "witness", "--help"], "exit"),
    # a figure named second goes to the figure's parser, with argparse's
    # option prefixes, "=" values, "--" and repeats as the nested parse has them
    (["render", "field", "--max", "7"], "vars"),
    (["render", "field", "--window=-1..1"], "vars"),
    (["render", "chain", "--", "-7/2", "--depth", "2"], "usage"),
    (["render", "chain", "--depth", "2", "--", "-7/2"], "vars"),
    (["render", "chain", "golden", "--depth", "2", "--depth", "3"], "vars"),
    (["render", "field", "extra"], "usage"),
    (["render", "fie"], "usage"),
]


class TestParseRoute:
    """A command named first is parsed by its own parser; the result must be
    the top parser's, to the byte of every help text and usage error."""

    @pytest.mark.parametrize("argv,kind", ARGV_CORPUS,
                             ids=[" ".join(argv) or "(empty)" for argv, _ in ARGV_CORPUS])
    def test_same_outcome_as_the_top_parser(self, argv, kind):
        routed = parse_outcome(cli._parse, argv)
        assert routed == parse_outcome(cli._build_parser().parse_args, argv)
        (result, detail), out, err = routed
        assert result == kind and err == ""
        if kind == "exit":
            assert detail == 0 and out.startswith("usage: fordcircles")
        elif kind == "vars":
            assert detail["command"] == argv[0] and out == ""

    def test_known_command_skips_the_top_parser(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the top parser was used")
        top = cli._build_parser()
        monkeypatch.setattr(top, "parse_args", refuse)
        monkeypatch.setattr(top, "parse_known_args", refuse)
        assert vars(cli._parse(["check", "--", "-1", "golden"])) == \
            {"command": "check", "x": "-1", "real": "golden"}
        assert vars(cli._parse(["convergents", "golden", "-n", "3"])) == \
            {"command": "convergents", "real": "golden", "count": 3}
        with pytest.raises(AssertionError, match="top parser"):
            cli._parse(["frobnicate"])

    def test_render_figure_skips_the_render_parser(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the top or render parser was used")
        top = cli._build_parser()
        for parser in (top, top.commands["render"]):
            monkeypatch.setattr(parser, "parse_args", refuse)
            monkeypatch.setattr(parser, "parse_known_args", refuse)
        routed = [(argv, kind) for argv, kind in ARGV_CORPUS
                  if argv[:1] == ["render"] and argv[1:2] and argv[1] in top.figures]
        assert len(routed) > 20
        for argv, kind in routed:
            (result, _), _, _ = parse_outcome(cli._parse, argv)
            assert result == kind, argv
        assert vars(cli._parse(["render", "chain", "golden", "--depth", "3"])) == {
            "command": "render", "figure": "chain", "real": "golden", "depth": 3,
            "window": "0..1", "max_den": 20, "width": 800, "output": None}
        for argv in (["render"], ["render", "-h"], ["render", "fie"]):
            with pytest.raises(AssertionError, match="render parser"):
                cli._parse(argv)

    def test_values_only_skip_every_parser(self, monkeypatch):
        def refuse():
            raise AssertionError("a parser was built")
        monkeypatch.setattr(cli, "_build_parser", refuse)
        assert vars(cli._parse(["check", "-7/2", "1/-3"])) == \
            {"command": "check", "x": "-7/2", "real": "1/-3"}
        assert vars(cli._parse(["cf", "golden"])) == {"command": "cf", "real": "golden"}
        for argv in (["check", "-h"], ["check", "1/2"], ["convergents", "golden", "-n", "3"]):
            with pytest.raises(AssertionError, match="parser was built"):
                cli._parse(argv)


class TestRender:
    def test_field_stdout(self, capsys):
        code, out, _ = run(capsys, "render", "field", "--max-den", "5")
        assert code == 0
        assert out.startswith("<svg ") and out.count("<circle") == 11

    def test_field_to_file(self, capsys, tmp_path):
        target = tmp_path / "field.svg"
        code, out, _ = run(capsys, "render", "field", "--max-den", "3",
                           "-o", str(target))
        assert code == 0 and out == ""
        assert target.read_text(encoding="utf-8").count("<circle") == 5

    def test_output_in_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "field.svg"
        code, out, err = run(capsys, "render", "field", "--max-den", "3",
                             "-o", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and str(target) in err
        assert "Traceback" not in err

    def test_output_is_a_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "render", "field", "--max-den", "3",
                             "-o", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and str(tmp_path) in err
        assert "Traceback" not in err

    def test_chain(self, capsys):
        code, out, _ = run(capsys, "render", "chain", "sqrt:2", "--depth", "3",
                           "--window", "1..2")
        assert code == 0
        assert '"chain":["1/1","3/2","7/5"]' in out

    def test_witness(self, capsys):
        code, out, _ = run(capsys, "render", "witness", "1/2", "3/5")
        assert code == 0 and '"witness":"2/3"' in out

    def test_witness_absent(self, capsys):
        code, _, err = run(capsys, "render", "witness", "1/3", "3/5")
        assert code == 1
        assert "statement (v) fails for this pair" in err

    def test_chain_depth_exhaustion(self, capsys):
        code, _, err = run(capsys, "render", "chain", "3/5", "--depth", "9")
        assert code == 1 and "exhausted" in err

    def test_invalid_width(self, capsys):
        code, _, err = run(capsys, "render", "field", "--width", "10")
        assert code == 1 and "widthPx" in err


class TestUsageErrors:
    def test_malformed_real_spec_names_grammar(self, capsys):
        code, _, err = run(capsys, "cf", "sqrt:x")
        assert code == 1
        assert "golden | sqrt:<n> | cf:" in err

    def test_zero_denominator(self, capsys):
        code, _, err = run(capsys, "check", "1/0", "3/5")
        assert code == 1 and "zero denominator" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1 and err.startswith("error:")

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "verify", "--max-den-x", "5")
        assert code == 1 and "error:" in err


class TestNegativeDenominators:
    """A value with a leading minus and a negative denominator is a value,
    not an option, in every value position."""

    def test_check(self, capsys):
        assert run(capsys, "check", "1/2", "-1/-3") == run(capsys, "check", "1/2", "1/3")
        assert run(capsys, "check", "-1/-2", "-2/-3") == run(capsys, "check", "1/2", "2/3")

    def test_render_witness(self, capsys):
        code, out, err = run(capsys, "render", "witness", "-1/-2", "3/5")
        assert (code, out, err) == run(capsys, "render", "witness", "1/2", "3/5")
        assert code == 0 and out.startswith("<svg ")

    def test_verify_window(self, capsys):
        code, out, err = run(capsys, "verify", "--max-den-x", "3",
                             "--max-den-alpha", "2", "--window", "-1/-2..1")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["params"]["window"] == "1/2..1"
        code, out, _ = run(capsys, "verify", "--max-den-x", "3",
                           "--max-den-alpha", "2", "--window", "1/2..-1/-1")
        assert code == 0
        assert {k: v for k, v in json.loads(out).items() if k != "elapsed"} == \
            {k: v for k, v in report.items() if k != "elapsed"}


class TestRealSpecParsing:
    @pytest.mark.parametrize("text,want", [
        ("3/5", F(3, 5)),
        ("7", F(7)),
        ("-7/2", F(-7, 2)),
        ("cf:0;1,1,2", F(3, 5)),
        ("cf:3;7,16", F(355, 113)),
        ("cf:-4;2", F(-7, 2)),
        ("cf:5", F(5)),
    ])
    def test_exact_forms(self, text, want):
        parsed = parse_real_spec(text)
        assert isinstance(parsed, ExactReal)
        assert parsed.value == want

    def test_periodic_forms(self):
        phi = parse_real_spec("cf:1;(1)")
        assert isinstance(phi, CFStream)
        assert same_stream(phi, parse_real_spec("golden"))
        root8 = parse_real_spec("cf:2;(1,4)")
        assert same_stream(root8, parse_real_spec("sqrt:8"))
        mixed = parse_real_spec("cf:1;2,(2)")
        assert same_stream(mixed, parse_real_spec("sqrt:2"))

    @pytest.mark.parametrize("text", [
        "cf:1;(2", "cf:1;0,2", "cf:1;2(3)", "sqrt:4", "sqrt:-1", "2/3/4", "",
        "cf:1;,(2)", "cf:1; ,(2)", "cf:1;(2),3", "cf:1;(2)x",
    ])
    def test_rejects(self, text):
        closed_early = text in ("cf:1;(2),3", "cf:1;(2)x")
        with pytest.raises(UsageError, match="must end the spec" if closed_early else None):
            parse_real_spec(text)

    def test_window_parse(self):
        assert parse_window("0..1") == (F(0), F(1))
        assert parse_window("-1/2..3/2") == (F(-1, 2), F(3, 2))
        with pytest.raises(UsageError, match="LO..HI"):
            parse_window("0-1")
        for text in ("1..1", "1/2..2/4", "1..0"):  # an empty or inverted window
            with pytest.raises(UsageError, match="lo < hi"):
                parse_window(text)


class TestReusedParser:
    """The parser is built once per process, so no call may leave state
    behind for the next one."""

    def test_output_does_not_stick(self, capsys, tmp_path):
        target = tmp_path / "field.svg"
        code, out, _ = run(capsys, "render", "field", "--max-den", "3", "-o", str(target))
        assert (code, out) == (0, "")
        code, out, _ = run(capsys, "render", "field", "--max-den", "3")
        assert code == 0 and out == target.read_text(encoding="utf-8")

    def test_usage_error_then_check(self, capsys):
        code, out, err = run(capsys, "check", "1/2", "--max-den", "3")
        assert (code, out) == (1, "") and err.startswith("error:")
        want = check_text("1/2", "3/5", False, [True] * 5, "2/3")
        assert run(capsys, "check", "1/2", "3/5") == (0, want, "")


class TestEntryPoint:
    """`python -m fordcircles.cli` in a fresh process."""

    def run_module(self, *argv, timeout=60, preexec_fn=None):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
        return subprocess.run([sys.executable, "-m", "fordcircles.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=timeout,
                              preexec_fn=preexec_fn)

    def test_check(self):
        done = self.run_module("check", "1/2", "3/5")
        want = check_text("1/2", "3/5", False, [True] * 5, "2/3")
        assert (done.returncode, done.stdout, done.stderr) == (0, want, "")

    def test_check_at_a_huge_partial_quotient(self):
        # x = alpha = [0; 3, 10^9]: statement (ii) descends the run of 10^9
        # mediants with one floor, so the check ends well inside the limit
        x = "1000000000/3000000001"
        done = self.run_module("check", x, x, timeout=30)
        want = check_text(x, x, False, [True] * 5, "1000000001/3000000004")
        assert (done.returncode, done.stdout, done.stderr) == (0, want, "")

    def test_usage_error(self):
        done = self.run_module("check", "1/0", "3/5")
        assert (done.returncode, done.stdout, done.stderr) == (1, "", "error: zero denominator\n")

    @staticmethod
    def cap():
        # a 1 GiB address-space cap on the child alone
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    def test_huge_x_cap_fits_in_the_memory_cap(self):
        # X = 10^9: the x grid is counted with a mu sieve up to about
        # X^(2/3) = 10^6 and no list of size X, so the sweep ends under the
        # cap; the count is 3*(Phi(10^9) - 1), with the totient sum
        # Phi(10^9) = 303,963,551,173,008,414 (OEIS A064018)
        done = self.run_module("verify", "--max-den-x", "1000000000", "--max-den-alpha", "1",
                               "--window", "0..1", preexec_fn=self.cap)
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout)["totalChecked"] == 911890653519025239

    def test_out_of_memory_is_an_error(self):
        # the field list of 1.5*10^8 circles, at b <= 2 on a window of width
        # 10^8, asks for several GB; under the cap it raises MemoryError,
        # which main reports like any other error
        done = self.run_module("render", "field", "--max-den", "2",
                               "--window", "0..100000000", preexec_fn=self.cap)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("error: out of memory")
        assert "Traceback" not in done.stderr

    def run_isolated(self, code):
        # -S: a site .pth file may import modules itself (urllib.parse)
        src = str(Path(__file__).resolve().parents[1] / "src")
        return subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)

    def test_import_loads_no_xml_or_network_modules(self):
        done = self.run_isolated(
            "import sys; import fordcircles.cli; "
            "print(' '.join(sorted({m.partition('.')[0] for m in sys.modules})))")
        assert (done.returncode, done.stderr) == (0, "")
        loaded = set(done.stdout.split())
        assert "fordcircles" in loaded
        assert loaded.isdisjoint({"xml", "urllib", "http", "email", "ssl", "socket"})

    def test_import_loads_only_what_check_runs(self):
        # geometry and render load on first use, cf and verify's value types
        # need neither dataclasses (with inspect) nor typing, and a check or
        # cf of values only never builds a parser; help still comes from it
        done = self.run_isolated(
            "import sys; from fordcircles.cli import main; "
            "print('imported:', *sorted(sys.modules)); "
            "codes = main(['check', '-7/2', '1/-3']), main(['cf', 'golden']); "
            "print('values only:', *codes, *sorted(sys.modules)); "
            "main(['render', 'field', '--max-den', '5']); "
            "main(['check', '1/2', '-h'])")
        assert (done.returncode, done.stderr) == (0, "")
        lines = done.stdout.splitlines()
        imported = lines[0].split()
        assert imported[0] == "imported:" and "fordcircles.cli" in imported
        assert set(imported).isdisjoint({"dataclasses", "inspect", "typing", "argparse",
                                         "fordcircles.geometry", "fordcircles.render"})
        at = next(i for i, line in enumerate(lines) if line.startswith("values only:"))
        _, _, code_check, code_cf, *modules = lines[at].split()
        assert (code_check, code_cf) == ("0", "0")
        assert set(modules).isdisjoint({"argparse", "gettext", "shutil"})
        svg, _, usage = "\n".join(lines[at + 1:]).partition("</svg>")
        assert svg.startswith("<svg")
        assert usage.strip().startswith("usage: fordcircles check")
