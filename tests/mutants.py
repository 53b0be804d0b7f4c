"""Mutation check of the integer kernels, the enumerator, the renderer, the
exact reals, statement (ii)'s descent and the command-line parsing.

Each mutant is one small edit of src/fordcircles/_kernel.py, rational.py,
render.py, real.py, verify.py or cli.py.  The runner applies it to a temporary copy of the repository
(src/, tests/ and pyproject.toml) and runs that file's tests there (TESTS)
with -x and criterion 8 deselected (it fails on the unmutated code, see
ROADMAP.md), and prints "killed" or "survived" with the time taken.  A
mutant that runs past the timeout is killed: some mutants stay correct but
take one step per unit of a partial quotient, so they hang rather than
fail.  Each run is capped at 2 GiB of address space, and a mutant that
dies on that cap is killed too.  Before the mutants it runs the unmutated
copy on each test set, which must pass.

Run from the repository root:

    python tests/mutants.py                   # every mutant
    python tests/mutants.py --timeout 60 near-hit-strict rx-not-lowered

The exit code is 0 when every mutant not listed as equivalent is killed.
Pytest does not collect this file: its name has no test_ prefix.
"""

from __future__ import annotations

import argparse
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNEL = Path("src/fordcircles/_kernel.py")
RATIONAL = Path("src/fordcircles/rational.py")
RENDER = Path("src/fordcircles/render.py")
REAL = Path("src/fordcircles/real.py")
VERIFY = Path("src/fordcircles/verify.py")
CLI = Path("src/fordcircles/cli.py")
#: the tests each mutated file is checked by
TESTS = {
    KERNEL: ("tests/test_kernel.py", "tests/test_acceptance.py"),
    RATIONAL: ("tests/test_render.py", "tests/test_verify.py"),
    RENDER: ("tests/test_render.py", "tests/test_verify.py"),
    REAL: ("tests/test_verify.py", "tests/test_exact_core.py"),
    VERIFY: ("tests/test_verify.py", "tests/test_exact_core.py"),
    CLI: ("tests/test_cli.py",),
}
DESELECT = "tests/test_acceptance.py::test_criterion_8_penultimate_construction"

# (name, text in the file, its replacement); each text occurs exactly once,
# and any lines beyond the changed one are context that makes it unique
KERNEL_MUTANTS = [
    # _first_hit and best_flag
    ("first-hit-floor", "        k = -(-lo // a)\n", "        k = lo // a\n"),
    ("first-hit-no-reflection", "        if 2 * a > m:\n", "        if False:\n"),
    ("best-flag-tie", "    return 2 * t < q and next(", "    return 2 * t <= q and next("),
    ("best-window-wrap", "lo + 2 * t >= q else", "lo + 2 * t > q else"),
    # _best_hits, the (iii) records
    ("best-threshold-kept", "        t -= 1\n", "        t -= 0\n"),
    ("best-no-nearer-swap", "        if 2 * t > q:\n", "        if False:\n"),
    ("best-exit-early",
     "        if d > max_den:\n            return\n        c, t",
     "        if d >= max_den:\n            return\n        c, t"),
    ("best-set-from-half", "(q - 1) // 2, max_den", "q // 2, max_den"),
    # _near_hits, the (iv) descent
    ("near-d1-tie-guard", "    if 2 * r != q and near[2]", "    if near[2]"),
    ("near-d1-rx-kept", "        rx = near[2] * near[2] - 1\n",
     "        rx = near[2] * near[2]\n"),
    ("near-run-floor", "j = max(1, -(-(fx - root) // fy))", "j = max(1, (fx - root) // fy)"),
    ("near-run-no-max", "j = max(1, -(-(fx - root) // fy))", "j = -(-(fx - root) // fy)"),
    ("near-ends-swapped", "(cx, dx, fx), (cy, dy, fy) = far, near",
     "(cx, dx, fx), (cy, dy, fy) = near, far"),
    ("near-exit-early",
     "        if d > max_den:\n            return\n        e = ",
     "        if d >= max_den:\n            return\n        e = "),
    ("near-hit-strict", "        if e * e <= rx:\n", "        if e * e < rx:\n"),
    ("near-set-from-quarter", "_near_hits(p, q, q * q, max_den)",
     "_near_hits(p, q, q * q // 4 - 1, max_den)"),
    # the resumed state of the descent
    ("rx-not-lowered", "            rx = e * e - 1\n", "            rx = e * e\n"),
    ("root-not-recomputed",
     "    while rx >= 0:\n        root = isqrt(rx)\n",
     "    root = isqrt(max(rx, 0))\n    while rx >= 0:\n"),
    ("ends-kept-after-hit", "            far = (cx + j * cy, d, e)\n", "            far = far\n"),
    ("hit-side-test-flipped", "        if e > 0:\n", "        if e < 0:\n"),
    ("hit-side-test-at-zero", "        if e > 0:\n", "        if e >= 0:\n"),
    ("end-order-at-a-tie", "        if far[2] < near[2]:\n", "        if far[2] <= near[2]:\n"),
    # witness_set's hyperbola split
    ("witness-low-b-short", "range(1, min(max_den, s) + 1)",
     "range(1, min(max_den, s - 1) + 1)"),
    ("witness-r-range-short", "for r in range(1, s):", "for r in range(1, s - 1):"),
    ("witness-r-range-to-s", "for r in range(1, s):", "for r in range(1, s + 1):"),
    ("witness-halves-overlap", "if s < b <= max_den and", "if s <= b <= max_den and"),
]

RATIONAL_MUTANTS = [
    ("include-lo-off-by-one", "-(-ln * b // ld) if include_lo", "-(-ln * b // ld) + 1 if include_lo"),
    ("exclude-lo-off-by-one", "if include_lo else ln * b // ld + 1", "if include_lo else ln * b // ld"),
    ("exclude-hi-off-by-one", "else -(-hn * b // hd) - 1", "else -(-hn * b // hd)"),
    ("empty-run-kept", "        if run:\n", "        if True:\n"),
]

RENDER_MUTANTS = [
    ("tie-step-dropped", "                if not rem and v & 1:\n", "                if False:\n"),
    ("tie-step-inverted", "if not rem and v & 1:", "if not rem and not v & 1:"),
    ("tie-step-up", "                    v -= 1\n", "                    v += 1\n"),
    ("shift-half-sign", "10**6 - b * ld * sd", "10**6 + b * ld * sd"),
    ("shift-sign", "divmod(a * step - shift, den)", "divmod(a * step + shift, den)"),
    ("run-separator-no-newline", "(tail + '\\n<circle cx=\"')", "(tail + '<circle cx=\"')"),
    ("wide-path-strict", "if v >= 10**6 else", "if v > 10**6 else"),
    ("escape-amp-last",
     'replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")',
     'replace("<", "&lt;").replace(">", "&gt;").replace("&", "&amp;")'),
]

REAL_MUTANTS = [
    # floor_ratio_exact, the one floor path
    ("floor-root-no-minus-one", "            n -= isqrt(w * w * d) + 1\n",
     "            n -= isqrt(w * w * d)\n"),
    ("floor-surd-always-exact", "            return f, not r\n", "            return f, True\n"),
    ("floor-bracket-any-sign", "        if m0 > 0 and m1 > 0:\n", "        if True:\n"),
    ("floor-bracket-nonzero", "        if m0 > 0 and m1 > 0:\n", "        if m0 and m1:\n"),
    ("floor-bracket-exact-at-an-end", "return f, v1 * u2 == u1 * v2 and f * m0 == n0",
     "return f, f * m0 == n0"),
    # the mark: where a query's bracket walk starts
    ("mark-raised-by-exhaustion",
     "            if n > DEFAULT_MAX_PULLS:\n",
     "            if n > DEFAULT_MAX_PULLS:\n                self._mark = n - 1\n"),
    ("mark-kept-on-rebuild", "            self._mark = 1\n",
     "            self._mark = getattr(self, '_mark', 1)\n"),
    ("mark-plus-one", "n = self._mark if from_mark else 1", "n = self._mark + 1 if from_mark else 1"),
    ("brackets-from-mark", "        for _, lo, hi in self._numbered(False):\n",
     "        for _, lo, hi in self._numbered(True):\n"),
]

VERIFY_MUTANTS = [
    # _chain_upto's runs
    ("chain-side-not-flipped", "u, v, s, t, e = s, t, m, k, -e", "u, v, s, t, e = s, t, m, k, e"),
    ("chain-exactness-ignored", "    while not exact:\n", "    while True:\n"),
    ("chain-cap-inclusive", "        if k > max_den:\n            break\n",
     "        if k >= max_den:\n            break\n"),
    ("chain-start-swapped", "u, v, s, t, e = 1, 0, n, 1, 1", "u, v, s, t, e = n, 1, 1, 0, 1"),
    # verify_sweep's window filter, its order and its count
    ("sweep-lo-inclusive", "ln * b < a * ld", "ln * b <= a * ld"),
    ("sweep-hi-inclusive", "a * hd < hn * b", "a * hd <= hn * b"),
    ("sweep-integers-visited", "if 1 < b <= den_max_x", "if 1 <= b <= den_max_x"),
    ("sweep-cap-dropped", "if 1 < b <= den_max_x and", "if 1 < b and"),
    ("sweep-order-a-b", "for b, a in sorted((b, a) for a, b in candidates",
     "for a, b in sorted((a, b) for a, b in candidates"),
    # the skip of an alpha whose five sets agree
    ("sweep-integers-kept", "            found.difference_update(integers)\n",
     "            pass\n"),
    ("skip-ignores-v", "near_set == witness_set:\n            continue",
     "near_set:\n            continue"),
    # _count_xs, the inclusion-exclusion count
    ("count-integers", "    for b in range(2, max_den + 1):\n        low",
     "    for b in range(1, max_den + 1):\n        low"),
    ("count-sign", "(d * f, -mu) for d, mu in terms", "(d * f, mu) for d, mu in terms"),
    # _farey_proxy and the order each oracle asks of it
    ("proxy-cap-inclusive", "        if pair[1] > n:\n", "        if pair[1] >= n:\n"),
    ("best-proxy-order-b", "best_flag(a, b, *_farey_proxy(as_real(alpha), 2 * b))",
     "best_flag(a, b, *_farey_proxy(as_real(alpha), b))"),
    ("near-proxy-order-b", "near_flag(a, b, *_farey_proxy(as_real(alpha), 2 * b))",
     "near_flag(a, b, *_farey_proxy(as_real(alpha), b))"),
]

CLI_MUTANTS = [
    # the check report's writer and the route of a command to its parser
    ("report-separator", 'separators=(",\\n  ", ": ")', 'separators=(",\\n ", ": ")'),
    ("command-not-set", "    args.command = argv[0]\n", ""),
    ("route-all-to-top", "command = parser.commands.get(argv[0]) if argv else None",
     "command = None"),
]

MUTANTS = [(name, path, old, new)
           for path, group in ((KERNEL, KERNEL_MUTANTS), (RATIONAL, RATIONAL_MUTANTS),
                               (RENDER, RENDER_MUTANTS), (REAL, REAL_MUTANTS),
                               (VERIFY, VERIFY_MUTANTS), (CLI, CLI_MUTANTS))
           for name, old, new in group]

# mutants that change no output, with the reason (see CHANGES.md)
EQUIVALENT = {
    "hit-side-test-at-zero": "e = 0 is p/q, a hit, after which rx = -1 ends the loop",
    "end-order-at-a-tie": "with equal ends the next node is their sum either way",
    "wide-path-strict": "at v = 10**6 both paths write 1.000000",
    "witness-r-range-to-s": "|lhs| = s at b > s needs d >= s + 2, and s*(s + 2) >= q: "
                            "no witness",
    "witness-halves-overlap": "b = s is then a candidate of both halves, and the set keeps it once",
    "sweep-integers-kept": "the sets then differ at b = 1 more often, and the visit that follows "
                           "never reports a b = 1 pair",
}


def _limit_memory() -> None:
    # a runaway mutant must fail inside its own process
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _run(tree: Path, tests: tuple[str, ...], timeout: float) -> tuple[str, float, str]:
    """Run the tests on tree: (verdict, seconds, detail)."""
    # no bytecode: two mutants of one size written within one second would
    # otherwise share a stale .pyc
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           *tests, "--deselect", DESELECT]
    started = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=timeout, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return "killed", time.perf_counter() - started, f"timeout after {timeout:.0f} s"
    elapsed = time.perf_counter() - started
    if done.returncode == 0:
        return "survived", elapsed, ""
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    if failed:
        return "killed", elapsed, failed.group(1)
    if done.returncode < 0:
        return "killed", elapsed, f"signal {-done.returncode} (2 GiB memory cap)"
    last = (done.stdout + done.stderr).strip().splitlines() or [""]
    return "killed", elapsed, f"exit {done.returncode}: {last[-1][:80]}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--timeout", type=float, default=90.0,
                        help="seconds per mutant before it counts as killed (default 90)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m[0] for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.names or m[0] in args.names]

    sources = {path: (ROOT / path).read_text(encoding="utf-8") for path in TESTS}
    for name, path, old, _ in chosen:
        if sources[path].count(old) != 1:
            raise SystemExit(f"{name}: its text occurs {sources[path].count(old)} times in {path}")

    with tempfile.TemporaryDirectory(prefix="fordcircles-mutants-") as scratch:
        tree = Path(scratch)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")

        for tests in sorted({TESTS[m[1]] for m in chosen}):
            verdict, seconds, detail = _run(tree, tests, args.timeout)
            print(f"{'unmutated':24} {verdict:9} {seconds:6.1f} s  {' '.join(tests)}", flush=True)
            if verdict != "survived":
                print("the unmutated tests fail; no mutant was run", file=sys.stderr)
                return 1

        killed, unexpected = 0, []
        for name, path, old, new in chosen:
            (tree / path).write_text(sources[path].replace(old, new), encoding="utf-8")
            verdict, seconds, detail = _run(tree, TESTS[path], args.timeout)
            (tree / path).write_text(sources[path], encoding="utf-8")
            killed += verdict == "killed"
            if verdict == "survived":
                detail = EQUIVALENT.get(name, "NOT KNOWN EQUIVALENT")
                if name not in EQUIVALENT:
                    unexpected.append(name)
            print(f"{name:24} {verdict:9} {seconds:6.1f} s  {detail}", flush=True)

    print(f"{killed} of {len(chosen)} killed; "
          f"{len(chosen) - killed - len(unexpected)} survivors listed as equivalent")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
