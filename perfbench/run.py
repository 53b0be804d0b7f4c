"""Benchmark of the fordcircles command line and library, run from a checkout.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one caller in this one process: the next
operation starts when the previous one returns.  The operations, their inputs
and their expected outputs come from --seed (see workloads.py); every output
is checked, and a wrong or failed operation counts in ``failed``.

--trace 0 measures: it repeats the workload's operation list, a whole pass at
a time, while another pass fits in --seconds, and reports the end-to-end
metrics named in BENCHMARK.json.  Timings are given in units of a fixed
reference loop run next to every operation (see measure()); the wall-clock
figures are printed beside them.  --trace 1 runs the list once to warm up,
then runs each operation untraced and at once again under the span tracer
(spans.py), and reports the per-layer metrics; the tracing overhead is the
traced wall time minus the untraced wall time over those pairs.

The last line of standard output is the JSON result; the lines before it give
the environment, the sample counts and each metric with its unit.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from math import gcd
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Set-up (import plus input generation) is repeated this often; the median counts.
SETUP_REPEATS = 15
#: Seconds one reference loop stands for when set-up time is given in seconds.
REFERENCE_S = 0.001
#: Failure reasons printed to stderr, at most.
MAX_REASONS = 5


def load_package() -> SimpleNamespace:
    """Import fordcircles afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "fordcircles" or m.startswith("fordcircles.")]:
        del sys.modules[name]
    pkg = importlib.import_module("fordcircles")
    if Path(pkg.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"fordcircles imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(pkg=pkg, cli=importlib.import_module("fordcircles.cli"))


def set_up(workload: str, seed: int, repeats: int):
    """Import and generate inputs repeats times; return the last package and
    inputs, and the median set-up time over the median reference time."""
    import workloads
    times, refs = [], []
    for _ in range(repeats):
        gc.collect()  # the previous repeat's modules are garbage; free them untimed
        start = perf_counter()
        reference()
        refs.append(perf_counter() - start)
        start = perf_counter()
        fc = load_package()
        ops = workloads.generate(workload, seed, fc)
        times.append(perf_counter() - start)
    print(f"set-up wall time: median {statistics.median(times):.4g} s of {repeats}")
    return fc, ops, statistics.median(times) / statistics.median(refs)


def run_op(op, reasons: list[str]) -> float:
    """Run one operation and check its output; return its wall time."""
    start = perf_counter()
    try:
        code, out = op.call()
    except Exception:  # a crash is a failed operation, not the end of the run
        reasons.append(f"{op.label}: {traceback.format_exc(limit=3)}")
        return perf_counter() - start
    elapsed = perf_counter() - start
    try:
        reason = op.check(code, out)
    except (ValueError, KeyError, TypeError) as exc:  # output not in the expected form
        reason = f"unreadable output: {exc!r}"
    if reason is not None:
        reasons.append(f"{op.label}: {reason}")
    return elapsed


def reference() -> int:
    """A fixed piece of integer work shaped like the kernel's scan, in plain
    Python and independent of the package.  Its time, taken next to every
    operation, is the unit the end-to-end timings are given in."""
    p, q, hits = 355, 113, 0
    for d in range(1, 1500):
        c0 = d * p // q
        for c in (c0, c0 + 1):
            if gcd(c, d) == 1 and abs(d * p - c * q) <= 7:
                hits += 1
    return hits


def environment(fc, nproc: int) -> dict:
    kernel = getattr(fc.pkg, "_kernel", None)
    return {
        "backend": kernel.backend_name() if kernel is not None else "none",
        "python": platform.python_version(),
        "git": git_sha(),
        "nproc": nproc,
    }


def git_sha() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(ops, seconds: float) -> tuple[dict, int, list[str]]:
    """Whole passes over ops while another pass fits in seconds.

    Before each operation the reference loop runs once; an operation's time
    in a pass is divided by the median reference time of that pass, so a
    pass slowed by other load on the shared machine reads the same.  Each
    operation's latency is then its median over the passes, and the
    percentiles are over those per-operation medians."""
    latencies: list[list[float]] = [[] for _ in ops]
    raw: list[list[float]] = [[] for _ in ops]
    units: list[float] = []
    reasons: list[str] = []
    started = perf_counter()
    while True:
        pass_started = perf_counter()
        refs, times = [], []
        for op in ops:
            start = perf_counter()
            reference()
            refs.append(perf_counter() - start)
            times.append(run_op(op, reasons))
        units.append(statistics.median(refs))
        for samples, raw_samples, elapsed in zip(latencies, raw, times):
            samples.append(elapsed / units[-1])
            raw_samples.append(elapsed)
        now = perf_counter()
        if 2 * now - pass_started - started > seconds:  # another pass would overrun
            break
    work = sum(op.work for op in ops)
    typical = [statistics.median(samples) for samples in latencies]
    wall = [statistics.median(samples) for samples in raw]
    values = {
        "throughput_per_kref": 1000 * work / sum(typical),
        "p50_ref": statistics.median(typical),
        "p90_ref": percentile90(typical),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"samples: {len(units)} passes x {len(ops)} operations; percentiles over the "
          f"{len(ops)} per-operation medians, {len(ops) - int(0.9 * len(ops))} beyond p90")
    print(f"wall time: reference {1000 * statistics.median(units):.4g} ms, "
          f"throughput {work / sum(wall):.6g}/s, p50 {1000 * statistics.median(wall):.4g} ms, "
          f"p90 {1000 * percentile90(wall):.4g} ms")
    return values, len(units) * len(ops), reasons


def percentile90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def trace(ops, fc, workload: str, seed: int, names: list[str]) -> tuple[dict, int, list[str]]:
    from spans import Tracer
    reasons: list[str] = []
    for op in ops:  # warm-up
        run_op(op, reasons)
    # Each operation runs untraced, then traced, back to back, so both see
    # the same load on the machine and their difference is the tracing cost.
    untraced = traced = 0.0
    tracer = Tracer(fc.pkg.CFStream)
    for op in ops:
        untraced += run_op(op, reasons)
        with tracer:
            for stream in op.streams:
                tracer.count_pulls(stream)
            traced += run_op(op, reasons)
    c = tracer.counters
    flag_calls = tracer.stats.get("kernel.pair_flags", [0])[0]
    derived = {
        "kernel.true_pair_ratio": c["kernel.flagged_pairs"] / flag_calls if flag_calls else 0.0,
        "kernel.scan_len.computed": c["kernel.scan_len"],
        "real.coeff_pulls": c["real.coeff_pulls"],
        "real.pulls_per_query": (c["real.coeff_pulls"] / c["real.stream_queries"]
                                 if c["real.stream_queries"] else 0.0),
        "rational.fractions_yielded": c["rational.reduced_fractions_in.yielded"],
        "render.svg_bytes": c["render.svg_bytes"],
        "trace.overhead_s": traced - untraced,
        "trace.spans": tracer.spans,
    }
    values = {}
    for metric in names:
        if metric in derived:
            values[metric] = derived[metric]
            continue
        span, _, field = metric.rpartition(".")
        if span not in tracer.wrapped:
            print(f"note: {span} is not a traced function; reported as 0", file=sys.stderr)
        calls, _, self_s = tracer.stats.get(span, (0, 0.0, 0.0))
        values[metric] = calls if field == "calls" else self_s
    OUT.mkdir(exist_ok=True)
    dump = tracer.dump() | {"untraced_s": untraced, "traced_s": traced}
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(dump, indent=1))
    print(f"traced pass: {len(ops)} ops, {tracer.spans} spans, "
          f"{traced:.3f} s traced against {untraced:.3f} s untraced")
    return values, 3 * len(ops), reasons


def main(argv: list[str] | None = None) -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fordcircles" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'fordcircles'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Stay on one core: the cores of a shared machine differ in speed, and a
    # run that migrates between them mixes both speeds into its figures.
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cores)})

    fc, ops, setup_s = set_up(args.workload, args.seed, 1 if args.trace else SETUP_REPEATS)
    env = environment(fc, len(cores))
    print("env " + json.dumps(env))
    print("run " + json.dumps({"workload": args.workload, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace}))
    if args.trace:
        metrics = declared["per_layer"]
        values, attempted, reasons = trace(ops, fc, args.workload, args.seed,
                                           [m["name"] for m in metrics])
    else:
        values, attempted, reasons = measure(ops, args.seconds)
        values["setup_s"] = setup_s * REFERENCE_S
        metrics = declared["end_to_end"]
    for reason in reasons[:MAX_REASONS]:
        print(f"wrong: {reason}", file=sys.stderr)
    failed = len(reasons)
    result = {}
    for m in metrics:
        result[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
