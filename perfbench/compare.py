"""Compare two sets of saved benchmark outputs, metric by metric.

Usage:
    python3 perfbench/compare.py BASE.txt NEW.txt

Each file holds the standard output of one or more runs of run.py, one after
another.  For every (workload, trace mode, metric) both sides have, it prints
the median, the quartile spread of the base as a share of its median, and the
change of the new median.  Results are only comparable when they come from the
same kernel backend and Python version; otherwise it refuses with exit code 1.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

COMPARABLE = ("backend", "python")


def load(path: str) -> tuple[set, dict]:
    envs: set = set()
    values: defaultdict = defaultdict(list)
    run = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("env "):
                env = json.loads(line[4:])
                envs.add(tuple(env[k] for k in COMPARABLE))
            elif line.startswith("run "):
                run = json.loads(line[4:])
            elif line.startswith('{"correct"') and run is not None:
                result = json.loads(line)
                for name, metric in result["metrics"].items():
                    values[(run["workload"], run["trace"], name)].append(metric["value"])
    return envs, values


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("nan")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    (base_env, base), (new_env, new) = load(argv[0]), load(argv[1])
    envs = base_env | new_env
    if len(envs) != 1:
        print(f"error: results from different {'/'.join(COMPARABLE)}: {sorted(envs)}",
              file=sys.stderr)
        return 1
    print(f"{'workload':<16} {'t':>1} {'metric':<42} {'n':>5} {'base':>12} "
          f"{'spread':>7} {'new':>12} {'change':>8}")
    for key in sorted(base.keys() & new.keys()):
        b, n = base[key], new[key]
        mb, mn = statistics.median(b), statistics.median(n)
        change = (mn - mb) / mb if mb else float("nan")
        print(f"{key[0]:<16} {key[1]:>1} {key[2]:<42} {len(b):>2}/{len(n):<2} "
              f"{mb:>12.6g} {spread(b):>7.3f} {mn:>12.6g} {change:>+8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
