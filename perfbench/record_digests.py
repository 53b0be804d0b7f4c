"""Record the sha256 of every SVG the render workload makes for the default
seed and the confirmation seed, into render_digests.json.

Run it only when a change to the rendered documents is intended:
    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json
import random
import sys

import run
import workloads

#: The seed runs use by default, and the one held back to confirm claims.
SEEDS = (0, 1)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    fc = run.load_package()
    recorded = {}
    for seed in SEEDS:
        digests = []
        for op in workloads.render(random.Random(seed), fc, None):
            code, out = op.call()
            reason = op.check(code, out)
            if reason is not None:
                print(f"error: {op.label}: {reason}", file=sys.stderr)
                return 1
            digests.append(workloads.svg_digest(out))
        recorded[str(seed)] = digests
    workloads.DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"recorded {sum(map(len, recorded.values()))} digests in {workloads.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
