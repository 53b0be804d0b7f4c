"""What the benchmark in perfbench/ needs of the package: a short untraced run
succeeds, names the kernel, and every kernel function is traced under the
``kernel`` layer.  A change in src/ that dropped ``backend_name`` or moved
the kernels out of a traced module would make every benchmark run fail.  A
short render run on seed 1 also reproduces that seed's recorded SVG digests."""

from __future__ import annotations

import ast
import inspect
import json
import subprocess
import sys
from pathlib import Path

from fordcircles import _kernel

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_short_run_names_the_backend_and_passes():
    run = subprocess.run(
        [sys.executable, "-B", str(PERFBENCH / "run.py"), "--workload", "check-rational",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    env = [line for line in lines if line.startswith("env ")]
    assert len(env) == 1
    assert json.loads(env[0][len("env "):])["backend"] == "pure"
    last = json.loads(lines[-1])
    assert last["correct"] is True and last["failed"] == 0


def test_render_matches_the_held_out_digests():
    # seed 1's 60 documents are compared with perfbench/render_digests.json,
    # so a byte of SVG that moves fails the benchmark's correctness check
    run = subprocess.run(
        [sys.executable, "-B", str(PERFBENCH / "run.py"), "--workload", "render",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    last = json.loads(run.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0


def test_kernel_functions_are_traced_as_kernel():
    # perfbench is read, not imported: it is not a package on the test path
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["LAYERS"])
    public = [obj for name, obj in vars(_kernel).items()
              if not name.startswith("_") and inspect.isfunction(obj)]
    assert {fn.__name__ for fn in public} >= {"backend_name", "best_flag", "near_flag",
                                              "witness_flag", "best_set", "near_set",
                                              "witness_set"}
    for fn in public:
        assert layers.get(fn.__module__) == "kernel", fn.__name__
