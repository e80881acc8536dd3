"""The fixed-run fingerprint tool, and the graph size it reports at the
default config.

No hash is pinned: the hashes depend on the BLAS build. The graph counts
and model calls do not, so they hold the size of a train step's autodiff
graph (nodes reachable from the loss) where a regression shows. The tool
runs twice, on every CPU and limited to one, so that both of eval's
sampler paths (forked workers, in-process) are hashed; every hashed line
must agree.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


def fingerprint(one_cpu: bool):
    """The tool's output lines, run with the BLAS thread variables unset
    (OpenBLAS then starts one thread per CPU), on every CPU this process
    may use or on one of them (which keeps eval in-process)."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    cpus = {min(os.sched_getaffinity(0))} if one_cpu else os.sched_getaffinity(0)
    run = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                         timeout=300, env=env, preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_fingerprint_reports_hashes_graph_nodes_and_model_calls():
    # on every CPU, eval samples its 3 clips in one forked worker per CPU;
    # on one CPU, in-process: both paths must hash alike
    pooled, in_process = fingerprint(one_cpu=False), fingerprint(one_cpu=True)
    assert f"eval workers: {min(3, len(os.sched_getaffinity(0)))} (not hashed)" in pooled
    assert "eval workers: 1 (not hashed)" in in_process
    for lines in (pooled, in_process):
        hashes = [line.split() for line in lines if re.fullmatch(r"\w+ +[0-9a-f]{64}", line)]
        assert [name for name, _ in hashes] == [
            "prepared", "losses", "params", "videos", "rows", "checkpoint", "all"], lines
        # only what a gradient reaches: no constant operand is a graph node
        assert any(line.startswith("graph nodes per clip step: max 307,") for line in lines), lines
        assert any(line.startswith("graph nodes per frame step: max 308,")
                   for line in lines), lines
        for mode in ("clip", "frame"):
            assert f"model_forward calls per {mode}-mode sample(): 4 at 4 steps" in lines, lines
    assert [line for line in pooled if "(not hashed)" not in line] == \
        [line for line in in_process if "(not hashed)" not in line]
