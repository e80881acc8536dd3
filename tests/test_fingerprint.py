"""The fixed-run fingerprint tool, and the graph size it reports at the
default config.

No hash is pinned: the hashes depend on the BLAS build. The graph counts
and model calls do not, so they hold the size of a train step's autodiff
graph (nodes reachable from the loss) where a regression shows. The tool
runs twice, unpinned and on one BLAS thread, so that both of eval's
sampler paths are hashed; every hashed line must agree.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


def fingerprint(pinned: bool):
    """The tool's output lines, run with the BLAS thread variables unset, or
    with OpenBLAS pinned to one thread (which lets eval fork workers)."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if pinned:
        env["OPENBLAS_NUM_THREADS"] = "1"
    run = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                         timeout=300, env=env)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_fingerprint_reports_hashes_graph_nodes_and_model_calls():
    # unpinned, eval samples in-process; pinned to one BLAS thread on two or
    # more CPUs, in forked workers: both paths must hash alike
    unpinned, pinned = fingerprint(pinned=False), fingerprint(pinned=True)
    for lines in (unpinned, pinned):
        hashes = [line.split() for line in lines if re.fullmatch(r"\w+ +[0-9a-f]{64}", line)]
        assert [name for name, _ in hashes] == [
            "prepared", "losses", "params", "videos", "rows", "checkpoint", "all"], lines
        # only what a gradient reaches: no constant operand is a graph node
        assert any(line.startswith("graph nodes per clip step: max 307,") for line in lines), lines
        assert any(line.startswith("graph nodes per frame step: max 308,")
                   for line in lines), lines
        for mode in ("clip", "frame"):
            assert f"model_forward calls per {mode}-mode sample(): 4 at 4 steps" in lines, lines
        assert any(re.fullmatch(r"eval workers: [1-9]\d* \(not hashed\)", line)
                   for line in lines), lines
    assert [line for line in unpinned if "(not hashed)" not in line] == \
        [line for line in pinned if "(not hashed)" not in line]
