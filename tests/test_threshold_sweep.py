from __future__ import annotations

import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "scripts", "threshold_sweep.py")


def run_quick(out_dir, workers):
    # in a subprocess with a timeout, so that a hung pool fails this test
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--quick", "--workers", str(workers),
         "--out", str(out_dir)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {name: (out_dir / name).read_bytes()
            for name in ("free_transition.csv", "fa_transition.csv")}


def test_quick_sweep_csvs_identical_across_worker_counts(tmp_path):
    one = run_quick(tmp_path / "w1", 1)
    two = run_quick(tmp_path / "w2", 2)
    assert one == two
    assert all(data.startswith(b"m,ell,model,p,") for data in one.values())
