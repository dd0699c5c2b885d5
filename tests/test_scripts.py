"""Smoke tests for scripts/: each runs in a fresh interpreter and exits 0.

Nothing else imports the scripts, so a library parameter they still pass
would break them silently without these runs.  The inputs are the smallest
that still take every script through its whole loop.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("marginal_vs_meanfield.py", ["--N", "4", "--sweeps", "50", "--bins", "10"]),
        ("free_energy_scan.py", ["--budget", "2000"]),
        ("selberg_convergence.py", []),
        ("lane_rate.py", ["--sweeps", "1", "--repeat", "1"]),
    ],
    ids=["marginal_vs_meanfield", "free_energy_scan", "selberg_convergence", "lane_rate"],
)
def test_script_exits_zero(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
