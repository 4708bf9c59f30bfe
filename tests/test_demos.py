"""The demo scripts run end to end and every envelope check they print passes."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, check, n_checks", [
    ("iss_envelope_demo.py", "pass=", 4),
    ("backstepping_demo.py", "envelope holds: ", 2),
], ids=["iss_envelope_demo", "backstepping_demo"])
def test_demo_checks_pass(tmp_path, script, check, n_checks):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    verdicts = [line.split(check)[1].split()[0] for line in proc.stdout.splitlines()
                if check in line]
    assert verdicts == ["True"] * n_checks, proc.stdout
