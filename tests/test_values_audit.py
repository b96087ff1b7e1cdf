"""scripts/values_audit.py keeps working: --quick prints one well-formed line
per key, and --compare against this checkout finds no difference."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "values_audit.py"
VALUE = re.compile(r"True|False|-?\d+|-?0x[01]\.[0-9a-f]+p[-+]\d+|float64\[[\dx]+\]:[0-9a-f]{64}"
                   r"|int64\[\d+\]:[0-9a-f]{64}")


def audit(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(SCRIPT), "--quick", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_quick_lines():
    run = audit()
    assert run.returncode == 0, run.stderr
    pairs = [line.split(" ") for line in run.stdout.splitlines()]
    assert all(len(p) == 2 and VALUE.fullmatch(p[1]) for p in pairs), run.stdout
    keys = [k for k, _ in pairs]
    assert len(set(keys)) == len(keys) > 200
    assert "cloud/d130/n64/distances" in keys and "cloud/matrix/n19/eps0/exact" in keys
    assert "mc/d12/n20/t10/s1/estimate" in keys and "mc/d2/n700/t100/s6/estimate" in keys
    assert "mc/bias/exp50/t10/s10/estimate" in keys
    assert "mc/concentration/exp50/t10/s10/exceed_freq" in keys
    assert "mc/rows/bias/exp50/t10/s10" in keys and "mc/index/exp50/t10/r20000/s10" in keys
    assert "closed/tiny50/scan60/bias/t64" in keys
    assert "closed/exp50/scan1000/emm/t1024" in keys
    assert "closed/curve/geometric0.5/1e9/0/upper/t999999930" in keys
    assert "extremal/max/n10/t40/value" in keys
    assert "extremal/oracle/t5/s0.001/value" in keys and "extremal/oracle/t40/s0.001/point" in keys
    assert "numerics/sum/e1021/n512/s0" in keys and "numerics/rows/64x24/axis0/63" in keys


def test_compare_with_itself():
    run = audit("--compare", str(ROOT))
    assert (run.returncode, run.stdout) == (0, "")
    assert re.fullmatch(r"\d+ keys, 0 differ\n", run.stderr)
