"""scripts/traffic_audit.py traces mc-small-support's set-up and one pass:
every package call of a power has one exponent, so the array-of-exponents
selection in numerics._by_policy is never reached, and its scalar side
choice is."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "traffic_audit.py"
NUMERICS = (ROOT / "src" / "missingmass" / "numerics.py").read_text().splitlines()


def audit(*args) -> dict[str, list[str]]:
    run = subprocess.run([sys.executable, str(SCRIPT), "--workload", "mc-small-support", *args],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert re.search(r"^mc-small-support: set-up and \d+ operations, 0 failed", run.stderr, re.M)
    rows = [row.split("\t") for row in run.stdout.splitlines()]
    return {row[0]: row[1:] for row in rows}


def numerics_line(text: str) -> str:
    [n] = [i for i, line in enumerate(NUMERICS, 1) if line.strip().startswith(text)]
    return f"numerics.py:{n}"


def test_by_policy_takes_only_its_scalar_side_choice():
    where = numerics_line("return np.where(above, _exp_times(")
    scalar = numerics_line("if not above:")
    reached = audit()
    assert reached.pop("line") == ["mc-small-support", "source"]
    assert where not in reached
    hits, source = reached[scalar]
    assert int(hits) > 0 and source == "if not above:"
    # the selection is a function-body line that the audit counts, unreached
    unreached = audit("--unreached")
    assert unreached[where][0].startswith("return np.where(above")
    assert scalar not in unreached
