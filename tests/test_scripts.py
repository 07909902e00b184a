"""The experiment scripts run to completion against the package, and
print exactly the output pinned in ``golden/``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def _run(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_delay_sweep_reproduces_the_counts():
    result = _run("delay_sweep.py")
    assert result.returncode == 0, result.stderr
    assert "41 unflagged and equivalent, 59 flagged and genuinely divergent, 0 flagged" in result.stdout
    assert result.stdout == (GOLDEN / "delay_sweep.stdout").read_text()


def test_delay_sweep_prints_the_same_stdout_every_run():
    first, second = _run("delay_sweep.py"), _run("delay_sweep.py")
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    assert first.stdout == second.stdout
    assert "instances in" in first.stderr


def test_reproduce_tables_runs():
    result = _run("reproduce_tables.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("R1 ok, R2 ok") == 3
    assert result.stdout == (GOLDEN / "reproduce_tables.stdout").read_text()
