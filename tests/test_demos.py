"""The narrative demos run to completion and report their checks as held."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# lines a demo must print, with how often
EXPECTED = {
    "01_nondeterministic_protocols.py": ("zero pattern exact: True", 4),
    "03_distributed_intersection.py": ("cheaper than BCW: True", 4),
    "04_rank_lab.py": ("ok = True", 1),
}


@pytest.mark.parametrize("name", sorted(p.name for p in
                                        (ROOT / "demos").glob("*.py")))
def test_demo_runs_and_its_checks_hold(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    res = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "zero pattern exact: False" not in res.stdout
    assert "ok = False" not in res.stdout
    if name in EXPECTED:
        line, count = EXPECTED[name]
        assert res.stdout.count(line) == count, res.stdout
