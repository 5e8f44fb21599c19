"""The experiment scripts still run against the package, at small sizes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "argv, marker",
    [
        (["resource_audit.py", "--n", "300", "--k", "6"], "== semi =="),
        (["ratio_sweep.py", "--sizes", "300", "--runs", "1", "--k", "6"], "semi: max ratio"),
    ],
)
def test_script_exits_zero(argv, marker):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert marker in proc.stdout


def test_ladder_fingerprint_repeats_exactly():
    argv = [sys.executable, str(SCRIPTS / "ladder_fingerprint.py"), "--n", "300", "--pool", "2", "--seeds", "1"]
    runs = [subprocess.run(argv, capture_output=True, text=True, timeout=300) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    lines = runs[0].stdout.splitlines()
    assert [json.loads(line)["workload"] for line in lines] == ["planted-general"] * 2 + ["planted-semi"] * 2
    assert runs[1].stdout == runs[0].stdout
