"""Smoke tests of the benchmark itself, at tiny sizes:

    python3 -m pytest perfbench -q

Every workload emits every metric BENCHMARK.json names, with its unit, in
both modes; counts repeat for a seed; broken output is counted as failed
operations instead of ending the run; and without the package source the
benchmark exits non-zero without printing a result.
"""

import json
import math
import shutil
import subprocess
import sys
from array import array
from dataclasses import dataclass, replace

import numpy as np
import pytest

import run
from speed import REF_NS, Chunks
from workloads import WORKLOADS, OracleWorkload, PlantedWorkload

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# the benchmark's workloads at a size that runs in a fraction of a second
TINY = {
    "planted-general": PlantedWorkload("planted-general", "general", 240, (4, 4), 2, 0.1, pool=3, traced=1),
    "planted-semi": PlantedWorkload("planted-semi", "semi", 240, (4, 4), 2, 0.1, pool=3, traced=1),
    "oracle-check": OracleWorkload("oracle-check", max_n=6, max_k=4, copies=1),
}


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert list(TINY) == list(WORKLOADS)
    assert SPEC["command"][1:] == ["perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result = run.run_benchmark(TINY[name], seed=3, seconds=0, trace=bool(trace), out_dir=tmp_path)
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in section}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result["messages"]
    if trace:
        spans = np.load(tmp_path / f"spans-{name}.npz")
        assert len(spans["start"]) > 0 and set(spans.files) >= {"names", "name", "start", "end", "parent", "solve"}
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_counts_repeat_for_a_seed(tmp_path):
    exact = ("cost_ratio", "stored_points_peak")
    first, second = (run.run_benchmark(TINY["planted-general"], 5, 0, False, tmp_path) for _ in range(2))
    assert [first["metrics"][m] for m in exact] == [second["metrics"][m] for m in exact]
    counted = ("independent.offer_calls", "ladder.distance_evals", "ladder.rungs_spawned", "semi.standins")
    first, second = (run.run_benchmark(TINY["planted-semi"], 5, 0, True, tmp_path) for _ in range(2))
    assert [first["metrics"][m] for m in counted] == [second["metrics"][m] for m in counted]


def test_chunks_scale_each_operation_by_its_chunk():
    chunks = Chunks(probe=False)
    for done in (2, 3, 4):
        chunks.close(done, chunks.mark + 1200)
    # the reference before and after each chunk: half speed, then back to full
    chunks.ref = array("q", [2 * REF_NS, 2 * REF_NS, REF_NS, REF_NS])
    assert chunks.seconds == 3600 / 1e9
    assert chunks.scaled_seconds() == (600 + 800 + 1200) / 1e9
    assert chunks.scale(array("q", [6, 6, 6, 6])).tolist() == [3, 3, 4, 6]


@dataclass(frozen=True)
class NoStorage(PlantedWorkload):
    """A contract no solve can meet."""

    @property
    def stored_cap(self) -> int:
        return 0


def test_checks_count_failures_instead_of_stopping(tmp_path):
    broken = NoStorage(**vars(TINY["planted-general"]))
    result = run.run_benchmark(broken, 1, 0, False, tmp_path)
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1
    assert "stored peak" in result["messages"][0]

    # shapes with k = 6 trip the oracle's exhaustive-search guard
    oversized = replace(TINY["oracle-check"], max_k=7)
    result = run.run_benchmark(oversized, 1, 0, False, tmp_path)
    assert 0 < result["failed"] < result["attempted"]
    assert any("SizeGuardError" in m for m in result["messages"])


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    args = ["--workload", "planted-general", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
