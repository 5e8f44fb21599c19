"""The experiment scripts still run against the package, at small sizes,
the benchmark's tracer still installs on it, and README's size figures
match the tree."""

import importlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import fairkcenter
from fairkcenter import FairnessSpec, Ladder

from conftest import stream

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
PERFBENCH = ROOT / "perfbench"


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
    lines = [json.loads(line) for line in runs[0].stdout.splitlines()]
    # the planted sizes do not reach the oracle-check pool: 468 instances per seed
    expected = ["planted-general"] * 2 + ["planted-semi"] * 2 + ["oracle-check"] * 468
    assert [line["workload"] for line in lines] == expected
    for line in lines[4:]:
        for mode in ("general", "semi"):
            counters = line["counters"][mode]
            assert counters["path"] in ("union", "one-over", "both-over", "swap", "overflow")
            assert counters["update_excess"] <= 0
            assert 0 <= counters["evals_skipped"] <= counters["distance_evals"]
    assert runs[1].stdout == runs[0].stdout


def test_ladder_fingerprint_results_keep_only_the_result_fields():
    # "result fields equal, counters may move" is then one cmp of two outputs
    argv = [sys.executable, str(SCRIPTS / "ladder_fingerprint.py"), "--n", "300", "--pool", "1", "--seeds", "1"]
    full, results = (
        subprocess.run(args, capture_output=True, text=True, timeout=300) for args in (argv, argv + ["--results"])
    )
    for proc in (full, results):
        assert proc.returncode == 0, proc.stderr
    fields = {
        "planted": ["workload", "seed", "dataset", "best_guess", "cost", "center_ids"],
        "oracle": ["workload", "seed", "instance", "r_opt", "oracle_ids", "outcomes"],
    }
    expected = [
        {field: line[field] for field in fields["oracle" if line["workload"] == "oracle-check" else "planted"]}
        for line in map(json.loads, full.stdout.splitlines())
    ]
    assert [line["workload"] for line in expected].count("oracle-check") == 468
    assert [json.loads(line) for line in results.stdout.splitlines()] == expected
    assert results.stdout == "".join(json.dumps(line) + "\n" for line in expected)


def test_resource_audit_prints_the_performed_count_beside_the_logical_one():
    argv = [sys.executable, str(SCRIPTS / "resource_audit.py"), "--n", "300", "--k", "6"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    logical = re.findall(r"^  distance evaluations  (\d+)\n  evaluations performed (\d+)  \(0\.\d\d of them\)$",
                         proc.stdout, re.M)
    assert len(logical) == 2, proc.stdout  # general and semi
    assert all(0 < int(performed) < int(total) for total, performed in logical)


def test_resource_audit_prints_a_lowest_guess_at_or_below_the_planted_radius():
    argv = [sys.executable, str(SCRIPTS / "resource_audit.py"), "--n", "300", "--k", "6"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lowest = re.findall(r"^  lowest guess          (\S+)\n  cost / lowest guess   (\S+)$", proc.stdout, re.M)
    assert len(lowest) == 2, proc.stdout  # general and semi
    # the planted radius 1.0 is the optimum, and the lowest guess bounds it
    assert all(0 < float(guess) <= 1.0 and float(ratio) > 0 for guess, ratio in lowest)


def test_resource_audit_labels_the_planted_radius_figure_and_notes_it_below_3k():
    # two points, one per group, caps (1, 1): the optimum is 0, not the
    # planted radius, so the figure over it is no ratio to the optimum
    note = "    (n < 3k: the planted radius only bounds the optimum from above)\n"
    for argv, noted in ((["--n", "2", "--k", "2"], 2), (["--n", "300", "--k", "6"], 0)):
        proc = subprocess.run([sys.executable, str(SCRIPTS / "resource_audit.py"), *argv],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert len(re.findall(r"^  cost / planted radius \d+\.\d{3}$", proc.stdout, re.M)) == 2, proc.stdout
        assert proc.stdout.count(note) == noted, proc.stdout
        assert "  ratio " not in proc.stdout
        assert proc.stdout.count("  cost / lowest guess   ") == 2, proc.stdout


def test_resource_audit_on_a_one_point_stream_reports_no_grid():
    # one point is one location: the ladder spawns no grid and evaluates nothing
    argv = [sys.executable, str(SCRIPTS / "resource_audit.py"), "--n", "1", "--k", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("  lowest guess          none (one location)\n") == 2, proc.stdout
    assert proc.stdout.count("  cost / lowest guess   none (one location)\n") == 2, proc.stdout
    assert proc.stdout.count("  evaluations performed 0  (none of them)\n") == 2, proc.stdout


def test_the_benchmark_tracer_still_installs(monkeypatch):
    # the tracer patches vars(owner)[name] owner by owner, so a traced method
    # moved off its class breaks the benchmark; this catches it in tier 1
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = ("core", "independent", "solver", "semi", "ladder", "oracle", "cli")
    fk = SimpleNamespace(**{m: importlib.import_module(f"fairkcenter.{m}") for m in modules})
    owners = [vars(fk)[m] for m in modules]
    owners += [v for m in owners[:] for v in vars(m).values() if isinstance(v, type) and v.__module__ == m.__name__]
    before = [dict(vars(owner)) for owner in owners]

    def changed():
        return {
            f"{owner.__name__}.{name}"
            for owner, was in zip(owners, before)
            for name in was.keys() | vars(owner).keys()
            if vars(owner).get(name) is not was.get(name)
        }

    # the last point leaves the lowest general rung over its group-2 cap
    # alone, so its finalize takes the one-over path, min_dist's only caller
    rows = [(0.0, 1), (9.0, 2), (3.0, 1), (14.0, 2), (21.0, 1), (30.0, 2), (2.0, 1), (40.0, 2), (1.0, 2), (51.0, 2)]
    tracer = tracing.Tracer()
    with tracer.installed(fk):
        patched = changed()
        semi_rows = sorted(rows, key=lambda row: row[1])
        for i, (mode, points) in enumerate([("general", stream(rows)), ("semi", stream(semi_rows))]):
            with tracer.solve_span(i):
                ladder = Ladder(FairnessSpec((1, 1)), mode=mode)
                for p in points:
                    ladder.observe(p)
                ladder.finish()
    assert not changed()  # every patched attribute is back
    traced = {
        "StreamInstance.process": "solver.process", "StreamInstance.finalize": "solver.finalize",
        "SemiInstance.process": "semi.process", "SemiInstance.finalize": "semi.finalize",
        "IndependentSet.offer": "independent.offer", "IndependentSet.nearest": "independent.nearest",
        "IndependentSet.min_dist": "independent.min_dist",
    }
    assert traced.keys() <= patched
    calls = tracer.totals()[0]
    assert all(calls[tracing.ID[span]] for span in traced.values()), dict(zip(tracing.NAMES, calls))


def test_bench_pairs_collects_one_pair_of_records_and_their_medians(tmp_path):
    # both sides are this tree, on the fastest workload and a short run
    root = SCRIPTS.parent
    argv = [
        sys.executable, str(SCRIPTS / "bench_pairs.py"), "--parent", str(root), "--change", str(root),
        "--workload", "oracle-check", "--pairs", "1", "--seconds", "0.1", "--out-dir", str(tmp_path),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    [out] = tmp_path.glob("BENCH_*.json")
    collection = json.loads(out.read_text())
    assert out.name == f"BENCH_{collection['parent']}.json" and collection["change"] == collection["parent"]
    [pair] = collection["pairs"]
    assert (pair["workload"], pair["seed"], pair["pair"], pair["first"]) == ("oracle-check", 1, 1, "parent")
    for side in ("parent", "change"):
        assert pair[side]["correct"] and pair[side]["workload"] == "oracle-check"
    [summary] = collection["medians"]
    assert summary["pairs"] == 1
    assert summary["change"]["solve_s"] == pair["change"]["metrics"]["solve_s"]["value"]
    assert set(summary["change_better_pairs"]) <= set(pair["parent"]["metrics"])
    # the bounds, read from BENCHMARK.json, and the metrics past them, printed last
    bench = json.loads((root / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    assert set(summary["relative_change"]) == set(summary["change_better_pairs"]) == set(end_to_end)
    assert set(summary["past_bound"]) <= set(end_to_end)
    assert f"past bound over 1 pairs: {', '.join(summary['past_bound']) or 'none'}\n" in proc.stdout
    module = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(module)
    module.loader.exec_module(bench_pairs)
    sides = [  # parent, change: lower-better rss 12% up, solve 15% down, p99 up from 0; higher-better points 30% down
        {"peak_rss_mb": 50.0, "solve_s": 0.2, "update_us_p99": 0.0, "points_per_s": 1000.0, "cost_ratio": 1.5},
        {"peak_rss_mb": 56.0, "solve_s": 0.17, "update_us_p99": 1.0, "points_per_s": 700.0, "cost_ratio": 1.5},
    ]
    pair = {"workload": "w", "seed": 1, "trace": 0}
    for side, values in zip(("parent", "change"), sides):
        pair[side] = {"metrics": {n: {"value": v} for n, v in values.items()}}
    [summary] = bench_pairs.medians([pair], end_to_end)
    assert summary["relative_change"] == pytest.approx(
        {"peak_rss_mb": 0.12, "solve_s": -0.15, "update_us_p99": None, "points_per_s": -0.3, "cost_ratio": 0.0}
    )
    assert summary["past_bound"] == ["peak_rss_mb", "update_us_p99", "points_per_s"]
    assert summary["change_better_pairs"] == {n: n == "solve_s" for n in sides[0]}


def test_readme_states_the_src_line_count_and_the_export_count():
    # the two size figures the roadmap tracks, kept true at every change
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"(\d+) lines under `src/` and exports (\d+) names", readme)
    assert len(stated) == 1, stated
    # as `cat src/fairkcenter/*.py | wc -l` counts them: newline characters
    lines = sum(path.read_bytes().count(b"\n") for path in (ROOT / "src" / "fairkcenter").glob("*.py"))
    assert (int(stated[0][0]), int(stated[0][1])) == (lines, len(fairkcenter.__all__))
