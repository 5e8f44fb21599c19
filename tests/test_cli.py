import contextlib
import io
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairkcenter.cli import CsvFormatError, PointReader, main


def reader_for(text, **kwargs):
    return PointReader(io.StringIO(text), **kwargs)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


BOTH_OVER_CSV = "x,group\n0,1\n100,1\n0.5,2\n100.5,2\n"


# ----------------------------------------------------------------------
# ingestion
# ----------------------------------------------------------------------
def test_reader_basic():
    points = list(reader_for("x,y,group\n0,0,1\n1,2,2\n"))
    assert [(p.id, p.coords, p.group) for p in points] == [
        (0, (0.0, 0.0), 1),
        (1, (1.0, 2.0), 2),
    ]


def test_reader_maps_string_labels_by_first_appearance():
    reader = reader_for("x,group\n0,blue\n1,red\n2,blue\n")
    points = list(reader)
    assert [p.group for p in points] == [1, 2, 1]
    assert reader.group_labels == ["blue", "red"]


def test_reader_non_numeric_feature():
    with pytest.raises(CsvFormatError, match="line 2"):
        list(reader_for("x,y,group\na,0,1\n"))


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_reader_non_finite_feature_names_line_and_column(cell):
    with pytest.raises(CsvFormatError, match=f"line 3: non-finite value '{cell}' in column 1"):
        list(reader_for(f"x,y,group\n0,0,1\n0,{cell},2\n"))


@pytest.mark.parametrize("cell", ["", "  "])
def test_reader_refuses_an_empty_group_cell_naming_line_and_column(cell):
    with pytest.raises(CsvFormatError, match="^line 3: empty group value in column 1$"):
        list(reader_for(f"x,group\n0,a\n5,{cell}\n10,a\n"))


def test_reader_ragged_row():
    with pytest.raises(CsvFormatError, match="line 3"):
        list(reader_for("x,y,group\n0,0,1\n0,1\n"))


def test_reader_too_many_groups():
    with pytest.raises(CsvFormatError, match="caps"):
        list(reader_for("x,group\n0,1\n1,2\n2,3\n", max_groups=2))


def test_reader_group_sorted_violation_carries_line_number():
    with pytest.raises(CsvFormatError, match="line 4"):
        list(reader_for("x,group\n0,1\n1,2\n2,1\n", require_group_sorted=True))


def test_reader_group_column_by_index():
    points = list(reader_for("a,b,c\n1,9,2\n", group_col="1"))
    assert points[0].coords == (1.0, 2.0)
    assert points[0].group == 1


def test_reader_missing_group_column():
    with pytest.raises(CsvFormatError, match="line 1"):
        reader_for("x,y\n0,0\n", group_col="group")


def test_reader_empty_file():
    with pytest.raises(CsvFormatError, match="empty input"):
        reader_for("")


def test_reader_group_column_index_out_of_range():
    with pytest.raises(CsvFormatError, match="^line 1: group column index 5 out of range$"):
        reader_for("x,group\n0,1\n", group_col="5")


def test_reader_skips_a_blank_row_and_keeps_ids_consecutive():
    points = list(reader_for("x,group\n0,1\n\n2,2\n"))
    assert [(p.id, p.coords, p.group) for p in points] == [(0, (0.0,), 1), (1, (2.0,), 2)]
    # the blank row still counts toward the line numbers errors name
    with pytest.raises(CsvFormatError, match="^line 5: "):
        list(reader_for("x,group\n0,1\n\n2,2\nbad,1\n"))


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def test_known_mode_reproduces_the_both_over_scenario(tmp_path, capsys):
    path = write(tmp_path, "both_over.csv", BOTH_OVER_CSV)
    rc = main(["known", "--input", path, "--caps", "1,1", "--radius", "0.5"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "fairkcenter-report/1"
    assert [c["coords"][0] for c in report["centers"]] == [0.0, 100.5]
    assert report["cost"] == 0.5
    assert report["per_group_counts"] == [1, 1]


def test_known_mode_infeasible_exits_nonzero(tmp_path, capsys):
    path = write(tmp_path, "both_over.csv", BOTH_OVER_CSV)
    rc = main(["known", "--input", path, "--caps", "1,1", "--radius", "0.01"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "fairkcenter-error/1"


def test_no_replay_omits_cost(tmp_path, capsys):
    path = write(tmp_path, "both_over.csv", BOTH_OVER_CSV)
    rc = main(["known", "--input", path, "--caps", "1,1", "--radius", "0.5", "--no-replay"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert "cost" not in report


def test_gen_then_oracle_round_trip(tmp_path, capsys):
    csv_path = str(tmp_path / "planted.csv")
    rc = main(["gen", "--caps", "1,1", "--n", "10", "--radius", "1.0", "--seed", "8", "--out", csv_path])
    assert rc == 0
    gen_report = json.loads(capsys.readouterr().out)
    assert gen_report["planted_r"] == 1.0
    rc = main(["oracle", "--input", csv_path, "--caps", "1,1"])
    assert rc == 0
    oracle_report = json.loads(capsys.readouterr().out)
    assert oracle_report["r_opt"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--radius", "1.0", "--dim", "0"], "dim must be at least 1, got 0"),
        (["--radius", "1.0", "--separation", "nan"], "separation must be finite and at least 4"),
        (["--radius", "nan"], "planted radius must be positive and finite, got nan"),
        (["--radius", "1e308"], "radius 1e+308 and separation 4.0 overflow the sampling square's side"),
        # the side is finite, but the anchor check's squared distances would overflow
        (["--radius", "1e154"], "radius 1e+154 and separation 4.0 overflow the sampling square's side or squared"),
    ],
)
def test_gen_refuses_an_argument_the_generator_cannot_use(tmp_path, capsys, argv, message):
    # each used to fail inside numpy, or divide by zero, with a message naming no argument
    csv_path = tmp_path / "planted.csv"
    rc = main(["gen", "--caps", "1,1", "--n", "10", *argv, "--out", str(csv_path)])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "fairkcenter-error/1"
    assert payload["error"]["kind"] == "ValueError"
    assert payload["error"]["message"].startswith(message)
    assert not csv_path.exists()


def test_solve_mode_on_planted_csv(tmp_path, capsys):
    csv_path = str(tmp_path / "planted.csv")
    main(["gen", "--caps", "2,2", "--n", "80", "--radius", "1.0", "--seed", "6", "--out", csv_path])
    capsys.readouterr()
    out_path = str(tmp_path / "report.json")
    rc = main(["solve", "--input", csv_path, "--caps", "2,2", "--out", out_path])
    assert rc == 0
    report = json.loads(Path(out_path).read_text(encoding="utf-8"))
    assert report["cost"] <= 5.0 * 1.1 * 1.0 + 1e-9
    assert report["per_group_counts"][0] <= 2 and report["per_group_counts"][1] <= 2
    assert report["instances"]["spawned"] >= report["instances"]["live"]
    # the reported storage peak respects the per-instance-cap-times-instances bound
    assert report["stored_points_peak"] <= report["instances"]["spawned"] * (2 * 4 + 2)


def test_semi_mode_requires_sorted_input(tmp_path, capsys):
    path = write(tmp_path, "unsorted.csv", "x,group\n0,1\n1,2\n2,1\n")
    rc = main(["semi", "--input", path, "--caps", "1,1"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert "line 4" in payload["error"]["message"]


def test_semi_mode_on_sorted_input(tmp_path, capsys):
    path = write(tmp_path, "sorted.csv", "x,group\n0,1\n9,1\n20,2\n29,2\n40,1000\n")
    rc = main(["semi", "--input", path, "--caps", "2,2", "--k", "4"])
    # the fifth row introduces a third group label, which the caps reject
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert "line 6" in payload["error"]["message"]


def test_bench_emits_rows(tmp_path, capsys):
    path = write(tmp_path, "tiny.csv", "x,group\n0,1\n1,2\n10,1\n11,2\n")
    rc = main(["bench", "--input", path, "--caps", "1,1"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    algos = {row["algorithm"] for row in rows}
    assert {"oracle", "ladder-general", "gonzalez"} <= algos
    ladder_row = next(r for r in rows if r["algorithm"] == "ladder-general")
    assert ladder_row["caps_respected"] is True
    assert ladder_row["ratio"] is not None


def test_bench_past_the_oracle_size_guard_has_no_oracle_row_and_no_ratios(tmp_path, capsys):
    # 20 points exceed the exhaustive oracle's n <= 16 guard
    rows_csv = "".join(f"{10 * i},{1 + i % 2}\n" for i in range(20))
    path = write(tmp_path, "twenty.csv", "x,group\n" + rows_csv)
    rc = main(["bench", "--input", path, "--caps", "1,1"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows and "oracle" not in {row["algorithm"] for row in rows}
    assert all(row["ratio"] is None and row["caps_respected"] for row in rows)


def test_gen_without_out_is_a_structured_error(capsys):
    rc = main(["gen", "--caps", "1,1", "--n", "10", "--radius", "1.0"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "fairkcenter-error/1"
    assert payload["error"]["message"] == "gen mode requires --out (the CSV path to write)"


def test_bench_includes_the_sorted_stream_solver_on_sorted_input(tmp_path, capsys):
    path = write(tmp_path, "sorted.csv", "x,group\n0,1\n10,1\n1,2\n11,2\n")
    rc = main(["bench", "--input", path, "--caps", "1,1"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    semi_row = next(r for r in rows if r["algorithm"] == "ladder-semi")
    assert semi_row["caps_respected"] is True
    oracle_row = next(r for r in rows if r["algorithm"] == "oracle")
    assert semi_row["cost"] <= 3.0 * 1.1 * oracle_row["cost"] + 1e-9


def test_caps_and_k_must_agree(tmp_path, capsys):
    path = write(tmp_path, "tiny.csv", "x,group\n0,1\n1,2\n")
    rc = main(["solve", "--input", path, "--caps", "1,1", "--k", "3"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert "does not match" in payload["error"]["message"]


def test_missing_input_file(tmp_path, capsys):
    rc = main(["solve", "--input", str(tmp_path / "nope.csv"), "--caps", "1,1"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["kind"] == "FileNotFoundError"


def test_reports_are_byte_identical_modulo_wall_time(tmp_path):
    import re

    csv_path = str(tmp_path / "planted.csv")
    main(["gen", "--caps", "2,2", "--n", "60", "--radius", "1.0", "--seed", "3", "--out", csv_path])
    reports = []
    for i in range(2):
        out_path = str(tmp_path / f"report{i}.json")
        assert main(["solve", "--input", csv_path, "--caps", "2,2", "--seed", "3", "--out", out_path]) == 0
        text = Path(out_path).read_text(encoding="utf-8")
        reports.append(re.sub(r'"wall_time_s": [^,}\n]+', '"wall_time_s": _', text))
    assert reports[0] == reports[1]


def test_header_only_csv_is_a_structured_error(tmp_path, capsys):
    path = write(tmp_path, "empty.csv", "x,group\n")
    for argv, message in [
        (["solve"], "empty stream"),
        (["semi"], "empty stream"),
        (["known", "--radius", "1.0"], "empty input: no data rows"),
        (["bench"], "empty input file"),
        (["oracle"], "empty dataset"),
    ]:
        rc = main([argv[0], "--input", path, "--caps", "1,1", *argv[1:]])
        assert rc == 1, argv
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "fairkcenter-error/1"
        assert payload["error"] == {"kind": "ValueError", "message": message}, argv


def test_stdin_input_skips_the_cost_replay(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(BOTH_OVER_CSV))
    rc = main(["known", "--input", "-", "--caps", "1,1", "--radius", "0.5"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert "cost" not in report
    assert [c["coords"][0] for c in report["centers"]] == [0.0, 100.5]


@pytest.mark.parametrize("header", ["group,x", '"group","x"'])
def test_a_leading_byte_order_mark_is_dropped_from_files_and_stdin(tmp_path, capsys, monkeypatch, header):
    body = header + "\na,0\nb,5\na,10\n"
    reports = []
    for text in (body, "\ufeff" + body):
        path = write(tmp_path, "points.csv", text)
        for source in (path, "-"):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            assert main(["solve", "--caps", "1,1", "--input", source]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["group_labels"] == ["a", "b"]
            reports.append((source == "-", [c["id"] for c in report["centers"]]))
    assert reports[2:] == reports[:2]


@pytest.mark.parametrize("cell", ["nan", "inf"])
@pytest.mark.parametrize("mode", [["solve"], ["semi"], ["oracle"], ["known", "--radius", "1.0"]])
def test_non_finite_cell_is_a_structured_error(tmp_path, capsys, mode, cell):
    path = write(tmp_path, "bad.csv", f"x,y,group\n0,0,1\n1,1,1\n{cell},2,2\n3,3,2\n")
    rc = main([mode[0], "--input", path, "--caps", "1,1"] + mode[1:])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "fairkcenter-error/1"
    assert payload["error"]["kind"] == "CsvFormatError"
    assert payload["error"]["message"] == f"line 4: non-finite value '{cell}' in column 0"


def test_empty_group_cell_is_a_structured_error(tmp_path, capsys):
    # without the check the blank-labelled point became the only center, exit 0
    path = write(tmp_path, "blank.csv", "x,group\n0,a\n5,\n10,a\n")
    rc = main(["solve", "--input", path, "--caps", "1,1"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "fairkcenter-error/1"
    assert payload["error"]["kind"] == "CsvFormatError"
    assert payload["error"]["message"] == "line 3: empty group value in column 1"


def test_malformed_caps_are_a_structured_error(tmp_path, capsys):
    path = write(tmp_path, "tiny.csv", "x,group\n0,1\n1,2\n")
    rc = main(["solve", "--input", path, "--caps", "1,x"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "fairkcenter-error/1"
    assert payload["error"]["kind"] == "ValueError"


@pytest.mark.parametrize("caps, field", [("1,,1", "field 2 of 3"), ("1,1,", "field 3 of 3")])
def test_an_empty_caps_field_is_a_structured_error(tmp_path, capsys, caps, field):
    # an empty field used to be dropped, so both strings ran with caps (1, 1)
    path = write(tmp_path, "tiny.csv", "x,group\n0,1\n1,2\n")
    rc = main(["solve", "--input", path, "--caps", caps])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "fairkcenter-error/1"
    assert payload["error"] == {"kind": "ValueError", "message": f"--caps '{caps}': {field} is empty"}


@pytest.mark.parametrize("radius", ["inf", "nan", "-1"])
def test_non_finite_radius_is_a_structured_error(tmp_path, capsys, radius):
    # a negative radius meets the same check as a non-finite one
    path = write(tmp_path, "both_over.csv", BOTH_OVER_CSV)
    rc = main(["known", "--input", path, "--caps", "1,1", "--radius", radius])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "fairkcenter-error/1"
    assert payload["error"]["kind"] == "ValueError"
    assert "finite" in payload["error"]["message"]


def test_an_epsilon_that_vanishes_beside_one_is_a_structured_error(tmp_path, capsys):
    # the ladder used to climb one float ulp per grid step here and never finish
    path = write(tmp_path, "tiny.csv", "x,group\n0,1\n1,2\n10,1\n20,2\n")
    rc = main(["solve", "--input", path, "--caps", "1,1", "--epsilon", "1e-17"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "fairkcenter-error/1"
    assert payload["error"] == {"kind": "ValueError", "message": "epsilon 1e-17 is too small: 1 + epsilon rounds to 1"}


def test_non_finite_report_value_is_a_structured_error(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "both_over.csv", BOTH_OVER_CSV)
    monkeypatch.setattr("fairkcenter.cli.run", lambda config: {"r_hat": float("nan")})
    rc = main(["known", "--input", path, "--caps", "1,1", "--radius", "0.5"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "fairkcenter-error/1"
    assert "JSON" in payload["error"]["message"]


def test_unwritable_report_path_reports_on_stdout(tmp_path, capsys):
    path = write(tmp_path, "both_over.csv", BOTH_OVER_CSV)
    out_path = str(tmp_path / "missing-dir" / "report.json")
    rc = main(["known", "--input", path, "--caps", "1,1", "--radius", "0.5", "--out", out_path])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["kind"] == "FileNotFoundError"


def test_overflowing_distances_still_get_an_answer(tmp_path, capsys):
    # math.dist overflows to inf between the two huge rows, so the top guess's
    # covering threshold is inf too; an empty set must not count as covering.
    # Points 0, 1 and 2 are pairwise more than twice 3.49e307 apart, so the
    # certificate refutes that rung and a higher one answers at the same cost
    path = write(tmp_path, "huge.csv", "x,group\n1e308,1\n-1e308,2\n0,1\n5,2\n")
    rc = main(["solve", "--input", path, "--caps", "1,1"])
    out = capsys.readouterr().out
    assert rc == 0
    report = json.loads(out, parse_constant=lambda name: pytest.fail(f"non-strict JSON constant {name}"))
    assert sorted(c["id"] for c in report["centers"]) == [0, 1]
    assert report["cost"] == 1e308


def test_an_oracle_whose_every_cost_overflows_says_so(tmp_path, capsys):
    # {1e308} is cap-feasible, but its distance to -1e308 overflows to inf:
    # the error must name the overflow, not claim no feasible set exists
    path = write(tmp_path, "huge.csv", "x,group\n1e308,1\n-1e308,2\n")
    rc = main(["oracle", "--input", path, "--caps", "1,0"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "fairkcenter-error/1"
    assert payload["error"]["kind"] == "ValueError"
    assert payload["error"]["message"] == (
        "every cap-feasible center set has a non-finite cost "
        "(the distances overflow the float range or are NaN)"
    )


@pytest.mark.parametrize("mode", ["solve", "bench"])
def test_an_overflowing_cost_is_reported_as_an_overflow(tmp_path, capsys, mode):
    # with group 2 capped at zero only a rung at a huge guess could keep the
    # point at 1e308 alone, and three times that guess overflows: the run
    # stops at that rung's guard, before any cost is replayed
    path = write(tmp_path, "huge.csv", "x,group\n1e308,1\n-1e308,2\n0,1\n5,2\n")
    rc = main([mode, "--input", path, "--caps", "1,0"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "fairkcenter-error/1"
    assert payload["error"] == {
        "kind": "OverflowError",
        "message": "three times the radius guess 8.988465674311579e+307 overflowed the float range",
    }


@pytest.mark.parametrize("argv", [["known", "--radius", "0.5"], ["bench"]], ids=["known", "bench"])
def test_a_replayed_cost_that_overflows_is_reported_as_an_overflow(tmp_path, capsys, monkeypatch, argv):
    # the rung guard above stops every input known to overflow before its
    # cost is replayed, so the cost function is patched to give inf
    path = write(tmp_path, "both_over.csv", BOTH_OVER_CSV)
    monkeypatch.setattr("fairkcenter.cli.clustering_cost", lambda points, centers: math.inf)
    rc = main([argv[0], "--input", path, "--caps", "1,1", *argv[1:]])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "fairkcenter-error/1"
    assert payload["error"] == {
        "kind": "OverflowError",
        "message": "the clustering cost overflowed the float range (inf)",
    }


def test_duplicates_do_not_lift_the_lowest_guess_above_the_optimum(tmp_path, capsys):
    # the optimum is 0.1 (centers 0 and 100.1). The first k+2 = 4 rows hold
    # only two locations, 100 apart, so a grid started at their smallest gap
    # answered r_hat 100 at cost 100.1; farthest-first over the distinct
    # locations puts the third pick 0.1 from the first two
    path = write(tmp_path, "dups.csv", "x,group\n0,1\n0,2\n100,1\n100,2\n0.1,1\n100.1,2\n")
    rc = main(["solve", "--input", path, "--caps", "1,1"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["r_hat"] <= 0.11
    assert report["cost"] <= 0.1 * 5.5


def test_a_subnormal_gap_does_not_stretch_the_grid(tmp_path, capsys):
    # 0 and 5e-324 are the closest pair, but farthest-first starts the grid
    # at half of 10 instead of at 5e-324, which spawned 7821 rungs
    path = write(tmp_path, "subnormal.csv", "x,group\n0,1\n5e-324,2\n10,1\n20,2\n")
    rc = main(["solve", "--input", path, "--caps", "1,1"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["instances"]["spawned"] < 20


HUGE_CSV = "x,group\n1e308,1\n-1e308,2\n0,1\n5,2\n"


@pytest.mark.parametrize(
    "argv, text",
    [
        (["solve", "--caps", "1,0", "--no-replay"], HUGE_CSV),
        (["semi", "--caps", "1,0", "--no-replay"], "x,group\n1e308,1\n0,1\n-1e308,2\n5,2\n"),
        (["known", "--caps", "1,0", "--radius", "1e308", "--no-replay"], HUGE_CSV),
    ],
    ids=["solve", "semi", "known"],
)
def test_a_rung_whose_radii_overflow_is_an_error(tmp_path, capsys, argv, text):
    # the bootstrap gap (or the fixed guess) is 1e308, so three guesses, the
    # largest radius any selection path compares against, are inf: no rung
    # may stand there, with or without the cost replay
    path = write(tmp_path, "huge.csv", text)
    rc = main([argv[0], "--input", path, *argv[1:]])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "fairkcenter-error/1"
    assert payload["error"]["kind"] == "OverflowError"
    assert "overflowed the float range" in payload["error"]["message"]


# ----------------------------------------------------------------------
# reports pinned byte for byte
# ----------------------------------------------------------------------
PINNED_CSV = (
    "x,y,group\n"
    "0,0,a\n10,0,b\n0.5,0.5,a\n10.4,0.3,b\n5,8,a\n0,9.5,b\n"
    "5.5,8.2,a\n20,1,b\n-3,2,a\n19.5,1.5,b\n0.2,-0.4,b\n4.8,7.6,a\n"
)
PINNED_SORTED_CSV = "x,y,group\n" + "".join(
    sorted(PINNED_CSV.splitlines(keepends=True)[1:], key=lambda row: row.rstrip().split(",")[-1])
)
PINNED_RUNS = {
    "solve": ["solve", "--caps", "2,2", "--seed", "7"],
    "solve-no-replay": ["solve", "--caps", "2,2", "--no-replay", "--epsilon", "0.2"],
    "semi": ["semi", "--caps", "2,2"],
    "known": ["known", "--caps", "2,2", "--radius", "2.0"],
    "known-semi": ["known", "--caps", "2,2", "--radius", "2.0", "--semi"],
    "known-infeasible": ["known", "--caps", "2,2", "--radius", "0.3"],
    "oracle": ["oracle", "--caps", "2,2"],
    "bench": ["bench", "--caps", "2,2"],
}
PINNED_PATH = Path(__file__).with_name("golden") / "cli_reports.json"


def _masked(text, tmp_dir):
    text = re.sub(r'"(wall_time_s|runtime_s)": [^,}\n]+', r'"\1": _', text)
    return text.replace(str(tmp_dir), "<tmp>")


def pinned_reports(tmp_dir):
    """Exit code and masked report text of every pinned run, keyed by name.
    Only timings and file paths are masked; everything else, key order and
    indentation included, is compared as text. ``golden/cli_reports.json``
    holds this function's output as captured before the CLI was folded onto
    argparse handlers; rewrite it only for an intended report change."""
    tmp_dir = Path(tmp_dir)
    reports = {}
    for data_name, text in (("mixed", PINNED_CSV), ("sorted", PINNED_SORTED_CSV)):
        csv_path = tmp_dir / f"{data_name}.csv"
        csv_path.write_text(text, encoding="utf-8")
        for run_name, argv in PINNED_RUNS.items():
            out = tmp_dir / f"{data_name}-{run_name}.json"
            rc = main([argv[0], "--input", str(csv_path), *argv[1:], "--out", str(out)])
            reports[f"{data_name}/{run_name}"] = f"exit {rc}\n" + _masked(out.read_text(), tmp_dir)
    gen_csv = tmp_dir / "gen.csv"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        argv = ["gen", "--caps", "2,1", "--n", "9", "--radius", "1.5", "--seed", "4", "--out", str(gen_csv)]
        rc = main(argv)
    reports["gen"] = f"exit {rc}\n" + _masked(stdout.getvalue(), tmp_dir)
    reports["gen/csv"] = gen_csv.read_text()
    return reports


def test_reports_match_the_pinned_text(tmp_path):
    expected = json.loads(PINNED_PATH.read_text(encoding="utf-8"))
    actual = pinned_reports(tmp_path)
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], name


# ----------------------------------------------------------------------
# malformed input never ends in garbage or a traceback
# ----------------------------------------------------------------------
FUZZ_NUMBERS = st.one_of(
    st.integers(-20, 20).map(str),
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from(["1e308", "-1e308", "5e-324", "0.0", "-0"]),
)
FUZZ_JUNK = st.sampled_from(["", " ", "nan", "NaN", "inf", "-inf", "Infinity", "1e999", "abc", "1,5", '"2"'])
FUZZ_LABELS = st.sampled_from(["1", "2"])
FUZZ_ODD_LABELS = st.sampled_from(["3", "a", " 2", ""])


@st.composite
def malformed_csvs(draw):
    """Mostly well-formed two-group CSV text with random damage: random
    header names, ragged rows, empty, non-numeric and non-finite cells, a
    third group, and the rows sorted by group, reversed or left as drawn."""
    dim = draw(st.integers(0, 3))
    group_at = draw(st.integers(0, dim))
    header = [f"x{i}" for i in range(dim)]
    header.insert(group_at, "group")
    if draw(st.integers(0, 4)) == 0:
        header = draw(st.lists(st.sampled_from(["x", "y", "group", "Group", "", "1"]), max_size=4))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        row = [draw(FUZZ_NUMBERS) for _ in range(dim)]
        row.insert(group_at, draw(FUZZ_LABELS if draw(st.integers(0, 9)) else FUZZ_ODD_LABELS))
        damage = draw(st.integers(0, 29))
        if damage == 0 and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(FUZZ_JUNK)
        elif damage == 1:
            row = row[:-1]
        elif damage == 2:
            row.append(draw(FUZZ_NUMBERS))
        rows.append(row)
    order = draw(st.sampled_from(["drawn", "sorted", "reversed"]))
    if order == "sorted":
        rows.sort(key=lambda row: row[group_at] if group_at < len(row) else "")
    elif order == "reversed":
        rows.reverse()
    return "".join(",".join(row) + "\n" for row in [header] + rows)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


# Derandomized, so the suite's time is fixed (about 2 s): a draw that spreads
# the radius ladder from a subnormal gap up to 1e308 spawns thousands of rungs
# and can take most of a second on its own.
@settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    text=malformed_csvs(),
    caps=st.sampled_from(["1,1", "2,1", "1,0", "0,2", "1,1,1"]),
    radius=st.sampled_from(["0", "0.5", "3"]),
)
def test_malformed_csv_ends_in_strict_json_or_the_error_schema(tmp_path, text, caps, radius):
    path = write(tmp_path, "fuzz.csv", text)
    for argv in (["solve"], ["semi"], ["known", "--radius", radius], ["oracle"]):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = main([argv[0], "--input", path, "--caps", caps, *argv[1:]])
        payload = json.loads(stdout.getvalue(), parse_constant=_reject_constant)
        if rc == 0:
            assert payload["schema"] == "fairkcenter-report/1"
        else:
            assert rc == 1
            assert payload["schema"] == "fairkcenter-error/1"
