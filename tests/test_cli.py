"""Tests for the command-line interface.

Everything runs through main(argv) in-process so exit codes and emitted
text are captured exactly as a shell would see them.
"""

import csv
import io
import json

import pytest

import bifrog.sim as sim
from bifrog import bounds, checks, cli
from bifrog.checks import CheckResult
from bifrog.cli import main, parse_p_grid


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- p-grid parsing ----------------------------------------------------------


def test_parse_p_grid_colon_form():
    assert parse_p_grid("0.5:0.7:0.1") == [0.5, 0.6, 0.7]
    assert parse_p_grid("0.55:0.55:0.1") == [0.55]
    # steps that are not exactly representable still hit the endpoint
    assert parse_p_grid("0.1:0.3:0.05")[-1] == 0.3


def test_parse_p_grid_never_passes_hi(capsys):
    # lo + 10 step is 1.000000000001 at twelve decimals: clamped to hi
    assert parse_p_grid("0:1:0.1000000000001")[-1] == 1.0
    code, _, err = _run(capsys, "sweep", "--d1", "2", "--d2", "2",
                        "--p", "0:1:0.1000000000001", "--replicas", "2")
    assert (code, err) == (0, "")


def test_parse_p_grid_comma_form():
    assert parse_p_grid("0.9,0.5,0.7") == [0.9, 0.5, 0.7]


def test_parse_p_grid_rejects_garbage():
    for text in ("", "0.5:0.7", "0.7:0.5:0.1", "0.5:0.7:0", "a,b"):
        with pytest.raises(ValueError):
            parse_p_grid(text)


@pytest.mark.parametrize("text,why", [
    ("0.5:inf:0.1", "finite"), ("-inf:0.5:0.1", "finite"),
    ("0.5:0.9:inf", "finite"), ("nan:0.5:0.1", "finite"),
    ("0.5:0.7:nan", "finite"), ("-0.1:0.5:0.1", "hi <= 1"),
    ("0.5:1.5:0.1", "hi <= 1"), ("0:1:1e-15", "exceed"), ("0:1:1e-320", "exceed"),
])
def test_parse_p_grid_rejects_unbounded_grids(text, why):
    # each spec fails before a point is made; without the checks the first
    # would loop forever, 1e-15 would try to build 10**15 points and the
    # subnormal 1e-320 would overflow the point count
    with pytest.raises(ValueError, match=why):
        parse_p_grid(text)


def test_parse_p_grid_point_limit(monkeypatch):
    assert cli.MAX_GRID_POINTS == 10 ** 6
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 11)
    assert len(parse_p_grid("0:1:0.1")) == 11
    with pytest.raises(ValueError, match="12 points exceed 11"):
        parse_p_grid("0:1.0:0.0909")


# --- bounds ------------------------------------------------------------------


def test_bounds_pretty_contains_reference_numbers(capsys):
    code, out, _ = _run(capsys, "bounds", "--d1", "2", "--d2", "3")
    assert code == 0
    assert "0.5714285714" in out
    assert "0.5855400438" in out
    assert "0.7062890209" in out
    assert "0.7071067812" in out


def test_bounds_json_schema(capsys):
    code, out, _ = _run(capsys, "bounds", "--d1", "2", "--d2", "3",
                        "--eta", "poisson:1.5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "bounds"
    (row,) = doc["rows"]
    assert row["d1"] == 2 and row["d2"] == 3
    assert row["ub_closed"] is None  # closed form needs q = 1
    assert 0.0 < row["lb_biregular"] < row["ub_root"] < 1.0


def test_bounds_without_closed_form_prints_an_empty_cell(capsys):
    # ub_closed needs q = 1; Poisson(1) has q = 1 - 1/e
    argv = ("bounds", "--d1", "2", "--d2", "3", "--eta", "poisson:1")
    code, out, _ = _run(capsys, *argv, "--format", "csv")
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["ub_closed"] == "" and row["ub_root"] != ""
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    header, row = out.splitlines()
    start = header.index("ub_closed")
    assert row[start - 2:start + len("ub_closed")].strip() == ""


def test_bounds_rejects_1_1_geometry(capsys):
    code, _, err = _run(capsys, "bounds", "--d1", "1", "--d2", "1")
    assert code == 2
    assert "error" in err and "T_{1,1}" in err


def test_bounds_rejects_malformed_law(capsys):
    code, _, err = _run(capsys, "bounds", "--d1", "2", "--d2", "2",
                        "--eta", "cauchy:1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command", [("bounds",), ("sweep", "--p", "0.5", "--replicas", "1")])
def test_infinite_poisson_mean_is_a_bad_law_spec(capsys, command):
    # the finite two are past what numpy's Poisson sampler and an int64 take
    for eta in ("poisson:inf", "poisson:1e19", "const:99999999999999999999"):
        code, out, err = _run(capsys, *command, "--d1", "2", "--d2", "2", "--eta", eta)
        assert code == 2 and out == ""
        assert "bad law spec" in err


# --- table1 ------------------------------------------------------------------


def test_table1_matches_reference(capsys):
    code, out, err = _run(capsys, "table1")
    assert code == 0
    assert err == ""
    assert out.count("True") == 9


def test_table1_csv_round_trips(capsys):
    code, out, _ = _run(capsys, "table1", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 9
    row = next(r for r in rows if r["d1"] == "2" and r["d2"] == "3")
    assert abs(float(row["ub_root"]) - 0.7063) < 5e-5


def test_table1_zero_tolerance_fails(capsys, monkeypatch):
    # the references are 4-decimal roundings, so exact comparison must flag
    # every row and exit nonzero
    monkeypatch.setattr(bounds, "TABLE_TOL", 0.0)
    code, _, err = _run(capsys, "table1")
    assert code == 1
    assert "mismatch" in err


@pytest.mark.parametrize("argv", [["bounds", "--d1", "2", "--d2", "3"], ["table1"]],
                         ids=["bounds", "table1"])
def test_tolerances_are_not_options(argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", "1e-6"])
    assert exc.value.code == 2


# --- sweep -------------------------------------------------------------------


def test_sweep_csv_is_deterministic(capsys):
    argv = ("sweep", "--d1", "2", "--d2", "2", "--p", "0.6,0.9",
            "--replicas", "25", "--horizon", "80", "--awake-cap", "300",
            "--seed", "5", "--format", "csv")
    code1, out1, _ = _run(capsys, *argv)
    code2, out2, _ = _run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    rows = list(csv.DictReader(io.StringIO(out1)))
    assert [r["p"] for r in rows] == ["0.6", "0.9"]
    assert all(0.0 <= float(r["fraction"]) <= 1.0 for r in rows)


def test_sweep_coupled_json_is_monotone(capsys):
    code, out, _ = _run(capsys, "sweep", "--d1", "2", "--d2", "2",
                        "--p", "0.55:0.95:0.2", "--replicas", "40",
                        "--awake-cap", "250", "--coupled", "--seed", "3",
                        "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["coupled"] is True
    fr = [row["fraction"] for row in doc["rows"]]
    assert fr == sorted(fr)
    q = doc["p_hat_quantiles"]
    assert q["p_max"] == 0.95
    # p_hat is resolved below p_max only; the rest are counted, not placed
    assert q["above_p_max"] == 40 - doc["rows"][-1]["survived"]
    qs = [q[k] for k in ("min", "q25", "median", "q75", "max")]
    finite = [x for x in qs if x is not None]
    assert qs == finite + [None] * (5 - len(finite))
    assert finite == sorted(finite) and all(0.0 <= x < 0.95 for x in finite)


def test_sweep_output_file(tmp_path, capsys):
    target = tmp_path / "sweep.json"
    code, out, _ = _run(capsys, "sweep", "--d1", "2", "--d2", "3",
                        "--p", "0.7", "--replicas", "10", "--awake-cap", "200",
                        "--format", "json", "--output", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["rows"][0]["replicas"] == 10


def test_sweep_json_spells_the_law_as_bounds_does(capsys):
    argv = ("--d1", "2", "--d2", "3", "--eta", "Poisson:1.50", "--format", "json")
    docs = []
    for command in (("bounds",), ("sweep", "--p", "0.5", "--replicas", "2")):
        code, out, _ = _run(capsys, *command, *argv)
        assert code == 0
        docs.append(json.loads(out))
    assert docs[0]["rows"][0]["eta"] == docs[1]["eta"] == "poisson:1.5"


@pytest.mark.parametrize("command", [("table1",), ("sweep", "--d1", "2", "--d2", "2",
                                                   "--p", "0.5", "--replicas", "2")],
                         ids=["table1", "sweep"])
def test_unwritable_output_exits_two(tmp_path, capsys, command):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = _run(capsys, *command, "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert not target.parent.exists()


def test_sweep_coupled_rejects_awake_cap_zero(capsys):
    code, out, err = _run(capsys, "sweep", "--d1", "2", "--d2", "2", "--p", "0.1",
                          "--replicas", "3", "--coupled", "--awake-cap", "0")
    assert code == 2
    assert out == ""
    assert "awake_cap" in err


def test_sweep_resource_error_exits_one(capsys, monkeypatch):
    bound = 1 << 16
    monkeypatch.setattr(sim, "TREE_BYTES", bound)
    code, out, err = _run(capsys, "sweep", "--d1", "2", "--d2", "2", "--p", "1",
                          "--replicas", "2", "--awake-cap", "1000000")
    assert code == 1
    assert out == ""
    assert err.startswith("resource error:") and f"{bound} bytes" in err


def test_sweep_frog_byte_bound_exits_one(capsys, monkeypatch):
    bound = 100 * sim._FROG_ITEMSIZE
    monkeypatch.setattr(sim, "FROG_ARRAY_BYTES", bound)
    code, out, err = _run(capsys, "sweep", "--d1", "2", "--d2", "2", "--p", "0.5",
                          "--replicas", "1", "--eta", "const:101")
    assert code == 1
    assert out == ""
    assert err.startswith("resource error:") and f"{bound} bytes" in err


def test_sweep_coupled_walk_byte_bound_exits_one(capsys, monkeypatch):
    bound = 100 * sim._WALK_ITEMSIZE
    monkeypatch.setattr(sim, "FROG_ARRAY_BYTES", bound)
    code, out, err = _run(capsys, "sweep", "--d1", "2", "--d2", "2", "--p", "0.5",
                          "--replicas", "1", "--coupled", "--eta", "const:101")
    assert code == 1
    assert out == ""
    assert err.startswith("resource error:") and f"{bound} bytes" in err


@pytest.mark.parametrize("argv", [
    ["bounds", "--d1", "1" + "0" * 160, "--d2", "2"],
    ["sweep", "--d1", "100000000000000000000", "--d2", "2", "--p", "0.5", "--replicas", "1"],
])
def test_oversized_degree_exits_two(capsys, argv):
    # past the float range bounds used to die in an OverflowError, and past
    # the int32 range sweep in numpy's "high is out of bounds for int32"
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: d1 must be an integer in [1, 2147483646]")


def test_sweep_rejects_bad_grid(capsys):
    code, _, err = _run(capsys, "sweep", "--d1", "2", "--d2", "2",
                        "--p", "1.5", "--replicas", "5")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("grid", ["0.9,1.5", "0.9,nan"])
def test_sweep_coupled_rejects_bad_grid_before_any_replica(capsys, monkeypatch, grid):
    def no_replica(*args):
        raise AssertionError("a replica ran before the grid was checked")

    monkeypatch.setattr(sim, "_replica_threshold", no_replica)
    code, out, err = _run(capsys, "sweep", "--d1", "2", "--d2", "2", "--p", grid,
                          "--coupled", "--replicas", "300", "--awake-cap", "2000")
    assert code == 2
    assert out == ""
    assert err.startswith("error: survival parameter p must be")


@pytest.mark.parametrize("grid", ["0.5:inf:0.1", "0:1:1e-15", "0:1:1e-320"])
def test_sweep_rejects_unbounded_grid(capsys, grid):
    code, out, err = _run(capsys, "sweep", "--d1", "2", "--d2", "2",
                          "--p", grid, "--replicas", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# --- check -------------------------------------------------------------------


def _stand_in(name, seeded):
    if seeded:
        return lambda seed: [CheckResult(name, True, f"seed={seed}")]
    return lambda: [CheckResult(name, True, "no seed")]


@pytest.fixture
def stand_ins(monkeypatch):
    """Every suite as one passing row naming it and its seed: the CLI's
    wiring without the criteria, which test_acceptance.py runs."""
    for name in checks.SUITES:
        monkeypatch.setitem(checks.SUITES, name, _stand_in(name, name in checks.SEEDED))


def test_check_fast_suites_pass(capsys, stand_ins):
    code, out, err = _run(capsys, "check", "pathprob")
    assert (code, err) == (0, "")
    assert "pathprob" in out and "no seed" in out
    code, out, err = _run(capsys, "check", "hitting", "--seed", "7")
    assert (code, err) == (0, "")
    assert "seed=7" in out


def test_check_json_lists_results(capsys, stand_ins):
    code, out, _ = _run(capsys, "check", "corollary-grid", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "check"
    assert doc["rows"] == [{"name": "corollary-grid", "passed": True, "detail": "no seed"}]


def test_check_all_runs_every_suite(capsys, stand_ins):
    code, out, err = _run(capsys, "check", "all", "--seed", "3", "--format", "csv")
    assert code == 0
    assert err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["name"] for r in rows] == list(checks.SUITES)
    assert all(r["passed"] == "True" for r in rows)
    assert [r["name"] for r in rows if r["detail"] == "seed=3"] == [
        "hitting", "path-open-mc", "endpoints", "bracket", "gw", "disk"]


def test_check_trials_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "hitting", "--trials", "10"])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err


def test_check_failing_row_exits_one(capsys, monkeypatch):
    monkeypatch.setitem(checks.SUITES, "asymptotics",
                        lambda: [CheckResult("broken", False, "gap=1")])
    code, out, err = _run(capsys, "check", "asymptotics")
    assert code == 1
    assert "broken" in out
    assert err == "FAIL broken: gap=1\n"


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown check suite"):
        checks.run_suite("nonsense")


def test_check_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, header", [
    (["bounds", "--d1", "2", "--d2", "3"],
     "d1,d2,eta,mean_eta,q,lb_alves,lb_biregular,ub_root,ub_closed,root_iterations,tol"),
    (["sweep", "--d1", "2", "--d2", "2", "--p", "0.5", "--replicas", "1",
      "--awake-cap", "10"],
     "p,replicas,survived,fraction,ci_low,ci_high"),
    (["check", "asymptotics"], "name,passed,detail"),
], ids=["bounds", "sweep", "check"])
def test_csv_header_is_pinned(capsys, argv, header):
    # column names and order as recorded before the columns were derived
    # from the row dataclasses; this passed there
    code, out, _ = _run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == header


# --- parser ------------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "bifrog" in capsys.readouterr().out


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit):
        main([])
