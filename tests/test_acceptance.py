"""Acceptance gate: the paper's fourteen numbered criteria, one test and
one pass/fail line each.

Criterion 1 runs the `table1` subcommand.  Criteria 2-14 are the suites of
`bifrog.checks`, the one home of each criterion's tolerance, budget and
seed offsets: the test of criterion N calls `run_suite` on its suite at
the seed in SEEDS and asserts that every row passed.  The wall-clock
bounds of criteria 1, 8 and 9 live here, around the call, so a regression
in speed fails loudly.  `bifrog check <suite>` prints each row's margin.
"""

import csv
import math
import time

from bifrog import bounds, checks, cli

#: criterion number -> (test name, check suite)
CRITERIA = {
    2: ("closed_forms_at_p_one", "closed-forms"),
    3: ("system_residuals", "residuals"),
    4: ("recursion_equals_closed_form", "pathprob"),
    5: ("root_convergence", "root-convergence"),
    6: ("corollary_grid", "corollary-grid"),
    7: ("spectral_identity", "spectral"),
    8: ("mc_hitting_oracle", "hitting"),
    9: ("mc_path_open_oracle", "path-open-mc"),
    10: ("simulator_endpoints", "endpoints"),
    11: ("phase_transition_bracket", "bracket"),
    12: ("multitype_gw", "gw"),
    13: ("disk_percolation_series", "disk"),
    14: ("asymptotics", "asymptotics"),
}
#: seeds of the criteria whose suites draw random numbers
SEEDS = {8: 100, 9: 200, 10: 50, 11: 60, 12: 70, 13: 80}
#: wall-clock bounds in seconds
WALL_S = {8: 10.0, 9: 60.0}


def _line(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_table_reproduction(tmp_path):
    target = tmp_path / "table1.csv"
    t0 = time.perf_counter()
    code = cli.main(["table1", "--format", "csv", "--output", str(target)])
    elapsed = time.perf_counter() - t0
    rows = list(csv.DictReader(target.open()))
    worst = 0.0
    for row in rows:
        ref = bounds.TABLE_REFERENCE[(int(row["d1"]), int(row["d2"]))]
        got = (float(row["lb_alves"]), float(row["lb_biregular"]), float(row["ub_root"]))
        worst = max(worst, *(abs(g - e) for g, e in zip(got, ref)))
    ok = code == 0 and len(rows) == 9 and worst <= 5e-5 and elapsed < 1.0
    _line(1, "table-reproduction", ok,
          f"exit={code}, rows={len(rows)}, max dev={worst:.2e}, {elapsed:.2f} s")


def _criterion_test(num, label, suite):
    def test():
        t0 = time.perf_counter()
        rows = checks.run_suite(suite, seed=SEEDS.get(num, 0))
        elapsed = time.perf_counter() - t0
        failed = [f"{r.name}: {r.detail}" for r in rows if not r.passed]
        ok = bool(rows) and not failed and elapsed < WALL_S.get(num, math.inf)
        _line(num, label.replace("_", "-"), ok,
              "; ".join([f"suite {suite}, {len(rows)} rows, {elapsed:.1f} s", *failed]))
    test.__name__ = test.__qualname__ = f"test_criterion_{num:02d}_{label}"
    return test


for _num, (_label, _suite) in CRITERIA.items():
    _test = _criterion_test(_num, _label, _suite)
    globals()[_test.__name__] = _test


def test_every_check_suite_is_a_criterion():
    assert sorted(suite for _, suite in CRITERIA.values()) == sorted(checks.SUITES)
