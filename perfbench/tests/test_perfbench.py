"""Tests of the benchmark harness itself (not part of the package's suite).

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import bifrog  # noqa: E402
from bifrog import sim  # noqa: E402
from perfbench import tracing, workloads  # noqa: E402


def _estimates(grid, alive):
    return [sim.SurvivalEstimate(p=p, replicas=1, survived=s, fraction=float(s),
                                 ci_low=0.0, ci_high=1.0) for p, s in zip(grid, alive)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_deterministic_in_the_seed(name):
    a, b, c = workloads.make(name, 7), workloads.make(name, 7), workloads.make(name, 8)
    if name == "oracles":
        assert a.seeds == b.seeds != c.seeds
        i = [call.label for call in a.calls].index("sim.mc_range_vs_disk")
        assert workloads.output_key(a.run(i)) == workloads.output_key(b.run(i))
    else:
        assert a.order == b.order != c.order
        assert sorted(a.order) == sorted(c.order)


def test_checker_flags_non_monotone_coupled_replica():
    wl = workloads.make("sweep-coupled", 1)
    assert wl.check(0, _estimates(workloads.GRID, [0, 0, 1, 1, 1])) == []
    problems = wl.check(0, _estimates(workloads.GRID, [0, 0, 1, 0, 1]))
    assert any("decreases" in p for p in problems)


def test_checker_flags_survival_below_lower_bound():
    for name in ("sweep-coupled", "sweep-uncoupled"):
        wl = workloads.make(name, 1)
        assert wl.lb == pytest.approx(0.6)
        problems = wl.check(0, _estimates(workloads.GRID, [1, 1, 1, 1, 1]))
        assert any("p=0.55 < lb_biregular" in p for p in problems)


def test_checker_flags_no_survivor_above_upper_bound():
    wl = workloads.make("sweep-uncoupled", 1)
    dead = _estimates(workloads.GRID, [0, 0, 0, 0, 0])
    assert len(wl.aggregate_problems([dead, dead])) == 2  # p = 0.85 and 0.95
    assert wl.aggregate_problems([dead, _estimates(workloads.GRID, [0, 0, 0, 1, 1])]) == []


def test_oracle_checks_flag_far_estimates_and_table_mismatch():
    assert workloads._mc_problem("x", 0.5, 0.5, 10_000) == []
    assert workloads._mc_problem("x", 0.52, 0.5, 10_000)  # 4 se is 0.02
    reports = bifrog.table1()
    assert workloads._check_table1(reports) == []
    bad = [dataclasses.replace(r, ub_root=0.76) if (r.d1, r.d2) == (2, 2) else r
           for r in reports]
    assert workloads._check_table1(bad)


def _bindings():
    mods = [m for n, m in sys.modules.items()
            if m is not None and (n == "bifrog" or n.startswith("bifrog."))]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap["numpy.random.Philox"] = np.random.Philox
    return snap


def test_traced_run_restores_every_patched_attribute():
    before = _bindings()
    tracer = tracing.Tracer()
    wl = workloads.make("sweep-coupled", 1)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert bifrog.sim.sweep is not before[("bifrog.sim", "sweep")]
            assert bifrog.bounds.hitting_pair is not before[("bifrog.bounds", "hitting_pair")]
            tracer.run_id = 0
            with tracer.span("bench.unit"):
                wl.run(0, lambda law: tracing.CountingLaw(law, tracer))
            raise RuntimeError("leave the block by an error")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    s = tracing.summarize(tracer, [0])
    assert s["sim.sweep"]["count"] == 1
    assert s["numpy.Philox"]["count"] > 0 and s["laws.sample"]["count"] > 0
    assert s["bench.unit"]["self_s"] <= s["bench.unit"]["total_s"]


def test_missing_target_is_reported_absent():
    tracer = tracing.Tracer()
    targets = (("bifrog.sim", "no_such_function", "sim.gone"),
               ("bifrog.no_such_module", "f", "x.gone"))
    with tracer.installed(targets):
        pass
    assert tracer.absent == ["bifrog.sim.no_such_function", "bifrog.no_such_module.f"]


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracles",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
