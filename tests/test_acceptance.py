"""Acceptance gate: fourteen numbered criteria, one test and one
pass/fail line each.

Every criterion pins its own tolerance and scale; nothing here is
weakened to accommodate the implementation.  Timed criteria measure wall
clock inside the test so a regression in speed fails loudly.
"""

import csv
import math
import time

import numpy as np

from bifrog import bounds, checks, cli, hitting, pathprob, sim
from bifrog.laws import Bernoulli, Constant, Geometric, Poisson
from bifrog.tree import TreeParams


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


def test_criterion_02_closed_forms_at_p_one():
    worst = 0.0
    for d1 in range(1, 21):
        for d2 in range(1, 21):
            t = TreeParams(d1, d2)
            a, b = hitting.hitting_pair(t, 1.0)
            worst = max(worst,
                        abs(a - (d2 + 1) / (d2 * (d1 + 1))),
                        abs(b - (d1 + 1) / (d1 * (d2 + 1))))
    _line(2, "closed-forms-at-p-one", worst <= 1e-12, f"max dev={worst:.2e}")


def test_criterion_03_system_residuals():
    worst = 0.0
    for d1 in range(1, 21):
        for d2 in range(1, 21):
            t = TreeParams(d1, d2)
            for p in np.linspace(0.0, 1.0, 11):
                pair = hitting.hitting_pair(t, float(p))
                ra, rb = hitting.system_residuals(t, float(p), pair)
                worst = max(worst, abs(ra), abs(rb))
    _line(3, "system-residuals", worst <= 1e-12, f"max residual={worst:.2e}")


def test_criterion_04_recursion_equals_closed_form():
    a_hi = (3 + 1) / (3 * (2 + 1))
    b_hi = (2 + 1) / (2 * (3 + 1))
    worst = 0.0
    for q in (0.1, 0.3, 0.5, 0.7, 1.0):
        law = Bernoulli(q)
        for a in np.linspace(0.05, 0.95 * a_hi, 5):
            for b in np.linspace(0.05, 0.95 * b_hi, 5):
                tables = pathprob.PathOpenTables(law.cpgf, float(a), float(b), k_max=30)
                for n in range(1, 16):
                    closed = pathprob.bernoulli_path_open(n, q, float(a), float(b))
                    worst = max(worst, abs(tables.same_11(n) - closed))
    _line(4, "recursion-equals-closed-form", worst <= 1e-10, f"max dev={worst:.2e}")


def test_criterion_05_root_convergence():
    worst = 0.0
    for d1, d2 in bounds.TABLE_ROWS:
        t = TreeParams(d1, d2)
        limit = bounds.ub_root(t, q=1.0)
        approx = bounds.ub_root_n(t, 1.0, 200)
        worst = max(worst, abs(approx - limit))
    _line(5, "root-convergence", worst <= 1e-3, f"max |shift|={worst:.2e}")


def test_criterion_06_corollary_grid():
    low = math.inf
    for d1 in range(1, 51):
        for d2 in range(1, 51):
            if (d1, d2) == (1, 1):
                continue
            t = TreeParams(d1, d2)
            low = min(low, bounds.f_value(t, 1.0, bounds.ub_closed(t)))
    _line(6, "corollary-grid", low >= -1e-12, f"min f={low:.2e}")


def test_criterion_07_spectral_identity():
    worst = 0.0
    for mean_eta in (0.5, 1.0, 2.0, 5.0):
        for d1, d2 in bounds.TABLE_ROWS:
            t = TreeParams(d1, d2)
            rho = bounds.spectral_radius(t, mean_eta, bounds.lb_biregular(t, mean_eta))
            worst = max(worst, abs(rho - 1.0))
    _line(7, "spectral-identity", worst <= 1e-12, f"max |rho-1|={worst:.2e}")


def test_criterion_08_mc_hitting_oracle():
    points = [((2, 2), 0.5), ((2, 2), 0.75), ((2, 3), 0.6),
              ((2, 3), 0.9), ((3, 4), 0.8), ((1, 2), 0.7)]
    t0 = time.perf_counter()
    worst_z = 0.0
    for idx, ((d1, d2), p) in enumerate(points):
        t = TreeParams(d1, d2)
        pair = hitting.hitting_pair(t, p)
        for start, ref in ((1, pair.alpha), (2, pair.beta)):
            est = hitting.mc_hit_neighbor(t, p, start, trials=100_000, seed=100 + idx)
            worst_z = max(worst_z, abs(est.prob - ref) / max(est.stderr, 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst_z <= 4.0 and elapsed < 10.0
    _line(8, "mc-hitting-oracle", ok, f"max z={worst_z:.2f}, {elapsed:.1f} s")


def test_criterion_09_mc_path_open_oracle():
    queries = [(1, 2, 1), (2, 1, 1), (1, 1, 2), (2, 2, 2),
               (1, 2, 3), (2, 1, 3), (1, 1, 4), (2, 2, 4)]
    t0 = time.perf_counter()
    worst_z = 0.0
    for d1, d2 in ((2, 2), (2, 3)):
        t = TreeParams(d1, d2)
        for idx, ijk in enumerate(queries):
            query = pathprob.PathOpenQuery(*ijk)
            est = pathprob.mc_path_open(query, t, Constant(1), 0.7,
                                        trials=100_000, seed=200 + idx)
            ref = pathprob.path_open_prob(query, t, Constant(1), 0.7)
            worst_z = max(worst_z, abs(est.prob - ref) / max(est.stderr, 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst_z <= 4.0 and elapsed < 60.0
    _line(9, "mc-path-open-oracle", ok, f"max z={worst_z:.2f}, {elapsed:.1f} s")


def test_criterion_10_simulator_endpoints():
    t = TreeParams(2, 2)
    sure = sim.estimate_survival(
        sim.SimConfig(tree=t, law=Constant(1), p=1.0, awake_cap=1_000, seed=50), 100)
    dead = sim.estimate_survival(
        sim.SimConfig(tree=t, law=Constant(1), p=0.0, seed=51), 100)
    sub = sim.estimate_survival(
        sim.SimConfig(tree=t, law=Constant(1), p=0.5, horizon=10_000,
                      awake_cap=100_000, seed=52), 1_000)
    extinct_fraction = 1.0 - sub.fraction
    ok = sure.fraction == 1.0 and dead.fraction == 0.0 and extinct_fraction >= 0.99
    _line(10, "simulator-endpoints", ok,
          f"p=1: {sure.fraction}, p=0: {dead.fraction}, "
          f"extinct@0.5: {extinct_fraction:.3f}")


def test_criterion_11_phase_transition_bracket():
    # a coupled replica survives at p iff its critical value p_hat < p, so
    # every replica is monotone in p by construction; a small awake_cap
    # only makes the fraction-zero check at p = 0.55 harder to satisfy
    cfg = sim.SimConfig(tree=TreeParams(2, 2), law=Constant(1), p=0.55,
                        horizon=10_000, awake_cap=500, seed=60)
    rows = sim.sweep(cfg, [0.55, 0.85], replicas=2_000, coupled=True)
    low, high = rows[0].fraction, rows[1].fraction
    ok = low == 0.0 and high > 0.05
    _line(11, "phase-transition-bracket", ok,
          f"fraction@0.55={low}, fraction@0.85={high:.3f}, "
          f"monotone in all 2000 replicas (survival is p_hat < p)")


def test_criterion_12_multitype_gw():
    worst = 0.0
    laws = (Constant(1), Constant(3), Bernoulli(0.6), Poisson(1.0), Geometric(0.5))
    for d1, d2 in ((2, 2), (2, 3), (3, 100)):
        t = TreeParams(d1, d2)
        for law in laws:
            for p in (0.1, 0.5, 0.9):
                for ptype in (1, 2):
                    s = sim.gw_progeny_masses(t, law, p, ptype).sum()
                    worst = max(worst, abs(s - 1.0))
    t22 = TreeParams(2, 2)
    p_sub = 0.9 * bounds.lb_biregular(t22, 1.0)
    extinct = sum(
        sim.run_multitype_gw(t22, Constant(1), p_sub, seed=70, replica_index=r).extinct
        for r in range(1_000))
    ok = worst <= 1e-12 and extinct >= 990
    _line(12, "multitype-gw", ok,
          f"max |mass sum - 1|={worst:.2e}, extinct {extinct}/1000 at p={p_sub:.3f}")


def test_criterion_13_disk_percolation_series():
    exact = bounds.disk_mean_offspring(Constant(1), 2, 0.2)
    cert = bounds.disk_mean_offspring(Poisson(1.0), 2, 0.1)
    bound = cert.value + cert.remainder
    ok = abs(exact.value - 1.0) <= 1e-9 and bound < 1.0
    _line(13, "disk-percolation-series", ok,
          f"geometric identity dev={abs(exact.value - 1.0):.2e}, "
          f"certified mean at p=0.1: {bound:.4f}")


def test_criterion_14_asymptotics():
    (row,) = bounds.asymptotic_check([1000])
    ok = 0.24 <= row.lb_scaled <= 0.26 and 0.49 <= row.ub_scaled <= 0.51
    _line(14, "asymptotics", ok,
          f"(lb-1/2)*d={row.lb_scaled:.4f}, (ub-1/2)*d={row.ub_scaled:.4f}")
