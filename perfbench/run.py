"""Run one bifrog benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload sweep-coupled --seed 1 --seconds 55 --trace 0

Run it from the root of a bifrog checkout; the package is imported from
src/ there and nowhere else.  The run is a closed loop in one process with
workers=1: each unit starts when the previous one has ended, in whole
passes over the workload's units, until --seconds have passed.

--trace 0 prints the end-to-end metrics; --trace 1 runs the units once
untraced and once more with spans around every call into the package,
then the fixed layer probe, and prints the per-layer metrics.  The last
line of standard output is {"correct", "attempted", "failed", "metrics"};
the line before it holds the details (provenance, tail percentile, output
digest, problems), which are also written, with the spans of a traced run,
under .bench_build/perfbench/.
"""

from time import perf_counter

T0 = perf_counter()  # set-up time counts from here: imports, inputs, warm-up

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
#: fresh processes that repeat the set-up; setup_s is the median of these
#: and the measuring process's own set-up
SETUP_REPEATS = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
LAYERS = ("bench", "sim", "laws", "hitting", "pathprob", "bounds", "checks", "numpy")


class UnitError:
    """Stands in for the output of a unit that raised."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time the set-up alone and print it (used for setup_s)")
    return ap.parse_args(argv)


def check_unit(wl, i, out) -> list:
    if isinstance(out, UnitError):
        return [f"unit {i}: {out.message}"]
    try:
        return wl.check(i, out)
    except Exception as exc:  # a malformed output must not stop the run
        return [f"unit {i}: check raised {type(exc).__name__}: {exc}"]


def closed_loop(wl, seconds=None, indices=None, wrap=None, tracer=None):
    """Run units back to back: the given indices, or whole passes until
    `seconds` have elapsed.  Returns (indices, seconds per unit, outputs,
    wall seconds)."""
    done, durs, outs = [], [], []
    start = perf_counter()
    while True:
        i = len(done)
        if indices is not None:
            if i == len(indices):
                break
            idx = indices[i]
        else:
            if i and i % wl.size == 0 and perf_counter() - start >= seconds:
                break
            idx = i
        if tracer is not None:
            tracer.run_id = i
        with tracer.span("bench.unit") if tracer else contextlib.nullcontext():
            t = perf_counter()
            try:
                out = wl.run(idx) if wrap is None else wl.run(idx, wrap)
            except Exception as exc:  # counted as a failed unit
                out = UnitError(exc)
            durs.append(perf_counter() - t)
        done.append(idx)
        outs.append(out)
    return done, durs, outs, perf_counter() - start


def tail(durs) -> dict:
    n = len(durs)
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND:
            break
    return {"percentile": q, "samples": n,
            "beyond": round(n * (1.0 - q / 100.0), 1),
            "ms": 1e3 * float(np.percentile(durs, q))}


def problems_of(wl, done, outs) -> tuple:
    """(failed unit count, problem lines) for one loop's outputs."""
    failed, lines, good = 0, [], []
    for i, out in zip(done, outs):
        found = check_unit(wl, i, out)
        failed += bool(found)
        lines.extend(found)
        if not found:
            good.append(out)
    lines.extend(wl.aggregate_problems(good))
    return failed, lines


def first_pass(wl, done, outs) -> dict:
    return {i: out for i, out in zip(done[:wl.size], outs)
            if not isinstance(out, UnitError)}


def fresh_setups(args) -> list:
    """Set-up seconds of SETUP_REPEATS fresh interpreters, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=150, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-400:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def plain_run(wl, args, setup_s) -> tuple:
    done, durs, outs, wall = closed_loop(wl, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, lines = problems_of(wl, done, outs)
    setups = [setup_s, *fresh_setups(args)]
    t = tail(durs)
    # whole passes repeat the same units: the p50 is over distinct units,
    # each taken at the median of its repeats
    size = wl.size
    pass_rates = [size / sum(durs[k:k + size]) for k in range(0, len(durs), size)]
    per_unit = [statistics.median(durs[k::size]) for k in range(size)]
    metrics = {
        "units_per_s": (len(done) / wall, "1/s"),
        "unit_p50_ms": (1e3 * statistics.median(per_unit), "ms"),
        "unit_tail_ms": (t["ms"], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {"units": len(done), "passes": len(pass_rates), "wall_s": wall,
              "pass_rates": pass_rates,
              "unit_tail": t, "setup_s_samples": setups,
              "failed_frac": failed / len(done),
              "digest": wl.digest(first_pass(wl, done, outs)),
              "unit_ms": [round(1e3 * d, 4) for d in durs]}
    return metrics, len(done), failed, lines, detail


def traced_run(wl, args) -> tuple:
    from perfbench import probe, tracing, workloads

    # untraced, then the same units again traced: the difference is overhead
    done, durs, outs, wall_plain = closed_loop(wl, seconds=args.seconds / 3)
    tracer = tracing.Tracer()
    with tracer.installed():
        _, _, touts, wall_traced = closed_loop(
            wl, indices=done, wrap=lambda law: tracing.CountingLaw(law, tracer),
            tracer=tracer)
    n = len(done)
    failed, lines = problems_of(wl, done, outs)
    tfailed, tlines = problems_of(wl, done, touts)
    differ = [i for i, a, b in zip(done, outs, touts)
              if isinstance(a, UnitError) or isinstance(b, UnitError)
              or workloads.output_key(a) != workloads.output_key(b)]
    lines += tlines + [f"unit {i}: traced output differs from untraced" for i in differ]

    s = tracing.summarize(tracer, range(n))
    zero = {"count": 0, "total_s": 0.0, "self_s": 0.0}
    unit_s = s["bench.unit"]["total_s"]
    philox, sample, frog = (s.get(k, zero) for k in ("numpy.Philox", "laws.sample",
                                                     "sim.run_frog"))
    c = tracer.counts
    calls, verts = c["run_frog.calls"], c["run_frog.vertices"]
    measured = {}
    if philox["count"]:
        measured["sim.substream_us"] = 1e6 * philox["total_s"] / philox["count"]
    if verts:
        measured["sim.run_frog.us_per_vertex"] = 1e6 * frog["total_s"] / verts
    if isinstance(wl, workloads.SweepWorkload) and wl.spec.coupled:
        first = done[:wl.size]
        full = sum(durs[:len(first)])
        top = sum(_time_top_only(wl, i) for i in first)
        measured["sim.coupled.grid_cost_ratio"] = full / top
    probed, absent, failed_rows = probe.run(
        [k for k in probe.FALLBACKS if k not in measured])
    per_call_time = {**probed, **measured}
    self_s = dict.fromkeys(LAYERS, 0.0)
    for name, agg in s.items():
        layer = tracing.layer_of(name)
        if layer in self_s:
            self_s[layer] += agg["self_s"]

    def share(x):
        return 100.0 * x / unit_s if unit_s else 0.0

    def per_call(x):
        return x / calls if calls else 0.0

    m = {
        "sim.substreams": (philox["count"] / n, "count"),
        "sim.substream_us": (per_call_time["sim.substream_us"], "us"),
        "sim.substream_share": (share(philox["total_s"]), "%"),
        "sim.coupled.grid_cost_ratio": (per_call_time["sim.coupled.grid_cost_ratio"], "x"),
        "sim.run_frog.us_per_vertex": (per_call_time["sim.run_frog.us_per_vertex"], "us"),
        "sim.run_frog.vertices": (per_call(verts), "count"),
        "sim.run_frog.max_awake": (per_call(c["run_frog.max_awake"]), "count"),
        "sim.run_frog.censor.extinct": (100.0 * per_call(c["run_frog.censor.extinct"]), "%"),
        "sim.run_frog.censor.awake_cap": (100.0 * per_call(c["run_frog.censor.awake_cap"]),
                                          "%"),
        "sim.run_frog.censor.horizon": (100.0 * per_call(c["run_frog.censor.horizon"]), "%"),
        "sim.run_frog.resource_errors": (c["run_frog.resource_errors"], "count"),
        "laws.sample.calls": (sample["count"] / n, "count"),
        "laws.sample.draws": (c["laws.sample.draws"] / n, "count"),
        "laws.sample.share": (share(sample["total_s"]), "%"),
    }
    for name, unit, _ in probe.ITEMS:
        m[name] = (probed[name], unit)
    for suite in probe.SUITES:
        m[f"checks.{suite}.ms"] = (probed[f"checks.{suite}.ms"], "ms")
    m["checks.failed_rows"] = (failed_rows, "count")
    for layer in LAYERS:
        m[f"layer.{layer}.self_pct"] = (share(self_s[layer]), "%")
    m["trace.overhead_ms"] = (1e3 * (wall_traced - wall_plain) / n, "ms")
    m["trace.overhead_pct"] = (100.0 * (wall_traced - wall_plain) / wall_plain, "%")
    m["trace.spans"] = (sum(a["count"] for a in s.values()) / n, "count")
    m["trace.absent"] = (len(tracer.absent) + len(absent), "count")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(spans_path)
    detail = {"units": n, "wall_untraced_s": wall_plain, "wall_traced_s": wall_traced,
              "absent": tracer.absent + absent, "spans_file": str(spans_path.relative_to(ROOT)),
              "spans": {k: v for k, v in sorted(s.items())},
              "measured_from_probe": sorted(k for k in probe.FALLBACKS if k not in measured),
              "digest": wl.digest(first_pass(wl, done, outs))}
    return m, 2 * n, failed + tfailed + len(differ), lines, detail


def _time_top_only(wl, i) -> float:
    t = perf_counter()
    wl.run_top_only(i)
    return perf_counter() - t


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args) -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"git_sha": _git_sha(), "src_sha256": digest.hexdigest(), "src_lines": lines,
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bifrog" / "__init__.py").is_file():
        print(f"perfbench: no bifrog package under {SRC}; run from a bifrog checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import bifrog

    if Path(bifrog.__file__).resolve().parent != (SRC / "bifrog").resolve():
        print(f"perfbench: imported bifrog from {bifrog.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench import workloads

    try:
        wl = workloads.make(args.workload, args.seed)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    _, _, (warm_out,), _ = closed_loop(wl, indices=[wl.warmup_index])
    setup_s = perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    warm_problems = check_unit(wl, wl.warmup_index, warm_out)

    if args.trace:
        metrics, attempted, failed, lines, detail = traced_run(wl, args)
    else:
        metrics, attempted, failed, lines, detail = plain_run(wl, args, setup_s)
    lines = warm_problems + lines
    result = {"correct": failed == 0 and not lines, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    detail = {"provenance": provenance(args), **detail,
              "problems": lines[:20], "problem_count": len(lines)}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    print(json.dumps({"detail": {k: v for k, v in detail.items() if k != "unit_ms"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
