"""Benchmark harness for bifrog: workloads, output checks, tracing and the
fixed layer probe.  Run it with `python3 perfbench/run.py --help`."""
