"""Benchmark of ``rpsbm replicate``: one workload, one fresh process.

Usage (from the repository root, with the environment BENCHMARK.json gives):

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 bench/run.py \\
        --workload recover-n2000 --seed 0 --seconds 10 --trace 0

The run times the import of ``rpsbm`` and ``rpsbm.cli`` (in this process and
in a few fresh child processes), then invokes the user-facing command
``replicate <scenario> --config <cfg> --out <dir>`` in-process, one round
after another, until ``--seconds`` have passed.  With ``--trace 1`` it then
runs one more round with every layer function wrapped (see spans.py).  The
outputs of the last untraced round are checked after the timed region (see
workloads.py and checks.py).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

# Set in BENCHMARK.json's command: one BLAS thread, so that LAPACK-heavy
# rounds do not depend on how the two cores are shared (see README.md).
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# Import timings per run: this process plus fresh children; the median counts.
SETUP_CHILDREN = 2
IMPORT_SNIPPET = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import rpsbm, rpsbm.cli\n"
    "print(time.perf_counter() - t)\n"
)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program() -> float:
    """Import rpsbm from this checkout's src/; returns the seconds taken."""
    if not (SRC / "rpsbm" / "__init__.py").is_file():
        fail(f"no rpsbm package under {SRC}")
    t = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import rpsbm
    import rpsbm.cli  # noqa: F401
    took = time.perf_counter() - t
    if Path(rpsbm.__file__).resolve().parent != SRC / "rpsbm":
        fail(f"imported rpsbm from {rpsbm.__file__}, not from {SRC}")
    return took


def child_import_time() -> float:
    done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def invoke(scenario: str, config: Path, out: Path) -> bool:
    """``rpsbm replicate`` in-process; True when it exits with code 0."""
    import click
    import rpsbm.cli

    args = ["replicate", scenario, "--config", str(config), "--out", str(out)]
    try:
        rpsbm.cli.main(args, prog_name="rpsbm", standalone_mode=False)
    except SystemExit as exc:
        return exc.code in (0, None)
    except click.ClickException as exc:
        print(f"bench: {exc.format_message()}", file=sys.stderr)
        return False
    return True


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> None:
    args = parse_args(argv)
    for var in BLAS_ENV:
        if os.environ.get(var) != "1":
            fail(f"{var}=1 must be set; run the command in BENCHMARK.json")
    setup = [import_program()]
    setup += [child_import_time() for _ in range(SETUP_CHILDREN)]

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    spec = WORKLOADS[args.workload]
    workdir = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run_workload(spec, args, workdir, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def run_workload(spec, args, workdir: Path, setup: list[float]) -> dict:
    config = workdir / "config.json"
    config.write_text(json.dumps({"format": 1, "scenario": spec.scenario,
                                  "seed": args.seed,
                                  "params": spec.params(args.seed, workdir)}))
    attempted = failed = 0
    walls = []
    last_ok = None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        out = workdir / f"round{len(walls)}"
        t = time.perf_counter()
        ok = invoke(spec.scenario, config, out)
        walls.append(time.perf_counter() - t)
        attempted += 1
        if ok:
            last_ok = out
        else:
            failed += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"bench: {args.workload} seed {args.seed}: {len(walls)} rounds, "
          f"wall_s {[round(w, 3) for w in walls]}, "
          f"setup_s {[round(s, 3) for s in setup]}", file=sys.stderr)

    if args.trace:
        from spans import CLI_SPAN, Tracer, per_layer_units

        tracer = Tracer()
        tracer.install()
        cpu, t = cpu_seconds(), time.perf_counter()
        try:
            ok = tracer.call(CLI_SPAN, invoke, spec.scenario, config, workdir / "traced")
        finally:
            traced_wall = time.perf_counter() - t
            cpu = cpu_seconds() - cpu
            tracer.uninstall()
        attempted += 1
        failed += not ok
        values = tracer.metrics()
        values["process.cpu_s"] = cpu
        values["trace.overhead_s"] = traced_wall - statistics.median(walls)
        tracer.write(workdir.parent / f"trace-{args.workload}-{args.seed}.jsonl")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_units().items()}
    else:
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    correct = last_ok is not None
    if last_ok is not None:
        for name, check in spec.checks(last_ok, args.seed, workdir):
            attempted += 1
            try:
                note = check()
                print(f"bench: check {name}: ok ({note})", file=sys.stderr)
            except Exception as exc:  # a check that cannot run has failed too
                failed += 1
                correct = False
                print(f"bench: check {name}: FAILED: {exc!r}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


if __name__ == "__main__":
    main()
