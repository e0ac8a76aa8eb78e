"""Check that two checkouts of rpsbm write the same benchmark outputs.

Usage: python tools/same_outputs.py PARENT [CHANGE]

PARENT and CHANGE are checkout roots; CHANGE defaults to the checkout that
holds this script.  The configs of the workloads of CHANGE's
``bench/workloads.py`` are written at seeds 0 and 1, as ``bench/run.py``
writes them.  Each is run as ``python -m rpsbm.cli replicate`` from each
checkout's ``src/`` at one BLAS thread, pinned to one CPU and then to two.
Every output file but manifest.json is compared, and so are the exit status
and the stderr, with each warning's ``file:line`` masked.  Each difference is
printed; the exit status is 1 if there is any, else 0.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (0, 1)
#: A warning's location, as ``warnings.showwarning`` prints it.
WARNING_AT = re.compile(r"^\S.*?:\d+: (?=\w+Warning: )", re.MULTILINE)


def run(root: Path, scenario: str, config: Path, out: Path, cpus: set) -> tuple:
    """(exit status, masked stderr, {file name: bytes}) of one run."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "rpsbm.cli", "replicate", scenario,
         "--config", str(config), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=900,
        preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    files = ({p.name: p.read_bytes() for p in sorted(out.iterdir())
              if p.name != "manifest.json"} if out.is_dir() else {})
    return done.returncode, WARNING_AT.sub("<file:line>: ", done.stderr), files


def differences(parent: tuple, change: tuple) -> list[str]:
    (code_a, err_a, files_a), (code_b, err_b, files_b) = parent, change
    found = []
    if code_a != code_b:
        found.append(f"exit status {code_a} -> {code_b}")
    if err_a != err_b:
        found.append(f"stderr:\n--- parent\n{err_a}--- change\n{err_b}")
    for name in sorted(set(files_a) | set(files_b)):
        if name not in files_b or name not in files_a:
            found.append(f"{name} only in {'parent' if name in files_a else 'change'}")
        elif files_a[name] != files_b[name]:
            found.append(f"{name} differs")
    return found


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    change = Path(argv[1] if len(argv) == 2 else Path(__file__).parent.parent).resolve()
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path.insert(0, str(change / "bench"))
    from workloads import WORKLOADS

    usable = sorted(os.sched_getaffinity(0))
    pins = [set(usable[:1])] + ([set(usable[:2])] if len(usable) > 1 else [])
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            workdir = Path(tmp) / f"seed{seed}"
            workdir.mkdir()
            for name, spec in WORKLOADS.items():
                config = workdir / f"{name}.json"
                config.write_text(json.dumps({
                    "format": 1, "scenario": spec.scenario, "seed": seed,
                    "params": spec.params(seed, workdir)}))
                for cpus in pins:
                    label = f"{name} seed {seed} on {len(cpus)} CPU(s)"
                    runs = [run(root, spec.scenario, config,
                                workdir / f"{name}-{side}-{len(cpus)}", cpus)
                            for side, root in (("parent", parent), ("change", change))]
                    found = differences(*runs)
                    code, _, files = runs[1]
                    failed |= bool(found)
                    print(f"{label}: {'; '.join(found) if found else 'same'} "
                          f"(exit {code}, {len(files)} files)", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
