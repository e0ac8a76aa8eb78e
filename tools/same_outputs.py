"""Check that two checkouts of rpsbm write the same outputs.

Usage: python tools/same_outputs.py PARENT [CHANGE]

PARENT and CHANGE are checkout roots; CHANGE defaults to the checkout that
holds this script.  Every command runs as ``python -m rpsbm.cli ...`` from
each checkout's ``src/`` at one BLAS thread, pinned to one CPU and then to
two:

 * ``replicate`` on the configs of the workloads of CHANGE's
   ``bench/workloads.py``, written at seeds 0 and 1 as ``bench/run.py``
   writes them;
 * ``contacts`` on the stream the ``contacts`` workload wrote at seed 0,
   with that workload's window and step, and on a copy of it that only the
   line reader takes (``messy_copy``);
 * ``sample`` of a 24-graph corpus at n = 300 from ``MODEL``, and on the
   corpus PARENT sampled: ``spectra``, ``moments``, ``fit`` for each
   family and with ``--s-from-geometry``, and ``fit-np`` (Silverman's rule,
   ``fixed:2.5`` and ``fixed:0.3``, whose components have zero kernel
   widths at some coordinates and not at others), all at c = 2, and
   ``geometry``.

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
#: The standalone commands' model: two blocks, a uniform law and weak coupling.
MODEL = {"format": 1, "omega": 0.3, "s": [0.5, 0.5], "epsilon": 0.05,
         "law": {"kind": "uniform", "center": [0.8, 0.5], "width": [0.1, 0.1]}}
FAMILIES = ("dirac", "uniform", "beta")
#: A warning's location, as ``warnings.showwarning`` prints it.
WARNING_AT = re.compile(r"^\S.*?:\d+: (?=\w+Warning: )", re.MULTILINE)


def run(root: Path, args: list[str], out: Path, cpus: set) -> tuple:
    """(exit status, masked stderr, {file name: bytes}) of one run."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "rpsbm.cli", *args, "--out", str(out)],
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


def messy_copy(clean: Path, messy: Path) -> None:
    """``clean``, a contact stream with a header comment, rewritten so that
    only the line reader takes it: CRLF endings, an indented comment, an
    inline "#", one four-column line and a self-contact."""
    head, *data = clean.read_text(encoding="utf-8").splitlines()
    t, i, _ = data[0].split()
    data[0] += " # first record"
    data[1] += " 7"
    data.insert(2, f"{t} {i} {i}")
    messy.write_bytes("\r\n".join(["  " + head, *data, ""]).encode())


def standalone(corpus: Path) -> dict[str, list[str]]:
    """The commands run on a sampled corpus, by label."""
    on = ["--corpus", str(corpus)]
    commands = {"spectra": ["spectra", "-c", "2", *on],
                "moments": ["moments", "-c", "2", *on]}
    for family in FAMILIES:
        commands[f"fit {family}"] = ["fit", "-c", "2", "--family", family, *on]
    commands["fit --s-from-geometry"] = ["fit", "-c", "2", "--s-from-geometry",
                                         *on]
    for bandwidth in ("silverman", "fixed:2.5", "fixed:0.3"):
        commands[f"fit-np {bandwidth}"] = ["fit-np", "-c", "2", "--bandwidth",
                                           bandwidth, *on]
    commands["geometry"] = ["geometry", *on]
    return commands


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    change = Path(argv[1] if len(argv) == 2 else Path(__file__).parent.parent).resolve()
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path.insert(0, str(change / "bench"))
    from workloads import STEP, WINDOW, WORKLOADS

    usable = sorted(os.sched_getaffinity(0))
    pins = [set(usable[:1])] + ([set(usable[:2])] if len(usable) > 1 else [])
    failed = False

    def compare(label: str, args: list[str], outdir: Path) -> Path:
        """Run ``args`` from both checkouts on each pin; the parent's output
        directory of the first pin."""
        nonlocal failed
        for cpus in pins:
            outs = [outdir / f"{side}-{len(cpus)}" for side in ("parent", "change")]
            runs = [run(root, args, out, cpus)
                    for root, out in zip((parent, change), outs)]
            found = differences(*runs)
            code, _, files = runs[1]
            failed |= bool(found)
            print(f"{label} on {len(cpus)} CPU(s): "
                  f"{'; '.join(found) if found else 'same'} "
                  f"(exit {code}, {len(files)} files)", flush=True)
        return outdir / f"parent-{len(pins[0])}"

    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            workdir = Path(tmp) / f"seed{seed}"
            workdir.mkdir()
            for name, spec in WORKLOADS.items():
                config = workdir / f"{name}.json"
                config.write_text(json.dumps({
                    "format": 1, "scenario": spec.scenario, "seed": seed,
                    "params": spec.params(seed, workdir)}))
                compare(f"{name} seed {seed}",
                        ["replicate", spec.scenario, "--config", str(config)],
                        workdir / name)
        stream = Path(tmp) / "seed0" / "contacts.txt"
        messy = Path(tmp) / "messy.txt"
        messy_copy(stream, messy)
        for label, path in (("contacts", stream), ("contacts messy", messy)):
            compare(label, ["contacts", "--file", str(path), "--window",
                            str(WINDOW), "--step", str(STEP)],
                    Path(tmp) / label.replace(" ", "-"))
        model = Path(tmp) / "model.json"
        model.write_text(json.dumps(MODEL))
        corpus = compare("sample", ["sample", "--model", str(model), "--n", "300",
                                    "--count", "24"], Path(tmp) / "sample")
        for k, (label, args) in enumerate(standalone(corpus).items()):
            compare(label, args, Path(tmp) / f"standalone{k}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
