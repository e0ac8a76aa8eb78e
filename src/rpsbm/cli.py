"""Command-line interface.

Every subcommand is registered by ``command``, which adds --out and is the
one output path: a command body only computes, and returns its files by name
with the manifest's args and its seed.  Only the two commands that draw,
``sample`` and ``replicate``, take --seed (``seed_option``); the others
record a null seed.  The wrapper then creates --out, writes each file
through ``_write`` (edge list, CSV or JSON, picked by the payload) and
writes manifest.json recording the exact invocation.  The graphs of
``sample`` and ``contacts`` are made as their files are written, one at a
time, and a command that fails removes what it wrote, so it leaves no --out
behind.  Every command is bit-reproducible, for a fixed seed where it
takes one.  Exit codes: 0 success, 1 I/O, validation or out-of-memory
failure, 2 infeasibility (small-variance regime, geometry violations or
moments no beta law has); the wrapper maps exceptions to them.

Only ``replicate`` takes --config, its experiment config.  Both JSON inputs
(the model spec and the experiment config) are read by ``models._read``, so
an unknown or missing key, or a value of the wrong kind, exits 1 naming it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import shutil
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .contacts import load_contacts, window_contacts
from .fitting import InfeasibleFitError, fit_nonparametric, fit_parametric
from .geometry import cluster_by_community_count, detect_geometry
from .models import (LAWS, LazyCorpus, _read, iter_corpus, load_model,
                     model_to_dict)
from .moments import _rows, compute_moments, moments_report
from .replicate import SCENARIOS, run_scenario
from .spectral import INT64_BOUND, Graph, load_edgelist, save_edgelist

click.UsageError.exit_code = 1  # spec: validation errors exit 1


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _config_hash(path: str | None, fallback: dict) -> str:
    if path is not None:
        data = Path(path).read_bytes()
    else:
        data = json.dumps(_jsonable(fallback), sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _write_manifest(out: Path, command: str, args: dict, seed: int | None,
                    config_path: str | None, outputs: list[str]) -> None:
    import scipy

    manifest = {
        "format": 1,
        "command": command,
        "args": _jsonable(args),
        "seed": seed,
        "config_hash": _config_hash(config_path, args),
        "versions": {
            "rpsbm": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "outputs": sorted(outputs),
    }
    _write_json(out / "manifest.json", manifest)


def _load_corpus(corpus_dir: str) -> LazyCorpus:
    """The corpus's edge-list files in name order, as a lazy corpus: a graph
    is read only when its item is, so a consumer holds one graph at a time
    and a pool worker of ``compute_moments`` loads the graphs it reduces."""
    paths = sorted(Path(corpus_dir).glob("*.txt"))
    if not paths:
        raise ValueError(f"no edge-list files (*.txt) in {corpus_dir}")
    return LazyCorpus(load_edgelist, paths)


def _graph_files(corpus: LazyCorpus) -> dict:
    """graph_0000.txt, graph_0001.txt, ... of a lazy corpus, each a call
    that makes its graph: ``_write`` makes graph k as it writes its file, so
    one graph is alive at a time."""
    return {f"graph_{k:04d}.txt": functools.partial(corpus.__getitem__, k)
            for k in range(len(corpus))}


def _write(path: Path, payload) -> None:
    """Write one output file in the format its payload calls for: a Graph as
    an edge list, a list of row dicts as CSV, a dict as JSON.  A callable
    payload is called first, and what it returns is written.  CSV floats
    get 17 significant digits, so a table reads back bit-exact."""
    if callable(payload):
        payload = payload()
    if isinstance(payload, Graph):
        save_edgelist(payload, path)
    elif isinstance(payload, list):
        cols = list(payload[0])
        lines = [",".join(cols)] + [
            ",".join(format(row[c], ".17g") if isinstance(row[c], float)
                     else str(row[c]) for c in cols)
            for row in payload]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        _write_json(path, payload)


@click.group()
@click.version_option(__version__)
def main():
    """Spectral density estimation for corpora of large graphs."""


def _discard(made: Path | None, written: list[Path]) -> None:
    """Remove what a failed command wrote: the outermost directory it
    created, or else the files it wrote into an --out that existed."""
    if made is not None:
        shutil.rmtree(made, ignore_errors=True)
    else:
        for path in written:
            path.unlink(missing_ok=True)


def command(body):
    """Register ``body`` as a subcommand of ``main`` with --out; only the
    commands that draw also take --seed, from ``seed_option``.

    The body writes nothing: called with its own options, it returns
    ``(files, args, seed)``, its outputs by file name (a payload or a call
    that makes it, see ``_write``), the manifest's args and the seed it ran
    with, None for a command that draws nothing.  Only then is --out
    created, each file written and manifest.json written last; its command
    is the subcommand and its positional arguments, and its config hash is
    that of the file --config names, on the command that has it.  A payload
    made as it is written can still fail; then ``_discard`` removes what the
    run wrote.  Infeasible fits exit 2; I/O, validation and out-of-memory
    errors, and a negative --seed (checked before the body runs), exit 1.
    """

    @functools.wraps(body)
    def fn(out, **options):
        outdir = Path(out)
        made, written = None, []
        try:
            if (seed := options.get("seed", 0)) < 0:
                raise ValueError(f"--seed must be at least 0, not {seed}")
            files, args, seed = body(**options)
            # the outermost directory this run creates, if any
            made = next((d for d in [*reversed(outdir.parents), outdir]
                         if not d.exists()), None)
            outdir.mkdir(parents=True, exist_ok=True)
            for name, payload in files.items():
                written.append(outdir / name)
                _write(outdir / name, payload)
            cmd = click.get_current_context().command
            words = [cmd.name] + [options[p.name] for p in cmd.params
                                  if isinstance(p, click.Argument)]
            _write_manifest(outdir, " ".join(words), args, seed,
                            options.get("config"), list(files))
        except BaseException as exc:
            _discard(made, written)
            if isinstance(exc, InfeasibleFitError):
                _fail(str(exc), 2)
            if isinstance(exc, (OSError, ValueError, KeyError, MemoryError,
                                json.JSONDecodeError)):
                _fail(str(exc) or type(exc).__name__, 1)
            raise
        click.echo(f"wrote {', '.join(sorted([*files, 'manifest.json']))} "
                   f"to {outdir}")

    fn = click.option("--out", "out", required=True,
                      help="Output directory.")(fn)
    return main.command()(fn)


seed_option = click.option("--seed", type=int, default=0, show_default=True,
                           help="Master seed; all randomness derives from it.")


@command
@seed_option
@click.option("--model", "model_path", required=True, help="Model spec JSON.")
@click.option("--n", type=int, required=True, help="Graph size.")
@click.option("--count", type=int, required=True, help="Number of graphs.")
def sample(seed, model_path, n, count):
    """Sample graphs from a model spec into edge-list files."""
    if count < 1:
        raise ValueError(f"--count must be at least 1, not {count}")
    model = load_model(model_path)
    return (_graph_files(iter_corpus(model, n, count, seed)),
            {"model": model_to_dict(model), "n": n, "count": count}, seed)


@command
@click.option("--corpus", "corpus_dir", required=True, help="Corpus directory.")
@click.option("-c", "trunc", type=int, required=True, help="Truncation order.")
def spectra(corpus_dir, trunc):
    """Top-c eigenvalues and density of every corpus graph (CSV), computed
    on every usable CPU; graph sizes may differ."""
    rows = _rows(_load_corpus(corpus_dir), trunc)
    table = [{"graph": k, **{f"lambda{i+1}": v for i, v in enumerate(values)},
              "density": rho} for k, (_, values, rho) in enumerate(rows)]
    return {"spectra.csv": table}, {"corpus": corpus_dir, "c": trunc}, None


@command
@click.option("--corpus", "corpus_dir", required=True)
@click.option("-c", "trunc", type=int, required=True)
def moments(corpus_dir, trunc):
    """Corpus moments report (mean spectrum, covariance, regimes)."""
    m = compute_moments(_load_corpus(corpus_dir), trunc)
    return ({"moments.json": moments_report(m)},
            {"corpus": corpus_dir, "c": trunc}, None)


def _geometry_s(corpus, trunc):
    """Average geometry vector over graphs whose detected count equals c."""
    matches = [s for s in map(detect_geometry, corpus) if len(s) == trunc]
    if not matches:
        raise InfeasibleFitError(
            f"no corpus graph has {trunc} detected communities")
    s = np.mean(np.vstack(matches), axis=0)
    return s / s.sum()


@command
@click.option("--corpus", "corpus_dir", required=True)
@click.option("-c", "trunc", type=int, required=True)
@click.option("--family", type=click.Choice(list(LAWS)),
              default="uniform", show_default=True)
@click.option("--s-from-geometry", is_flag=True,
              help="Estimate the geometry vector from the Bethe Hessian.")
def fit(corpus_dir, trunc, family, s_from_geometry):
    """Parametric moment-matching fit of a random-parameter block model."""
    m = compute_moments(_load_corpus(corpus_dir), trunc)
    s_override = (_geometry_s(_load_corpus(corpus_dir), trunc)
                  if s_from_geometry else None)
    result = fit_parametric(m, family=family, s_override=s_override)
    payload = {
        "format": 1,
        "model": model_to_dict(result.model),
        "moments_J": {"mean": result.mean_J, "cov": result.cov_J,
                      "eps_raw": result.eps_raw},
        "feasibility": result.feasibility,
        "warnings": result.warnings,
    }
    return ({"fit.json": payload},
            {"corpus": corpus_dir, "c": trunc, "family": family,
             "s_from_geometry": s_from_geometry}, None)


@command
@click.option("--corpus", "corpus_dir", required=True)
@click.option("-c", "trunc", type=int, required=True)
@click.option("--bandwidth", default="silverman", show_default=True,
              help="'silverman' or 'fixed:<h>'.")
def fit_np(corpus_dir, trunc, bandwidth):
    """Nonparametric graph-space kernel-mixture fit."""
    if bandwidth.startswith("fixed:"):
        try:
            h = float(bandwidth.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"--bandwidth {bandwidth!r}: the h of "
                             f"'fixed:<h>' must be a number") from None
        bw = np.full(trunc, h)
    elif bandwidth == "silverman":
        bw = None
    else:
        raise ValueError(f"--bandwidth {bandwidth!r}: unknown rule, not "
                         f"'silverman' or 'fixed:<h>'")
    mix = fit_nonparametric(compute_moments(_load_corpus(corpus_dir), trunc),
                            bandwidth=bw)
    payload = {
        "format": 1,
        "weights": mix.weights,
        "components": [model_to_dict(comp) for comp in mix.components],
        "dirac_fallback": [list(f) for f in mix.dirac_fallback],
    }
    return ({"mixture.json": payload},
            {"corpus": corpus_dir, "c": trunc, "bandwidth": bandwidth}, None)


@command
@click.option("--corpus", "corpus_dir", required=True)
def geometry(corpus_dir):
    """Per-graph geometry estimates and clustering by community count."""
    geometries = list(map(detect_geometry, _load_corpus(corpus_dir)))
    payload = {
        "format": 1,
        "graphs": [{"s": s, "community_count": len(s)} for s in geometries],
        "clusters": cluster_by_community_count(geometries),
    }
    return {"geometry.json": payload}, {"corpus": corpus_dir}, None


@command
@click.option("--file", "contact_file", required=True, help="Contact stream file.")
@click.option("--window", type=int, default=2700, show_default=True)
@click.option("--step", type=int, default=20, show_default=True)
def contacts(contact_file, window, step):
    """Window a temporal contact stream into a corpus of graphs."""
    for name, value in (("--window", window), ("--step", step)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, not {value}")
        if value >= INT64_BOUND:
            raise ValueError(f"{name} must be below 2**63, not {value}")
    graphs = window_contacts(load_contacts(contact_file), window, step)
    if not graphs:
        raise ValueError("stream shorter than one window")
    return (_graph_files(graphs),
            {"file": contact_file, "window": window, "step": step}, None)


@command
@seed_option
@click.argument("scenario", type=click.Choice(SCENARIOS))
@click.option("--config", "config", default=None,
              help="Experiment config JSON: format, scenario, seed (default "
                   "--seed) and params overriding the scenario's defaults.")
def replicate(seed, scenario, config):
    """Run a full benchmark scenario and emit its error tables."""
    params = {}
    if config is not None:
        cfg = _read("config", json.loads(Path(config).read_text(encoding="utf-8")),
                    format=int, scenario=str, seed=(int, seed, 0),
                    params=(dict, {}))
        if cfg["format"] != 1:
            raise ValueError(f"config 'format' must be 1, not {cfg['format']}")
        if cfg["scenario"] != scenario:
            raise ValueError(f"config is for scenario {cfg['scenario']!r}, "
                             f"not {scenario!r}")
        seed, params = cfg["seed"], cfg["params"]
    result = run_scenario(scenario, seed, params)
    return ({**result["tables"], "report.json": {"format": 1, **result["report"]}},
            {"scenario": scenario, "params": params}, seed)


if __name__ == "__main__":
    main()
