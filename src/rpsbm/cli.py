"""Command-line interface.

Every subcommand accepts --seed/--out/--config, writes its outputs plus a
manifest.json recording the exact invocation, and is bit-reproducible for a
fixed seed.  Exit codes: 0 success, 1 I/O or validation failure,
2 infeasibility (small-variance regime or geometry violations); the mapping
from exceptions to codes lives in ``common_options`` and wraps every command.
The scenario commands write a runner's tables and report through
``_write_result``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .contacts import load_contacts, window_contacts
from .fitting import Bandwidth, InfeasibleFitError, fit_nonparametric, fit_parametric
from .geometry import cluster_by_community_count, detect_geometry
from .models import LAWS, load_model, model_to_dict, sample_corpus
from .moments import classify_regimes, compute_moments, moments_report
from .replicate import SCENARIOS, ExperimentConfig, run_scenario
from .spectral import Graph, density, load_edgelist, save_edgelist, spectrum

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


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _config_hash(path: str | None, fallback: dict) -> str:
    if path is not None:
        data = Path(path).read_bytes()
    else:
        data = json.dumps(_jsonable(fallback), sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _write_manifest(out: Path, command: str, args: dict, seed: int,
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


def _load_corpus(corpus_dir: str) -> list[Graph]:
    paths = sorted(Path(corpus_dir).glob("*.txt"))
    if not paths:
        raise ValueError(f"no edge-list files (*.txt) in {corpus_dir}")
    return [load_edgelist(p) for p in paths]


def _outdir(out: str) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_result(outdir: Path, result: dict, report_name: str) -> list[str]:
    """Write a scenario runner's tables as CSV and its report as JSON.

    Floats are written with 17 significant digits, so a table reads back
    bit-exact.  Returns the names of the files written.
    """
    outputs = []
    for name, rows in result["tables"].items():
        cols = list(rows[0])
        with open(outdir / name, "w", encoding="utf-8") as fh:
            fh.write(",".join(cols) + "\n")
            for row in rows:
                fh.write(",".join(
                    format(row[c], ".17g") if isinstance(row[c], float) else str(row[c])
                    for c in cols) + "\n")
        outputs.append(name)
    _write_json(outdir / report_name, {"format": 1, **result["report"]})
    return outputs + [report_name]


def common_options(body):
    """Add --seed/--out/--config and map the command's exceptions to exit
    codes: infeasible fits exit 2, I/O and validation errors exit 1."""

    @functools.wraps(body)
    def fn(*args, **kwargs):
        try:
            return body(*args, **kwargs)
        except InfeasibleFitError as exc:
            _fail(str(exc), 2)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            _fail(str(exc), 1)

    fn = click.option("--seed", type=int, default=0, show_default=True,
                      help="Master seed; all randomness derives from it.")(fn)
    fn = click.option("--out", "out", required=True,
                      help="Output directory.")(fn)
    fn = click.option("--config", "config", default=None,
                      help="JSON config file with parameter overrides.")(fn)
    return fn


@click.group()
@click.version_option(__version__)
def main():
    """Spectral density estimation for corpora of large graphs."""


@main.command()
@common_options
@click.option("--model", "model_path", required=True, help="Model spec JSON.")
@click.option("--n", type=int, required=True, help="Graph size.")
@click.option("--count", type=int, required=True, help="Number of graphs.")
def sample(seed, out, config, model_path, n, count):
    """Sample graphs from a model spec into edge-list files."""
    outdir = _outdir(out)
    model = load_model(model_path)
    graphs = sample_corpus(model, n, count, seed)
    outputs = []
    for k, g in enumerate(graphs):
        name = f"graph_{k:04d}.txt"
        save_edgelist(g, outdir / name)
        outputs.append(name)
    _write_manifest(outdir, "sample",
                    {"model": model_to_dict(model), "n": n, "count": count},
                    seed, config, outputs)
    click.echo(f"wrote {count} graphs to {outdir}")


@main.command()
@common_options
@click.option("--corpus", "corpus_dir", required=True, help="Corpus directory.")
@click.option("-c", "trunc", type=int, required=True, help="Truncation order.")
def spectra(seed, out, config, corpus_dir, trunc):
    """Top-c eigenvalues and density of every corpus graph (CSV)."""
    outdir = _outdir(out)
    corpus = _load_corpus(corpus_dir)
    # every row is computed before the file is opened, so a graph that
    # fails leaves no half-written table behind
    rows = [",".join(format(v, ".17g")
                     for v in (*spectrum(g, trunc).values, density(g)))
            for g in corpus]
    path = outdir / "spectra.csv"
    with open(path, "w", encoding="utf-8") as fh:
        head = ",".join(f"lambda{i+1}" for i in range(trunc))
        fh.write(f"graph,{head},density\n")
        for k, row in enumerate(rows):
            fh.write(f"{k},{row}\n")
    _write_manifest(outdir, "spectra", {"corpus": corpus_dir, "c": trunc},
                    seed, config, ["spectra.csv"])
    click.echo(f"wrote {path}")


@main.command()
@common_options
@click.option("--corpus", "corpus_dir", required=True)
@click.option("-c", "trunc", type=int, required=True)
def moments(seed, out, config, corpus_dir, trunc):
    """Corpus moments report (mean spectrum, covariance, regimes)."""
    outdir = _outdir(out)
    corpus = _load_corpus(corpus_dir)
    m = compute_moments(corpus, trunc)
    _write_json(outdir / "moments.json", moments_report(m))
    _write_manifest(outdir, "moments", {"corpus": corpus_dir, "c": trunc},
                    seed, config, ["moments.json"])
    click.echo(f"wrote {outdir / 'moments.json'}")


@main.command()
@common_options
@click.option("--corpus", "corpus_dir", required=True)
@click.option("-c", "trunc", type=int, required=True)
def regimes(seed, out, config, corpus_dir, trunc):
    """Variance-regime report per eigenvalue index."""
    outdir = _outdir(out)
    corpus = _load_corpus(corpus_dir)
    m = compute_moments(corpus, trunc)
    s = np.full(trunc, 1.0 / trunc)
    rep = classify_regimes(m, s)
    payload = {
        "format": 1,
        "regimes": list(rep.regimes),
        "diagnostic": rep.diagnostic,
        "ratio": rep.ratio,
    }
    _write_json(outdir / "regimes.json", payload)
    _write_manifest(outdir, "regimes", {"corpus": corpus_dir, "c": trunc},
                    seed, config, ["regimes.json"])
    click.echo(f"wrote {outdir / 'regimes.json'}")


def _geometry_s(corpus, trunc):
    """Average geometry vector over graphs whose detected count equals c."""
    estimates = [detect_geometry(g) for g in corpus]
    members = cluster_by_community_count(estimates).get(trunc)
    if not members:
        raise InfeasibleFitError(
            f"no corpus graph has {trunc} detected communities")
    s = np.mean(np.vstack([estimates[i].s for i in members]), axis=0)
    return s / s.sum()


@main.command()
@common_options
@click.option("--corpus", "corpus_dir", required=True)
@click.option("-c", "trunc", type=int, required=True)
@click.option("--family", type=click.Choice(list(LAWS)),
              default="uniform", show_default=True)
@click.option("--s-from-geometry", is_flag=True,
              help="Estimate the geometry vector from the Bethe Hessian.")
def fit(seed, out, config, corpus_dir, trunc, family, s_from_geometry):
    """Parametric moment-matching fit of a random-parameter block model."""
    outdir = _outdir(out)
    corpus = _load_corpus(corpus_dir)
    m = compute_moments(corpus, trunc)
    s_override = _geometry_s(corpus, trunc) if s_from_geometry else None
    result = fit_parametric(m, trunc, family=family, s_override=s_override)
    payload = {
        "format": 1,
        "model": model_to_dict(result.model),
        "moments_J": {"mean": result.mean_J, "cov": result.cov_J,
                      "eps_raw": result.eps_raw},
        "feasibility": result.feasibility,
        "warnings": result.warnings,
    }
    _write_json(outdir / "fit.json", payload)
    _write_manifest(outdir, "fit",
                    {"corpus": corpus_dir, "c": trunc, "family": family,
                     "s_from_geometry": s_from_geometry},
                    seed, config, ["fit.json"])
    click.echo(f"wrote {outdir / 'fit.json'}")


@main.command(name="fit-np")
@common_options
@click.option("--corpus", "corpus_dir", required=True)
@click.option("-c", "trunc", type=int, required=True)
@click.option("--bandwidth", default="silverman", show_default=True,
              help="'silverman' or 'fixed:<h>'.")
def fit_np(seed, out, config, corpus_dir, trunc, bandwidth):
    """Nonparametric graph-space kernel-mixture fit."""
    outdir = _outdir(out)
    corpus = _load_corpus(corpus_dir)
    if bandwidth.startswith("fixed:"):
        h = float(bandwidth.split(":", 1)[1])
        bw = Bandwidth(np.diag(np.full(trunc, h)))
    elif bandwidth == "silverman":
        bw = None
    else:
        raise ValueError(f"unknown bandwidth rule {bandwidth!r}")
    mix = fit_nonparametric(corpus, trunc, bandwidth=bw)
    payload = {
        "format": 1,
        "weights": mix.weights,
        "components": [model_to_dict(comp) for comp in mix.components],
        "dirac_fallback": [list(f) for f in mix.dirac_fallback],
    }
    _write_json(outdir / "mixture.json", payload)
    _write_manifest(outdir, "fit-np",
                    {"corpus": corpus_dir, "c": trunc, "bandwidth": bandwidth},
                    seed, config, ["mixture.json"])
    click.echo(f"wrote {outdir / 'mixture.json'}")


@main.command()
@common_options
@click.option("--corpus", "corpus_dir", required=True)
def geometry(seed, out, config, corpus_dir):
    """Per-graph geometry estimates and clustering by community count."""
    outdir = _outdir(out)
    corpus = _load_corpus(corpus_dir)
    estimates = [detect_geometry(g) for g in corpus]
    payload = {
        "format": 1,
        "graphs": [e.to_dict() for e in estimates],
        "clusters": cluster_by_community_count(estimates),
    }
    _write_json(outdir / "geometry.json", payload)
    _write_manifest(outdir, "geometry", {"corpus": corpus_dir},
                    seed, config, ["geometry.json"])
    click.echo(f"wrote {outdir / 'geometry.json'}")


@main.command(name="critical-n")
@common_options
@click.option("--mixture-spec", "spec_path", required=True,
              help="JSON with n, omega, p_values.")
@click.option("--n-max", type=int, required=True)
def critical_n(seed, out, config, spec_path, n_max):
    """Critical corpus size for the ER-mixture bandwidth condition."""
    outdir = _outdir(out)
    spec = _load_json(spec_path)
    if not isinstance(spec, dict):
        raise ValueError("mixture spec must be a JSON object")
    if spec.get("format") != 1:
        raise ValueError("unsupported mixture spec format")
    params = {"n": spec["n"], "omega": spec.get("omega"),
              "p_values": spec["p_values"], "N_max": n_max}
    params = {k: v for k, v in params.items() if v is not None}
    result = run_scenario("critical-n", seed, params)
    outputs = _write_result(outdir, result, "critical_n.json")
    _write_manifest(outdir, "critical-n", {"mixture_spec": spec, "n_max": n_max},
                    seed, config, outputs)
    click.echo(f"N_crit = {result['report']['n_crit']}")


@main.command()
@common_options
@click.option("--file", "contact_file", required=True, help="Contact stream file.")
@click.option("--window", type=int, default=2700, show_default=True)
@click.option("--step", type=int, default=20, show_default=True)
def contacts(seed, out, config, contact_file, window, step):
    """Window a temporal contact stream into a corpus of graphs."""
    outdir = _outdir(out)
    stream = load_contacts(contact_file)
    graphs = window_contacts(stream, window, step)
    outputs = []
    for k, g in enumerate(graphs):
        name = f"graph_{k:04d}.txt"
        save_edgelist(g, outdir / name)
        outputs.append(name)
    _write_manifest(outdir, "contacts",
                    {"file": contact_file, "window": window, "step": step},
                    seed, config, outputs)
    click.echo(f"wrote {len(graphs)} windowed graphs to {outdir}")


@main.command()
@common_options
@click.argument("scenario", type=click.Choice(SCENARIOS))
def replicate(seed, out, config, scenario):
    """Run a full benchmark scenario and emit its error tables."""
    outdir = _outdir(out)
    params = {}
    if config is not None:
        exp = ExperimentConfig.from_dict(_load_json(config))
        if exp.scenario != scenario:
            raise ValueError(
                f"config is for scenario {exp.scenario!r}, not {scenario!r}")
        seed, params = exp.seed, exp.params
    outputs = _write_result(outdir, run_scenario(scenario, seed, params), "report.json")
    _write_manifest(outdir, f"replicate {scenario}",
                    {"scenario": scenario, "params": params},
                    seed, config, outputs)
    click.echo(f"scenario {scenario} complete; outputs in {outdir}")


if __name__ == "__main__":
    main()
