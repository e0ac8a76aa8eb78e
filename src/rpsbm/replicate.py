"""End-to-end experiment scenarios (synthetic benchmarks + contact data).

Each scenario samples its corpus, runs the relevant fit and resamples.  Its
runner returns ``{"tables": {file name: CSV rows}, "report": {...}}``: flat
row dicts and a JSON-ready report, which the CLI writes out unchanged.  All
randomness derives from the master seed; scenario parameters are overridable
through the ``params`` mapping of an experiment config file, and a key there
that the runner does not read is an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .fitting import (
    critical_sample_size,
    fit_nonparametric,
    fit_parametric,
    run_er_mixture_pipeline,
    sample_mixture,
)
from .geometry import cluster_by_community_count, detect_geometry
from .models import (
    RpsbmModel,
    SbmParams,
    UniformProductLaw,
    _check_keys,
    model_to_dict,
    sample_corpus,
    sample_sbm,
)
from .moments import compute_moments
from .contacts import load_contacts, window_contacts

SCENARIOS = ("recoverability", "mixture-beta", "critical-n", "contacts")


@dataclass(frozen=True)
class ExperimentConfig:
    """Scenario name, master seed, and parameter overrides."""

    scenario: str
    seed: int
    params: dict

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ValueError("config must be a JSON object")
        _check_keys("config", d, ["format", "scenario"],
                    optional=["seed", "params"])
        if d["format"] != 1:
            raise ValueError("unsupported config format")
        params = d.get("params", {})
        if not isinstance(params, dict):
            raise ValueError("config params must be a JSON object")
        try:
            seed = int(d.get("seed", 0))
        except TypeError:
            raise ValueError("config seed must be a number") from None
        return cls(scenario=d["scenario"], seed=seed, params=dict(params))


def run_scenario(scenario: str, seed: int, params: dict) -> dict:
    """Run one scenario by name.

    The runners are looked up when called, so that a wrapper installed on a
    module attribute (a profiler, say) sees every scenario run.
    """
    runners = {"recoverability": run_recoverability,
               "mixture-beta": run_mixture_beta,
               "critical-n": run_critical_n,
               "contacts": run_contacts}
    return runners[scenario](seed, params)


def _with_defaults(scenario: str, params: dict, defaults: dict,
                   optional: str) -> dict:
    """``params`` over ``defaults``.  A key that is neither a default nor
    ``optional`` is one the runner would not read, so it is rejected."""
    _check_keys(f"{scenario} params", params, [], optional=[*defaults, optional])
    return {**defaults, **params}


def _rel_err(est, truth):
    return abs(est - truth) / abs(truth)


def _moment_rows(mom, new_mom) -> list[dict]:
    """Per-index lambda_bar and sigma_hat of a corpus and its resample."""
    return [{
        "lambda_bar": mom.mean_spectrum[i],
        "lambda_bar_new": new_mom.mean_spectrum[i],
        "rel_err_lambda_bar": _rel_err(new_mom.mean_spectrum[i], mom.mean_spectrum[i]),
        "sigma_hat": mom.cov[i, i],
        "sigma_hat_new": new_mom.cov[i, i],
        "rel_err_sigma_hat": _rel_err(new_mom.cov[i, i], mom.cov[i, i]),
    } for i in range(mom.c)]


def run_recoverability(seed: int, params: dict) -> dict:
    """Sample an RPSBM corpus with known parameters, fit, and resample.

    Defaults: N=50, n=1000, omega=10/sqrt(n), eps=0.05, s=[0.5,0.5],
    J = U[0.8,0.9] x U[0.55,0.6].
    """
    p = _with_defaults("recoverability", params, dict(
        N=50, n=1000, eps=0.05, centers=[0.85, 0.575], widths=[0.1, 0.05],
        s=[0.5, 0.5], resample=None), optional="omega")
    try:
        n, N = int(p["n"]), int(p["N"])
        omega = float(p.get("omega", 10.0 / np.sqrt(n)))
        eps = float(p["eps"])
        resample_n = N if p["resample"] is None else int(p["resample"])
    except TypeError:
        raise ValueError("recoverability needs numbers for n, N, omega, eps "
                         "and resample") from None
    s = np.asarray(p["s"], dtype=float)
    centers = np.asarray(p["centers"], dtype=float)
    widths = np.asarray(p["widths"], dtype=float)
    c = len(s)
    truth = RpsbmModel(omega=omega, law=UniformProductLaw(centers, widths),
                       epsilon=eps, s=s)

    corpus = sample_corpus(truth, n, N, seed)
    mom = compute_moments(corpus, c)
    fit = fit_parametric(mom, c, family="uniform")
    law = fit.model.law
    omega_hat = fit.model.omega

    new = sample_corpus(fit.model, n, resample_n, seed, start_index=N)
    rows = []
    for i, moment_row in enumerate(_moment_rows(mom, compute_moments(new, c))):
        rows.append({
            "component": i + 1,
            "omega_p_hat": omega_hat * law.center[i],
            "omega_p_true": omega * centers[i],
            "rel_err_omega_p": _rel_err(omega_hat * law.center[i], omega * centers[i]),
            "omega_delta_hat": omega_hat * law.width[i],
            "omega_delta_true": omega * widths[i],
            "rel_err_omega_delta": _rel_err(omega_hat * law.width[i], omega * widths[i]),
            **moment_row,
        })
    return {"tables": {"errors.csv": rows},
            "report": {"eps_hat": fit.eps_raw, "eps_true": eps,
                       "rel_err_eps": _rel_err(fit.eps_raw, eps),
                       "model": model_to_dict(fit.model)}}


def run_mixture_beta(seed: int, params: dict) -> dict:
    """Four-component SBM mixture fitted with a product-of-betas law."""
    p = _with_defaults("mixture-beta", params, dict(
        N=200, n=1000, q=0.05, s=[0.5, 0.5],
        p_values=[[0.9, 0.5], [0.9, 0.3], [0.6, 0.5], [0.6, 0.3]]),
        optional="omega")
    try:
        n, N = int(p["n"]), int(p["N"])
        omega = float(p.get("omega", 10.0 / np.sqrt(n)))
        q = float(p["q"])
    except TypeError:
        raise ValueError("mixture-beta needs numbers for n, N, omega and q") from None
    s = np.asarray(p["s"], dtype=float)
    p_values = [np.asarray(v, dtype=float) for v in p["p_values"]]
    c = len(s)

    corpus = []
    for k in range(N):
        choice = int(rngmod.mix_stream(seed, k).integers(len(p_values)))
        corpus.append(sample_sbm(
            SbmParams(omega=omega, s=s, p=p_values[choice], q=q), n, seed, k))
    mom = compute_moments(corpus, c)
    corr = mom.cov[0, 1] / np.sqrt(mom.cov[0, 0] * mom.cov[1, 1])
    fit = fit_parametric(mom, c, family="beta")

    new = sample_corpus(fit.model, n, N, seed, start_index=N)
    rows = [{"component": i + 1, **row}
            for i, row in enumerate(_moment_rows(mom, compute_moments(new, c)))]
    return {"tables": {"errors.csv": rows},
            "report": {"correlation": float(corr),
                       "model": model_to_dict(fit.model)}}


def run_critical_n(seed: int, params: dict) -> dict:
    """Critical sample size for the two-component ER mixture, plus the
    density curves at sub/critical/super sample sizes."""
    p = _with_defaults("critical-n", params, dict(
        n=1000, p_values=[0.75, 0.85], N_max=400, repetitions=5,
        subcritical=10, supercritical=325), optional="omega")
    try:
        n = int(p["n"])
        omega = float(p.get("omega", 2.0 / np.sqrt(n)))
        p_values = list(map(float, p["p_values"]))
        n_max, repetitions = int(p["N_max"]), int(p["repetitions"])
    except TypeError:
        raise ValueError("critical-n needs numbers for n, omega, N_max and "
                         "repetitions, and a list of numbers for p_values") from None
    n_crit = critical_sample_size(p_values, n, omega, n_max,
                                  seed=seed, repetitions=repetitions)
    tables = {}
    for label, size in (("subcritical", int(p["subcritical"])),
                        ("critical", n_crit),
                        ("supercritical", int(p["supercritical"]))):
        t = run_er_mixture_pipeline(p_values, n, omega, size, seed=seed)
        tables[f"curves_{label}.csv"] = [
            {"z": z, "f_true": f, "f_hat": f_hat, "f_silverman": f_silv}
            for z, f, f_hat, f_silv in zip(t.z, t.f_true, t.f_hat, t.f_silverman)]
    return {"tables": tables,
            "report": {"n_crit": n_crit,
                       "params": {"n": n, "omega": omega, "p_values": p_values}}}


def run_contacts(seed: int, params: dict) -> dict:
    """Window a contact stream, detect geometry, cluster, and fit the two
    largest clusters nonparametrically."""
    p = _with_defaults("contacts", params, dict(
        window=2700, step=20, resample=500, min_cluster=5), optional="file")
    if "file" not in p:
        raise ValueError("contacts scenario needs a 'file' parameter")
    try:
        window, step = int(p["window"]), int(p["step"])
        resample, min_cluster = int(p["resample"]), int(p["min_cluster"])
    except TypeError:
        raise ValueError("contacts needs numbers for window, step, resample "
                         "and min_cluster") from None
    stream = load_contacts(p["file"])
    corpus = window_contacts(stream, window, step)
    if not corpus:
        raise ValueError("stream shorter than one window")
    geoms = [detect_geometry(g) for g in corpus]
    clusters = cluster_by_community_count(geoms)
    sizes = sorted(clusters.items(), key=lambda kv: len(kv[1]), reverse=True)
    fits = {}
    for count, members in sizes[:2]:
        if len(members) < min_cluster:
            continue
        sub = [corpus[i] for i in members]
        # a detected s has community_count entries, one per block
        s_rows = np.vstack([geoms[i].s for i in members])
        s_rows = s_rows / s_rows.sum(axis=1, keepdims=True)
        mix = fit_nonparametric(sub, count, s_per_graph=s_rows)
        new = sample_mixture(mix, corpus[0].n, resample, seed)
        fits[count] = {
            "members": members,
            "lambda_bar": mix.moments.mean_spectrum,
            "lambda_bar_resampled": compute_moments(new, count).mean_spectrum,
        }
    return {"tables": {},
            "report": {"n": corpus[0].n, "N": len(corpus),
                       "clusters": clusters, "fits": fits}}
