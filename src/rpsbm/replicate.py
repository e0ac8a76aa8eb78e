"""End-to-end experiment scenarios (synthetic benchmarks + contact data).

Each scenario samples its corpus, runs the relevant fit and resamples.  Its
runner returns ``{"tables": {file name: CSV rows}, "report": {...}}``: flat
row dicts and a JSON-ready report, which the CLI writes out unchanged.  All
randomness derives from the master seed.

``rpsbm replicate <scenario> --config <file>`` reads an experiment config, a
JSON object with the keys ``format`` (1), ``scenario`` (the scenario's name),
``seed`` (an integer, defaulting to ``--seed``) and ``params`` (an object,
defaulting to {}).  ``params`` overrides the runner's defaults; a key there
that the runner does not read, or a value not of its kind, is an error:

    recoverability  N, n, resample: int; omega, eps: float;
                    centers, widths, s: list
    mixture-beta    N, n: int; omega, q: float; s, p_values: list
    critical-n      n, N_max, repetitions, subcritical, supercritical: int;
                    omega: float; p_values: list
    contacts        file: str (required); window, step, resample,
                    min_cluster: int

where a float is finite, an int may be written as an integral float, and a
list is a one-dimensional array of numbers (``p_values`` of mixture-beta is
a table: one density vector per component, one entry per block of ``s``).
"""

from __future__ import annotations

import numpy as np

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
    _read,
    model_to_dict,
    sample_corpus,
)
from .moments import compute_moments
from .contacts import load_contacts, window_contacts

SCENARIOS = ("recoverability", "mixture-beta", "critical-n", "contacts")


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


def _rel_err(est, truth):
    return abs(est - truth) / abs(truth)


def _fit_and_resample(truth, n: int, N: int, resample_n: int, c: int,
                      seed: int, family: str):
    """Sample N graphs of ``truth``, fit ``family`` to their moments and
    resample ``resample_n`` graphs from the fit, at graph indices from N on.

    Returns the corpus moments, the fit, and per index the lambda_bar and
    sigma_hat of corpus and resample.  Each corpus is dropped as soon as its
    moments are taken.
    """
    mom = compute_moments(sample_corpus(truth, n, N, seed), c)
    fit = fit_parametric(mom, family=family)
    new = compute_moments(
        sample_corpus(fit.model, n, resample_n, seed, start_index=N), c)
    rows = [{
        "lambda_bar": mom.mean_spectrum[i],
        "lambda_bar_new": new.mean_spectrum[i],
        "rel_err_lambda_bar": _rel_err(new.mean_spectrum[i], mom.mean_spectrum[i]),
        "sigma_hat": mom.cov[i, i],
        "sigma_hat_new": new.cov[i, i],
        "rel_err_sigma_hat": _rel_err(new.cov[i, i], mom.cov[i, i]),
    } for i in range(c)]
    return mom, fit, rows


def run_recoverability(seed: int, params: dict) -> dict:
    """Sample an RPSBM corpus with known parameters, fit, and resample.

    Defaults: N=50, n=1000, omega=10/sqrt(n), eps=0.05, s=[0.5,0.5],
    J = U[0.8,0.9] x U[0.55,0.6].
    """
    p = _read("recoverability params", params, N=(int, 50), n=(int, 1000),
              omega=(float, None), eps=(float, 0.05),
              centers=(list, [0.85, 0.575]), widths=(list, [0.1, 0.05]),
              s=(list, [0.5, 0.5]), resample=(int, None))
    n, N, eps, s = p["n"], p["N"], p["eps"], p["s"]
    centers, widths = p["centers"], p["widths"]
    omega = 10.0 / np.sqrt(n) if p["omega"] is None else p["omega"]
    resample_n = N if p["resample"] is None else p["resample"]
    truth = RpsbmModel(omega=omega, law=UniformProductLaw(centers, widths),
                       epsilon=eps, s=s)

    _, fit, moment_rows = _fit_and_resample(truth, n, N, resample_n, len(s),
                                            seed, "uniform")
    law = fit.model.law
    omega_hat = fit.model.omega
    rows = [{
        "component": i + 1,
        "omega_p_hat": omega_hat * law.center[i],
        "omega_p_true": omega * centers[i],
        "rel_err_omega_p": _rel_err(omega_hat * law.center[i], omega * centers[i]),
        "omega_delta_hat": omega_hat * law.width[i],
        "omega_delta_true": omega * widths[i],
        "rel_err_omega_delta": _rel_err(omega_hat * law.width[i], omega * widths[i]),
        **moment_row,
    } for i, moment_row in enumerate(moment_rows)]
    return {"tables": {"errors.csv": rows},
            "report": {"eps_hat": fit.eps_raw, "eps_true": eps,
                       "rel_err_eps": _rel_err(fit.eps_raw, eps),
                       "model": model_to_dict(fit.model)}}


def run_mixture_beta(seed: int, params: dict) -> dict:
    """Four-component SBM mixture fitted with a product-of-betas law."""
    p = _read("mixture-beta params", params, N=(int, 200), n=(int, 1000),
              omega=(float, None), q=(float, 0.05), s=(list, [0.5, 0.5]),
              p_values=(np.ndarray,
                        [[0.9, 0.5], [0.9, 0.3], [0.6, 0.5], [0.6, 0.3]]))
    n, N, s, p_values = p["n"], p["N"], p["s"], p["p_values"]
    if p_values.ndim != 2 or p_values.shape[1] != len(s):
        raise ValueError(f"mixture-beta params 'p_values' must be rows of "
                         f"{len(s)} numbers, one per entry of 's'")
    omega = 10.0 / np.sqrt(n) if p["omega"] is None else p["omega"]

    components = [SbmParams(omega=omega, s=s, p=pk, q=p["q"]) for pk in p_values]
    mom, fit, moment_rows = _fit_and_resample(components, n, N, N, len(s),
                                              seed, "beta")
    corr = mom.cov[0, 1] / np.sqrt(mom.cov[0, 0] * mom.cov[1, 1])
    rows = [{"component": i + 1, **row} for i, row in enumerate(moment_rows)]
    return {"tables": {"errors.csv": rows},
            "report": {"correlation": float(corr),
                       "model": model_to_dict(fit.model)}}


def run_critical_n(seed: int, params: dict) -> dict:
    """Critical sample size for the two-component ER mixture, plus the
    density curves at sub/critical/super sample sizes."""
    p = _read("critical-n params", params, n=(int, 1000), omega=(float, None),
              p_values=(list, [0.75, 0.85]), N_max=(int, 400),
              repetitions=(int, 5), subcritical=(int, 10),
              supercritical=(int, 325))
    n, p_values = p["n"], p["p_values"]
    omega = 2.0 / np.sqrt(n) if p["omega"] is None else p["omega"]
    n_crit = critical_sample_size(p_values, n, omega, p["N_max"],
                                  seed=seed, repetitions=p["repetitions"])
    tables = {}
    for label, size in (("subcritical", p["subcritical"]),
                        ("critical", n_crit),
                        ("supercritical", p["supercritical"])):
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
    p = _read("contacts params", params, file=str, window=(int, 2700),
              step=(int, 20), resample=(int, 500), min_cluster=(int, 5))
    corpus = window_contacts(load_contacts(p["file"]), p["window"], p["step"])
    if not corpus:
        raise ValueError("stream shorter than one window")
    geoms = [detect_geometry(g) for g in corpus]
    clusters = cluster_by_community_count(geoms)
    sizes = sorted(clusters.items(), key=lambda kv: len(kv[1]), reverse=True)
    fits = {}
    for count, members in sizes[:2]:
        if len(members) < p["min_cluster"]:
            continue
        mom = compute_moments([corpus[i] for i in members], count)
        # a detected s has community_count entries, one per block
        s_rows = np.vstack([geoms[i].s for i in members])
        s_rows = s_rows / s_rows.sum(axis=1, keepdims=True)
        mix = fit_nonparametric(mom, s_per_graph=s_rows)
        new = compute_moments(sample_mixture(mix, mom.n, p["resample"], seed),
                              count)
        fits[count] = {
            "members": members,
            "lambda_bar": mom.mean_spectrum,
            "lambda_bar_resampled": new.mean_spectrum,
        }
    return {"tables": {},
            "report": {"n": corpus[0].n, "N": len(corpus),
                       "clusters": clusters, "fits": fits}}
