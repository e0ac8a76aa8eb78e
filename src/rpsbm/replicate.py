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

    recoverability  N, n, resample: int (N and n at least 2, resample at
                    least 1); omega, eps: float; centers, widths, s: list
    mixture-beta    N, n: int (each at least 2); omega, q: float;
                    s, p_values: list
    critical-n      n, N_max, repetitions, subcritical, supercritical: int
                    (n at least 2, the others at least 1); omega: float;
                    p_values: list (not empty, each entry in (0, 1/omega])
    contacts        file: str (required); window, step, resample (each at
                    least 1), min_cluster: int

where a float is finite, an int lies below 2**63 in magnitude and may be
written as an integral float, and a list is a one-dimensional array of
numbers (``p_values`` of mixture-beta is a table: one density vector per
component, one entry per block of ``s``).
``omega``, given or defaulted from n, must lie in (0, 1].  The ranges are
checked before anything is loaded, drawn or forked, and an error names the
key.
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
    iter_corpus,
    model_to_dict,
)
from .moments import _row, _table, compute_moments, fork_map, usable_cpus
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


def _omega(what: str, p: dict, scale: float) -> float:
    """The params' omega, scale/sqrt(n) when it is absent; it must lie in
    (0, 1]."""
    omega = scale / np.sqrt(p["n"]) if p["omega"] is None else p["omega"]
    if not 0 < omega <= 1:
        raise ValueError(f"{what} 'omega' must lie in (0, 1], not {omega:g}")
    return omega


def _rel_err(est, truth):
    return abs(est - truth) / abs(truth)


def _fit_and_resample(truth, n: int, N: int, resample_n: int, c: int,
                      seed: int, family: str):
    """Sample N graphs of ``truth``, fit ``family`` to their moments and
    resample ``resample_n`` graphs from the fit, at graph indices from N on.

    Returns the corpus moments, the fit, and per index the lambda_bar and
    sigma_hat of corpus and resample.  Both corpora are lazy, so the pool of
    ``compute_moments`` draws and reduces their graphs in its workers.
    """
    mom = compute_moments(iter_corpus(truth, n, N, seed), c)
    fit = fit_parametric(mom, family=family)
    new = compute_moments(
        iter_corpus(fit.model, n, resample_n, seed, start_index=N), c)
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
    p = _read("recoverability params", params, N=(int, 50, 2),
              n=(int, 1000, 2), omega=(float, None), eps=(float, 0.05),
              centers=(list, [0.85, 0.575]), widths=(list, [0.1, 0.05]),
              s=(list, [0.5, 0.5]), resample=(int, None, 1))
    n, N, eps, s = p["n"], p["N"], p["eps"], p["s"]
    centers, widths = p["centers"], p["widths"]
    omega = _omega("recoverability params", p, 10.0)
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
    p = _read("mixture-beta params", params, N=(int, 200, 2),
              n=(int, 1000, 2), omega=(float, None), q=(float, 0.05),
              s=(list, [0.5, 0.5]),
              p_values=(np.ndarray,
                        [[0.9, 0.5], [0.9, 0.3], [0.6, 0.5], [0.6, 0.3]]))
    n, N, s, p_values = p["n"], p["N"], p["s"], p["p_values"]
    if len(s) < 2:
        raise ValueError("mixture-beta params 's' must have at least two "
                         "entries: the report correlates eigenvalues 1 and 2")
    if p_values.ndim != 2 or p_values.shape[1] != len(s):
        raise ValueError(f"mixture-beta params 'p_values' must be rows of "
                         f"{len(s)} numbers, one per entry of 's'")
    omega = _omega("mixture-beta params", p, 10.0)

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
    density curves at sub/critical/super sample sizes.

    The search for N_crit (``critical_sample_size``) and the curves draw
    graphs that are pure functions of (seed, graph index), and neither reads
    what the other computes.  They share graphs: repetition r of the search
    draws graphs 0, 1, ... at seed + r, so repetition 0 draws the curves'
    graphs again, and repetition r those of repetition 0 at seed + r.  The
    search is the one item of a ``fork_map`` of one worker, whose items
    generator then draws the subcritical and supercritical curves here, so
    the two overlap; the critical curve follows once N_crit is in.  The
    worker needs a CPU of its own, since this process is busy meanwhile;
    with no spare CPU the search runs here after those curves, in the same
    order.  The params are checked before anything is drawn or forked.
    """
    p = _read("critical-n params", params, n=(int, 1000, 2),
              omega=(float, None), p_values=(list, [0.75, 0.85]),
              N_max=(int, 400, 1), repetitions=(int, 5, 1),
              subcritical=(int, 10, 1), supercritical=(int, 325, 1))
    n, p_values = p["n"], p["p_values"]
    if not p_values.size:
        raise ValueError("critical-n params 'p_values' must not be empty")
    omega = _omega("critical-n params", p, 2.0)
    if not (p_values.min() > 0 and omega * p_values.max() <= 1 + 1e-12):
        raise ValueError(f"critical-n params 'p_values' must lie in (0, 1/omega] "
                         f"at omega = {omega:g}, not {p_values.tolist()}")
    curves = {}

    def items():
        """The search's one item, then the curves it overlaps."""
        yield None
        for label in ("subcritical", "supercritical"):
            curves[label] = run_er_mixture_pipeline(p_values, n, omega, p[label],
                                                    seed=seed)

    (n_crit,) = fork_map(lambda _: critical_sample_size(
        p_values, n, omega, p["N_max"], seed=seed, repetitions=p["repetitions"]),
        items(), usable_cpus() - 1)
    curves["critical"] = run_er_mixture_pipeline(p_values, n, omega, n_crit,
                                                 seed=seed)
    tables = {}
    for label in ("subcritical", "critical", "supercritical"):
        t = curves[label]
        tables[f"curves_{label}.csv"] = [
            {"z": z, "f_true": f, "f_hat": f_hat, "f_silverman": f_silv}
            for z, f, f_hat, f_silv in zip(t.z, t.f_true, t.f_hat, t.f_silverman)]
    return {"tables": tables,
            "report": {"n_crit": n_crit,
                       "params": {"n": n, "omega": omega, "p_values": p_values}}}


def run_contacts(seed: int, params: dict) -> dict:
    """Window a contact stream, detect geometry, cluster, and fit the two
    largest clusters nonparametrically.

    The windows are a lazy corpus (``window_contacts``), so only the
    stream's records stay in memory.  Geometry reads the windows here, one
    at a time.  As each window's community count comes out of that pass,
    ``fork_map`` pipes it to one worker per spare CPU (this process is
    busy), which cuts the window again from the records it inherited and
    reduces it to its row at that count, so the rows are computed while
    geometry runs, and only rows come back.  With no spare CPU the rows are
    computed here once the whole geometry pass is done, each window cut
    again, and one window is alive at a time throughout.
    Each fitted cluster's table is its members' rows, equal to
    ``compute_moments`` of their windows.
    """
    p = _read("contacts params", params, file=str, window=(int, 2700, 1),
              step=(int, 20, 1), resample=(int, 500, 1), min_cluster=(int, 5))
    stream = load_contacts(p["file"])
    corpus = window_contacts(stream, p["window"], p["step"])
    if not corpus:
        raise ValueError("stream shorter than one window")
    geoms = []

    def counts():
        """The geometry pass, as (window, community count) pairs."""
        for k, est in enumerate(map(detect_geometry, corpus)):
            geoms.append(est)
            yield k, est.community_count

    rows = fork_map(lambda kc: _row(corpus[kc[0]], kc[1]), counts(),
                    usable_cpus() - 1)
    clusters = cluster_by_community_count(geoms)
    sizes = sorted(clusters.items(), key=lambda kv: len(kv[1]), reverse=True)
    fits = {}
    for count, members in sizes[:2]:
        if len(members) < p["min_cluster"]:
            continue
        mom = _table([rows[i] for i in members], count)
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
            "report": {"n": stream.n, "N": len(corpus),
                       "clusters": clusters, "fits": fits}}
