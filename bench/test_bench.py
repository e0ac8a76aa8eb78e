"""The benchmark's own test: every workload at a tiny size passes its checks,
and every check rejects a deliberately wrong output.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import argparse
import copy

import numpy as np
import pytest

import checks as ck
import run
from spans import per_layer_units
from workloads import TINY, WINDOW, STEP, _read_csv, _read_json

run.import_program()

SEED = 1


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """One traced tiny run per workload: (spec, workdir, result)."""
    out = {}
    for name, spec in TINY.items():
        workdir = tmp_path_factory.mktemp(name)
        args = argparse.Namespace(workload=name, seed=SEED, seconds=0, trace=1)
        out[name] = (spec, workdir, run.run_workload(spec, args, workdir, [0.0]))
    return out


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_checks(tiny_runs, name):
    spec, workdir, result = tiny_runs[name]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 2 + len(spec.checks(workdir / "round0", SEED, workdir))
    assert set(result["metrics"]) == set(per_layer_units())


def test_trace_counts_follow_the_solver_path(tiny_runs):
    crit = tiny_runs["critical-n500"][2]["metrics"]
    assert crit["models.distinct_draw_ratio"]["value"] < 1
    assert crit["spectral.lapack_calls"]["value"] == crit["models.graphs"]["value"]
    contacts = tiny_runs["contacts"][2]["metrics"]
    assert contacts["spectral.graph_dup_ratio"]["value"] > 1
    assert contacts["geometry.calls"]["value"] == contacts["contacts.windows"]["value"]


def _recover(tiny_runs, name="recover-n2000"):
    spec, workdir, _ = tiny_runs[name]
    out = workdir / "round0"
    truth = ck.RecoverTruth(spec.n, spec.N, spec.omega, spec.eps,
                            np.array(spec.centers), np.array(spec.widths),
                            np.array(spec.s))
    return truth, _read_csv(out / "errors.csv"), _read_json(out / "report.json")


def test_recover_fit_rejects_shifted_p(tiny_runs):
    truth, table, report = _recover(tiny_runs)
    ck.recover_fit(table, report, truth)
    for i in range(2):
        bad_report = copy.deepcopy(report)
        bad_report["model"]["law"]["center"][i] *= 1.10
        bad_table = dict(table, omega_p_hat=table["omega_p_hat"].copy())
        bad_table["omega_p_hat"][i] *= 1.10
        with pytest.raises(ck.CheckFailed):
            ck.recover_fit(bad_table, bad_report, truth)
    with pytest.raises(ck.CheckFailed, match="report model"):
        ck.recover_fit(bad_table, report, truth)


def test_recover_moment_matching_rejects_shifted_resample(tiny_runs):
    truth, table, report = _recover(tiny_runs)
    ck.recover_moment_matching(table, report, truth)
    for i in range(2):
        bad = dict(table, lambda_bar_new=table["lambda_bar_new"].copy())
        bad["lambda_bar_new"][i] *= 1.10
        with pytest.raises(ck.CheckFailed):
            ck.recover_moment_matching(bad, report, truth)


@pytest.mark.parametrize("solver", sorted(ck.SOLVERS))
def test_redraw_rejects_wrong_density_and_spectrum(tiny_runs, solver):
    from rpsbm import RpsbmModel, UniformProductLaw, sample_rpsbm, spectrum

    truth, _, _ = _recover(tiny_runs)
    model = RpsbmModel(truth.omega, UniformProductLaw(truth.centers, truth.widths),
                       truth.eps, truth.s)
    g = sample_rpsbm(model, truth.n, SEED, 0)
    edges = np.asarray(g.edges)
    values = spectrum(g, 2).values
    ck.graph_matches_law(truth, g.n, edges, values, solver, SEED)
    with pytest.raises(ck.CheckFailed, match="spectrum"):
        ck.graph_matches_law(truth, g.n, edges, values * (1 + 1e-6), solver, SEED)
    half = truth.n // 2
    in_block0 = np.nonzero(edges[:, 1] < half)[0]
    thinned = np.delete(edges, in_block0[::10], axis=0)
    with pytest.raises(ck.CheckFailed, match="block 0"):
        ck.graph_matches_law(truth, g.n, thinned, values, solver, SEED)
    extra = np.array([[i, half + (i + d) % half] for i in range(half) for d in (0, 1)])
    with pytest.raises(ck.CheckFailed, match="cross density"):
        ck.graph_matches_law(truth, g.n, np.vstack([edges, extra]), values, solver, SEED)


def test_subspace_solver_matches_dense():
    rng = np.random.default_rng(3)
    n = 300
    block = np.arange(n) < n // 2
    prob = np.where(block[:, None] == block[None, :], 0.5, 0.05)
    upper = np.triu(rng.random((n, n)) < prob, 1)
    edges = np.argwhere(upper)
    dense = np.linalg.eigvalsh(ck.adjacency(n, edges).toarray())[::-1][:2]
    assert np.allclose(ck.subspace_top(ck.adjacency(n, edges), 2, 0), dense,
                       rtol=1e-12, atol=0)


def _critical(tiny_runs):
    spec, workdir, _ = tiny_runs["critical-n500"]
    out = workdir / "round0"
    curves = {label: _read_csv(out / f"curves_{label}.csv")
              for label in ("subcritical", "critical", "supercritical")}
    return spec, curves, _read_json(out / "report.json")


def test_critical_checks_reject_wrong_outputs(tiny_runs):
    spec, curves, report = _critical(tiny_runs)
    ck.curves_normalized(curves)
    ck.curves_f_true(curves, report)
    ck.n_crit_factor(report, spec.p_values, spec.n, spec.omega)
    ck.critical_params(report, spec.params(SEED, None))

    for col in ("f_true", "f_hat", "f_silverman"):
        bad = {k: dict(v) for k, v in curves.items()}
        bad["critical"][col] = bad["critical"][col] * 1.01
        with pytest.raises(ck.CheckFailed, match=col):
            ck.curves_normalized(bad)
    bad_report = copy.deepcopy(report)
    bad_report["params"]["p_values"][0] *= 1.01
    with pytest.raises(ck.CheckFailed, match="f_true"):
        ck.curves_f_true(curves, bad_report)
    with pytest.raises(ck.CheckFailed):
        ck.critical_params(bad_report, spec.params(SEED, None))
    bound = ck.n_crit_bound(spec.p_values, spec.n, spec.omega)
    for wrong in (int(bound * 2.5) + 1, max(1, int(bound / 2.5))):
        with pytest.raises(ck.CheckFailed, match="N_crit"):
            ck.n_crit_factor(dict(report, n_crit=wrong), spec.p_values, spec.n,
                             spec.omega)


def test_contacts_checks_reject_wrong_outputs(tiny_runs):
    from rpsbm import Graph, load_contacts, window_contacts

    spec, workdir, _ = tiny_runs["contacts"]
    report = _read_json(workdir / "round0" / "report.json")
    recs = spec.stream.records(SEED)
    ck.contacts_window_count(report, recs, WINDOW, STEP)
    ck.contacts_counts(report, {2, 3})
    ck.contacts_moment_matching(report)

    bad = copy.deepcopy(report)
    biggest = max(bad["clusters"], key=lambda k: len(bad["clusters"][k]))
    bad["clusters"][biggest].pop()
    with pytest.raises(ck.CheckFailed, match="windows"):
        ck.contacts_window_count(bad, recs, WINDOW, STEP)
    with pytest.raises(ck.CheckFailed, match="community counts"):
        ck.contacts_counts(report, {2, 4})
    bad = copy.deepcopy(report)
    fit = next(iter(bad["fits"].values()))
    fit["lambda_bar_resampled"][0] *= 1 + 1.5 * ck.CONTACTS_RTOL
    with pytest.raises(ck.CheckFailed, match="resampled"):
        ck.contacts_moment_matching(bad)

    graphs = window_contacts(load_contacts(workdir / "contacts.txt"), WINDOW, STEP)
    picks = [0, len(graphs) // 2, len(graphs) - 1]
    ck.windows_match(graphs, recs, WINDOW, STEP, picks)
    k = picks[1]
    dropped = list(graphs)
    dropped[k] = Graph(graphs[k].n, graphs[k].edges[1:])
    with pytest.raises(ck.CheckFailed, match=f"window {k}"):
        ck.windows_match(dropped, recs, WINDOW, STEP, picks)
