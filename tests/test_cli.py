"""CLI subcommands: outputs, determinism, and exit codes."""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import rpsbm
from rpsbm import Graph, SbmParams, UniformProductLaw, RpsbmModel, __version__
from rpsbm.cli import main
from rpsbm.models import model_to_dict, sample_corpus
from rpsbm.spectral import save_edgelist, spectrum, density

from oracles import complete_graph, path_graph


def save_model(model, path):
    Path(path).write_text(json.dumps(model_to_dict(model)))


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def dirac_spec(tmp_path):
    path = tmp_path / "model.json"
    save_model(SbmParams(omega=0.4, s=[0.5, 0.5], p=[0.8, 0.6], q=0.05), path)
    return path


def make_corpus_dir(tmp_path, name="corpus", n=200, count=10, seed=60):
    truth = RpsbmModel(omega=0.4, law=UniformProductLaw([0.8, 0.5], [0.1, 0.1]),
                       epsilon=0.05, s=np.array([0.5, 0.5]))
    d = tmp_path / name
    d.mkdir()
    for k, g in enumerate(sample_corpus(truth, n, count, seed)):
        save_edgelist(g, d / f"graph_{k:04d}.txt")
    return d


def read_bytes(folder: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(folder.iterdir())}


class TestSample:
    def test_deterministic_outputs(self, runner, dirac_spec, tmp_path):
        args = ["sample", "--model", str(dirac_spec), "--n", "50",
                "--count", "2", "--seed", "9"]
        r1 = runner.invoke(main, args + ["--out", str(tmp_path / "a")])
        r2 = runner.invoke(main, args + ["--out", str(tmp_path / "b")])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert read_bytes(tmp_path / "a") == read_bytes(tmp_path / "b")

    def test_manifest_written(self, runner, dirac_spec, tmp_path):
        out = tmp_path / "out"
        r = runner.invoke(main, ["sample", "--model", str(dirac_spec),
                                 "--n", "30", "--count", "1",
                                 "--seed", "1", "--out", str(out)])
        assert r.exit_code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["format"] == 1
        assert manifest["seed"] == 1
        assert "graph_0000.txt" in manifest["outputs"]

    def test_versions_agree(self, runner, dirac_spec, tmp_path):
        # manifests tell sampler contracts apart by the package version
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        declared = re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1)
        assert declared == __version__
        out = tmp_path / "out"
        r = runner.invoke(main, ["sample", "--model", str(dirac_spec),
                                 "--n", "30", "--count", "1", "--out", str(out)])
        assert r.exit_code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["versions"]["rpsbm"] == __version__

    def test_holds_one_graph_at_a_time(self, runner, tmp_path):
        # each graph is drawn as its file is written; twenty graphs held at
        # once would be twenty graphs' edges
        model = tmp_path / "model.json"
        params = SbmParams(omega=0.5, s=[0.5, 0.5], p=[0.8, 0.6], q=0.1)
        save_model(params, model)
        edge_bytes = max(g.edges.nbytes for g in sample_corpus(params, 400, 20, 3))

        def sample(n, count, out):
            return runner.invoke(main, ["sample", "--model", str(model),
                                        "--n", str(n), "--count", str(count),
                                        "--seed", "3", "--out", str(tmp_path / out)])

        sample(20, 1, "warm")  # what the command path allocates once
        tracemalloc.start()
        try:
            r = sample(400, 20, "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.exit_code == 0, r.output
        assert len(list((tmp_path / "out").glob("graph_*.txt"))) == 20
        assert peak < 3 * edge_bytes

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_draw_removes_what_it_wrote(self, runner, tmp_path, existing):
        # a draw fails only as its file is written: at seed 6, p ~ U[-0.1,
        # 0.1] clamps to 0 on graph 3 alone of 0-3, after three files; a new
        # --out goes, with the parents the run made, and an --out that was
        # there keeps only its own files
        model = tmp_path / "model.json"
        save_model(RpsbmModel(omega=0.5, law=UniformProductLaw([0.0], [0.2]),
                              epsilon=0.0, s=[1.0]), model)
        top = tmp_path / "top"
        out = top / "out"
        if existing:
            out.mkdir(parents=True)
            (out / "keep.txt").write_text("kept\n")
        with pytest.warns(UserWarning, match="clamped"):
            r = runner.invoke(main, ["sample", "--model", str(model), "--n", "20",
                                     "--count", "4", "--seed", "6", "--out", str(out)])
        assert r.exit_code == 1
        assert "error: empty support after clamping" in r.output
        if existing:
            assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]
        else:
            assert not top.exists()

    def test_missing_model_is_io_error(self, runner, tmp_path):
        r = runner.invoke(main, ["sample", "--model", str(tmp_path / "nope.json"),
                                 "--n", "10", "--count", "1",
                                 "--out", str(tmp_path / "o")])
        assert r.exit_code == 1


class TestSpectraRoundTrip:
    def test_csv_matches_in_memory(self, runner, tmp_path):
        corpus_dir = make_corpus_dir(tmp_path)
        out = tmp_path / "out"
        r = runner.invoke(main, ["spectra", "--corpus", str(corpus_dir),
                                 "-c", "2", "--out", str(out)])
        assert r.exit_code == 0
        lines = (out / "spectra.csv").read_text().strip().split("\n")
        assert lines[0] == "graph,lambda1,lambda2,density"
        from rpsbm.spectral import load_edgelist
        for line in lines[1:]:
            idx, l1, l2, dens = line.split(",")
            g = load_edgelist(corpus_dir / f"graph_{int(idx):04d}.txt")
            vals = spectrum(g, 2).values
            assert float(l1) == pytest.approx(vals[0], abs=1e-12)
            assert float(l2) == pytest.approx(vals[1], abs=1e-12)
            assert float(dens) == pytest.approx(density(g), abs=1e-12)

    def test_mixed_sizes_on_one_and_two_cpus(self, runner, tmp_path, monkeypatch):
        # the rows come from the pooled row function of compute_moments,
        # which takes graphs of any size; one or two workers write one table
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        graphs = [path_graph(7), complete_graph(5), path_graph(9)]
        for k, g in enumerate(graphs):
            save_edgelist(g, corpus / f"graph_{k:04d}.txt")
        expected = ["graph,lambda1,lambda2,density"] + [
            ",".join([str(k), *(format(v, ".17g") for v in spectrum(g, 2).values),
                      format(density(g), ".17g")])
            for k, g in enumerate(graphs)]
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)))
            out = tmp_path / f"out{cpus}"
            r = runner.invoke(main, ["spectra", "--corpus", str(corpus), "-c", "2",
                                     "--out", str(out)])
            assert r.exit_code == 0, r.output
            assert (out / "spectra.csv").read_text().splitlines() == expected

    def test_failure_leaves_no_table(self, runner, tmp_path):
        # the n = 5 graph can take c = 4, the n = 3 one cannot
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        save_edgelist(complete_graph(5), corpus / "graph_0000.txt")
        save_edgelist(complete_graph(3), corpus / "graph_0001.txt")
        out = tmp_path / "out"
        r = runner.invoke(main, ["spectra", "--corpus", str(corpus), "-c", "4",
                                 "--out", str(out)])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit), r.exception
        assert "error:" in r.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectra", "moments"])
    def test_truncation_order_past_a_graph(self, runner, tmp_path, monkeypatch,
                                           command):
        # spectrum refuses c = 6 for the 5-node graph in the worker that
        # reduces it, before the sizes of the rows are compared
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for k, g in enumerate([path_graph(8), complete_graph(5), path_graph(8)]):
            save_edgelist(g, corpus / f"graph_{k:04d}.txt")
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)))
            out = tmp_path / f"out{cpus}"
            r = runner.invoke(main, [command, "--corpus", str(corpus), "-c", "6",
                                     "--out", str(out)])
            assert r.exit_code == 1
            assert isinstance(r.exception, SystemExit), r.exception
            assert "error: truncation order must satisfy 1 <= c <= 5" in r.output
            assert not out.exists()

    def test_missing_corpus_leaves_no_out(self, runner, tmp_path):
        out = tmp_path / "out"
        r = runner.invoke(main, ["spectra", "--corpus", str(tmp_path / "missing"),
                                 "-c", "2", "--out", str(out)])
        assert r.exit_code == 1
        assert not out.exists()


class TestMomentsAndRegimes:
    def test_moments_json(self, runner, tmp_path):
        corpus_dir = make_corpus_dir(tmp_path)
        out = tmp_path / "m"
        r = runner.invoke(main, ["moments", "--corpus", str(corpus_dir),
                                 "-c", "2", "--out", str(out)])
        assert r.exit_code == 0
        payload = json.loads((out / "moments.json").read_text())
        assert payload["format"] == 1
        assert len(payload["lambda_bar"]) == 2
        assert set(payload["regimes"]) <= {"small", "medium", "large"}

    def test_one_graph_report_is_strict_json(self, runner, tmp_path):
        # one graph has zero variance, so each regime ratio is infinite,
        # and the report warns of its zero covariance
        corpus_dir = make_corpus_dir(tmp_path, count=1)
        out = tmp_path / "m"
        with pytest.warns(UserWarning, match="covariance degenerate"):
            r = runner.invoke(main, ["moments", "--corpus", str(corpus_dir),
                                     "-c", "2", "--out", str(out)])
        assert r.exit_code == 0, r.output

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        payload = json.loads((out / "moments.json").read_text(),
                             parse_constant=reject)
        assert payload["regime_ratio"] == [None, None]


class TestFit:
    def test_fit_writes_model(self, runner, tmp_path):
        corpus_dir = make_corpus_dir(tmp_path, count=12)
        out = tmp_path / "fit"
        r = runner.invoke(main, ["fit", "--corpus", str(corpus_dir), "-c", "2",
                                 "--family", "uniform", "--out", str(out)])
        assert r.exit_code == 0, r.output
        payload = json.loads((out / "fit.json").read_text())
        assert payload["model"]["law"]["kind"] == "uniform"

    def test_fit_family_gauss_is_refused(self, runner, tmp_path):
        corpus_dir = make_corpus_dir(tmp_path, count=12)
        out = tmp_path / "fit"
        r = runner.invoke(main, ["fit", "--corpus", str(corpus_dir), "-c", "2",
                                 "--family", "gauss", "--out", str(out)])
        assert r.exit_code == 1
        assert "'gauss' is not one of" in r.output
        assert not out.exists()

    def test_fit_feasibility_fields(self, runner, tmp_path):
        # only fields that can read false on a fit that returns
        corpus_dir = make_corpus_dir(tmp_path, count=12)
        out = tmp_path / "fit"
        r = runner.invoke(main, ["fit", "--corpus", str(corpus_dir), "-c", "2",
                                 "--out", str(out)])
        assert r.exit_code == 0, r.output
        feas = json.loads((out / "fit.json").read_text())["feasibility"]
        assert set(feas) == {"regimes"}
        assert len(feas["regimes"]) == 2

    def test_fit_s_from_geometry(self, runner, tmp_path):
        corpus_dir = make_corpus_dir(tmp_path, count=12)
        out = tmp_path / "fit"
        r = runner.invoke(main, ["fit", "--corpus", str(corpus_dir), "-c", "2",
                                 "--s-from-geometry", "--out", str(out)])
        assert r.exit_code == 0, r.output
        payload = json.loads((out / "fit.json").read_text())
        np.testing.assert_allclose(payload["model"]["s"], [0.5, 0.5], atol=0.02)

    def test_fit_s_from_geometry_without_matching_count_exits_2(self, runner,
                                                                 tmp_path):
        corpus_dir = make_corpus_dir(tmp_path, count=12)
        r = runner.invoke(main, ["fit", "--corpus", str(corpus_dir), "-c", "3",
                                 "--s-from-geometry",
                                 "--out", str(tmp_path / "fit")])
        assert r.exit_code == 2
        assert "error: no corpus graph has 3 detected communities" in r.output

    def test_small_regime_exits_2(self, runner, tmp_path):
        d = tmp_path / "flat"
        d.mkdir()
        for k in range(5):
            save_edgelist(complete_graph(40), d / f"graph_{k:04d}.txt")
        r = runner.invoke(main, ["fit", "--corpus", str(d), "-c", "2",
                                 "--family", "uniform",
                                 "--out", str(tmp_path / "o")])
        assert r.exit_code == 2

    @pytest.mark.parametrize("graphs, family, code, message", [
        ([complete_graph(4)], "uniform", 1,
         "parametric fit needs at least two graphs"),
        ([Graph(5, [])] * 2, "dirac", 2,
         "corpus density is zero; nothing to fit"),
    ], ids=["one_graph", "two_empty_graphs"])
    def test_corpus_that_admits_no_fit(self, runner, tmp_path, graphs, family,
                                       code, message):
        d = tmp_path / "corpus"
        d.mkdir()
        for k, g in enumerate(graphs):
            save_edgelist(g, d / f"graph_{k:04d}.txt")
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            r = runner.invoke(main, ["fit", "--corpus", str(d), "-c", "1",
                                     "--family", family, "--out", str(out)])
        assert r.exit_code == code
        assert f"error: {message}" in r.output
        assert not out.exists()
        # the zero covariance of one graph is never published, so not warned of
        assert not [w for w in caught if "covariance" in str(w.message)]

    def test_beta_fit_of_two_graphs_exits_2(self, runner, tmp_path):
        # the unbiased variance of two points, (b - a)^2 / 2, is twice the
        # most that any law on [a, b] has, so no beta law matches it
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "format": 1, "omega": 0.3, "s": [0.5, 0.5], "epsilon": 0.05,
            "law": {"kind": "uniform", "center": [0.8, 0.5],
                    "width": [0.4, 0.3]}}))
        corpus = tmp_path / "corpus"
        r = runner.invoke(main, ["sample", "--model", str(model), "--n", "200",
                                 "--count", "2", "--out", str(corpus)])
        assert r.exit_code == 0, r.output
        out = tmp_path / "fit"
        r = runner.invoke(main, ["fit", "--corpus", str(corpus), "-c", "2",
                                 "--family", "beta", "--out", str(out)])
        assert r.exit_code == 2
        assert "error: variance too large for the range (no beta solution)" \
            in r.output
        assert not out.exists()

    def test_fit_np(self, runner, tmp_path):
        corpus_dir = make_corpus_dir(tmp_path, count=8)
        out = tmp_path / "np"
        r = runner.invoke(main, ["fit-np", "--corpus", str(corpus_dir),
                                 "-c", "2", "--bandwidth", "silverman",
                                 "--out", str(out)])
        assert r.exit_code == 0, r.output
        payload = json.loads((out / "mixture.json").read_text())
        assert len(payload["components"]) == 8

    def test_fit_np_fixed_bandwidth(self, runner, tmp_path):
        corpus_dir = make_corpus_dir(tmp_path, count=4)
        r = runner.invoke(main, ["fit-np", "--corpus", str(corpus_dir),
                                 "-c", "2", "--bandwidth", "fixed:2.5",
                                 "--out", str(tmp_path / "npf")])
        assert r.exit_code == 0, r.output


class TestGeometryCommand:
    def test_geometry_report(self, runner, tmp_path):
        corpus_dir = make_corpus_dir(tmp_path, count=3, n=150)
        out = tmp_path / "geo"
        r = runner.invoke(main, ["geometry", "--corpus", str(corpus_dir),
                                 "--out", str(out)])
        assert r.exit_code == 0, r.output
        payload = json.loads((out / "geometry.json").read_text())
        assert len(payload["graphs"]) == 3
        for entry in payload["graphs"]:
            assert set(entry) == {"s", "community_count"}
            assert entry["community_count"] == len(entry["s"])
            assert abs(sum(entry["s"]) - 1.0) < 1e-9


class TestContactsCommand:
    def test_windowing(self, runner, tmp_path):
        lines = [f"{t} {t % 5} {(t + 1) % 5}" for t in range(0, 4000, 40)]
        contact = tmp_path / "contacts.txt"
        contact.write_text("\n".join(lines) + "\n")
        out = tmp_path / "corpus"
        r = runner.invoke(main, ["contacts", "--file", str(contact),
                                 "--window", "1000", "--step", "200",
                                 "--out", str(out)])
        assert r.exit_code == 0, r.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["outputs"]) == (3960 - 1000) // 200 + 1

    def test_stream_shorter_than_one_window_exits_1(self, runner, tmp_path):
        contact = tmp_path / "contacts.txt"
        contact.write_text("0 1 2\n10 2 3\n20 1 3\n")
        out = tmp_path / "corpus"
        r = runner.invoke(main, ["contacts", "--file", str(contact),
                                 "--window", "100", "--step", "5",
                                 "--out", str(out)])
        assert r.exit_code == 1
        assert "error: stream shorter than one window" in r.output
        assert not out.exists()

    def test_replicate_stream_shorter_than_one_window_exits_1(self, runner,
                                                              tmp_path):
        contact = tmp_path / "contacts.txt"
        contact.write_text("0 1 2\n10 2 3\n20 1 3\n")
        cfg = write_config(tmp_path / "cfg.json", "contacts", 0,
                           {"file": str(contact), "window": 100, "step": 5})
        out = tmp_path / "o"
        r = runner.invoke(main, ["replicate", "contacts", "--config", str(cfg),
                                 "--out", str(out)])
        assert r.exit_code == 1
        assert "error: stream shorter than one window" in r.output
        assert not out.exists()


class TestReplicateCommand:
    def test_recoverability_small_run(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "format": 1, "scenario": "recoverability", "seed": 3,
            "params": {"N": 8, "n": 200},
        }))
        out = tmp_path / "rep"
        r = runner.invoke(main, ["replicate", "recoverability",
                                 "--config", str(cfg), "--out", str(out)])
        assert r.exit_code == 0, r.output
        table = (out / "errors.csv").read_text().strip().split("\n")
        assert table[0].startswith("component,omega_p_hat")
        assert len(table) == 3

    def test_outputs_do_not_depend_on_the_cpu_count(self, tmp_path):
        # one CPU reduces every graph, and runs critical-n's search, in the
        # process; every usable CPU maps the graphs over the pool of
        # compute_moments, whose workers draw them or cut the contact
        # windows, and forks the search; not one byte may differ
        root = str(Path(rpsbm.__file__).resolve().parent.parent)
        one_cpu = {min(os.sched_getaffinity(0))}
        stream = planted_contact_stream(tmp_path / "contacts.txt")
        for scenario, params, files in (
                ("recoverability", {"N": 6, "n": 500}, ["errors.csv"]),
                ("mixture-beta", {"N": 20, "n": 200}, ["errors.csv"]),
                ("critical-n", {"n": 200, "N_max": 200, "repetitions": 2,
                                "supercritical": 30}, CURVES),
                ("contacts", {"file": str(stream), "window": 300, "step": 20,
                              "resample": 20}, [])):
            cfg = write_config(tmp_path / f"{scenario}.json", scenario, 5, params)
            outputs = []
            for pin in (lambda: os.sched_setaffinity(0, one_cpu), None):
                out = tmp_path / f"{scenario}{len(outputs)}"
                done = subprocess.run(
                    [sys.executable, "-c", "from rpsbm.cli import main; main()",
                     "replicate", scenario, "--config", str(cfg),
                     "--out", str(out)],
                    env={**os.environ, "PYTHONPATH": root}, preexec_fn=pin,
                    capture_output=True, text=True, timeout=300)
                assert done.returncode == 0, done.stderr
                outputs.append(read_bytes(out))
            assert set(outputs[0]) == {*files, "report.json", "manifest.json"}
            assert outputs[0] == outputs[1]

    def test_scenario_mismatch_rejected(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "format": 1, "scenario": "recoverability", "seed": 3, "params": {},
        }))
        r = runner.invoke(main, ["replicate", "critical-n",
                                 "--config", str(cfg),
                                 "--out", str(tmp_path / "x")])
        assert r.exit_code == 1

    def test_config_without_seed_runs_at_seed_option(self, runner, tmp_path):
        params = {"N": 8, "n": 200}
        unseeded = tmp_path / "cfg.json"
        unseeded.write_text(json.dumps({"format": 1, "scenario": "recoverability",
                                        "params": params}))
        seeded = write_config(tmp_path / "seeded.json", "recoverability", 7, params)
        for cfg, out, seed in ((unseeded, "a", "7"), (seeded, "b", "0")):
            r = runner.invoke(main, ["replicate", "recoverability", "--config",
                                     str(cfg), "--seed", seed,
                                     "--out", str(tmp_path / out)])
            assert r.exit_code == 0, r.output
        a, b = read_bytes(tmp_path / "a"), read_bytes(tmp_path / "b")
        assert json.loads(a.pop("manifest.json"))["seed"] == 7
        assert json.loads(b.pop("manifest.json"))["seed"] == 7
        assert a == b


class TestOptions:
    @pytest.mark.parametrize("name", sorted(main.commands))
    def test_every_parameter_is_read(self, name):
        """A command body reads every parameter it is called with, so no
        command declares an option that it ignores."""
        body = main.commands[name].callback.__wrapped__
        fn = ast.parse(textwrap.dedent(inspect.getsource(body))).body[0]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        assert [a.arg for a in fn.args.args if a.arg not in read] == []

    def test_seed_only_on_the_commands_that_draw(self):
        assert {name for name, cmd in main.commands.items()
                if any(p.name == "seed" for p in cmd.params)} == \
            {"sample", "replicate"}

    def test_seed_refused_where_nothing_is_drawn(self, runner, tmp_path):
        corpus = make_corpus_dir(tmp_path, count=4, n=60)
        out = tmp_path / "o"
        r = runner.invoke(main, ["spectra", "--corpus", str(corpus), "-c", "2",
                                 "--seed", "1", "--out", str(out)])
        assert r.exit_code == 1
        assert "No such option" in r.output and "--seed" in r.output
        assert not out.exists()

    def test_config_only_on_replicate(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", "recoverability", 3, {})
        corpus = make_corpus_dir(tmp_path, count=4, n=60)
        out = tmp_path / "o"
        r = runner.invoke(main, ["fit", "--corpus", str(corpus), "-c", "2",
                                 "--config", str(cfg), "--out", str(out)])
        assert r.exit_code == 1
        assert "No such option" in r.output and "--config" in r.output
        assert not out.exists()


def write_config(path, scenario, seed, params):
    path.write_text(json.dumps({"format": 1, "scenario": scenario,
                                "seed": seed, "params": params}))
    return path


def planted_contact_stream(path, n=60, seed=7):
    """Two equal groups for 800 s, then three groups for 800 s."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, 1)
    lines = []
    t = 0
    for groups in (((0.5, 0.05), (0.5, 0.05)),
                   ((0.34, 0.08), (0.33, 0.07), (0.33, 0.06))):
        fractions, rates = np.array(groups).T
        cuts = np.round(np.cumsum(fractions)[:-1] * n).astype(int)
        group = np.searchsorted(cuts, np.arange(n), side="right")
        rate = np.where(group[iu] == group[ju], rates[group[iu]], 0.002)
        for _ in range(40):
            hit = np.nonzero(rng.random(len(iu)) < rate)[0]
            lines += [f"{t} {iu[h]} {ju[h]}" for h in hit]
            t += 20
    path.write_text("\n".join(lines) + "\n")
    return path


def replicate_twice(runner, tmp_path, scenario, seed, params):
    """Run one scenario twice from the same config; returns the first output
    directory after checking that both runs wrote the same bytes."""
    cfg = write_config(tmp_path / "cfg.json", scenario, seed, params)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        r = runner.invoke(main, ["replicate", scenario, "--config", str(cfg),
                                 "--out", str(out)])
        assert r.exit_code == 0, r.output
    assert read_bytes(outs[0]) == read_bytes(outs[1])
    manifest = json.loads((outs[0] / "manifest.json").read_text())
    assert manifest["command"] == f"replicate {scenario}"
    assert manifest["seed"] == seed
    assert set(manifest["outputs"]) | {"manifest.json"} == set(read_bytes(outs[0]))
    return outs[0]


CURVES = ["curves_critical.csv", "curves_subcritical.csv",
          "curves_supercritical.csv"]


class TestReplicateScenarios:
    def test_mixture_beta(self, runner, tmp_path):
        out = replicate_twice(runner, tmp_path, "mixture-beta", 5,
                              {"N": 40, "n": 200})
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["errors.csv", "report.json"]
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"format", "correlation", "model"}
        assert report["model"]["law"]["kind"] == "beta"
        table = (out / "errors.csv").read_text().strip().split("\n")
        assert table[0] == ("component,lambda_bar,lambda_bar_new,"
                            "rel_err_lambda_bar,sigma_hat,sigma_hat_new,"
                            "rel_err_sigma_hat")
        assert len(table) == 3

    def test_critical_n(self, runner, tmp_path):
        out = replicate_twice(runner, tmp_path, "critical-n", 2,
                              {"n": 200, "N_max": 200, "repetitions": 2,
                               "supercritical": 30})
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == CURVES + ["report.json"]
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"format", "n_crit", "params"}
        assert set(report["params"]) == {"n", "omega", "p_values"}
        for name in CURVES:
            lines = (out / name).read_text().strip().split("\n")
            assert lines[0] == "z,f_true,f_hat,f_silverman"
            assert len(lines) == 2049

    def test_contacts(self, runner, tmp_path):
        stream = planted_contact_stream(tmp_path / "contacts.txt")
        out = replicate_twice(runner, tmp_path, "contacts", 3,
                              {"file": str(stream), "window": 300, "step": 20,
                               "resample": 20})
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["report.json"]
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"format", "n", "N", "clusters", "fits"}
        assert report["n"] == 60
        members = sorted(i for v in report["clusters"].values() for i in v)
        assert members == list(range(report["N"]))
        assert set(report["fits"]) == {"2", "3"}
        for count, fit in report["fits"].items():
            assert set(fit) == {"members", "lambda_bar", "lambda_bar_resampled"}
            assert fit["members"] == report["clusters"][count]
            assert len(fit["lambda_bar"]) == int(count)


def contract_inputs(tmp_path) -> dict:
    """One input file or directory of each kind the subcommands read."""
    model = tmp_path / "model.json"
    save_model(SbmParams(omega=0.4, s=[0.5, 0.5], p=[0.8, 0.6], q=0.05), model)
    stream = tmp_path / "contacts.txt"
    stream.write_text("".join(f"{t} {t % 5} {(t + 1) % 5}\n"
                              for t in range(0, 4000, 40)))
    cfg = write_config(tmp_path / "cfg.json", "recoverability", 3,
                       {"N": 8, "n": 200})
    return {"model": model, "corpus": make_corpus_dir(tmp_path, count=12),
            "stream": stream, "cfg": cfg}


# (command line before --out, manifest command, manifest seed); the commands
# that draw are passed --seed 7, which replicate overrides with its config's
# seed 3, and the others take no seed and record none
CONTRACT = {
    "sample": (lambda i: ["sample", "--model", i["model"], "--n", "40",
                          "--count", "2", "--seed", "7"], "sample", 7),
    "spectra": (lambda i: ["spectra", "--corpus", i["corpus"], "-c", "2"],
                "spectra", None),
    "moments": (lambda i: ["moments", "--corpus", i["corpus"], "-c", "2"],
                "moments", None),
    "fit": (lambda i: ["fit", "--corpus", i["corpus"], "-c", "2"], "fit", None),
    "fit-geometry": (lambda i: ["fit", "--corpus", i["corpus"], "-c", "2",
                                "--s-from-geometry"], "fit", None),
    "fit-np": (lambda i: ["fit-np", "--corpus", i["corpus"], "-c", "2"],
               "fit-np", None),
    "geometry": (lambda i: ["geometry", "--corpus", i["corpus"]], "geometry",
                 None),
    "contacts": (lambda i: ["contacts", "--file", i["stream"], "--window", "1000",
                            "--step", "200"], "contacts", None),
    "replicate": (lambda i: ["replicate", "recoverability", "--config", i["cfg"],
                             "--seed", "7"], "replicate recoverability", 3),
}


class TestOutputContract:
    @pytest.mark.parametrize("case", CONTRACT)
    def test_reproducible_files_listed_in_manifest(self, runner, tmp_path, case):
        argv, command, seed = CONTRACT[case]
        args = [str(a) for a in argv(contract_inputs(tmp_path))]
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            r = runner.invoke(main, args + ["--out", str(out)])
            assert r.exit_code == 0, r.output
        files = read_bytes(outs[0])
        assert files == read_bytes(outs[1])
        manifest = json.loads(files["manifest.json"])
        assert manifest["outputs"] == sorted(set(files) - {"manifest.json"})
        assert manifest["command"] == command
        assert manifest["seed"] == seed
        assert r.output == f"wrote {', '.join(files)} to {outs[1]}\n"

    def test_every_command_has_a_case(self):
        assert {command.split()[0] for _, command, _ in CONTRACT.values()} == \
            set(main.commands)


def _config(scenario, **params):
    return {"format": 1, "scenario": scenario, "params": params}


# Each JSON reader of the CLI given one value that does not fit its kind:
# (command line before the file's path, the file, the error message).
WRONG_KIND = {
    "N_float": (["replicate", "recoverability", "--config"],
                _config("recoverability", N=8.7),
                "recoverability params 'N' must be an integer"),
    "n_string": (["replicate", "recoverability", "--config"],
                 _config("recoverability", n="200"),
                 "recoverability params 'n' must be an integer"),
    "N_bool": (["replicate", "recoverability", "--config"],
               _config("recoverability", N=True),
               "recoverability params 'N' must be an integer"),
    "eps_nan": (["replicate", "recoverability", "--config"],
                _config("recoverability", eps=float("nan")),
                "recoverability params 'eps' must be a finite number"),
    "resample_float": (["replicate", "recoverability", "--config"],
                       _config("recoverability", resample=2.5),
                       "recoverability params 'resample' must be an integer"),
    "p_values_strings": (["replicate", "mixture-beta", "--config"],
                         _config("mixture-beta", p_values=[["0.9", "0.5"]]),
                         "mixture-beta params 'p_values' must be a list of numbers"),
    "contacts_file_int": (["replicate", "contacts", "--config"],
                          _config("contacts", file=0),
                          "contacts params 'file' must be a string"),
    "config_seed_float": (["replicate", "critical-n", "--config"],
                          {**_config("critical-n"), "seed": 1.5},
                          "config 'seed' must be an integer"),
    "model_omega_string": (["sample", "--n", "10", "--count", "1", "--model"],
                           {"format": 1, "omega": "0.5", "s": [1.0], "p": [0.5],
                            "q": 0.0},
                           "fixed SBM model spec 'omega' must be a finite number"),
    "model_s_nan": (["sample", "--n", "10", "--count", "1", "--model"],
                    {"format": 1, "omega": 0.5, "s": [float("nan"), 0.5],
                     "p": [0.5, 0.5], "q": 0.0},
                    "community sizes must be positive and sum to 1"),
    "rpsbm_s_nan": (["sample", "--n", "10", "--count", "1", "--model"],
                    {"format": 1, "omega": 0.5, "s": [0.5, float("nan")],
                     "epsilon": 0.0,
                     "law": {"kind": "dirac", "center": [0.5, 0.5]}},
                    "community sizes must be positive and sum to 1"),
    "law_kind_gauss": (["sample", "--n", "10", "--count", "1", "--model"],
                       {"format": 1, "omega": 0.5, "s": [1.0], "epsilon": 0.0,
                        "law": {"kind": "gauss", "mu": [0.5], "sd": [0.1]}},
                       "unknown law kind 'gauss'"),
    "law_center_scalar": (["sample", "--n", "10", "--count", "1", "--model"],
                          {"format": 1, "omega": 0.5, "s": [1.0], "epsilon": 0.0,
                           "law": {"kind": "dirac", "center": 0.5}},
                          "dirac law 'center' must be a list of numbers"),
    "critical_n_p_values_2d": (["replicate", "critical-n", "--config"],
                               _config("critical-n", p_values=[[0.75], [0.85]]),
                               "critical-n params 'p_values' must be a list of numbers"),
    "critical_n_n_one": (["replicate", "critical-n", "--config"],
                         _config("critical-n", n=1),
                         "critical-n params 'n' must be at least 2, not 1"),
    "critical_n_N_max_zero": (["replicate", "critical-n", "--config"],
                              _config("critical-n", N_max=0),
                              "critical-n params 'N_max' must be at least 1, not 0"),
    "critical_n_repetitions_zero": (["replicate", "critical-n", "--config"],
                                    _config("critical-n", repetitions=0),
                                    "critical-n params 'repetitions' must be at "
                                    "least 1, not 0"),
    "critical_n_subcritical_zero": (["replicate", "critical-n", "--config"],
                                    _config("critical-n", subcritical=0),
                                    "critical-n params 'subcritical' must be at "
                                    "least 1, not 0"),
    "critical_n_supercritical_negative": (["replicate", "critical-n", "--config"],
                                          _config("critical-n", supercritical=-3),
                                          "critical-n params 'supercritical' must be "
                                          "at least 1, not -3"),
    "critical_n_p_values_empty": (["replicate", "critical-n", "--config"],
                                  _config("critical-n", p_values=[]),
                                  "critical-n params 'p_values' must not be empty"),
    "critical_n_p_values_zero": (["replicate", "critical-n", "--config"],
                                 _config("critical-n", n=100, p_values=[0.0, 0.05]),
                                 "critical-n params 'p_values' must lie in "
                                 "(0, 1/omega] at omega = 0.2, not [0.0, 0.05]"),
    "critical_n_p_values_above_one_over_omega": (
        ["replicate", "critical-n", "--config"],
        _config("critical-n", n=100, p_values=[0.8, 9.0]),
        "critical-n params 'p_values' must lie in (0, 1/omega] at omega = 0.2, "
        "not [0.8, 9.0]"),
    # NaN fails the range test; a worker's message would name no key
    "critical_n_p_values_nan": (["replicate", "critical-n", "--config"],
                                _config("critical-n", n=100,
                                        p_values=[float("nan"), 0.8]),
                                "critical-n params 'p_values' must lie in "
                                "(0, 1/omega] at omega = 0.2, not [nan, 0.8]"),
    "critical_n_omega_zero": (["replicate", "critical-n", "--config"],
                              _config("critical-n", n=100, omega=0.0),
                              "critical-n params 'omega' must lie in (0, 1], not 0"),
    "critical_n_omega_above_one": (["replicate", "critical-n", "--config"],
                                   _config("critical-n", n=100, omega=1.5,
                                           p_values=[0.5]),
                                   "critical-n params 'omega' must lie in (0, 1], "
                                   "not 1.5"),
    "recoverability_omega_zero": (["replicate", "recoverability", "--config"],
                                  _config("recoverability", omega=0.0),
                                  "recoverability params 'omega' must lie in "
                                  "(0, 1], not 0"),
    "recoverability_default_omega_above_one": (
        ["replicate", "recoverability", "--config"],
        _config("recoverability", n=50),
        "recoverability params 'omega' must lie in (0, 1], not 1.41421"),
    # refused before the corpus is drawn and fitted
    "recoverability_N_one": (["replicate", "recoverability", "--config"],
                             _config("recoverability", N=1),
                             "recoverability params 'N' must be at least 2, "
                             "not 1"),
    "recoverability_n_one": (["replicate", "recoverability", "--config"],
                             _config("recoverability", n=1),
                             "recoverability params 'n' must be at least 2, "
                             "not 1"),
    "recoverability_resample_zero": (["replicate", "recoverability", "--config"],
                                     _config("recoverability", resample=0),
                                     "recoverability params 'resample' must be "
                                     "at least 1, not 0"),
    "mixture_beta_N_one": (["replicate", "mixture-beta", "--config"],
                           _config("mixture-beta", N=1),
                           "mixture-beta params 'N' must be at least 2, not 1"),
    "mixture_beta_n_zero": (["replicate", "mixture-beta", "--config"],
                            _config("mixture-beta", n=0),
                            "mixture-beta params 'n' must be at least 2, not 0"),
    "mixture_beta_omega_above_one": (["replicate", "mixture-beta", "--config"],
                                     _config("mixture-beta", omega=1.5),
                                     "mixture-beta params 'omega' must lie in "
                                     "(0, 1], not 1.5"),
    # checked before the stream is loaded, so the file need not exist
    "contacts_window_zero": (["replicate", "contacts", "--config"],
                             _config("contacts", file="absent.txt", window=0),
                             "contacts params 'window' must be at least 1, not 0"),
    "contacts_step_negative": (["replicate", "contacts", "--config"],
                               _config("contacts", file="absent.txt", step=-5),
                               "contacts params 'step' must be at least 1, not -5"),
    "contacts_resample_zero": (["replicate", "contacts", "--config"],
                               _config("contacts", file="absent.txt", resample=0),
                               "contacts params 'resample' must be at least 1, "
                               "not 0"),
    "centers_2d": (["replicate", "recoverability", "--config"],
                   _config("recoverability", centers=[[0.85], [0.575]]),
                   "recoverability params 'centers' must be a list of numbers"),
    "p_values_1d": (["replicate", "mixture-beta", "--config"],
                    _config("mixture-beta", p_values=[0.9, 0.5]),
                    "mixture-beta params 'p_values' must be rows of 2 numbers"),
    "p_values_rows_short_of_s": (["replicate", "mixture-beta", "--config"],
                                 _config("mixture-beta", s=[0.3, 0.3, 0.4]),
                                 "mixture-beta params 'p_values' must be rows of 3 numbers"),
    "s_one_entry": (["replicate", "mixture-beta", "--config"],
                    _config("mixture-beta", n=400, N=40, s=[1.0],
                            p_values=[[0.9], [0.6]]),
                    "mixture-beta params 's' must have at least two entries"),
    "count_negative": (["sample", "--n", "10", "--count", "-1", "--model"],
                       {"format": 1, "omega": 0.5, "s": [1.0], "p": [0.5], "q": 0.0},
                       "--count must be at least 1, not -1"),
    "count_zero": (["sample", "--n", "10", "--count", "0", "--model"],
                   {"format": 1, "omega": 0.5, "s": [1.0], "p": [0.5], "q": 0.0},
                   "--count must be at least 1, not 0"),
    "contacts_window_zero_option": (["contacts", "--window", "0", "--file"], {},
                                    "--window must be at least 1, not 0"),
    "contacts_step_negative_option": (["contacts", "--step", "-5", "--file"], {},
                                      "--step must be at least 1, not -5"),
    # a negative seed is refused before the stream is loaded
    "seed_option_negative": (["replicate", "contacts", "--seed", "-1", "--config"],
                             _config("contacts", file="absent.txt"),
                             "--seed must be at least 0, not -1"),
    "sample_seed_negative": (["sample", "--n", "10", "--count", "1", "--seed",
                              "-1", "--model"],
                             {"format": 1, "omega": 0.5, "s": [1.0], "p": [0.5],
                              "q": 0.0},
                             "--seed must be at least 0, not -1"),
    "config_seed_negative": (["replicate", "contacts", "--config"],
                             {**_config("contacts", file="absent.txt"), "seed": -1},
                             "config 'seed' must be at least 0, not -1"),
    # no host can allocate the labels of 10^17 nodes, so numpy refuses them
    # at once, here and in a pool worker, and no memory is touched
    "n_out_of_memory": (["sample", "--n", str(10**17), "--count", "1", "--model"],
                        {"format": 1, "omega": 0.5, "s": [1.0], "p": [0.5], "q": 0.0},
                        "Unable to allocate"),
    "replicate_n_out_of_memory": (["replicate", "recoverability", "--config"],
                                  _config("recoverability", n=1e17, N=2),
                                  "Unable to allocate"),
    # numpy keeps integers as int64: one past it is refused where it is read
    "critical_n_n_past_int64": (["replicate", "critical-n", "--config"],
                                _config("critical-n", n=1e20),
                                "critical-n params 'n' must be an integer of "
                                "magnitude below 2**63"),
    "contacts_step_past_int64": (["replicate", "contacts", "--config"],
                                 _config("contacts", file="absent.txt", step=1e20),
                                 "contacts params 'step' must be an integer of "
                                 "magnitude below 2**63"),
    "config_seed_past_int64": (["replicate", "contacts", "--config"],
                               {**_config("contacts", file="absent.txt"),
                                "seed": 2**64},
                               "config 'seed' must be an integer of magnitude "
                               "below 2**63"),
    "contacts_window_past_int64_option": (
        ["contacts", "--window", str(10**20), "--file"], {},
        f"--window must be below 2**63, not {10**20}"),
    "contacts_step_past_int64_option": (
        ["contacts", "--step", str(2**63), "--file"], {},
        f"--step must be below 2**63, not {2**63}"),
    "bandwidth_not_a_number": (["fit-np", "-c", "1", "--bandwidth", "fixed:abc",
                                "--corpus"], {},
                               "--bandwidth 'fixed:abc': the h of 'fixed:<h>' "
                               "must be a number"),
    "bandwidth_unknown_rule": (["fit-np", "-c", "1", "--bandwidth", "bogus",
                                "--corpus"], {},
                               "--bandwidth 'bogus': unknown rule, not "
                               "'silverman' or 'fixed:<h>'"),
    "config_format_two": (["replicate", "recoverability", "--config"],
                          {**_config("recoverability"), "format": 2},
                          "config 'format' must be 1, not 2"),
    "model_format_two": (["sample", "--n", "10", "--count", "1", "--model"],
                         {"format": 2, "omega": 0.5, "s": [1.0], "p": [0.5],
                          "q": 0.0},
                         "fixed SBM model spec 'format' must be 1, not 2"),
    "rpsbm_format_two": (["sample", "--n", "10", "--count", "1", "--model"],
                         {"format": 2, "omega": 0.5, "s": [1.0], "epsilon": 0.0,
                          "law": {"kind": "dirac", "center": [0.5]}},
                         "RPSBM model spec 'format' must be 1, not 2"),
    "p_values_ragged": (["replicate", "mixture-beta", "--config"],
                        _config("mixture-beta", p_values=[[0.9, 0.5], [0.6]]),
                        "mixture-beta params 'p_values' must be a list of "
                        "numbers or of such lists"),
}


class TestInvalidJson:
    """Malformed JSON inputs end in 'error: ...' and exit 1, not a traceback."""

    @pytest.mark.parametrize("case", WRONG_KIND)
    def test_value_of_wrong_kind(self, runner, tmp_path, case):
        argv, payload, message = WRONG_KIND[case]
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "o"
        r = runner.invoke(main, [*argv, str(path), "--out", str(out)])
        self.assert_clean_exit_1(r)
        assert f"error: {message}" in r.output
        assert not out.exists()

    def assert_clean_exit_1(self, r):
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit), r.exception
        assert "error:" in r.output

    def replicate(self, runner, tmp_path, payload):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        return runner.invoke(main, ["replicate", "recoverability",
                                    "--config", str(cfg),
                                    "--out", str(tmp_path / "o")])

    def test_config_list(self, runner, tmp_path):
        self.assert_clean_exit_1(self.replicate(runner, tmp_path, [1, 2]))

    def test_config_params_not_object(self, runner, tmp_path):
        self.assert_clean_exit_1(self.replicate(runner, tmp_path, {
            "format": 1, "scenario": "recoverability", "params": 5}))

    def test_empty_config_is_not_ignored(self, runner, tmp_path):
        self.assert_clean_exit_1(self.replicate(runner, tmp_path, {}))

    @pytest.mark.parametrize("text", [
        "[]",
        '{"format": 1, "omega": 0.5, "s": [1.0], "epsilon": 0.0, "law": []}',
    ])
    def test_model_list(self, runner, tmp_path, text):
        model = tmp_path / "model.json"
        model.write_text(text)
        r = runner.invoke(main, ["sample", "--model", str(model), "--n", "10",
                                 "--count", "1", "--out", str(tmp_path / "o")])
        self.assert_clean_exit_1(r)

    def test_config_seed_not_scalar(self, runner, tmp_path):
        self.assert_clean_exit_1(self.replicate(runner, tmp_path, {
            "format": 1, "scenario": "recoverability", "seed": [1]}))

    def test_model_omega_not_scalar(self, runner, tmp_path):
        model = tmp_path / "model.json"
        model.write_text('{"format": 1, "omega": [0.5], "s": [1.0], '
                         '"p": [0.5], "q": 0.0}')
        r = runner.invoke(main, ["sample", "--model", str(model), "--n", "10",
                                 "--count", "1", "--out", str(tmp_path / "o")])
        self.assert_clean_exit_1(r)

    def test_edgelist_header_without_count(self, runner, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "graph_0000.txt").write_text("n\n0 1\n")
        r = runner.invoke(main, ["spectra", "--corpus", str(corpus), "-c", "1",
                                 "--out", str(tmp_path / "o")])
        self.assert_clean_exit_1(r)

    @pytest.mark.parametrize("text, message", [
        ("n 3\n1 x\n", ":2: invalid literal for int() with base 10: 'x'"),
        ("n 3\n0 3\n", ": edge endpoint out of range"),
        (f"n {10**20}\n0 1\n",
         f":1: '{10**20}' is not an integer of magnitude below 2**63"),
        (f"n 3\n0 1\n{-2**63} 1\n",
         f":3: '{-2**63}' is not an integer of magnitude below 2**63"),
    ], ids=["non_integer", "endpoint_out_of_range", "n_past_int64",
            "id_past_int64"])
    def test_edgelist_error_names_the_file(self, runner, tmp_path, text, message):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "graph_0000.txt").write_text("n 3\n0 1\n")
        (corpus / "graph_0001.txt").write_text(text)
        r = runner.invoke(main, ["moments", "--corpus", str(corpus), "-c", "1",
                                 "--out", str(tmp_path / "o")])
        self.assert_clean_exit_1(r)
        assert f"error: {corpus / 'graph_0001.txt'}{message}\n" in r.output

    def test_edgelist_node_count_past_key_bound(self, runner, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        graph = corpus / "graph_0000.txt"
        graph.write_text("n 4000000000\n3999999998 3999999999\n0 1\n")
        r = runner.invoke(main, ["spectra", "--corpus", str(corpus), "-c", "1",
                                 "--out", str(tmp_path / "o")])
        self.assert_clean_exit_1(r)
        assert (f"error: {graph}: 4000000000 nodes exceed 3037000500, the most "
                "whose pair keys fit int64\n" in r.output)

    def test_contacts_time_span_past_int64(self, runner, tmp_path):
        stream = tmp_path / "contacts.txt"
        stream.write_text(f"{-5 * 10**18} 0 1\n0 1 2\n{5 * 10**18} 2 3\n")
        r = runner.invoke(main, ["contacts", "--file", str(stream),
                                 "--window", str(10**18), "--step", str(10**18),
                                 "--out", str(tmp_path / "o")])
        self.assert_clean_exit_1(r)
        assert (f"error: {stream}: contact time span {10**19} reaches 2**63\n"
                in r.output)

    def test_contacts_error_names_the_file(self, runner, tmp_path):
        stream = tmp_path / "contacts.txt"
        stream.write_text("0 1 2\n20 1 x\n")
        r = runner.invoke(main, ["contacts", "--file", str(stream),
                                 "--out", str(tmp_path / "o")])
        self.assert_clean_exit_1(r)
        assert (f"error: {stream}:2: invalid literal for int() with base 10: 'x'\n"
                in r.output)

    @pytest.mark.parametrize("line", [f"{10**20} 1 2", f"20 1 {2**63}",
                                      f"20 {-10**19} 2"])
    def test_contacts_integer_past_int64_names_the_line(self, runner, tmp_path,
                                                        line):
        stream = tmp_path / "contacts.txt"
        stream.write_text(f"0 1 2\n{line}\n")
        r = runner.invoke(main, ["contacts", "--file", str(stream),
                                 "--out", str(tmp_path / "o")])
        self.assert_clean_exit_1(r)
        bad = next(x for x in line.split() if abs(int(x)) >= 2**63)
        assert (f"error: {stream}:2: '{bad}' is not an integer of magnitude "
                f"below 2**63\n" in r.output)

    @pytest.mark.parametrize("scenario, params", [
        ("recoverability", {"n": [300]}),
        ("recoverability", {"N": None}),
        ("mixture-beta", {"q": [0.05]}),
    ])
    def test_scenario_param_not_scalar(self, runner, tmp_path, scenario, params):
        cfg = write_config(tmp_path / "cfg.json", scenario, 0, params)
        r = runner.invoke(main, ["replicate", scenario, "--config", str(cfg),
                                 "--out", str(tmp_path / "o")])
        self.assert_clean_exit_1(r)

    def test_contacts_window_not_scalar(self, runner, tmp_path):
        stream = planted_contact_stream(tmp_path / "contacts.txt")
        cfg = write_config(tmp_path / "cfg.json", "contacts", 0,
                           {"file": str(stream), "window": [10]})
        r = runner.invoke(main, ["replicate", "contacts", "--config", str(cfg),
                                 "--out", str(tmp_path / "o")])
        self.assert_clean_exit_1(r)

    @pytest.mark.parametrize("kind", [["uniform"], {"uniform": 1}])
    def test_model_law_kind_not_string(self, runner, tmp_path, kind):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "format": 1, "omega": 0.5, "s": [1.0], "epsilon": 0.0,
            "law": {"kind": kind, "center": [0.5], "width": [0.1]}}))
        r = runner.invoke(main, ["sample", "--model", str(model), "--n", "10",
                                 "--count", "1", "--out", str(tmp_path / "o")])
        self.assert_clean_exit_1(r)
        assert "unknown law kind" in r.output

    @pytest.mark.parametrize("scenario", ["recoverability", "mixture-beta",
                                          "critical-n", "contacts"])
    def test_scenario_unknown_param(self, runner, tmp_path, scenario):
        cfg = write_config(tmp_path / "cfg.json", scenario, 0, {"Nn": 999})
        r = runner.invoke(main, ["replicate", scenario, "--config", str(cfg),
                                 "--out", str(tmp_path / "o")])
        self.assert_clean_exit_1(r)
        assert "['Nn']" in r.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config, message", [
        ({"format": 1, "scenario": "critical-n", "parms": {"n": 200}},
         "config does not read keys ['parms']"),
        ({"format": 1, "params": {}}, "config needs keys ['scenario']"),
    ], ids=["typo", "missing"])
    def test_config_keys_checked(self, runner, tmp_path, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        r = runner.invoke(main, ["replicate", "critical-n", "--config", str(cfg),
                                 "--out", str(tmp_path / "o")])
        self.assert_clean_exit_1(r)
        assert f"error: {message}" in r.output

    @pytest.mark.parametrize("spec, message", [
        ({"format": 1, "omega": 0.5, "s": [1.0], "epsilon": 0.0,
          "law": {"kind": "dirac", "center": [0.8], "junk": 1}},
         "dirac law does not read keys ['junk']"),
        ({"format": 1, "omega": 0.5, "s": [1.0], "epsilon": 0.0, "p": [0.5],
          "q": 0.0, "law": {"kind": "dirac", "center": [0.8]}},
         "RPSBM model spec does not read keys ['p', 'q']"),
        ({"format": 1, "omega": 0.5, "s": [1.0], "p": [0.5], "q": 0.0,
          "extra": True},
         "fixed SBM model spec does not read keys ['extra']"),
        ({"format": 1, "omega": 0.5, "s": [1.0], "epsilon": 0.0,
          "law": {"kind": "uniform", "center": [0.5]}},
         "uniform law needs keys ['width']"),
        ({"format": 1, "omega": 0.5, "s": [1.0], "p": [0.5]},
         "fixed SBM model spec needs keys ['q']"),
    ], ids=["law_unknown_key", "fixed_sbm_with_law", "fixed_sbm_unknown_key",
            "law_missing_key", "fixed_sbm_missing_key"])
    def test_model_keys_checked(self, runner, tmp_path, spec, message):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(spec))
        r = runner.invoke(main, ["sample", "--model", str(model), "--n", "10",
                                 "--count", "1", "--out", str(tmp_path / "o")])
        self.assert_clean_exit_1(r)
        assert f"error: {message}" in r.output

    @pytest.mark.parametrize("law, message", [
        ({"kind": "uniform", "center": [0.5], "width": [float("nan")]},
         "uniform law width must be finite"),
        ({"kind": "uniform", "center": [float("inf")], "width": [0.1]},
         "uniform law center must be finite"),
        ({"kind": "dirac", "center": [float("nan")]},
         "dirac law center must be finite"),
        ({"kind": "beta", "a": [0.0], "b": [1.0], "alpha": [float("nan")],
          "beta": [2.0]},
         "beta law alpha must be finite"),
    ], ids=["uniform_width_nan", "uniform_center_inf",
            "dirac_center_nan", "beta_alpha_nan"])
    def test_law_parameters_finite(self, runner, tmp_path, law, message):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"format": 1, "omega": 0.5, "s": [1.0],
                                     "epsilon": 0.0, "law": law}))
        r = runner.invoke(main, ["sample", "--model", str(model), "--n", "10",
                                 "--count", "1", "--out", str(tmp_path / "o")])
        self.assert_clean_exit_1(r)
        assert f"error: {message}" in r.output

    @pytest.mark.parametrize("h", ["nan", "inf", "-inf", "-1"])
    def test_fit_np_bandwidth_finite(self, runner, tmp_path, h):
        corpus_dir = make_corpus_dir(tmp_path, count=2, n=60)
        r = runner.invoke(main, ["fit-np", "--corpus", str(corpus_dir),
                                 "-c", "2", "--bandwidth", f"fixed:{h}",
                                 "--out", str(tmp_path / "o")])
        self.assert_clean_exit_1(r)
        assert "error: bandwidth must be finite and non-negative" in r.output
