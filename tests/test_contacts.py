"""Contact-stream parsing and sliding-window graph extraction."""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rpsbm import (
    ContactStream,
    Graph,
    cluster_by_community_count,
    compute_moments,
    detect_geometry,
    load_contacts,
    replicate,
    window_contacts,
)
from rpsbm.contacts import window_count
from rpsbm.models import LazyCorpus


def write_stream(tmp_path, lines, name="contacts.txt"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def brute_force_windows(records, n, window, step):
    """Oracle: enumerate every fully observed window and scan all records."""
    t0 = min(r[0] for r in records)
    t_max = max(r[0] for r in records) - t0
    graphs = []
    k = 1
    while window + step * (k - 1) <= t_max:
        start = step * (k - 1)
        edges = {
            (min(i, j), max(i, j))
            for t, i, j in records
            if start <= (t - t0) < start + window
        }
        graphs.append(edges)
        k += 1
    return graphs


def mask_windows(stream, window, step):
    """Reference: select each window's records with a full boolean mask."""
    t = stream.records[:, 0] - stream.t_min
    starts = step * np.arange(window_count(stream, window, step))
    return [Graph(stream.n, stream.records[(t >= s) & (t < s + window), 1:3])
            for s in starts]


class TestLoad:
    def test_basic_parse_and_node_map(self, tmp_path):
        path = write_stream(tmp_path, ["100 7 3", "120 3 9", "110 9 7"])
        stream = load_contacts(path)
        assert stream.node_map == {3: 0, 7: 1, 9: 2}
        assert stream.records[:, 0].tolist() == [100, 110, 120]

    def test_extra_columns_warn(self, tmp_path):
        path = write_stream(tmp_path, ["100 1 2 classA classB"])
        with pytest.warns(UserWarning, match="extra columns"):
            load_contacts(path)

    def test_self_contacts_dropped(self, tmp_path):
        path = write_stream(tmp_path, ["100 1 1", "110 1 2"])
        with pytest.warns(UserWarning, match="self-contact"):
            stream = load_contacts(path)
        assert len(stream.records) == 1

    def test_empty_stream_rejected(self, tmp_path):
        path = write_stream(tmp_path, ["# only a comment"])
        with pytest.raises(ValueError, match="empty"):
            load_contacts(path)

    def test_time_span_past_int64_rejected(self, tmp_path):
        # each time fits int64, but t - t_min would wrap for the last one
        path = write_stream(tmp_path, [f"{-5 * 10**18} 0 1", "0 1 2",
                                       f"{5 * 10**18} 2 3"])
        with pytest.raises(ValueError) as info:
            load_contacts(path)
        assert str(info.value) == (f"{path}: contact time span {10**19} "
                                   "reaches 2**63")

    def test_time_span_just_below_int64_accepted(self, tmp_path):
        path = write_stream(tmp_path, [f"{-2**62} 0 1", f"{2**62 - 1} 1 2"])
        stream = load_contacts(path)
        assert stream.t_max - stream.t_min == 2**63 - 1

    @pytest.mark.parametrize("lines, lineno", [
        (["100 1"], 1), (["# t i j", "100 1 2", "", "110 2"], 4)])
    def test_short_line_names_the_line(self, tmp_path, lines, lineno):
        path = write_stream(tmp_path, lines)
        with pytest.raises(ValueError) as info:
            load_contacts(path)
        assert str(info.value) == f"{path}:{lineno}: expected 't i j'"


class TestWindows:
    def stream(self, records):
        arr = np.asarray(records, dtype=np.int64)
        ids = np.unique(arr[:, 1:3])
        node_map = {int(v): k for k, v in enumerate(ids)}
        remap = np.searchsorted(ids, arr[:, 1:3])
        arr = np.column_stack([arr[:, 0], remap])
        arr = arr[np.argsort(arr[:, 0], kind="stable")]
        return ContactStream(records=arr, node_map=node_map)

    def test_record_at_zero_in_first_graph_only(self):
        # second pair keeps the stream long enough for 136+ windows
        records = [(0, 0, 1)] + [(t, 2, 3) for t in range(0, 6001, 100)]
        stream = self.stream(records)
        graphs = window_contacts(stream, 2700, 20)
        present = [k for k, g in enumerate(graphs, 1)
                   if [0, 1] in g.edges.tolist()]
        assert present == [1]

    def test_record_at_2699_in_first_135_graphs(self):
        records = [(2699, 0, 1)] + [(t, 2, 3) for t in range(0, 6001, 100)]
        stream = self.stream(records)
        graphs = window_contacts(stream, 2700, 20)
        present = [k for k, g in enumerate(graphs, 1)
                   if [0, 1] in g.edges.tolist()]
        assert present == list(range(1, 136))

    def test_repeat_contacts_collapse(self):
        records = [(10, 0, 1), (20, 1, 0), (3000, 2, 3)]
        stream = self.stream(records)
        graphs = window_contacts(stream, 2700, 20)
        assert graphs[0].m == 1

    def test_count_formula(self):
        records = [(0, 0, 1), (7180, 0, 1)]
        stream = self.stream(records)
        assert window_count(stream, 2700, 20) == 225

    def test_short_stream_gives_no_windows(self):
        records = [(0, 0, 1), (100, 1, 2)]
        stream = self.stream(records)
        assert len(window_contacts(stream, 2700, 20)) == 0

    def test_matches_brute_force_on_random_streams(self):
        gen = np.random.default_rng(50)
        for _ in range(10):
            count = int(gen.integers(30, 120))
            records = [
                (int(gen.integers(0, 4000)), int(gen.integers(0, 8)),
                 int(gen.integers(0, 8)))
                for _ in range(count)
            ]
            records = [(t, i, j) for t, i, j in records if i != j]
            if not records:
                continue
            window = int(gen.integers(200, 1500))
            step = int(gen.integers(10, 300))
            stream = self.stream(records)
            got = window_contacts(stream, window, step)
            # map oracle ids through the stream's relabelling
            nm = stream.node_map
            expect = brute_force_windows(records, stream.n, window, step)
            assert len(got) == len(expect)
            for g, ref in zip(got, expect):
                ref_mapped = sorted(
                    (min(nm[i], nm[j]), max(nm[i], nm[j])) for i, j in ref)
                assert [tuple(e) for e in g.edges.tolist()] == ref_mapped

    @given(records=st.lists(
               st.tuples(st.integers(0, 3000), st.integers(0, 6),
                         st.integers(0, 6)).filter(lambda r: r[1] != r[2]),
               min_size=1, max_size=80),
           window=st.integers(1, 1500), step=st.integers(1, 400))
    def test_slices_match_masks(self, records, window, step):
        stream = self.stream(records)
        got = window_contacts(stream, window, step)
        expect = mask_windows(stream, window, step)
        assert len(got) == len(expect)
        for g, ref in zip(got, expect):
            np.testing.assert_array_equal(g.edges, ref.edges)

    def test_invalid_window_params(self):
        stream = self.stream([(0, 0, 1), (5000, 1, 2)])
        with pytest.raises(ValueError):
            window_contacts(stream, 0, 20)
        with pytest.raises(ValueError):
            window_contacts(stream, 2700, 0)


def planted_stream(n=100, seed=5):
    """Two equal groups for 2000 s, then three groups for 2000 s, one tick
    every 20 s; node ids are already 0..n-1."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, 1)
    ticks, t = [], 0
    for groups in (((0.5, 0.02), (0.5, 0.02)),
                   ((0.34, 0.03), (0.33, 0.03), (0.33, 0.025))):
        fractions, rates = np.array(groups).T
        cuts = np.round(np.cumsum(fractions)[:-1] * n).astype(int)
        group = np.searchsorted(cuts, np.arange(n), side="right")
        rate = np.where(group[iu] == group[ju], rates[group[iu]], 0.0008)
        for _ in range(100):
            hit = np.nonzero(rng.random(len(iu)) < rate)[0]
            ticks.append(np.column_stack([np.full(len(hit), t), iu[hit], ju[hit]]))
            t += 20
    return ContactStream(records=np.concatenate(ticks),
                         node_map={k: k for k in range(n)})


class TestRunContactsMemory:
    def test_peak_holds_one_window(self, monkeypatch):
        # the windows are cut one at a time for geometry and, at one CPU,
        # for the cluster moments too; the stream is loaded before tracing
        stream = planted_stream()
        params = {"file": "unread", "window": 600, "step": 20, "resample": 10}
        sizes = [g.edges.nbytes for g in window_contacts(stream, 600, 20)]
        one_window, hessian = max(sizes), 8 * stream.n ** 2
        monkeypatch.setattr(replicate, "load_contacts", lambda path: stream)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        tracemalloc.start()
        try:
            report = replicate.run_contacts(0, params)["report"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["N"] == len(sizes) > 100
        assert set(report["fits"]) == {2, 3}
        assert peak < 6 * (one_window + hessian)
        assert peak < sum(sizes) / 5


class TestRunContactsRows:
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_cluster_tables_are_their_windows_moments(self, monkeypatch, cpus):
        # the rows computed beside the geometry pass, gathered per cluster,
        # are the table compute_moments makes of the members' windows
        stream = planted_stream()
        params = {"file": "unread", "window": 600, "step": 20, "resample": 10}
        tables = {}
        fit = replicate.fit_nonparametric

        def spy(mom, **kwargs):
            tables[mom.c] = mom
            return fit(mom, **kwargs)

        monkeypatch.setattr(replicate, "load_contacts", lambda path: stream)
        monkeypatch.setattr(replicate, "fit_nonparametric", spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        report = replicate.run_contacts(0, params)["report"]
        assert set(tables) == set(report["fits"]) == {2, 3}
        windows = window_contacts(stream, 600, 20)
        for count, fitted in report["fits"].items():
            members = LazyCorpus(windows.make,
                                 [windows.keys[i] for i in fitted["members"]])
            expect = compute_moments(members, count)
            got = tables[count]
            assert got.n == expect.n
            for name in ("spectra", "densities", "mean_spectrum", "cov"):
                assert getattr(got, name).tobytes() == getattr(expect, name).tobytes()


class TestRunContactsMinCluster:
    def test_cluster_below_min_cluster_is_not_fitted(self, monkeypatch):
        stream = planted_stream()
        windows = window_contacts(stream, 600, 20)
        clusters = cluster_by_community_count(list(map(detect_geometry, windows)))
        (big, members), (_, others) = sorted(
            clusters.items(), key=lambda kv: len(kv[1]), reverse=True)[:2]
        assert len(members) > len(others)
        monkeypatch.setattr(replicate, "load_contacts", lambda path: stream)
        report = replicate.run_contacts(0, {
            "file": "unread", "window": 600, "step": 20, "resample": 10,
            "min_cluster": len(others) + 1})["report"]
        assert report["clusters"] == clusters
        assert set(report["fits"]) == {big}
        assert report["fits"][big]["members"] == members
