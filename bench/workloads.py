"""The benchmark's workloads: inputs made from the seed, and their checks.

Each workload is one ``rpsbm replicate <scenario>`` invocation.  Its inputs
(the experiment config and, for ``contacts``, the contact stream) come from
the benchmark seed alone.  ``checks`` returns the output checks run after the
timed region; each compares the written outputs with a computation made here,
apart from the program, or with a property the method must have.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks as ck

WINDOW = 2700
STEP = 20


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Recover:
    """``recoverability``: a two-block RPSBM corpus with a known law J.

    J = U[0.8, 0.9] x U[0.55, 0.6], eps = 0.05, s = (1/2, 1/2) and
    omega = 10/sqrt(n), as in the scenario's defaults.  ``redraw`` graph
    indices of the corpus are drawn again through the public sampler and
    checked; ``solver`` names the eigensolver the benchmark runs on them,
    the path the program does not take at this n.
    """

    n: int
    N: int
    solver: str
    redraw: tuple[int, ...]
    scenario = "recoverability"
    eps = 0.05
    centers = (0.85, 0.575)
    widths = (0.1, 0.05)
    s = (0.5, 0.5)

    @property
    def omega(self) -> float:
        return 10.0 / math.sqrt(self.n)

    def params(self, seed: int, workdir: Path) -> dict:
        return {"n": self.n, "N": self.N, "resample": self.N,
                "omega": self.omega, "eps": self.eps,
                "centers": list(self.centers), "widths": list(self.widths),
                "s": list(self.s)}

    def checks(self, out: Path, seed: int, workdir: Path) -> list:
        table = _read_csv(out / "errors.csv")
        report = _read_json(out / "report.json")
        truth = ck.RecoverTruth(self.n, self.N, self.omega, self.eps,
                                np.array(self.centers), np.array(self.widths),
                                np.array(self.s))
        found = [
            ("fit", lambda: ck.recover_fit(table, report, truth)),
            ("moment_matching", lambda: ck.recover_moment_matching(table, report, truth)),
        ]
        for k in self.redraw:
            found.append((f"redraw_{k}",
                          lambda k=k: ck.recover_redraw(truth, seed, k, self.solver)))
        return found


@dataclass(frozen=True)
class Critical:
    """``critical-n`` with the scenario's defaults stated explicitly."""

    n: int
    p_values: tuple[float, ...] = (0.75, 0.85)
    N_max: int = 400
    repetitions: int = 5
    subcritical: int = 10
    supercritical: int = 325
    scenario = "critical-n"

    @property
    def omega(self) -> float:
        return 2.0 / math.sqrt(self.n)

    def params(self, seed: int, workdir: Path) -> dict:
        return {"n": self.n, "omega": self.omega, "p_values": list(self.p_values),
                "N_max": self.N_max, "repetitions": self.repetitions,
                "subcritical": self.subcritical,
                "supercritical": self.supercritical}

    def checks(self, out: Path, seed: int, workdir: Path) -> list:
        report = _read_json(out / "report.json")
        curves = {label: _read_csv(out / f"curves_{label}.csv")
                  for label in ("subcritical", "critical", "supercritical")}
        return [
            ("params", lambda: ck.critical_params(report, self.params(seed, workdir))),
            ("curves_normalized", lambda: ck.curves_normalized(curves)),
            ("f_true", lambda: ck.curves_f_true(curves, report)),
            ("n_crit", lambda: ck.n_crit_factor(report, self.p_values, self.n,
                                                self.omega)),
        ]


@dataclass(frozen=True)
class ContactStreamSpec:
    """Synthetic contact stream: planted groups whose number switches.

    Each phase lasts ``phase_s`` seconds and splits the nodes into groups,
    drawn afresh per phase; a group is a (fraction of the nodes, contact
    rate) pair.  On every ``tick`` a pair inside group g makes contact with
    probability equal to g's rate, and a pair across groups with probability
    ``rate_out``.  Node ids are a shuffled range starting at 1000, and each
    record lists its pair in a random order.
    """

    nodes: int
    phases: tuple[tuple[tuple[float, float], ...], ...]
    phase_s: int
    rate_out: float
    tick: int = 20

    def records(self, seed: int) -> np.ndarray:
        """(r, 3) int array of (t, id_a, id_b) rows in time order."""
        rng = np.random.default_rng([seed, 0xC0])
        n = self.nodes
        iu, ju = np.triu_indices(n, 1)
        ids = rng.permutation(n) + 1000
        out = []
        t = 0
        for groups in self.phases:
            fractions, rates = np.array(groups).T
            cuts = np.round(np.cumsum(fractions)[:-1] * n).astype(int)
            group = np.empty(n, dtype=int)
            group[rng.permutation(n)] = np.searchsorted(cuts, np.arange(n), side="right")
            rate = np.where(group[iu] == group[ju], rates[group[iu]], self.rate_out)
            for _ in range(self.phase_s // self.tick):
                hit = np.nonzero(rng.random(len(iu)) < rate)[0]
                flip = rng.random(len(hit)) < 0.5
                a = np.where(flip, ju[hit], iu[hit])
                b = np.where(flip, iu[hit], ju[hit])
                out.append(np.column_stack((np.full(len(hit), t), ids[a], ids[b])))
                t += self.tick
        return np.concatenate(out)

    def write(self, seed: int, path: Path) -> np.ndarray:
        recs = self.records(seed)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# t i j\n")
            fh.write("".join(f"{t} {a} {b}\n" for t, a, b in recs.tolist()))
        return recs


@dataclass(frozen=True)
class Contacts:
    """``contacts`` on the synthetic stream, window 2700 s and step 20 s."""

    stream: ContactStreamSpec
    resample: int
    sampled_windows: int = 6
    scenario = "contacts"

    def params(self, seed: int, workdir: Path) -> dict:
        path = workdir / "contacts.txt"
        if not path.exists():
            self.stream.write(seed, path)
        return {"file": str(path), "window": WINDOW, "step": STEP,
                "resample": self.resample, "min_cluster": 5}

    def checks(self, out: Path, seed: int, workdir: Path) -> list:
        report = _read_json(out / "report.json")
        recs = self.stream.records(seed)
        path = workdir / "contacts.txt"
        return [
            ("window_count", lambda: ck.contacts_window_count(report, recs, WINDOW, STEP)),
            ("windows_brute_force",
             lambda: ck.contacts_windows(path, recs, WINDOW, STEP,
                                         self.sampled_windows, seed)),
            ("community_counts", lambda: ck.contacts_counts(report, {2, 3})),
            ("moment_matching", lambda: ck.contacts_moment_matching(report)),
        ]


# Two groups, then three; every group smaller than the detector's minimum
# block size ceil(lambda_1) would be merged, so the largest in-group edge
# density of a window stays below the smallest group's share.
PLANTED = (((0.55, 0.004), (0.45, 0.006)),
           ((0.36, 0.008), (0.33, 0.006), (0.31, 0.0045)))

WORKLOADS = {
    "recover-n2000": Recover(n=2000, N=4, solver="arpack", redraw=(0, 3)),
    "recover-n6000": Recover(n=6000, N=4, solver="subspace", redraw=(0, 3)),
    "critical-n500": Critical(n=500),
    "contacts": Contacts(ContactStreamSpec(nodes=240, phases=PLANTED, phase_s=4040,
                                           rate_out=0.0002), resample=100),
}

# The same workloads at a size that runs in seconds, for the benchmark's test.
TINY = {
    "recover-n2000": Recover(n=300, N=12, solver="arpack", redraw=(0, 11)),
    "recover-n6000": Recover(n=400, N=12, solver="subspace", redraw=(0,)),
    "critical-n500": Critical(n=300, N_max=200, repetitions=2, supercritical=40),
    "contacts": Contacts(ContactStreamSpec(nodes=120, phases=PLANTED, phase_s=3300,
                                           rate_out=0.0002), resample=30),
}
