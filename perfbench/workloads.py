"""The three benchmark workloads: inputs made from the seed, one timed
pass, and the checks on that pass's outputs.

Each workload is a closed loop from one caller: the next pass starts when
the previous one has returned. The program runs with `threads=1`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import checks
import uclso
import uclso.arff_io
import uclso.cli

METHODS = ("none", "smote", "uclso")

# Sizes at full scale and at the reduced scale the self-check uses.
TOY = {"full": {"reps": 10, "epochs": 100}, "small": {"reps": 1, "epochs": 5}}
WIDE = {
    "full": {"n": 12000, "d": 60, "q": 16, "epochs": 3},
    "small": {"n": 1200, "d": 12, "q": 5, "epochs": 1},
}
INGEST = {"full": {"n": 6000, "d": 40, "q": 8}, "small": {"n": 600, "d": 8, "q": 4}}
K_CLUSTERS = 5

# The Fig-1 data is one fixed draw (the seed acceptance criterion 6 uses);
# the benchmark seed drives the fold plan, the synthesis and the training.
# Across draws of the layout, uclso - none fell as low as 0.065 macro F1
# on 10 seeds, close to the 0.05 the check needs; on this draw it stayed
# within 0.15 to 0.22 on 10 seeds.
TOY_CONFIG = """\
seed: {seed}
out: {out}
datasets:
  - name: fig1_toy
    toy:
      points_per_blob: [560, 300, 50, 90]
      blob_centers: [[0, 0], [5, 5], [3.5, 0], [0, 3.5]]
      blob_spreads: [1.2, 1.2, 0.9, 0.9]
      minority_rules:
        - {{2: 0.8, 0: 0.008}}
        - {{3: 0.75, 0: 0.008}}
      seed: 11
oversample: {{k_clusters: {k}, m_neighbors: 5}}
train: {{epochs: {epochs}, batch_size: 32}}
cv: {{reps: {reps}, folds: 2}}
methods: [none, smote, uclso]
"""

INGEST_CONFIG = """\
seed: {seed}
out: {out}
datasets:
  - name: ingest
    mulan: {{arff: {arff}, xml: {xml}}}
oversample: {{k_clusters: {k}, m_neighbors: 5, mode: uclso}}
"""


def blobs_dataset(seed: int, n: int, d: int, q: int, dens_lo: float, dens_hi: float,
                  blobs: int = 8):
    """Gaussian blobs with weak cluster structure and q labels whose
    densities run geometrically from dens_lo to dens_hi. Each label's
    positives are drawn six times as often from one preferred blob as from
    the others. Label counts are exact, so the work a pass does varies
    little with the seed."""
    rng = np.random.default_rng([seed, n, d, q])
    centers = rng.normal(0.0, 0.6, (blobs, d))
    blob = rng.integers(blobs, size=n)
    X = centers[blob] + rng.normal(0.0, 1.0, (n, d))
    Y = np.zeros((n, q), dtype=int)
    for l, rho in enumerate(np.geomspace(dens_lo, dens_hi, q)):
        weight = np.where(blob == rng.integers(blobs), 6.0, 1.0)
        Y[rng.choice(n, size=round(rho * n), replace=False, p=weight / weight.sum()), l] = 1
    return uclso.MultiLabelDataset(
        X, Y, tuple(f"f{j}" for j in range(d)), tuple(f"y{l}" for l in range(q))
    )


def run_cli(argv: list[str]) -> None:
    """One in-process `uclso` command; its standard output is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = uclso.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"uclso {argv[0]} exited with {rc}")


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


class ToyCV:
    """The paper's Fig-1 toy through `uclso experiment`: many tiny fits."""

    name = "toy_cv"
    unit = "cells"

    def __init__(self, seed: int, workdir: str, scale: str):
        size = TOY[scale]
        self.config = os.path.join(workdir, "toy.yaml")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(TOY_CONFIG.format(seed=seed, out=os.path.join(workdir, "unused"),
                                       k=K_CLUSTERS, **size))
        self.items = len(METHODS) * size["reps"] * 2
        self.first_digest = None

    def run(self, out: str):
        run_cli(["experiment", "--config", self.config, "--out", out, "--threads", "1"])

    def check(self, out: str, result) -> tuple[list[str], dict]:
        summaries = {}
        for m in METHODS:
            with open(os.path.join(out, f"fig1_toy__{m}__summary.json"), encoding="utf-8") as fh:
                summaries[m] = json.load(fh)
        f1 = {m: s["macro_f1_mean"] for m, s in summaries.items()}
        problems = checks.check_toy_direction(f1)
        problems += [f"{m}: {s['cells']} cells, expected {self.items // len(METHODS)}"
                     for m, s in summaries.items() if s["cells"] != self.items // len(METHODS)]
        digest = checks.dir_digest(out)
        if self.first_digest is None:
            self.first_digest = digest
        problems += checks.check_same_outputs(digest, self.first_digest)
        quality = {"f1": f1, "auc_uclso": summaries["uclso"]["macro_auc_mean"],
                   "cli_bytes": dir_bytes(out)}
        return problems, quality


class WideCV:
    """A wide generated dataset through `run_cv`: large minority pools, so
    synthesis dominates, and few long fits."""

    name = "wide_cv"
    unit = "cells"

    def __init__(self, seed: int, workdir: str, scale: str):
        size = WIDE[scale]
        self.ds = blobs_dataset(seed, size["n"], size["d"], size["q"], 0.02, 0.4)
        self.plan = uclso.make_fold_plan(self.ds.n, 1, 2, seed)
        self.methods = [
            uclso.MethodSpec(m, uclso.OversampleConfig(K_CLUSTERS, 5, seed, m))
            for m in METHODS
        ]
        self.train = uclso.TrainConfig(epochs=size["epochs"], seed=seed)
        self.items = len(METHODS) * 2

    def run(self, out: str):
        return uclso.run_cv(self.ds, self.methods, self.plan, self.train, threads=1)

    def check(self, out: str, reports) -> tuple[list[str], dict]:
        cells = {m: [c.f1 for c in r.cells] for m, r in reports.items()}
        problems = checks.check_cells(cells, 2)
        if set(reports) != set(METHODS):
            problems.append(f"reports for {sorted(reports)}, expected {list(METHODS)}")
        summaries = {m: r.summary() for m, r in reports.items()}
        quality = {"f1": {m: s["macro_f1_mean"] for m, s in summaries.items()},
                   "auc_uclso": summaries["uclso"]["macro_auc_mean"], "cli_bytes": 0}
        return problems, quality


class Ingest:
    """ARFF write, then `uclso stats`, `uclso cluster` and `uclso oversample`,
    each of which reads the ARFF again. No training."""

    name = "ingest"
    unit = "rows"

    def __init__(self, seed: int, workdir: str, scale: str):
        size = INGEST[scale]
        self.ds = blobs_dataset(seed, size["n"], size["d"], size["q"], 0.03, 0.3)
        self.arff = os.path.join(workdir, "ingest.arff")
        self.xml = os.path.join(workdir, "ingest.xml")
        self.config = os.path.join(workdir, "ingest.yaml")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(INGEST_CONFIG.format(seed=seed, out=os.path.join(workdir, "unused"),
                                          arff=self.arff, xml=self.xml, k=K_CLUSTERS))
        self.commands = ("stats", "cluster", "oversample")
        # rows written once, then read by each command
        self.items = self.ds.n * (1 + len(self.commands))

    def run(self, out: str):
        uclso.write_mulan(self.ds, self.arff, self.xml, relation="ingest")
        for command in self.commands:
            run_cli([command, "--config", self.config, "--out", out, "--threads", "1"])

    def check(self, out: str, result) -> tuple[list[str], dict]:
        loaded = uclso.arff_io.load_mulan(self.arff, self.xml)
        problems = checks.check_round_trip(self.ds, loaded)
        counts = checks.read_manifest(os.path.join(out, "ingest__manifest.csv"))
        problems += checks.check_manifest(counts, self.ds, K_CLUSTERS)
        return problems, {"cli_bytes": dir_bytes(out)}


WORKLOADS = {w.name: w for w in (ToyCV, WideCV, Ingest)}
