"""Correctness checks on benchmark outputs.

Each check takes plain data and returns a list of problems (empty when the
output is correct), so that the self-check can feed it corrupted copies.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os


def balance_problem(label, n_min: int, n_maj: int, extra: int, k: int) -> str | None:
    """The paper's balance bound for one oversampled label:
    n_maj <= n_min + extra <= n_maj + k, where k is the number of clusters
    (0 for the global SMOTE baseline, which tops up exactly). A label that
    is not a minority gets no synthetic points."""
    if n_maj <= n_min:
        ok = extra == 0
    else:
        ok = n_maj <= n_min + extra <= n_maj + k
    if ok:
        return None
    return (f"label {label}: balance bound broken: n_min={n_min} n_maj={n_maj} "
            f"extra={extra} k={k}")


def dir_digest(path: str) -> dict[str, str]:
    """sha256 of every file in an output directory, by file name."""
    digest = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            digest[name] = hashlib.sha256(fh.read()).hexdigest()
    return digest


def check_same_outputs(digest: dict, first: dict) -> list[str]:
    """Two passes over the same inputs must write byte-identical files."""
    if digest == first:
        return []
    differ = sorted(n for n in set(digest) | set(first) if digest.get(n) != first.get(n))
    return [f"output differs from the first pass: {', '.join(differ)}"]


def check_toy_direction(f1: dict[str, float], margin: float = 0.05) -> list[str]:
    """Acceptance criterion 6's first clause: cluster-guarded oversampling
    beats no oversampling on the Fig-1 toy by at least `margin` macro F1."""
    missing = {"none", "uclso"} - set(f1)
    if missing:
        return [f"no summary for {sorted(missing)}"]
    if f1["uclso"] >= f1["none"] + margin:
        return []
    return [f"macro F1 uclso={f1['uclso']:.4f} < none={f1['none']:.4f} + {margin}"]


def check_cells(cells: dict[str, list[tuple[float, ...]]], expected: int) -> list[str]:
    """Per method, the expected number of CV cells, each with per-label F1
    values that are finite and within [0, 1]."""
    problems = []
    for method, per_cell in cells.items():
        if len(per_cell) != expected:
            problems.append(f"{method}: {len(per_cell)} cells, expected {expected}")
        for i, f1s in enumerate(per_cell):
            if not f1s or not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in f1s):
                problems.append(f"{method}: cell {i} has F1 outside [0, 1]: {f1s}")
    return problems


def check_round_trip(generated, loaded) -> list[str]:
    """An ARFF write then load returns bit-identical matrices and names."""
    problems = []
    if generated.features.shape != loaded.features.shape or (
        generated.features.tobytes() != loaded.features.tobytes()
    ):
        problems.append("ARFF round trip changed the feature matrix")
    if generated.labels.shape != loaded.labels.shape or (
        (generated.labels != loaded.labels).any()
    ):
        problems.append("ARFF round trip changed the label matrix")
    if (generated.feature_names, generated.label_names) != (
        loaded.feature_names, loaded.label_names
    ):
        problems.append("ARFF round trip changed the column names")
    return problems


def read_manifest(path: str) -> dict[str, int]:
    """Synthetic point count per label from an `uclso oversample` manifest."""
    counts: dict[str, int] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    for label, _cluster, count in rows[1:]:
        counts[label] = counts.get(label, 0) + int(count)
    return counts


def check_manifest(counts: dict[str, int], ds, k: int) -> list[str]:
    """Every label of `ds` is in the manifest and meets the balance bound."""
    problems = []
    for l, name in enumerate(ds.label_names):
        if name not in counts:
            problems.append(f"label {name}: missing from the manifest")
            continue
        n_min = int(ds.labels[:, l].sum())
        problem = balance_problem(name, n_min, ds.n - n_min, counts[name], k)
        if problem:
            problems.append(problem)
    return problems
