"""Per-layer spans recorded from outside the program.

The layers are the modules of `uclso`. The tracer wraps every function one
layer looks up in another, at the name the caller looks up (for example
`uclso.experiment.br_fit`, not only `uclso.linear.br_fit`), and records
one span per call: name, layer, start, end, parent span and pass id. It
keeps the spans in memory; `uninstall` puts every original back.

Counts come from return values at the same boundaries. A function that a
later version of the program no longer has is simply not wrapped, and
its layer then reports as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import pkgutil
import statistics
import time

from checks import balance_problem

LAYERS = ("arff_io", "dataset", "clustering", "oversample", "linear",
          "metrics", "experiment", "cli")
# config is folded into the cli spans; ranking runs only when one
# experiment holds two or more datasets and costs microseconds, so it is
# left unwrapped.
MODULE_LAYER = {**{name: name for name in LAYERS}, "config": "cli"}

# Calls the cross-module scan cannot see, because the caller looks the
# function up in its own module or on a class: the CLI entry point, the
# per-cell function run_cv calls, the augmenters cmd_oversample imports
# inside its body, and the training-set copy evaluate_cell makes.
EXTRA_SITES = (
    ("uclso.cli", None, "main"),
    ("uclso.experiment", None, "evaluate_cell"),
    ("uclso.oversample", None, "uclso_augment"),
    ("uclso.oversample", None, "smote_augment"),
    ("uclso.dataset", "MultiLabelDataset", "subset"),
)

F8 = 8  # bytes per float64 element


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent, pass_id]
        self.counts: dict[int, dict[str, float]] = {}
        self.problems: dict[int, list[str]] = {}
        self.pass_id = 0
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def add(self, counter: str, value: float) -> None:
        per_pass = self.counts.setdefault(self.pass_id, {})
        per_pass[counter] = per_pass.get(counter, 0) + value

    def problem(self, message: str) -> None:
        self.problems.setdefault(self.pass_id, []).append(message)

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        handler = HANDLERS.get(name)
        sig = inspect.signature(fn) if handler else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = all(self.spans[i][1] != layer for i in self._open)
            span = [name, layer, time.perf_counter(), None,
                    self._open[-1] if self._open else None, self.pass_id]
            self._open.append(len(self.spans))
            self.spans.append(span)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
                if handler:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    handler(self, bound.arguments, result, error, outer)

        return wrapper

    def _rebind(self, owner, attr: str, layer: str) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, layer))

    def install(self) -> None:
        """Wrap every cross-layer binding in the `uclso` package."""
        import uclso

        modules = [uclso] + [
            importlib.import_module(f"uclso.{info.name}")
            for info in pkgutil.iter_modules(uclso.__path__)
        ]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj.__module__ == module.__name__:
                    continue
                prefix, _, short = obj.__module__.partition(".")
                layer = MODULE_LAYER.get(short) if prefix == "uclso" else None
                if layer:
                    self._rebind(module, attr, layer)
        for module_name, cls_name, attr in EXTRA_SITES:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            if cls_name is not None:
                owner = getattr(owner, cls_name, None)
            if owner is not None and inspect.isfunction(vars(owner).get(attr)):
                self._rebind(owner, attr, MODULE_LAYER[module_name.split(".")[1]])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path: str, origin: float) -> None:
        """Write the spans out, with times in seconds from `origin`."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [
                {"name": n, "layer": layer, "start": round(s - origin, 7),
                 "end": round(e - origin, 7), "parent": p, "pass": pid}
                for n, layer, s, e, p, pid in self.spans
            ]}, fh)


# -- counters taken from return values ------------------------------------
# A handler runs after each call of the function it is keyed by, with the
# call's arguments by parameter name. `outer` is false when the call is
# nested in another span of the same layer (augment_all calling
# uclso_augment), so that work is counted once.

def _check_augment(tracer, aug, k):
    l = aug.label_index
    n_min = int(aug.base.labels[:, l].sum())
    if n_min == 0:
        tracer.add("oversample.unusable_labels", 1)
        return
    extra = len(aug.extra)
    tracer.add("oversample.points", extra)
    tracer.add("oversample.points_bytes", aug.extra.points.nbytes)
    problem = balance_problem(aug.base.label_names[l], n_min, aug.base.n - n_min, extra, k)
    if problem:
        tracer.problem(problem)


def _augment_all(tracer, a, result, error, outer):
    if error is None and outer and a["cfg"].mode != "none":
        k = a["assign"].k if a["cfg"].mode == "uclso" else 0
        for aug in result:
            _check_augment(tracer, aug, k)


def _one_label(k_of):
    def handler(tracer, a, result, error, outer):
        if not outer:
            return
        if error is not None:
            if type(error).__name__ == "LabelUnusableError":
                tracer.add("oversample.unusable_labels", 1)
            return
        _check_augment(tracer, result, k_of(a))
    return handler


def _kmeans(tracer, a, result, error, outer):
    if error is None:
        tracer.add("clustering.kmeans_calls", 1)
        tracer.add("clustering.iterations", result.iterations_run)


def _subset(tracer, a, result, error, outer):
    if error is None:
        tracer.add("dataset.subset_bytes", result.features.nbytes + result.labels.nbytes)


def _br_fit(tracer, a, result, error, outer):
    if error is not None:
        return
    cfg = a["cfg"]
    tracer.add("linear.constant_fallbacks", len(result.constant_labels))
    for aug, model in zip(a["augments"], result.models):
        rows = aug.base.n + len(aug.extra)
        if len(aug.extra):
            # the base rows are stacked with the synthetic rows per label
            tracer.add("linear.train_copy_bytes", rows * aug.base.d * F8)
        epochs = model.train_meta.epochs_run
        if epochs == 0:  # constant fallback, nothing trained
            continue
        tracer.add("linear.models", 1)
        tracer.add("linear.epochs_run", epochs)
        tracer.add("linear.epochs_allowed", cfg.epochs)
        tracer.add("linear.sgd_steps", epochs * math.ceil(rows / cfg.batch_size))


def _evaluate_cell(tracer, a, result, error, outer):
    if error is None:
        tracer.add("metrics.auc_undefined", sum(not d for d in result.auc_defined))


def _arff_bytes(*keys):
    def handler(tracer, a, result, error, outer):
        if error is None and outer:
            tracer.add("arff_io.bytes", sum(os.path.getsize(a[k]) for k in keys))
    return handler


HANDLERS = {
    "oversample.augment_all": _augment_all,
    "oversample.uclso_augment": _one_label(lambda a: a["assign"].k),
    "oversample.smote_augment": _one_label(lambda a: 0),
    "clustering.kmeans": _kmeans,
    "dataset.subset": _subset,
    "linear.br_fit": _br_fit,
    "experiment.evaluate_cell": _evaluate_cell,
    "arff_io.load_mulan": _arff_bytes("arff_path"),
    "arff_io.write_mulan": _arff_bytes("arff_path", "xml_path"),
}


# -- per-layer metrics ----------------------------------------------------

def self_times(spans: list[list], pass_id: int) -> dict[str, float]:
    """Self time per layer in one pass: each span's duration minus the part
    of it its child spans cover, summed over the layer's spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[4] is not None:
            child[s[4]] += s[3] - s[2]
    out = dict.fromkeys(LAYERS, 0.0)
    for s, covered in zip(spans, child):
        if s[5] == pass_id:
            out[s[1]] += (s[3] - s[2]) - covered
    return out


def pass_metrics(tracer: Tracer, pass_id: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    spans = tracer.spans
    mine = [s for s in spans if s[5] == pass_id]

    def top_level(layer, names):
        # calls of the named functions from outside the layer
        names = {f"{layer}.{n}" for n in names}
        return [s for s in mine
                if s[0] in names and (s[4] is None or spans[s[4]][1] != layer)]

    def took(layer, *names):
        return sum(s[3] - s[2] for s in top_level(layer, names))

    c = tracer.counts.get(pass_id, {}).get
    selfs = self_times(spans, pass_id)
    kmeans_s = took("clustering", "kmeans")
    augment_s = took("oversample", "augment_all", "uclso_augment", "smote_augment")
    fit_s = took("linear", "br_fit", "train_linear")
    cells = sorted(s[3] - s[2] for s in mine if s[0] == "experiment.evaluate_cell")
    m = {
        "arff_io.load_s": took("arff_io", "load_mulan"),
        "arff_io.load_calls": len(top_level("arff_io", ["load_mulan"])),
        "arff_io.write_s": took("arff_io", "write_mulan"),
        "arff_io.bytes": c("arff_io.bytes", 0),
        "dataset.stats_s": took("dataset", "compute_stats", "filter_labels"),
        "dataset.subset_s": took("dataset", "subset"),
        "dataset.subset_bytes": c("dataset.subset_bytes", 0),
        "clustering.kmeans_s": kmeans_s,
        "clustering.kmeans_calls": c("clustering.kmeans_calls", 0),
        "clustering.iterations": c("clustering.iterations", 0),
        "clustering.s_per_iteration": _ratio(kmeans_s, c("clustering.iterations", 0)),
        "oversample.augment_s": augment_s,
        "oversample.points": c("oversample.points", 0),
        "oversample.points_per_s": _ratio(c("oversample.points", 0), augment_s),
        "oversample.points_bytes": c("oversample.points_bytes", 0),
        "oversample.unusable_labels": c("oversample.unusable_labels", 0),
        "linear.fit_s": fit_s,
        "linear.models": c("linear.models", 0),
        "linear.sgd_steps": c("linear.sgd_steps", 0),
        "linear.steps_per_s": _ratio(c("linear.sgd_steps", 0), fit_s),
        "linear.epochs_ratio": _ratio(c("linear.epochs_run", 0), c("linear.epochs_allowed", 0)),
        "linear.constant_fallbacks": c("linear.constant_fallbacks", 0),
        "linear.train_copy_bytes": c("linear.train_copy_bytes", 0),
        "linear.score_s": took("linear", "score", "predict"),
        "metrics.s": selfs["metrics"],
        "metrics.auc_undefined": c("metrics.auc_undefined", 0),
        "experiment.cell_s_p50": _quantile(cells, 0.5),
        "experiment.cell_s_p90": _quantile(cells, 0.9),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs[layer]
    return m


def present_layers(tracer: Tracer) -> set[str]:
    return {s[1] for s in tracer.spans}


def _ratio(a, b):
    return a / b if b else 0.0


def _quantile(sorted_values, q):
    """Linear-interpolated quantile; 0 for no values."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
