"""Fast self-check of the benchmark, at reduced input sizes.

    python3 perfbench/selfcheck.py

1. Runs every workload with tracing off and on, and asserts that every
   metric BENCHMARK.json names prints with its unit, and that no pass fails.
2. Feeds deliberately corrupted outputs to each correctness check and
   asserts that it trips.
3. Runs the benchmark in a directory that holds only BENCHMARK.json and the
   benchmark, and asserts that it fails without printing a result.

Exits 0 when every assertion holds. Takes about a minute.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out" / f"selfcheck-{os.getpid()}"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_metrics_print():
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = bench(["--workload", workload, "--seed", "1", "--seconds", "0.5",
                          "--trace", str(trace), "--small"])
            assert done.returncode == 0, done.stderr
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, done.stdout
            wanted = {m["name"]: m["unit"] for m in SPEC[key]}
            got = result["metrics"]
            assert set(got) == set(wanted), (workload, trace, set(got) ^ set(wanted))
            for name, unit in wanted.items():
                value = got[name]["value"]
                assert got[name]["unit"] == unit, (name, got[name])
                assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
                if trace == 0:
                    assert value > 0, (workload, name, value)
                assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                           for line in lines[:-1]), (workload, name)
            print(f"ok: {workload} trace {trace} prints {len(wanted)} metrics with units")


def check_corruption_trips():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np

    import checks
    import tracing
    import uclso
    import workloads

    # toy_cv: a changed byte in one output file, a lost direction
    toy = workloads.ToyCV(1, str(SCRATCH), "small")
    first, second = SCRATCH / "toy1", SCRATCH / "toy2"
    toy.run(str(first))
    assert toy.check(str(first), None)[0] == []
    shutil.copytree(first, second)
    victim = next(p for p in sorted(second.iterdir()) if p.name.endswith("cells.csv"))
    data = bytearray(victim.read_bytes())
    data[-2] ^= 1
    victim.write_bytes(bytes(data))
    assert toy.check(str(second), None)[0], "corrupted toy output passed"
    assert checks.check_toy_direction({"none": 0.30, "smote": 0.4, "uclso": 0.34})

    # wide_cv: a missing cell, a non-finite F1
    wide = workloads.WideCV(1, str(SCRATCH), "small")
    reports = wide.run(str(SCRATCH))
    assert wide.check(str(SCRATCH), reports)[0] == []
    cells = {m: [c.f1 for c in r.cells] for m, r in reports.items()}
    cells["smote"] = cells["smote"][:1]
    cells["uclso"][0] = (float("nan"),) + cells["uclso"][0][1:]
    assert len(checks.check_cells(cells, 2)) == 2

    # ingest: one feature off by one ulp, a short or missing manifest entry
    ingest = workloads.Ingest(1, str(SCRATCH), "small")
    out = SCRATCH / "ingest"
    out.mkdir()
    ingest.run(str(out))
    assert ingest.check(str(out), None)[0] == []
    ds = ingest.ds
    features = ds.features.copy()
    features[0, 0] = np.nextafter(features[0, 0], np.inf)
    nudged = uclso.MultiLabelDataset(features, ds.labels, ds.feature_names, ds.label_names)
    assert checks.check_round_trip(ds, nudged)
    counts = checks.read_manifest(str(out / "ingest__manifest.csv"))
    first_label, last_label = ds.label_names[0], ds.label_names[-1]
    counts[first_label] = 0
    del counts[last_label]
    assert len(checks.check_manifest(counts, ds, workloads.K_CLUSTERS)) == 2

    # traced runs: an augmentation past the balance bound
    tracer = tracing.Tracer()
    aug = uclso.smote_augment(ds, 0, uclso.OversampleConfig(mode="smote"))
    padded = uclso.AugmentedDataset(
        ds, uclso.SyntheticSet(0, np.vstack([aug.extra.points] * 2), ()), 0)
    tracing.HANDLERS["oversample.smote_augment"](tracer, {}, aug, None, True)
    assert not tracer.problems
    tracing.HANDLERS["oversample.smote_augment"](tracer, {}, padded, None, True)
    assert tracer.problems[0], "over-full augmentation passed"
    print("ok: every corrupted output trips its check")


def check_fails_without_program():
    bare = SCRATCH / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                  "--seconds", "1", "--trace", "0"], cwd=bare)
    assert done.returncode != 0 and not done.stdout.strip(), done.stdout
    print("ok: fails without printing a result when the program is absent")


def main():
    SCRATCH.mkdir(parents=True)
    try:
        check_metrics_print()
        check_corruption_trips()
        check_fails_without_program()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
