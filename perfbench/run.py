"""uclso benchmark: one workload per process, timed end to end.

    python3 perfbench/run.py --workload toy_cv --seed 1 --seconds 30 --trace 0

Runs passes of the workload for about `--seconds` seconds (at least two),
checks every pass's outputs, and prints as its last line one JSON object:
`correct`, `attempted` and `failed` passes, and `metrics`. With `--trace 0`
these are the end-to-end metrics of BENCHMARK.json; with `--trace 1` they
are the per-layer metrics, from passes that alternate between untraced and
traced. The lines before it give the same numbers, the raw timings and the
machine facts. Result and span files go to `.bench_out/` at the root of
the checkout.

End-to-end times are scaled to a nominal host speed. Shared hosts drift:
the same pass was measured at 7 s and at 11 s minutes apart on one 2-vCPU
VM, and CPU time drifted with it. So the run times `host_ref()`, a fixed
mix of interpreter and numpy work, after set-up, before every pass and at
the end, and reports `raw seconds * REF_S / median host_ref seconds`: the
time the work would take on a host where `host_ref()` takes REF_S.
"""

import time

T0 = time.perf_counter()  # set-up time counts the imports below

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
BLAS_THREADS = "1"
SETUP_REPEATS = 3  # extra set-ups, each in a fresh process
MIN_PASSES = 2
REF_S = 0.07  # nominal duration of host_ref()
REF_SAMPLES = 3  # host_ref() samples after set-up, before each pass and at the end


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["toy_cv", "wide_cv", "ingest"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--small", action="store_true",
                   help="reduced input sizes, for the self-check")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up and host_ref times and exit")
    return p.parse_args(argv)


def host_ref():
    """Wall time of a fixed mix of interpreter loops, small numpy calls and
    one large sort: the kinds of work the three workloads do."""
    import numpy as np

    t = time.perf_counter()
    acc = 0
    for i in range(800_000):
        acc += i * i
    rng = np.random.default_rng(0)
    for _ in range(800):
        a = rng.random(64)
        acc += float(a @ a + a.sum())
    np.sort(rng.random(500_000))
    return time.perf_counter() - t


def host_refs():
    return [host_ref() for _ in range(REF_SAMPLES)]


def machine_facts(seed):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
    }


def extra_setups(args):
    """(set-up, host_ref) times of fresh processes doing this run's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + (["--small"] if args.small else [])
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def run_passes(args, wl, workdir, tracer):
    """Closed loop of passes; with a tracer, odd passes are traced. Returns
    one record per pass: raw wall, the host_ref times before it, problems
    found and the workload's quality figures."""
    import tracing

    passes = []
    start = time.perf_counter()
    # a pass starts only if it is likely to end before the deadline, give
    # or take half a pass, so that a run lasts about `--seconds`
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(p["wall"] for p in passes) / 2
        < args.seconds
    ):
        rec = {"pass": len(passes), "traced": tracer is not None and len(passes) % 2 == 1,
               "wall": 0.0, "refs": [], "problems": [], "quality": {}}
        passes.append(rec)
        out = workdir / f"pass{rec['pass']}"
        out.mkdir()
        try:
            rec["refs"] = host_refs()
            if rec["traced"]:
                tracer.pass_id = rec["pass"]
                tracer.install()
            try:
                t = time.perf_counter()
                result = wl.run(str(out))
                rec["wall"] = time.perf_counter() - t
            finally:
                if rec["traced"]:
                    tracer.uninstall()
            rec["problems"], rec["quality"] = wl.check(str(out), result)
            if rec["traced"]:
                rec["problems"] += tracer.problems.get(rec["pass"], [])
                rec["layers"] = tracing.pass_metrics(tracer, rec["pass"])
        except Exception as exc:  # a failed pass is counted, not fatal
            rec["problems"] = [f"{type(exc).__name__}: {exc}"]
        shutil.rmtree(out)
    return passes


def metric(value, unit):
    return {"value": value, "unit": unit}


def median_or_zero(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "uclso" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        import tracing
        import workloads

        wl = workloads.WORKLOADS[args.workload](
            args.seed, str(workdir), "small" if args.small else "full")
        setup = {"setup": time.perf_counter() - T0, "refs": host_refs()}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        tracer = tracing.Tracer() if args.trace else None
        passes = run_passes(args, wl, workdir, tracer)
        refs = setup["refs"] + [r for p in passes for r in p["refs"]] + host_refs()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    facts = machine_facts(args.seed)
    good = [p for p in passes if not p["problems"]]
    plain = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    failed = [p for p in passes if p["problems"]]
    scale = REF_S / statistics.median(refs)  # raw seconds to nominal seconds

    lines = [
        f"workload {args.workload} seed {args.seed} trace {args.trace}",
        "machine " + " ".join(f"{k}={v}" for k, v in facts.items()),
        f"passes {len(passes)}: raw walls {[round(p['wall'], 3) for p in passes]} s; "
        f"host_ref {[round(r, 4) for r in refs]} s, nominal {REF_S} s",
        f"fail_ratio {len(failed)}/{len(passes)}",
    ]
    extra = {}
    for p in failed:
        lines.append(f"failed pass {p['pass']}: {'; '.join(p['problems'][:5])}")
    f1 = [p["quality"]["f1"] for p in good if "f1" in p["quality"]]
    if f1:
        lines.append("macro_f1 " + " ".join(
            f"{m}={statistics.median(x[m] for x in f1):.4f}" for m in f1[0]))

    if args.trace == 0:
        setups = [setup] + extra_setups(args)
        walls = [p["wall"] * scale for p in plain]
        items_per_s = wl.items * len(walls) / sum(walls) if walls else 0.0
        metrics = {
            # each set-up process is scaled by its own host_ref
            "setup_s": metric(statistics.median(
                s["setup"] * REF_S / statistics.median(s["refs"]) for s in setups), "s"),
            "wall_s": metric(median_or_zero(walls), "s"),
            "items_per_s": metric(items_per_s, "1/s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
        lines += [
            f"setup raw {[round(s['setup'], 3) for s in setups]} s, "
            f"host_ref {[round(statistics.median(s['refs']), 4) for s in setups]} s",
            f"wall_s median over {len(walls)} passes (raw median "
            f"{median_or_zero(p['wall'] for p in plain):.3f} s); no tail percentile, "
            "which needs at least 11 passes",
            f"{wl.unit}_per_s {items_per_s:.4f} ({wl.items} {wl.unit} per pass)",
        ]
    else:
        per_layer = tracing.median_metrics([p["layers"] for p in traced]) if traced else {}
        absent = [layer for layer in tracing.LAYERS if layer not in tracing.present_layers(tracer)]
        per_layer["experiment.macro_f1_uclso"] = median_or_zero(x["uclso"] for x in f1)
        per_layer["experiment.macro_auc_uclso"] = median_or_zero(
            p["quality"]["auc_uclso"] for p in good if "auc_uclso" in p["quality"])
        per_layer["cli.bytes_written"] = median_or_zero(p["quality"]["cli_bytes"] for p in good)
        if plain and traced:
            per_layer["trace.overhead_s"] = (
                median_or_zero(p["wall"] for p in traced) - median_or_zero(p["wall"] for p in plain))
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        # layer times are scaled to the nominal host like the end-to-end ones
        metrics = {m["name"]: metric(per_layer.get(m["name"], 0.0)
                                     * {"s": scale, "1/s": 1 / scale}.get(m["unit"], 1.0),
                                     m["unit"])
                   for m in spec["per_layer"]}
        ranked = sorted(((per_layer.get(f"{layer}.self_s", 0.0), layer)
                         for layer in tracing.LAYERS), reverse=True)
        lines += [
            f"absent layers: {', '.join(absent) or 'none'}",
            "self time by layer (raw): " + ", ".join(f"{l}={s:.3f}s" for s, l in ranked),
        ]
        tracer.dump(str(OUT / f"spans-{args.workload}-seed{args.seed}.json"), T0)
        extra["absent_layers"] = absent

    result = {
        "correct": not failed,
        "attempted": len(passes),
        "failed": len(failed),
        "metrics": metrics,
    }
    record = dict(result, **extra, machine=facts, ref_s=REF_S, host_ref=refs,
                  passes=[{k: v for k, v in p.items() if k != "layers"} for p in passes])
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
