"""Benchmark runner for cuspdiv.

Runs one workload for a fixed time as a sequence of passes.  Every pass is a
fresh worker process (perfbench/worker.py) that imports cuspdiv from ./src,
draws its inputs from --seed, runs the workload's pipeline and checks its
outputs.  Figures are medians over passes.

    python3 perfbench/run.py --workload fem-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics (wall_ref_s, setup_s, peak_rss_mb), times at the
reference host speed of reference.py; the line before it also gives the raw
median wall and set-up times `wall_s` and `raw_setup_s`.  With --trace 1 passes
alternate between untraced and traced and the metrics are the per-layer
ones of perfbench/layers.json.  Stage failures are counted in `attempted`
and `failed`.  `--workload all` prints one summary row per workload.

Run from the root of a checkout.  Worker processes use one BLAS thread.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_S

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ap-plan", "fem-ladder", "potential-blowup", "mesh-assembly")
END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_PASSES = {0: 3, 1: 4}
RUN_LIMIT_S = 170.0
BLAS_THREADS = 1


def metric_table():
    """(function, spec) pairs of layers.json in table order; spec holds
    runs_on and metrics {name: [unit, better]}."""
    with open(HERE / "layers.json") as fh:
        layers = json.load(fh)["layers"]
    return [(fn, spec) for layer in layers.values()
            for fn, spec in layer["functions"].items()]


def metric_units():
    """Full per-layer metric name -> unit, in table order."""
    return {f"{fn}.{m}": unit for fn, spec in metric_table()
            for m, (unit, _better) in spec["metrics"].items()}


def environment():
    import importlib.metadata as md

    def version(pkg):
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy")}


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def one_pass(workload, seed, trace, timeout, size="full"):
    """Run one worker; returns (result dict or None, seconds taken)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--size", size]
    env = worker_env()
    start = time.monotonic()
    env["PERFBENCH_T0"] = repr(start)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        print(f"[{workload}] pass timed out after {timeout:.0f} s",
              file=sys.stderr)
        return None, time.monotonic() - start
    took = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"[{workload}] worker exited with {proc.returncode}",
              file=sys.stderr)
        return None, took
    return json.loads(lines[-1]), took


def measure(workload, seed, seconds, trace):
    """Passes until `seconds` are used; returns the list of pass results.

    A further pass starts while it would end less than half a pass after
    `seconds`, so a run lasts `seconds` on average."""
    start = time.monotonic()
    results = []
    durations = []
    while True:
        elapsed = time.monotonic() - start
        if len(durations) >= MIN_PASSES[trace]:
            if elapsed + 0.5 * statistics.median(durations) > seconds:
                break
        timeout = RUN_LIMIT_S - elapsed
        if timeout <= 0:
            break
        traced = trace == 1 and len(durations) % 2 == 1
        res, took = one_pass(workload, seed, int(traced), timeout)
        durations.append(took)
        results.append({"traced": traced, "result": res})
        if res is None:
            break
        for fail in res["failures"]:
            print(f"[{workload}] stage {fail['stage']} failed: "
                  f"{fail['error']}", file=sys.stderr)
    return results


def stage_times(p):
    """Stage wall times of one pass at the reference host speed.

    Each stage's wall time is scaled by reference.NOMINAL_S over the mean of
    the two reference timings around it, which cancels the host's speed
    changes between runs and most of those within a run."""
    ref = p["ref_s"]
    return [t * NOMINAL_S / (0.5 * (ref[i] + ref[i + 1]))
            for i, t in enumerate(p["stage_s"])]


def setup_time(p):
    """Set-up time of one pass at the reference host speed, scaled by the
    reference timed right after set-up."""
    return p["setup_s"] * NOMINAL_S / p["ref_s"][0]


def pipeline_wall(passes):
    """Sum over stages of the median scaled stage time across passes.

    A burst of contention that hits one stage in fewer than half of the
    passes is dropped, where a median of pass totals would keep it."""
    return sum(statistics.median(times)
               for times in zip(*map(stage_times, passes)))


def summarize(workload, seed, trace, results):
    ok = [r["result"] for r in results if r["result"] is not None]
    plain = [r["result"] for r in results
             if r["result"] is not None and not r["traced"]]
    traced = [r["result"] for r in results
              if r["result"] is not None and r["traced"]]
    crashed = len(results) - len(ok)
    attempted = sum(r["attempted"] for r in ok) + crashed
    failed = sum(r["failed"] for r in ok) + crashed
    if not plain or (trace and not traced):
        return None
    metrics = {}
    if trace:
        units = metric_units()
        for name, unit in units.items():
            if name == "trace.overhead_frac":
                value = pipeline_wall(traced) / pipeline_wall(plain) - 1.0
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {
            "wall_ref_s": pipeline_wall(plain),
            "setup_s": statistics.median(map(setup_time, plain)),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
    info = {
        "workload": workload, "seed": seed, "passes": len(results),
        "traced_passes": len(traced), "crashed_passes": crashed,
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "raw_setup_s": statistics.median(r["setup_s"] for r in plain),
        "pass_wall_s": [round(r["wall_s"], 4) for r in plain],
        "pass_ref_s": [round(statistics.median(r["ref_s"]), 5) for r in plain],
        "ops_failed_frac": failed / attempted if attempted else 1.0,
        "inputs": ok[0]["inputs"], "environment": environment(),
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (Path.cwd() / "src" / "cuspdiv" / "__init__.py").is_file():
        print("run from the root of a cuspdiv checkout: src/cuspdiv is "
              "missing", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)
    results = measure(args.workload, args.seed, args.seconds, args.trace)
    summary = summarize(args.workload, args.seed, args.trace, results)
    if summary is None:
        print(f"[{args.workload}] no complete pass", file=sys.stderr)
        return 1
    result, info = summary
    print("# " + json.dumps(info))
    print(json.dumps(result))
    return 0


def run_all(args):
    header = f"{'workload':18}{'wall_ref_s':>11}{'wall_s':>10}" \
             f"{'setup_s':>10}{'peak_rss_mb':>13}{'ops_failed_frac':>17}" \
             f"{'passes':>8}"
    print(header)
    status = 0
    for workload in WORKLOADS:
        results = measure(workload, args.seed, args.seconds, 0)
        summary = summarize(workload, args.seed, 0, results)
        if summary is None:
            print(f"{workload:18}{'no complete pass':>69}")
            status = 1
            continue
        result, info = summary
        m = result["metrics"]
        print(f"{workload:18}{m['wall_ref_s']['value']:11.3f}"
              f"{info['wall_s']:10.3f}{m['setup_s']['value']:10.3f}"
              f"{m['peak_rss_mb']['value']:13.1f}"
              f"{info['ops_failed_frac']:17.3g}{info['passes']:8d}")
        status |= 0 if result["correct"] else 1
    print("# " + json.dumps(environment()))
    return status


if __name__ == "__main__":
    sys.exit(main())
