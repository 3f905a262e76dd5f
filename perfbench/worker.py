"""One measured pass of one workload, in a fresh process.

Started by run.py with PERFBENCH_T0 set to the monotonic clock just before
the process was spawned.  Prints one JSON line: set-up time, pipeline wall
and CPU time, the wall time of each stage and of the reference computation
(reference.py) timed before the first stage and after every stage, peak
RSS, stage counts and failures and, for a traced pass, the per-layer
metrics.  Spans of a traced pass are written to
.bench_out/trace-<workload>.json.

    python3 perfbench/worker.py --workload ap-plan --seed 1 --trace 0
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

WORKDIR = ".bench_out"      # working files of a pass, inside the checkout


def main(argv=None):
    t0 = float(os.environ.get("PERFBENCH_T0", time.monotonic()))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    args = ap.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "cuspdiv" / "__init__.py").is_file():
        sys.exit(f"no cuspdiv sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracer
    import workloads
    from reference import Reference
    from run import metric_units

    workdir = Path(WORKDIR)
    workdir.mkdir(parents=True, exist_ok=True)
    inp = workloads.inputs(args.workload, args.seed)
    stages = workloads.pipeline(args.workload, inp, args.size, workdir)
    setup_s = time.monotonic() - t0

    reference = Reference()
    ref_s = [reference()]       # ref_s[i], ref_s[i + 1] bracket stage i
    rec = None
    if args.trace:
        rec = tracer.Recorder()
        tracer.instrument(rec)

    wall = 0.0
    cpu = 0.0
    stage_s = []
    failures = []
    for stage in stages:
        c0 = time.process_time()
        w0 = time.perf_counter()
        try:
            out = stage.run()
            error = None
        except Exception:
            error = traceback.format_exc(limit=3)
        stage_s.append(time.perf_counter() - w0)
        wall += stage_s[-1]
        cpu += time.process_time() - c0
        if rec is not None:
            rec.enabled = False
        if error is None:
            try:
                problems = stage.check(out)
            except Exception:
                problems = [traceback.format_exc(limit=3)]
            error = "; ".join(problems)
        ref_s.append(reference())
        if rec is not None:
            rec.enabled = True
        if error:
            failures.append({"stage": stage.name, "error": error})

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": inp,
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "stage_s": stage_s,
        "ref_s": ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(stages),
        "failed": len(failures),
        "failures": failures,
    }
    if rec is not None:
        names = [n for n in metric_units() if n != "trace.overhead_frac"]
        result["layers"] = tracer.layer_metrics(rec, names, wall, cpu)
        spans = [{"name": n, "parent": p, "t0": a, "t1": b}
                 for n, p, a, b in rec.spans]
        with open(workdir / f"trace-{args.workload}.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": spans}, fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
