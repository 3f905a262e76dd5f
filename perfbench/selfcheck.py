"""Fast self-check of the benchmark at small problem sizes.

For every workload: one untraced and two traced passes at the small size.
Checks that BENCHMARK.json lists exactly the per-layer metrics of
layers.json, that every stage passes its output checks, that every metric
is reported, that a traced function does work exactly on the workloads
layers.json says it runs on, that counts repeat exactly between the two
traced passes, and that span self times plus the untraced remainder add up
to the traced wall time.

    python3 perfbench/selfcheck.py        # from the root of a checkout
"""

import json
import sys
from pathlib import Path

import run

EXACT_UNITS = ("count", "frac", "MB")


def check_benchmark_json(problems):
    with open(Path.cwd() / "BENCHMARK.json") as fh:
        listed = json.load(fh)["per_layer"]
    table = [{"name": f"{fn}.{m}", "unit": unit, "better": better}
             for fn, spec in run.metric_table()
             for m, (unit, better) in spec["metrics"].items()]
    if listed != table:
        problems.append("BENCHMARK.json per_layer differs from layers.json")


def check_workload(workload, problems):
    def fail(msg):
        problems.append(f"{workload}: {msg}")

    passes = [run.one_pass(workload, 1, trace, 120.0, size="small")[0]
              for trace in (0, 1, 1)]
    if any(p is None for p in passes):
        return fail("a pass did not complete")
    for p in passes:
        for f in p["failures"]:
            fail(f"stage {f['stage']} failed: {f['error']}")
    untraced, first, second = passes
    plain, _ = run.summarize(workload, 1, 0, [{"traced": False,
                                                "result": untraced}])
    for name in run.END_TO_END:
        if not plain["metrics"][name]["value"] > 0.0:
            fail(f"{name} = {plain['metrics'][name]['value']}")

    results = [{"traced": False, "result": untraced},
               {"traced": True, "result": first}]
    result, _ = run.summarize(workload, 1, 1, results)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    reported = result["metrics"]
    for fn, spec in run.metric_table():
        for m, (unit, _) in spec["metrics"].items():
            name = f"{fn}.{m}"
            if reported.get(name, {}).get("unit") != unit:
                fail(f"{name} missing or with another unit")
                continue
            if name == "trace.overhead_frac":
                continue
            a, b = first["layers"][name], second["layers"][name]
            if unit in EXACT_UNITS and a != b:
                fail(f"{name} differs between runs: {a} != {b}")
        probe = next((f"{fn}.{m}" for m, (unit, _) in spec["metrics"].items()
                      if unit == "s"), None)
        if probe is not None:
            busy = first["layers"][probe] > 0.0
            if busy != (workload in spec["runs_on"]):
                fail(f"{probe} = {first['layers'][probe]}, but runs_on is "
                     f"{spec['runs_on']}")
    lay = first["layers"]
    gap = lay["trace.spans_self_s"] + lay["trace.untraced_s"] - lay["trace.wall_s"]
    if abs(gap) > 1e-6 * lay["trace.wall_s"] or lay["trace.untraced_s"] < 0.0:
        fail(f"span self times do not add up to the traced wall time "
             f"(gap {gap:.3e} s)")


def main():
    problems = []
    check_benchmark_json(problems)
    for workload in run.WORKLOADS:
        check_workload(workload, problems)
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
