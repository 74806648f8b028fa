"""Run-to-run stability of the benchmark itself.

    python3 perfbench/stability.py --workloads all --seeds 1-10 --sets 2 --baseline perfbench/BASELINE.json
    python3 perfbench/stability.py --workloads crosscheck --seeds 1-2 --sets 2 --trace 1

Runs ``run.py`` once per (set, workload, seed), exactly as a harness
would, and reports for every end-to-end metric the spread of its values
over the seeds: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.  With two sets it also reports
how far the second set's median moved from the first.

Determinism is asserted, not estimated: runs of the same seed must agree
on every output digest they share, and traced runs of the same seed must
agree exactly on every work count (``.calls``, ``.columns``,
``.components``, ``distinct_frac``, ``output_bytes``).  The exit status is
1 when a spread exceeds its bound, a median moves by more than its bound
in either direction (the code is the same, so a move either way is noise)
or a determinism check fails; ``setup_s`` is held to both like every other
metric.

With ``--baseline`` the untraced figures of every set, the median moves
between sets and one traced run per workload (the first seed) are written
to that file as the numbers of the commit under test.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import TRACED_OPS, WORKLOADS  # noqa: E402

ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out", "stability")
EXACT_SUFFIXES = (".calls", ".columns", ".components", "distinct_frac", "output_bytes")


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values: list[float]) -> dict[str, float]:
    """Median, quartiles and spread: the interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def spread(values: list[float]) -> float:
    return quartiles(values)["spread"]


def is_exact(name: str) -> bool:
    return name.endswith(EXACT_SUFFIXES)


def run_once(bench: dict, workload: str, seed: int, trace: int, report: str) -> dict:
    command = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
        "--report", report,
    ]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(report, encoding="utf-8") as handle:
        record = json.load(handle)
    result["digests"] = [op["sha256"] for op in record["ops"]]
    result["op_seconds"] = [op["seconds"] for op in record["ops"]]
    result["environment"] = record["environment"]
    return result


def baseline(bench: dict, runs: dict, traced: dict, sets: int, seeds: list[int]) -> dict:
    """The figures of one stability run, as recorded in BASELINE.json."""
    first = next(iter(runs.values()))
    env = dict(first["environment"])
    out = {
        "description": (
            f"Untraced runs of every workload, seeds {seeds[0]}-{seeds[-1]}, in {sets}"
            f" sets, and one traced run per workload (seed {seeds[0]}), made with"
            " perfbench/stability.py --baseline."
        ),
        "commit": env.pop("git_commit"),
        "run_seconds": bench["run_seconds"],
        "environment": env,
        "workloads": {},
    }
    for workload, trace_run in traced.items():
        entry: dict[str, object] = {"end_to_end": {}}
        for spec in bench["end_to_end"]:
            name = spec["name"]
            per_set = [
                quartiles([runs[i, workload, seed]["metrics"][name]["value"] for seed in seeds])
                for i in range(sets)
            ]
            moves = [
                (s["median"] - per_set[0]["median"]) / per_set[0]["median"] for s in per_set[1:]
            ]
            entry["end_to_end"][name] = {
                "unit": spec["unit"],
                "bound": spec["bound"],
                "sets": per_set,
                "median_move": moves,
                "stable": all(s["spread"] <= spec["bound"] for s in per_set)
                and all(abs(move) <= spec["bound"] for move in moves),
            }
        results = [runs[i, workload, seed] for i in range(sets) for seed in seeds]
        entry["attempted"] = [r["attempted"] for r in results]
        entry["failed"] = [r["failed"] for r in results]
        entry["per_layer"] = {
            name: metric["value"] for name, metric in trace_run["metrics"].items()
        }
        untraced = runs[0, workload, seeds[0]]["op_seconds"]
        shared = min(TRACED_OPS[workload], len(untraced))
        entry["trace_overhead_s"] = statistics.median(
            trace_run["op_seconds"][:shared]
        ) - statistics.median(untraced[:shared])
        out["workloads"][workload] = entry
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all", help="comma-separated names or 'all'")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--sets", type=int, default=1, help="repeat every run this many times")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", help="write the figures here (untraced runs only)")
    args = parser.parse_args()
    if args.baseline and args.trace:
        parser.error("--baseline records untraced runs; drop --trace")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = WORKLOADS if args.workloads == "all" else tuple(args.workloads.split(","))
    seeds = parse_seeds(args.seeds)
    os.makedirs(OUT, exist_ok=True)

    runs: dict[tuple[int, str, int], dict] = {}
    for index in range(args.sets):
        for workload in workloads:
            for seed in seeds:
                report = os.path.join(OUT, f"set{index}-{workload}-seed{seed}-trace{args.trace}.json")
                result = run_once(bench, workload, seed, args.trace, report)
                runs[index, workload, seed] = result
                print(
                    f"set {index} {workload} seed {seed}: attempted {result['attempted']}"
                    f" failed {result['failed']} correct {result['correct']}",
                    flush=True,
                )
    traced = {}
    if args.baseline:
        for workload in workloads:
            report = os.path.join(OUT, f"baseline-{workload}-seed{seeds[0]}-trace1.json")
            traced[workload] = run_once(bench, workload, seeds[0], 1, report)

    ok = True
    for workload in workloads:
        print(f"\n{workload}")
        for seed in seeds:
            first = runs[0, workload, seed]
            for index in range(1, args.sets):
                other = runs[index, workload, seed]
                shared = min(len(first["digests"]), len(other["digests"]))
                same = first["digests"][:shared] == other["digests"][:shared]
                exact = [name for name in first["metrics"] if is_exact(name)]
                differ = [
                    name for name in exact
                    if first["metrics"][name]["value"] != other["metrics"][name]["value"]
                ]
                ok = ok and same and not differ
                print(
                    f"  seed {seed}, set {index} vs set 0: {shared} op digests"
                    f" {'identical' if same else 'DIFFER'}, {len(exact) - len(differ)}"
                    f" of {len(exact)} exact counts identical {differ or ''}"
                )
        if args.trace:
            continue
        for name, spec in bounds.items():
            medians = []
            for index in range(args.sets):
                values = [runs[index, workload, seed]["metrics"][name]["value"] for seed in seeds]
                medians.append(statistics.median(values))
                width = spread(values) if len(values) > 1 else 0.0
                flag = ""
                if width > spec["bound"]:
                    ok = False
                    flag = "  OVER BOUND"
                elif width > spec["bound"] / 3:
                    flag = "  above a third of the bound"
                print(
                    f"  set {index} {name}: median {medians[-1]:.6g} {spec['unit']}"
                    f"  spread {width:.4f} (bound {spec['bound']}){flag}"
                )
            for index in range(1, args.sets):
                change = (medians[index] - medians[0]) / medians[0]
                flag = "  MOVED BY MORE THAN THE BOUND" if abs(change) > spec["bound"] else ""
                ok = ok and not flag
                print(f"  set {index} vs set 0 {name}: median moved {change:+.4f}{flag}")
    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(baseline(bench, runs, traced, args.sets, seeds), handle, indent=1)
            handle.write("\n")
    print("\nstable" if ok else "\nNOT STABLE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
