"""Benchmark of the thermalqubits command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload series-small --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

Each workload runs in a fresh process that imports the package from
``src/`` and drives it only through ``thermalqubits.cli.main(argv)``, the
entry of the console script, with generated ``key = value`` config files.
Operations run back to back for ``--seconds`` (one client, closed loop);
the traced run instead runs a fixed prefix of the same seeded sequence so
its work counts repeat exactly.  Every output is checked against the
package's numerical contracts after the last operation.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  The lines
before it repeat every metric with its unit, plus the tail percentile and
failure ratio with their bases, and each finding: a validate defect within
its gate but above its acceptance target.  ``--workload all`` runs every workload
untraced and traced and prints all of it, tracing overhead included.
A full record of each run, per-operation output digests and, for traced
runs, the spans are written under ``.perfbench-out/``.

Exit status is 0 when the benchmark ran, whatever the checks found; it is
nonzero, with no result line, when the package is missing or a run could
not complete.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import TRACED_OPS, WORKLOADS  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
WORKER = os.path.join(HERE, "worker.py")

# Every run, set-up and checks included, must end within this.
DEADLINE_S = 170.0

TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark could not run to completion."""


def tail_percentile(values: list[float], beyond: int = TAIL_BEYOND):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, sample count), or None when there are too
    few samples for any percentile to have that many beyond it.
    """
    ordered = sorted(values)
    index = len(ordered) - beyond - 1
    if index < 0:
        return None
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


def _worker(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a workload process")
    try:
        return subprocess.run(
            [sys.executable, WORKER, "--src", SRC] + args,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
            check=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {DEADLINE_S:.0f} s") from exc
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"workload process exited with {exc.returncode}") from exc


def _git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: int, report: str) -> dict:
    """One run of one workload; returns the worker's record."""
    deadline = time.monotonic() + DEADLINE_S
    report = os.path.abspath(report)  # the worker runs in its own scratch directory
    tmp = os.path.join(OUT, "tmp", f"{workload}-{seed}-{trace}-{os.getpid()}")
    result = os.path.join(OUT, "tmp", f"{workload}-{seed}-{trace}-{os.getpid()}.json")
    args = [
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace), "--tmp", tmp, "--result", result,
    ]
    if trace:
        args += ["--spans", report[: -len(".json")] + ".spans.csv.gz"]
    try:
        _worker(args, deadline)
        with open(result, encoding="utf-8") as handle:
            record = json.load(handle)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if os.path.exists(result):
            os.unlink(result)
    record["environment"]["git_commit"] = _git_commit()
    with open(report, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return record


def summarize(record: dict) -> dict:
    """Metrics, failure accounting and the tail percentile of one run."""
    ops = record["ops"]
    times = [op["seconds"] for op in ops]
    failed = sum(1 for op in ops if op["problems"])
    summary = {
        "attempted": len(ops),
        "failed": failed,
        "correct": failed == 0 and record["deterministic"],
        "tail": tail_percentile(times),
        "problems": [p for op in ops for p in op["problems"]],
        "findings": [f for op in ops for f in op.get("findings", [])],
    }
    if record["trace"]:
        summary["metrics"] = {
            name: (value, unit) for name, (value, unit) in record["layers"].items()
        }
        summary["metrics"]["cli.output_bytes"] = (record["output_bytes"], "bytes")
        summary["metrics"]["trace.op_s.p50"] = (statistics.median(times), "s")
        for name, value in record["validate_max"].items():
            summary["metrics"][name] = (value, "1")
    else:
        summary["metrics"] = {
            "setup_s": (statistics.median(record["setup_probes_s"]), "s"),
            "op_s.p50": (statistics.median(times), "s"),
            "steps_per_s": (sum(op["time_points"] for op in ops) / sum(times), "1/s"),
            "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        }
    return summary


def print_run(record: dict, summary: dict) -> None:
    env = record["environment"]
    print(
        f"# workload {record['workload']}  seed {record['seed']}  trace {record['trace']}"
        f"  commit {env['git_commit']}  python {env['python']}  numpy {env['numpy']}"
        f"  blas {env['blas']} threads {env['blas_threads']}  nproc {env['nproc']}"
    )
    for name, (value, unit) in summary["metrics"].items():
        print(f"{name} {value!r} {unit}")
    tail = summary["tail"]
    if tail is None:
        print(f"op_s.tail n/a s (fewer than {TAIL_BEYOND + 1} ops: {summary['attempted']})")
    else:
        value, pct, count = tail
        print(f"op_s.tail {value!r} s (p{pct:.1f} of {count} ops, {TAIL_BEYOND} beyond)")
    print(
        f"failed_frac {summary['failed'] / summary['attempted']!r} ratio"
        f" ({summary['failed']} of {summary['attempted']} ops)"
    )
    print(f"deterministic {record['deterministic']}")
    for name in record.get("absent", []):
        print(f"absent {name}")
    for problem in summary["problems"]:
        print(f"problem {problem}")
    noted = sum(1 for op in record["ops"] if op.get("findings"))
    print(f"findings {noted} of {summary['attempted']} ops above an acceptance target")
    for finding in summary["findings"]:
        print(f"finding {finding}")


def result_line(summary: dict) -> str:
    return json.dumps(
        {
            "correct": summary["correct"],
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in summary["metrics"].items()
            },
        }
    )


def run_all(seed: int, seconds: float) -> None:
    """Every workload untraced and traced, with the tracing overhead."""
    for workload in WORKLOADS:
        records = {}
        for trace in (0, 1):
            report = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json")
            records[trace] = run_workload(workload, seed, seconds, trace, report)
            print_run(records[trace], summarize(records[trace]))
        # overhead on the same operations: the traced run's prefix
        shared = min(TRACED_OPS[workload], len(records[0]["ops"]))
        untraced = statistics.median(op["seconds"] for op in records[0]["ops"][:shared])
        traced = statistics.median(op["seconds"] for op in records[1]["ops"][:shared])
        print(
            f"trace.overhead_s {traced - untraced!r} s"
            f" (op_s.p50 traced minus untraced over the first {shared} ops)"
        )
        same = [
            a["sha256"] == b["sha256"]
            for a, b in zip(records[0]["ops"], records[1]["ops"])
        ]
        print(f"digests traced vs untraced: {sum(same)} of {len(same)} identical")
        print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="record path (default under .perfbench-out/)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "thermalqubits", "cli.py")):
        print(f"error: no thermalqubits package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    try:
        if args.workload == "all":
            run_all(args.seed, args.seconds)
            return 0
        report = args.report or os.path.join(
            OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        )
        record = run_workload(args.workload, args.seed, args.seconds, args.trace, report)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = summarize(record)
    print_run(record, summary)
    print(result_line(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
