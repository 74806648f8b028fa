"""One workload in one fresh process.

Run by ``run.py``; not meant to be started by hand.  With ``--probe`` it
only times the import of ``thermalqubits.cli`` and prints the seconds; only
the standard library is imported before it, so the timed import pays for
numpy exactly as a command line call does.

Otherwise it imports the package, runs the workload's operations in a
closed loop inside a scratch directory, reads its peak resident set, then
checks every output and writes one JSON record to ``--result``.  An
untraced run also starts ``SETUP_PROBES`` fresh ``--probe`` processes, one
at a time between operations and spread evenly over the measured time, so
the import timings sample the same stretch of host speed as the operations.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

# Fresh-process import timings per untraced run, after one discarded warm-up.
SETUP_PROBES = 16

SELF = os.path.abspath(__file__)


def _import_package(src: str):
    sys.path.insert(0, src)
    start = time.perf_counter()
    import thermalqubits.cli as cli

    elapsed = time.perf_counter() - start
    origin = os.path.realpath(cli.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"thermalqubits was imported from {origin}, not from {src}")
    return cli, elapsed


def _probe(src: str) -> float:
    """Import time of ``thermalqubits.cli`` in a fresh process, in seconds.

    The probe runs with one OpenBLAS thread.  Loading numpy starts the BLAS
    thread pool, and with its default two threads on two shared cores the
    import time doubles whenever the host keeps the other core busy (0.10 s
    against 0.21 s, minutes apart).  One thread keeps the package's own
    import work and drops that host-dependent swing; operations still run
    with the default thread count.
    """
    done = subprocess.run(
        [sys.executable, SELF, "--src", src, "--probe"],
        stdout=subprocess.PIPE,
        text=True,
        timeout=60,
        check=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
    )
    return float(done.stdout.strip().splitlines()[-1])


def _call(cli, argv: tuple[str, ...]) -> int:
    """One operation: ``cli.main`` with stray standard output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return int(cli.main(list(argv)))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1


def _environment() -> dict[str, object]:
    import numpy as np

    env: dict[str, object] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        env["blas"] = "unknown"
    env["blas_threads"] = _blas_threads(np)
    return env


def _blas_threads(np) -> int | str:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "default")


def run(args: argparse.Namespace) -> dict[str, object]:
    from workloads import TRACED_OPS, generate

    cli, _ = _import_package(args.src)

    import checks

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    os.makedirs(args.tmp, exist_ok=True)
    os.chdir(args.tmp)
    ops = []
    times = []
    codes = []
    probes: list[float] = []
    limit = TRACED_OPS[args.workload] if args.trace else None
    if limit is None:
        _probe(args.src)
    begin = time.perf_counter()
    for op in generate(args.workload, args.seed):
        if limit is not None:
            if len(ops) >= limit:
                break
        else:
            elapsed = time.perf_counter() - begin
            if ops and elapsed >= args.seconds:
                break
            if elapsed >= len(probes) * args.seconds / SETUP_PROBES:
                probes.append(_probe(args.src))
        for job in op.jobs:
            with open(job.config_name, "w", encoding="utf-8") as handle:
                handle.write(job.text())
        if tracer is not None:
            tracer.op = op.index
        start = time.perf_counter()
        code = _call(cli, op.argv)
        times.append(time.perf_counter() - start)
        ops.append(op)
        codes.append(code)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    spans = []
    if tracer is not None:
        from tracer import layer_metrics

        tracer.op = None
        spans = list(tracer.spans)
        layers = layer_metrics(tracer)

    digests = [checks.digest(op.outputs) for op in ops]
    output_bytes = sum(checks.output_bytes(op.outputs) for op in ops)
    problems = checks.check_run(args.workload, args.seed, ops, codes)
    findings = [
        checks.validation_findings(op.outputs[0]) if op.command == "validate" else []
        for op in ops
    ]
    validate_max = checks.validation_maxima(
        op.outputs[0] for op, code in zip(ops, codes) if op.command == "validate" and code == 0
    )

    # The README promises identical bytes for identical configs: run the
    # first operation again and compare.
    repeat_code = _call(cli, ops[0].argv)
    repeat_digest = checks.digest(ops[0].outputs)
    deterministic = repeat_code == codes[0] and repeat_digest == digests[0]

    while limit is None and len(probes) < SETUP_PROBES:
        probes.append(_probe(args.src))

    record: dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_probes_s": probes,
        "peak_rss_mb": peak_rss_mb,
        "ops": [
            {
                "index": op.index,
                "argv": list(op.argv),
                "time_points": op.time_points,
                "seconds": seconds,
                "exit_code": code,
                "sha256": sha,
                "problems": found,
                "findings": noted,
            }
            for op, seconds, code, sha, found, noted in zip(
                ops, times, codes, digests, problems, findings
            )
        ],
        "output_bytes": output_bytes,
        "validate_max": validate_max,
        "deterministic": deterministic,
        "environment": _environment(),
    }
    if tracer is not None:
        record["layers"] = {name: list(value) for name, value in layers.items()}
        record["absent"] = tracer.absent
        record["count_cost_s"] = tracer.count_cost
        if args.spans:
            _write_spans(args.spans, spans)
    return record


def _write_spans(path: str, spans) -> None:
    """Spans as gzipped CSV: id, name, start, end, parent, op (seconds)."""
    import csv
    import gzip

    with gzip.open(path, "wt", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("id", "name", "start", "end", "parent", "op"))
        for s in spans:
            writer.writerow((s.id, s.name, repr(s.start), repr(s.end), s.parent, s.op))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the thermalqubits package")
    parser.add_argument("--probe", action="store_true", help="only time the package import")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", help="scratch directory for configs and outputs")
    parser.add_argument("--result", help="where to write the JSON record")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args()
    if args.probe:
        _, elapsed = _import_package(args.src)
        print(repr(elapsed))
        return 0
    record = run(args)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
