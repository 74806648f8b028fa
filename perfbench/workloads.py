"""Seeded operation generators for the four benchmark workloads.

Every workload is a closed loop with one client: an operation is one
``thermalqubits.cli.main(argv)`` call, and the next one starts when the
previous one returns.  The generators here decide nothing about timing;
they turn ``(workload, seed)`` into an endless, reproducible sequence of
operations, each a list of config files to write and the argv to run.

The values that set an operation's cost (``nbar`` and, for series-large,
``steps``) follow one fixed low-discrepancy sequence: any run of
consecutive jobs covers the size ranges almost evenly, and every seed sees
the same sizes in the same order.  A run's work then depends on how many
operations fit in it, not on the seed, so spread between runs of
different seeds is the host's, not the inputs'.  The seed draws the rest
of each job: couplings, mixture angles and time span.

This module imports nothing outside the standard library, so the worker
can load it before it times the import of the package.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

WORKLOADS = ("series-small", "series-large", "crosscheck", "sweep")

# Operations the traced run executes: a fixed prefix of the seeded sequence,
# so its work counts repeat exactly between runs of the same code and seed.
TRACED_OPS = {
    "series-small": 16,
    "series-large": 10,
    "crosscheck": 12,
    "sweep": 4,
}

# Jobs per sweep operation and the worker threads it asks for.
SWEEP_JOBS = 4
SWEEP_WORKERS = 2

# Time points the validate subcommand probes the three routes at.
VALIDATE_PROBES = 7

# Photon-number ranges (mean of the thermal field) per workload.
NBAR_RANGE = {
    "series-small": (0.5, 2.0),
    "series-large": (20.0, 100.0),
    "crosscheck": (1.0, 5.0),
    "sweep": (0.5, 2.0),
}
LARGE_STEPS = (101, 201)


@dataclass(frozen=True)
class Job:
    """One configuration: the keys written to its file and where it writes."""

    config_name: str
    output_name: str
    keys: dict[str, object]

    @property
    def steps(self) -> int:
        return int(self.keys["steps"])

    def text(self) -> str:
        return "".join(f"{key} = {_format(value)}\n" for key, value in self.keys.items())


@dataclass(frozen=True)
class Op:
    """One ``cli.main`` call with the files it reads and writes.

    ``time_points`` is the number of time points the call computes: the
    rows written for ``run`` and ``sweep``, the probe times for
    ``validate``.  ``outputs`` lists every file the call writes, in a fixed
    order, so their digest is reproducible.
    """

    index: int
    command: str
    jobs: tuple[Job, ...]
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    time_points: int
    summary: str | None = None


def _format(value: object) -> str:
    return repr(value) if isinstance(value, float) else str(value)


class _Sizes:
    """Kronecker sequence u_k = k * (golden ratio - 1, sqrt(2) - 1) mod 1.

    Both step sizes have all-small continued fraction terms, so every run of
    consecutive points covers each axis nearly evenly.
    """

    _STEPS = ((math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0)

    def __init__(self) -> None:
        self._point = (0.0, 0.0)

    def next(self) -> tuple[float, float]:
        self._point = tuple((u + step) % 1.0 for u, step in zip(self._point, self._STEPS))
        return self._point


def _common_keys(rng: random.Random) -> dict[str, object]:
    """Couplings, mixture angles and time span, over the whole accepted domain."""
    return {
        "tail_tolerance": 1e-10,
        "gamma": rng.uniform(0.0, 1.0),
        "theta": rng.uniform(0.0, math.pi / 2.0),
        "vartheta": rng.uniform(0.0, math.pi / 2.0),
        "t_min": 0.0,
        "t_max": rng.uniform(10.0, 100.0),
    }


def _series_job(name: str, keys: dict[str, object]) -> Job:
    keys = dict(keys, mode="reduced", output_path=name + ".csv")
    return Job(config_name=name + ".cfg", output_name=name + ".csv", keys=keys)


def _sized_keys(rng: random.Random, sizes: _Sizes, workload: str) -> dict[str, object]:
    """Config keys of one job; its size comes from the next point of ``sizes``."""
    u_nbar, u_steps = sizes.next()
    low, high = NBAR_RANGE[workload]
    keys: dict[str, object] = {"nbar": low + (high - low) * u_nbar}
    keys.update(_common_keys(rng))
    if workload == "series-large":
        low, high = LARGE_STEPS
        keys["steps"] = low + int((high - low + 1) * u_steps)
    else:
        keys["steps"] = 1001
    return keys


def generate(workload: str, seed: int) -> Iterator[Op]:
    """Endless seeded operation sequence of one workload.

    The same ``(workload, seed)`` always yields the same operations in the
    same order; file names are relative, so outputs do not depend on the
    directory the operations run in.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    sizes = _Sizes()
    for index in itertools.count():
        name = f"op{index:05d}"
        if workload == "sweep":
            jobs = tuple(
                _series_job(f"{name}-{k}", _sized_keys(rng, sizes, workload))
                for k in range(SWEEP_JOBS)
            )
            summary = name + "-summary.json"
            yield Op(
                index=index,
                command="sweep",
                jobs=jobs,
                argv=("sweep",)
                + tuple(job.config_name for job in jobs)
                + ("--workers", str(SWEEP_WORKERS), "--summary", summary),
                outputs=tuple(job.output_name for job in jobs) + (summary,),
                time_points=sum(job.steps for job in jobs),
                summary=summary,
            )
            continue
        keys = _sized_keys(rng, sizes, workload)
        if workload == "crosscheck":
            keys["quadrature_nodes"] = "auto"
            keys["output_path"] = name + ".txt"
            job = Job(config_name=name + ".cfg", output_name=name + ".txt", keys=keys)
            command, time_points = "validate", min(job.steps, VALIDATE_PROBES)
        else:
            job = _series_job(name, keys)
            command, time_points = "run", job.steps
        yield Op(
            index=index,
            command=command,
            jobs=(job,),
            argv=(command, job.config_name),
            outputs=(job.output_name,),
            time_points=time_points,
        )
