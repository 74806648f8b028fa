"""Output checks against the package's numerical contracts.

They run after the last operation of a run, outside the timed region.  An
operation fails when it exits nonzero or any of its outputs breaks a
contract; a failing operation is counted, never retried or dropped.

* ``run`` and ``sweep`` outputs: one row per configured time point, the
  populations sum to the retained photon mass within 1e-10, ``xi`` and
  ``upsilon`` match :func:`closed_form_negativity` and
  :func:`upsilon_witness` on each row's X state, and a few seeded rows match
  :func:`oracle_reduced_density` within the 1e-10 route contract.
* ``validate`` reports: every line that compares routes or reconstructs
  the field within its acceptance bound.  The two lines that measure the
  closed-form spectrum's own precision, the unitarity defect and the
  spectrum against block diagonalization, must be present and finite;
  a value above its acceptance target (1e-12 and 1e-11) is a finding,
  recorded with its op, not a failure.  The cancellation in the spectrum
  formula (ROADMAP item 1) breaks both targets for gamma below about 0.01
  or near 1, which the whole-domain gamma draw reaches on most seeds: at
  nbar 5 the unitarity defect reaches 1.2e-10, and the spectrum defect
  grows as gamma nears 0.  The route comparison gates the outputs built
  from that spectrum.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from typing import Iterable

from thermalqubits.closed_form import CouplingPair
from thermalqubits.entanglement import closed_form_negativity, upsilon_witness
from thermalqubits.fock_thermal import ThermalFieldSpec
from thermalqubits.oracle import oracle_reduced_density
from thermalqubits.reduction import AtomicMixtureSpec, TwoQubitDensity

from workloads import Job, Op

MASS_TOL = 1e-10
ROUTE_TOL = 1e-10
XI_TOL = 1e-11
UPSILON_TOL = 1e-12

# Printed validate line -> (bound, True when the value must stay at or
# below the bound, False when it must reach it).  A breach fails the op.
VALIDATE_BOUNDS = {
    "reduced density, three routes": (ROUTE_TOL, True),
    "field reconstruction, full period": (1e-12, True),
    "field reconstruction, half period": (1e-2, False),
    "negativity, closed form vs eigenvalues": (1e-11, True),
}

# Printed validate line -> (name of its traced maximum, acceptance target).
# A value above its target is a finding; a missing or non-finite one fails.
VALIDATE_TARGETS = {
    "unitarity defect": ("unitarity_defect", 1e-12),
    "spectrum vs block diagonalization": ("spectrum_defect", 1e-11),
}

COLUMNS = ("t", "xi", "upsilon", "B_ee", "B_egeg", "B_gege", "B_gg", "Re(B_coh)", "Im(B_coh)")

# Operations and rows per operation compared with the oracle in each run.
ORACLE_OPS = 2
ORACLE_ROWS = 2


def digest(paths: Iterable[str]) -> str:
    """SHA-256 over the names and bytes of an operation's output files."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.encode() + b"\0")
        try:
            with open(path, "rb") as handle:
                h.update(handle.read())
        except OSError:
            h.update(b"<missing>")
        h.update(b"\0")
    return h.hexdigest()


def output_bytes(paths: Iterable[str]) -> int:
    return sum(os.path.getsize(path) for path in paths if os.path.exists(path))


def read_series(path: str) -> list[dict[str, float]]:
    """Data rows of a reduced-mode CSV, keyed by column name."""
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line and not line.startswith("#")]
    if not lines:
        raise ValueError(f"{path}: no header")
    header = lines[0].split(",")
    missing = [name for name in COLUMNS if name not in header]
    if missing:
        raise ValueError(f"{path}: header lacks {missing}")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def _field(job: Job) -> ThermalFieldSpec:
    return ThermalFieldSpec(float(job.keys["nbar"]), float(job.keys["tail_tolerance"]))


def _density(row: dict[str, float]) -> TwoQubitDensity:
    return TwoQubitDensity.from_components(
        row["B_ee"], row["B_egeg"], row["B_gege"], row["B_gg"],
        complex(row["Re(B_coh)"], row["Im(B_coh)"]),
    )


def check_series(job: Job, rows: list[dict[str, float]]) -> list[str]:
    """Contract breaches of one reduced-mode time series."""
    problems = []
    if len(rows) != job.steps:
        problems.append(f"{job.output_name}: {len(rows)} rows, expected {job.steps}")
    mass = _field(job).retained_mass()
    worst_mass = worst_xi = worst_upsilon = 0.0
    for row in rows:
        total = math.fsum((row["B_ee"], row["B_egeg"], row["B_gege"], row["B_gg"]))
        worst_mass = max(worst_mass, abs(total - mass))
        rho = _density(row)
        worst_xi = max(worst_xi, abs(row["xi"] - closed_form_negativity(rho)))
        worst_upsilon = max(worst_upsilon, abs(row["upsilon"] - upsilon_witness(rho)))
    for label, worst, tol in (
        ("populations vs retained mass", worst_mass, MASS_TOL),
        ("xi vs closed_form_negativity", worst_xi, XI_TOL),
        ("upsilon vs upsilon_witness", worst_upsilon, UPSILON_TOL),
    ):
        if not worst <= tol:
            problems.append(f"{job.output_name}: {label} {worst:.3e} > {tol:.0e}")
    return problems


def check_oracle_rows(job: Job, rows: list[dict[str, float]], rng: random.Random) -> list[str]:
    """Seeded rows against the independently diagonalized reference."""
    if not rows:
        return []
    spec = _field(job)
    mixture = AtomicMixtureSpec(float(job.keys["theta"]), float(job.keys["vartheta"]))
    couplings = CouplingPair.from_gamma(float(job.keys["gamma"]))
    problems = []
    for row in rng.sample(rows, min(ORACLE_ROWS, len(rows))):
        reference = oracle_reduced_density(spec, mixture, couplings, row["t"]).matrix
        gap = float(abs(_density(row).matrix - reference).max())
        if not gap <= ROUTE_TOL:
            problems.append(
                f"{job.output_name}: t = {row['t']!r} differs from the oracle by {gap:.3e}"
            )
    return problems


def read_validation(path: str) -> dict[str, float]:
    """Printed defects of a validate report, keyed by their label."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    values = {}
    for line in text.splitlines():
        label, sep, value = line.rpartition(":")
        if sep:
            values[label.strip()] = float(value)
    return values


def check_validation(path: str) -> list[str]:
    """Breaches of a validate report: gated defects and unreadable lines."""
    values = read_validation(path)
    problems = [f"{path}: no '{label}' line" for label in VALIDATE_TARGETS if label not in values]
    problems += [
        f"{path}: {label} is {values[label]!r}"
        for label in VALIDATE_TARGETS
        if label in values and not math.isfinite(values[label])
    ]
    for label, (bound, at_most) in VALIDATE_BOUNDS.items():
        if label not in values:
            problems.append(f"{path}: no '{label}' line")
            continue
        value = values[label]
        ok = value <= bound if at_most else value >= bound
        if not ok:
            relation = "above" if at_most else "below"
            problems.append(f"{path}: {label} {value:.3e} {relation} {bound:.0e}")
    return problems


def validation_findings(path: str) -> list[str]:
    """Printed defects of a validate report above their acceptance target."""
    try:
        values = read_validation(path)
    except (OSError, ValueError):
        return []
    return [
        f"{path}: {label} {values[label]:.3e} above the {target:.0e} acceptance target"
        for label, (_, target) in VALIDATE_TARGETS.items()
        if label in values and not values[label] <= target
    ]


def validation_maxima(paths: Iterable[str]) -> dict[str, float]:
    """Largest value of each targeted defect over some validate reports."""
    reports = [read_validation(path) for path in paths]
    return {
        f"validate.{name}.max": max((r.get(label, 0.0) for r in reports), default=0.0)
        for label, (name, _) in VALIDATE_TARGETS.items()
    }


def check_sweep_summary(path: str, jobs: tuple[Job, ...]) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        summary = json.load(handle)
    entries = summary.get("jobs", [])
    problems = []
    if summary.get("failed") != 0 or len(entries) != len(jobs):
        problems.append(f"{path}: failed = {summary.get('failed')}, {len(entries)} entries")
    for entry in entries:
        if entry.get("status") != "ok":
            problems.append(f"{path}: job {entry.get('config')} {entry.get('status')}")
    return problems


def check_op(op: Op, oracle_rng: random.Random | None) -> list[str]:
    """Every contract breach of one operation's outputs; empty means it passed."""
    problems = []
    try:
        if op.command == "validate":
            return check_validation(op.outputs[0])
        if op.summary is not None:
            problems += check_sweep_summary(op.summary, op.jobs)
        for job in op.jobs:
            rows = read_series(job.output_name)
            problems += check_series(job, rows)
            if oracle_rng is not None:
                problems += check_oracle_rows(job, rows, oracle_rng)
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"op {op.index}: unreadable output: {exc}")
    return problems


def check_run(workload: str, seed: int, ops: list[Op], codes: list[int]) -> list[list[str]]:
    """Problems of each operation of a run, in order.

    An operation that exited nonzero fails on that alone.  The rows of
    ORACLE_OPS operations, drawn from the seed, are also compared with the
    oracle.
    """
    picks = random.Random(f"{workload}/{seed}/oracle")
    oracle_ops = set(picks.sample(range(len(ops)), min(ORACLE_OPS, len(ops))))
    problems = []
    for op, code in zip(ops, codes):
        if code != 0:
            problems.append([f"op {op.index}: exit code {code}"])
            continue
        rng = None
        if op.index in oracle_ops:
            rng = random.Random(f"{workload}/{seed}/rows/{op.index}")
        problems.append(check_op(op, rng))
    return problems
