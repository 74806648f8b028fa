"""Command line front end.

Three subcommands share one flat "key = value" configuration format:

``run``
    Evolve the configured mixture.  mode = reduced writes a CSV time
    series of the reduced atomic state and its negativity, mode = joint
    dumps the full joint density at the final time as JSON, and
    mode = validate cross-checks the independent computation routes.
``sweep``
    Run several reduced-mode configurations concurrently and write a JSON
    summary; one failing job does not stop the others.
``validate``
    Shorthand for ``run`` with the mode forced to validate.

Command line flags override file keys.  Coupling flags replace the file's
coupling parameterization wholesale, so a file that sets ``gamma`` can be
rerun with explicit ``--lambda1/--lambda2`` without tripping the
one-parameterization rule.  Outputs are written atomically and contain no
timestamps or absolute paths; identical configurations produce identical
bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .closed_form import (
    CouplingPair,
    amplitude_table,
    manifold_spectrum,
    phase_propagator,
)
from .entanglement import closed_form_negativity, negativity
from .fock_thermal import ThermalFieldSpec
from .oracle import build_block, jacobi_eigh, oracle_reduced_density
from .phase_engine import (
    evolve_mixed,
    partial_trace_field,
    reconstruct_field_density,
)
from .reduction import AtomicMixtureSpec, TwoQubitDensity, reduced_density

__all__ = [
    "ConfigError",
    "OutputError",
    "RunConfig",
    "config_from_preamble",
    "load_config",
    "main",
    "parse_config_text",
    "render_joint",
    "render_timeseries",
    "render_validation",
    "run_sweep",
    "run_timeseries",
    "timeseries_rows",
]

CSV_HEADER = "t,xi,upsilon,B_ee,B_egeg,B_gege,B_gg,Re(B_coh),Im(B_coh)"


class ConfigError(Exception):
    """The configuration cannot be parsed or does not describe a valid run."""


class OutputError(Exception):
    """An output file could not be written."""


def _parse_nodes(text: str) -> int | str:
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(
            f"quadrature_nodes must be an integer or 'auto', got {text!r}"
        ) from exc


_SCHEMA: dict[str, Callable[[str], object]] = {
    "nbar": float,
    "tail_tolerance": float,
    "gamma": float,
    "lambda1": float,
    "lambda2": float,
    "theta": float,
    "vartheta": float,
    "t_min": float,
    "t_max": float,
    "steps": int,
    "quadrature_nodes": _parse_nodes,
    "mode": str,
    "output_path": str,
}

_COUPLING_KEYS = ("gamma", "lambda1", "lambda2")
_FLOAT_KEYS = tuple(key for key, parse in _SCHEMA.items() if parse is float)

# Amplitude-table entries (time points x photon levels) evaluated per pass
# of a reduced-mode series.  It bounds the working set of one chunk of the
# time axis; the chunk length follows from the truncation.
CHUNK_BUDGET = 2048


@dataclass(frozen=True)
class RunConfig:
    """One fully specified run.

    Couplings come either as ``gamma`` (lambda1 = 1 + gamma,
    lambda2 = 1 - gamma) or as an explicit pair, never both; with neither
    given the symmetric default gamma = 0 is filled in.  The unused fields
    stay None and are omitted when the configuration is echoed.
    """

    nbar: float = 1.0
    tail_tolerance: float = 1e-10
    gamma: float | None = None
    lambda1: float | None = None
    lambda2: float | None = None
    theta: float = math.pi / 2.0
    vartheta: float = 0.0
    t_min: float = 0.0
    t_max: float = 25.0
    steps: int = 1001
    quadrature_nodes: int | str = "auto"
    mode: str = "reduced"
    output_path: str = ""

    def __post_init__(self) -> None:
        for key in _FLOAT_KEYS:
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be a finite number, got {value}")
        has_gamma = self.gamma is not None
        has_pair = self.lambda1 is not None or self.lambda2 is not None
        if has_gamma and has_pair:
            raise ConfigError("give either gamma or lambda1/lambda2, not both")
        if has_pair and (self.lambda1 is None or self.lambda2 is None):
            raise ConfigError("lambda1 and lambda2 must be given together")
        if not has_gamma and not has_pair:
            object.__setattr__(self, "gamma", 0.0)
        try:
            self.couplings()
            self.field()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.steps < 1:
            raise ConfigError(f"steps must be at least 1, got {self.steps}")
        if self.t_max < self.t_min:
            raise ConfigError(f"t_max {self.t_max} is below t_min {self.t_min}")
        if self.mode not in ("reduced", "joint", "validate"):
            raise ConfigError(
                f"mode must be 'reduced', 'joint' or 'validate', got {self.mode!r}"
            )
        nodes = self.quadrature_nodes
        if isinstance(nodes, str):
            if nodes != "auto":
                raise ConfigError(
                    f"quadrature_nodes must be an integer or 'auto', got {nodes!r}"
                )
        elif nodes < 1:
            raise ConfigError(f"quadrature_nodes must be at least 1, got {nodes}")

    def field(self) -> ThermalFieldSpec:
        return ThermalFieldSpec(self.nbar, self.tail_tolerance)

    def couplings(self) -> CouplingPair:
        if self.gamma is not None:
            return CouplingPair.from_gamma(self.gamma)
        return CouplingPair(self.lambda1, self.lambda2)

    def mixture(self) -> AtomicMixtureSpec:
        return AtomicMixtureSpec(self.theta, self.vartheta)

    def partner_pairs(self) -> list[tuple[float, str]]:
        return [(w, label) for label, w in self.mixture().weights().items()]

    def node_count(self) -> int | None:
        """Explicit grid size, or None to let the engine pick the exact one."""
        return None if self.quadrature_nodes == "auto" else int(self.quadrature_nodes)

    def times(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.steps)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object]) -> "RunConfig":
        unknown = set(mapping) - set(_SCHEMA)
        if unknown:
            raise ConfigError(f"unknown keys: {sorted(unknown)}")
        return cls(**mapping)


def parse_config_text(text: str) -> dict[str, object]:
    """Parse "key = value" lines; '#' lines and blank lines are skipped."""
    mapping: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in mapping:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            mapping[key] = _SCHEMA[key](value)
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: cannot parse {key} value {value!r}"
            ) from exc
    return mapping


def load_config(path: str | None, overrides: Mapping[str, object]) -> RunConfig:
    """Configuration from an optional file with command line values on top."""
    mapping: dict[str, object] = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        mapping = parse_config_text(text)
    if any(key in overrides for key in _COUPLING_KEYS):
        for key in _COUPLING_KEYS:
            mapping.pop(key, None)
    mapping.update(overrides)
    return RunConfig.from_mapping(mapping)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _preamble_lines(cfg: RunConfig) -> list[str]:
    lines = []
    for field in dataclasses.fields(cfg):
        value = getattr(cfg, field.name)
        if value is None:
            continue
        if isinstance(value, float):
            value = _fmt(value)
        lines.append(f"# {field.name} = {value}")
    lines.append("## xi doubles the absolute sum of negative partial-transpose eigenvalues")
    lines.append(
        "## time is dimensionless; the couplings set the frequency scale"
        " and gamma fixes lambda1 + lambda2 = 2"
    )
    return lines


def config_from_preamble(text: str) -> RunConfig:
    """Recover the configuration echoed at the top of an output file.

    Single-'#' lines hold the keys; '##' note lines are ignored; the first
    uncommented line ends the preamble.
    """
    config_lines = []
    for raw in text.splitlines():
        if raw.startswith("##"):
            continue
        if raw.startswith("#"):
            config_lines.append(raw[1:].strip())
        else:
            break
    return RunConfig.from_mapping(parse_config_text("\n".join(config_lines)))


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".partial-", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
        tmp_path = None
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp_path is not None:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output_path:
        _atomic_write(cfg.output_path, text)
    else:
        sys.stdout.write(text)


def timeseries_rows(cfg: RunConfig) -> list[tuple[float, ...]]:
    """Rows of the reduced-mode table, one 9-tuple per configured time.

    The times are taken in chunks of CHUNK_BUDGET // (truncation + 1); each
    chunk is one reduced-density stack and one negativity call.  Every
    row depends on its own time only, so the chunk length never changes
    the output.
    """
    field = cfg.field()
    couplings = cfg.couplings()
    mixture = cfg.mixture()
    times = cfg.times()
    chunk = max(1, CHUNK_BUDGET // (field.truncation + 1))
    rows: list[tuple[float, ...]] = []
    for start in range(0, len(times), chunk):
        t = times[start : start + chunk]
        rho = reduced_density(field, mixture, couplings, t)
        result = negativity(rho)
        columns = (
            t,
            result.xi,
            result.upsilon,
            rho.B_ee,
            rho.B_egeg,
            rho.B_gege,
            rho.B_gg,
            rho.B_coh.real,
            rho.B_coh.imag,
        )
        rows.extend(zip(*(column.tolist() for column in columns)))
    return rows


def _render_rows(cfg: RunConfig, rows: Sequence[tuple[float, ...]]) -> str:
    lines = _preamble_lines(cfg)
    lines.append(CSV_HEADER)
    lines.extend(",".join(_fmt(value) for value in row) for row in rows)
    return "\n".join(lines) + "\n"


def render_timeseries(cfg: RunConfig) -> str:
    return _render_rows(cfg, timeseries_rows(cfg))


def run_timeseries(cfg: RunConfig) -> dict[str, float]:
    """Write the configured time series; returns its negativity peak."""
    rows = timeseries_rows(cfg)
    _emit(cfg, _render_rows(cfg, rows))
    best = max(range(len(rows)), key=lambda i: rows[i][1])
    return {"max_xi": rows[best][1], "argmax_t": rows[best][0]}


def _config_mapping(cfg: RunConfig) -> dict[str, object]:
    return {
        field.name: getattr(cfg, field.name)
        for field in dataclasses.fields(cfg)
        if getattr(cfg, field.name) is not None
    }


def render_joint(cfg: RunConfig) -> str:
    """JSON dump of the joint atoms+field density at the final time."""
    field = cfg.field()
    joint = evolve_mixed(
        phase_propagator(cfg.couplings()),
        field,
        cfg.partner_pairs(),
        cfg.t_max,
        cfg.node_count(),
    )
    payload = {
        "config": _config_mapping(cfg),
        "t": cfg.t_max,
        "atom_labels": list(joint.atom_labels),
        "fock_dim": joint.fock_dim,
        "trace": joint.trace,
        "matrix_re": joint.matrix.real.tolist(),
        "matrix_im": joint.matrix.imag.tolist(),
    }
    return json.dumps(payload, indent=2) + "\n"


def _random_x_state(rng: np.random.Generator) -> TwoQubitDensity:
    populations = rng.random(4) + 1e-3
    populations = populations / populations.sum()
    magnitude = math.sqrt(populations[1] * populations[2]) * rng.random()
    phase = math.tau * rng.random()
    return TwoQubitDensity.from_components(
        populations[0],
        populations[1],
        populations[2],
        populations[3],
        magnitude * complex(math.cos(phase), math.sin(phase)),
    )


def render_validation(cfg: RunConfig) -> str:
    """Worst cross-route discrepancies on the configured system."""
    field = cfg.field()
    couplings = cfg.couplings()
    mixture = cfg.mixture()
    pairs = cfg.partner_pairs()
    solver = phase_propagator(couplings)
    probes = np.linspace(cfg.t_min, cfg.t_max, min(cfg.steps, 7))
    count = cfg.node_count()

    unitarity = 0.0
    for label in ("ee", "eg", "gg"):
        for t in probes:
            table = amplitude_table(label, field.truncation, float(t), couplings)
            norms = np.sum(np.abs(table) ** 2, axis=0)
            unitarity = max(unitarity, float(np.abs(norms - 1.0).max()))

    spectrum = 0.0
    for n in range(field.truncation + 1):
        block_w, _ = jacobi_eigh(build_block(n + 2, couplings).hamiltonian)
        spec = manifold_spectrum(n, couplings)
        closed = np.sort(
            [
                -spec.Omega_plus.real,
                -spec.Omega_minus.real,
                spec.Omega_minus.real,
                spec.Omega_plus.real,
            ]
        )
        spectrum = max(spectrum, float(np.abs(block_w - closed).max()))

    routes = 0.0
    for t in probes:
        closed = reduced_density(field, mixture, couplings, float(t)).matrix
        quad = partial_trace_field(
            evolve_mixed(solver, field, pairs, float(t), count)
        ).matrix
        numeric = oracle_reduced_density(field, mixture, couplings, float(t)).matrix
        routes = max(
            routes,
            float(np.abs(closed - quad).max()),
            float(np.abs(closed - numeric).max()),
        )

    target = np.diag(field.probabilities()).astype(complex)
    full = reconstruct_field_density(field, count)
    half = reconstruct_field_density(field, count, interval="half")
    full_err = float(np.abs(full.matrix - target).max())
    half_err = float(np.abs(half.matrix - target).max())

    rng = np.random.default_rng(0)
    neg = 0.0
    for _ in range(200):
        rho = _random_x_state(rng)
        neg = max(neg, abs(negativity(rho).xi - closed_form_negativity(rho)))

    lines = [
        f"unitarity defect: {unitarity:.3e}",
        f"spectrum vs block diagonalization: {spectrum:.3e}",
        f"reduced density, three routes: {routes:.3e}",
        f"field reconstruction, full period: {full_err:.3e}",
        f"field reconstruction, half period: {half_err:.3e}",
        f"negativity, closed form vs eigenvalues: {neg:.3e}",
    ]
    return "\n".join(lines) + "\n"


def run_sweep(
    jobs: Sequence[tuple[str, RunConfig]], workers: int = 1
) -> dict[str, object]:
    """Run reduced-mode jobs concurrently; a failing job fails alone.

    Returns {"jobs": [...], "failed": count} with one entry per job in
    input order carrying config name, output path, status and, when the
    run succeeded, the negativity peak.
    """
    if not jobs:
        raise ConfigError("sweep needs at least one configuration")

    def one(name: str, cfg: RunConfig) -> dict[str, object]:
        if cfg.mode != "reduced":
            raise ConfigError(f"sweep runs reduced jobs only, {name} has mode {cfg.mode!r}")
        if not cfg.output_path:
            raise ConfigError(f"sweep job {name} must set output_path")
        stats = run_timeseries(cfg)
        return {
            "config": name,
            "output": cfg.output_path,
            "status": "ok",
            "max_xi": stats["max_xi"],
            "argmax_t": stats["argmax_t"],
        }

    entries: list[dict[str, object]] = []
    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        futures = [pool.submit(one, name, cfg) for name, cfg in jobs]
        for (name, cfg), future in zip(jobs, futures):
            try:
                entries.append(future.result())
            except Exception as exc:
                entries.append(
                    {
                        "config": name,
                        "output": cfg.output_path,
                        "status": "failed",
                        "error": str(exc),
                    }
                )
    failed = sum(1 for entry in entries if entry["status"] != "ok")
    return {"jobs": entries, "failed": failed}


def _overrides_from_args(args: argparse.Namespace) -> dict[str, object]:
    overrides = {}
    for key in _SCHEMA:
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    return overrides


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("config", nargs="?", help="configuration file of 'key = value' lines")
    parser.add_argument("--nbar", type=float, help="mean thermal photon number")
    parser.add_argument(
        "--tail-tolerance",
        dest="tail_tolerance",
        type=float,
        help="discarded photon tail mass",
    )
    parser.add_argument("--gamma", type=float, help="coupling asymmetry; sets lambda1,2 = 1 +- gamma")
    parser.add_argument("--lambda1", type=float, help="first qubit coupling")
    parser.add_argument("--lambda2", type=float, help="second qubit coupling")
    parser.add_argument("--theta", type=float, help="mixture angle: eg weight is cos(theta)^2")
    parser.add_argument("--vartheta", type=float, help="mixture angle: ee/gg split")
    parser.add_argument("--t-min", dest="t_min", type=float, help="first time")
    parser.add_argument("--t-max", dest="t_max", type=float, help="last time")
    parser.add_argument("--steps", type=int, help="number of time points")
    parser.add_argument(
        "--quadrature-nodes",
        dest="quadrature_nodes",
        type=_parse_nodes,
        help="phase grid size, or 'auto' for the smallest exact one",
    )
    parser.add_argument("--mode", choices=("reduced", "joint", "validate"), help="what 'run' produces")
    parser.add_argument("--output", dest="output_path", help="output file (default: stdout)")


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _overrides_from_args(args))
    if cfg.mode == "joint":
        _emit(cfg, render_joint(cfg))
    elif cfg.mode == "validate":
        _emit(cfg, render_validation(cfg))
    else:
        run_timeseries(cfg)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    overrides = _overrides_from_args(args)
    overrides["mode"] = "validate"
    cfg = load_config(args.config, overrides)
    _emit(cfg, render_validation(cfg))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    entries: list[dict[str, object] | None] = [None] * len(args.configs)
    parsed: list[tuple[int, str, RunConfig]] = []
    for index, path in enumerate(args.configs):
        try:
            parsed.append((index, path, load_config(path, {})))
        except ConfigError as exc:
            entries[index] = {
                "config": path,
                "output": "",
                "status": "failed",
                "error": str(exc),
            }
    if parsed:
        summary = run_sweep([(path, cfg) for _, path, cfg in parsed], workers=args.workers)
        for (index, _, _), entry in zip(parsed, summary["jobs"]):
            entries[index] = entry
    failed = sum(1 for entry in entries if entry["status"] != "ok")
    text = json.dumps({"jobs": entries, "failed": failed}, indent=2) + "\n"
    if args.summary:
        _atomic_write(args.summary, text)
    else:
        sys.stdout.write(text)
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermalqubits",
        description="Two qubits in a thermal cavity: dynamics and entanglement.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="write a time series, joint density or validation report"
    )
    _add_config_flags(run)
    run.set_defaults(func=_cmd_run)

    sweep = commands.add_parser("sweep", help="run several configurations concurrently")
    sweep.add_argument("configs", nargs="+", help="configuration files, one job each")
    sweep.add_argument("--workers", type=int, default=4, help="concurrent jobs")
    sweep.add_argument("--summary", help="summary JSON path (default: stdout)")
    sweep.set_defaults(func=_cmd_sweep)

    validate = commands.add_parser(
        "validate", help="cross-check the independent computation routes"
    )
    _add_config_flags(validate)
    validate.set_defaults(func=_cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
