"""Command line front end.

Three subcommands share one flat "key = value" configuration format:

``run``
    Evolve the configured mixture.  mode = reduced writes a CSV time
    series of the reduced atomic state and its negativity, mode = joint
    dumps the full joint density at the final time as JSON, and
    mode = validate cross-checks the independent computation routes.
``sweep``
    Run reduced-mode config files one after another, each writing its own
    series, and write a JSON summary with one entry per file; a failing job
    fails alone.
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
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import checks
from .closed_form import ATOM_LABELS, CouplingPair, block_spectrum, phase_propagator
from .entanglement import negativity
from .fock_thermal import ThermalFieldSpec
from .oracle import oracle_reduced_density_bytes
from .phase_engine import (
    evolve_mixed, evolve_mixed_bytes, mixed_reduced_density_bytes, reconstruct_field_density_bytes
)
from .reduction import AtomicMixtureSpec, TwoQubitDensity, reduced_density, reduced_density_bytes

__all__ = [
    "ConfigError",
    "OutputError",
    "RunConfig",
    "config_from_preamble",
    "load_config",
    "main",
    "parse_config_text",
    "render_joint",
    "render_validation",
    "run_timeseries",
    "timeseries_rows",
    "work_bytes",
]

CSV_HEADER = "t,xi,upsilon,B_ee,B_egeg,B_gege,B_gg,Re(B_coh),Im(B_coh)"
# One CSV data line; "%.17g" renders a float exactly as format(value, ".17g").
_CSV_ROW = ",".join(["%.17g"] * len(CSV_HEADER.split(",")))


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


MODES = ("reduced", "joint", "validate")

_COUPLING_KEYS = ("gamma", "lambda1", "lambda2")

# Largest planned working set, in bytes of traced allocation (what
# tracemalloc sees, not the process RSS, which adds the interpreter and
# numpy baseline of about 30 MB and allocator slack); a run that would need
# more is refused as a config error before anything is allocated.  Every
# run in the tests and the benchmark plans under 100 MB (at nbar 5, N = 126,
# validate plans 7 MB and a joint run 87 MB), so 1 GiB leaves them a factor
# of ten, while nbar 1e6 (N ~ 2.3e7, 8.2 GiB of per-level arrays), a joint
# run from nbar 19.3 (N = 455) or validate from nbar 144.6 (N = 3341) up
# plan more.
MAX_WORK_BYTES = 2**30

# Time points at which validate compares the routes.
VALIDATE_PROBES = 7

# Peak bytes of what cli allocates itself, measured with tracemalloc and
# rounded up: per joint density entry rendered as JSON text (312-315 B at
# nbar 1-10: two Python floats, their text and its joined copy), and per
# time point of a reduced series (its row and its CSV line).
_JSON_BYTES = 320
_ROW_BYTES = 896
# Allocation of every run that no entry count covers (argument parsing,
# first calls into numpy): 0.25 MB for run and 1.2 MB for validate at
# nbar 0, rounded up.
_RUN_BYTES = 2**21


def work_bytes(truncation: int, steps: int, mode: str, nodes: int | None = None) -> int:
    """Estimated peak allocation of a run, computed without allocating it.

    Every mode runs in two stages, one after the other, so its peak is
    ``_RUN_BYTES`` plus the larger stage, each planned by the module that
    allocates it.  A reduced series first holds one chunk of amplitude
    rows, then its rows and their CSV lines.  A joint run first sums the
    joint density, (4 (N + 3))^2 entries, over the phase grid (N + 1 nodes
    unless ``nodes`` is given), one node chunk of evolved vectors of
    length 4 (N + 3) at a time, and then renders it as JSON text.
    Validate's stages are the route comparison (one node chunk of the
    phase engine with its solver's tables, beside the oracle's tables, at
    every probe time) and the field reconstruction.
    """
    width = 4 * (truncation + 3)
    if mode == "reduced":
        stages = (reduced_density_bytes(truncation, steps), _ROW_BYTES * steps)
    elif mode == "joint":
        stages = (evolve_mixed_bytes(truncation, width, nodes), _JSON_BYTES * width * width)
    else:
        probes = min(steps, VALIDATE_PROBES)
        routes = mixed_reduced_density_bytes(truncation, width, probes, nodes)
        routes += oracle_reduced_density_bytes(truncation, probes)
        stages = (routes, reconstruct_field_density_bytes(truncation, nodes))
    return _RUN_BYTES + max(stages)


def _key(default: object, parse: Callable[[str], object], help: str, flag: str = ""):
    """A config key: its default, the parser of its text value and its flag help.

    The flag is ``--`` plus the key with dashes unless ``flag`` names another.
    """
    return dataclasses.field(
        default=default, metadata={"parse": parse, "help": help, "flag": flag}
    )


@dataclass(frozen=True)
class RunConfig:
    """One fully specified run.

    Couplings come either as ``gamma`` (lambda1 = 1 + gamma,
    lambda2 = 1 - gamma) or as an explicit pair, never both; with neither
    given the symmetric default gamma = 0 is filled in.  The unused fields
    stay None and are omitted when the configuration is echoed.  Each
    field is one config file key and one command line flag.
    """

    nbar: float = _key(1.0, float, "mean thermal photon number")
    tail_tolerance: float = _key(1e-10, float, "discarded photon tail mass")
    gamma: float | None = _key(None, float, "coupling asymmetry; sets lambda1,2 = 1 +- gamma")
    lambda1: float | None = _key(None, float, "first qubit coupling")
    lambda2: float | None = _key(None, float, "second qubit coupling")
    theta: float = _key(math.pi / 2.0, float, "mixture angle: eg weight is cos(theta)^2")
    vartheta: float = _key(0.0, float, "mixture angle: ee/gg split")
    t_min: float = _key(0.0, float, "first time")
    t_max: float = _key(25.0, float, "last time")
    steps: int = _key(1001, int, "number of time points")
    quadrature_nodes: int | str = _key(
        "auto", _parse_nodes, "phase grid size, or 'auto' for N+1, the exact threshold"
    )
    mode: str = _key("reduced", str, "what 'run' produces: " + ", ".join(MODES))
    output_path: str = _key("", str, "output file (default: stdout)", flag="--output")

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
            couplings = self.couplings()
            truncation = self.field().truncation
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # products grow with the block index; amplitude factors stay below 16 Omega_+^2
        l1, l2 = couplings.lambda1, couplings.lambda2
        with np.errstate(over="ignore", invalid="ignore"):
            top = block_spectrum(truncation, couplings)
            finite = np.isfinite([*top, 16.0 * top[3]]).all()
        squares = (l1 * l1, l2 * l2, 16.0 * l1 * l1 * l2 * l2) if l2 else (l1 * l1,)
        if not finite or min(squares) < sys.float_info.min:
            raise ConfigError(f"couplings lambda1 = {l1} and lambda2 = {l2} leave "
                              f"the double range at photon cutoff {truncation}")
        if self.steps < 1:
            raise ConfigError(f"steps must be at least 1, got {self.steps}")
        if self.t_max < self.t_min:
            raise ConfigError(f"t_max {self.t_max} is below t_min {self.t_min}")
        # the time grid needs its span and every block phase Omega t a double;
        # Omega_+ of the top block is the largest frequency
        reach = math.sqrt(top[3]) * max(abs(self.t_min), abs(self.t_max))
        if not (math.isfinite(self.t_max - self.t_min) and math.isfinite(reach)):
            raise ConfigError(f"times {self.t_min} to {self.t_max} leave the double range: "
                              f"the span or the phase Omega_+ t at photon cutoff {truncation} "
                              "overflows")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {', '.join(MODES)}, got {self.mode!r}")
        nodes = self.quadrature_nodes
        if nodes != "auto" and not (isinstance(nodes, int) and nodes >= 1):
            raise ConfigError(
                f"quadrature_nodes must be a positive integer or 'auto', got {nodes!r}"
            )
        need = work_bytes(truncation, self.steps, self.mode, self.node_count())
        if need > MAX_WORK_BYTES:
            raise ConfigError(
                f"the run would allocate about {need / 2**30:.3g} GiB (traced allocation, "
                f"not process RSS), above the {MAX_WORK_BYTES / 2**30:g} GiB limit; lower "
                "nbar, steps or quadrature_nodes, or raise tail_tolerance"
            )

    def field(self) -> ThermalFieldSpec:
        return ThermalFieldSpec(self.nbar, self.tail_tolerance)

    def couplings(self) -> CouplingPair:
        if self.gamma is not None:
            return CouplingPair.from_gamma(self.gamma)
        return CouplingPair(self.lambda1, self.lambda2)

    def mixture(self) -> AtomicMixtureSpec:
        return AtomicMixtureSpec(self.theta, self.vartheta)

    def node_count(self) -> int | None:
        """Explicit grid size, or None to let the engine pick its default."""
        return None if self.quadrature_nodes == "auto" else int(self.quadrature_nodes)

    def times(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.steps)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object]) -> "RunConfig":
        unknown = set(mapping) - set(_SCHEMA)
        if unknown:
            raise ConfigError(f"unknown keys: {sorted(unknown)}")
        return cls(**mapping)


_SCHEMA = {key.name: key.metadata["parse"] for key in dataclasses.fields(RunConfig)}
_FLOAT_KEYS = tuple(key for key, parse in _SCHEMA.items() if parse is float)


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
            with open(path, encoding="utf-8-sig") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        mapping = parse_config_text(text)
    if any(key in overrides for key in _COUPLING_KEYS):
        for key in _COUPLING_KEYS:
            mapping.pop(key, None)
    mapping.update(overrides)
    return RunConfig.from_mapping(mapping)


def _config_mapping(cfg: RunConfig) -> dict[str, object]:
    return {
        field.name: getattr(cfg, field.name)
        for field in dataclasses.fields(cfg)
        if getattr(cfg, field.name) is not None
    }


def _preamble_lines(cfg: RunConfig) -> list[str]:
    lines = [
        f"# {key} = {'%.17g' % value if isinstance(value, float) else value}"
        for key, value in _config_mapping(cfg).items()
    ]
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
    preamble = itertools.takewhile(lambda raw: raw.startswith("#"), text.splitlines())
    config_lines = [raw[1:].strip() for raw in preamble if not raw.startswith("##")]
    return RunConfig.from_mapping(parse_config_text("\n".join(config_lines)))


def _emit(path: str | None, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout without one.

    A file is written to a new temp file beside it and renamed into place,
    so a failure leaves no partial output.  The temp file is created with
    mode 0666 less the umask, as a plain ``open(path, "w")`` creates a new
    file (``tempfile.mkstemp`` would make it 0600).
    """
    if not path:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    name = os.path.join(directory, f".partial-{os.urandom(8).hex()}.tmp")
    tmp_path = None
    try:
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp_path = name  # ours to remove from here on
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


def timeseries_rows(cfg: RunConfig) -> list[tuple[float, ...]]:
    """One 9-tuple per configured time, from one density stack and one negativity call."""
    times = cfg.times()
    rho = reduced_density(cfg.field(), cfg.mixture(), cfg.couplings(), times)
    result = negativity(rho)
    columns = np.array((times, result.xi, result.upsilon, rho.B_ee, rho.B_egeg,
                        rho.B_gege, rho.B_gg, rho.B_coh.real, rho.B_coh.imag))
    del rho, result  # the stacks go before the row objects are built
    return list(zip(*columns.tolist()))


def _render_rows(cfg: RunConfig, rows: Sequence[tuple[float, ...]]) -> str:
    lines = _preamble_lines(cfg)
    lines.append(CSV_HEADER)
    lines.extend(_CSV_ROW % row for row in rows)
    return "\n".join(lines) + "\n"


def run_timeseries(cfg: RunConfig) -> dict[str, float]:
    """Write the configured time series; returns its negativity peak."""
    rows = timeseries_rows(cfg)
    _emit(cfg.output_path, _render_rows(cfg, rows))
    best = max(range(len(rows)), key=lambda i: rows[i][1])
    return {"max_xi": rows[best][1], "argmax_t": rows[best][0]}


def render_joint(cfg: RunConfig) -> str:
    """JSON dump of the joint atoms+field density at the final time."""
    joint = evolve_mixed(
        phase_propagator(cfg.couplings()),
        cfg.field(),
        cfg.mixture().weights(),
        cfg.t_max,
        cfg.node_count(),
    )
    payload = {
        "config": _config_mapping(cfg),
        "t": cfg.t_max,
        "atom_labels": list(ATOM_LABELS),
        "fock_dim": joint.fock_dim,
        "trace": joint.trace,
        "matrix_re": joint.matrix.real.tolist(),
        "matrix_im": joint.matrix.imag.tolist(),
    }
    return json.dumps(payload, indent=2) + "\n"


def _sample_x_states(count: int) -> TwoQubitDensity:
    """A fixed stack of ``count`` X states spread over the X-state family.

    State k = 1..count takes six coordinates u = k (sqrt 2, sqrt 3, sqrt 5,
    sqrt 7, sqrt 11, sqrt 13) mod 1, a Kronecker sequence that fills the unit
    cube evenly with no generator: populations u1..u4 + 1e-3, normalised,
    a coherence of modulus sqrt(B_egeg B_gege) u5 and phase tau u6.
    """
    steps = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0])
    coords = np.arange(1, count + 1)[:, None] * steps % 1.0
    populations = coords[:, :4] + 1e-3
    populations = populations / populations.sum(axis=1, keepdims=True)
    magnitude = np.sqrt(populations[:, 1] * populations[:, 2]) * coords[:, 4]
    unit = np.exp(1j * math.tau * coords[:, 5])
    return TwoQubitDensity.from_components(*populations.T, magnitude * unit)


def render_validation(cfg: RunConfig) -> str:
    """Worst cross-route discrepancies on the configured system.

    The negativity line scores the fixed 200-state sample of
    :func:`_sample_x_states`, so it does not depend on the config.
    """
    field = cfg.field()
    couplings = cfg.couplings()
    probes = np.linspace(cfg.t_min, cfg.t_max, min(cfg.steps, VALIDATE_PROBES))
    full_err, half_err = checks.field_reconstruction_residuals(field, cfg.node_count())
    lines = {
        "unitarity defect": checks.column_norm_defect(couplings, field.truncation, probes),
        "spectrum vs block diagonalization": checks.spectrum_defect(couplings, field.truncation),
        "reduced density, three routes": checks.route_gap(
            field, cfg.mixture(), couplings, probes, cfg.node_count()
        ),
        "field reconstruction, full period": full_err,
        "field reconstruction, half period": half_err,
        "negativity, closed form vs eigenvalues": checks.negativity_route_gap(
            _sample_x_states(200)
        ),
    }
    return "".join(f"{label}: {value:.3e}\n" for label, value in lines.items())


def _overrides_from_args(args: argparse.Namespace) -> dict[str, object]:
    values = ((key, getattr(args, key, None)) for key in _SCHEMA)
    return {key: value for key, value in values if value is not None}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("config", nargs="?", help="configuration file of 'key = value' lines")
    for key in dataclasses.fields(RunConfig):
        flag = key.metadata["flag"] or "--" + key.name.replace("_", "-")
        parser.add_argument(
            flag, dest=key.name, type=key.metadata["parse"], help=key.metadata["help"]
        )


def _cmd_run(args: argparse.Namespace) -> int:
    overrides = _overrides_from_args(args)
    if args.command == "validate":
        overrides["mode"] = "validate"
    cfg = load_config(args.config, overrides)
    if cfg.mode == "joint":
        _emit(cfg.output_path, render_joint(cfg))
    elif cfg.mode == "validate":
        _emit(cfg.output_path, render_validation(cfg))
    else:
        run_timeseries(cfg)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Load, check and run each config file in order; a failing job fails alone.

    Whatever a job raises, from reading its config to writing its series,
    becomes its entry's error, and its output is "" when the config did
    not load.
    """
    entries = []
    for path in args.configs:
        entry: dict[str, object] = {"config": path, "output": ""}
        try:
            cfg = load_config(path, {})
            entry["output"] = cfg.output_path
            if cfg.mode != "reduced":
                raise ConfigError(f"sweep runs reduced jobs only, {path} has mode {cfg.mode!r}")
            if not cfg.output_path:
                raise ConfigError(f"sweep job {path} must set output_path")
            entry.update(status="ok", **run_timeseries(cfg))
        except Exception as exc:
            entry.update(status="failed", error=str(exc))
        entries.append(entry)
    failed = sum(entry["status"] != "ok" for entry in entries)
    _emit(args.summary, json.dumps({"jobs": entries, "failed": failed}, indent=2) + "\n")
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

    sweep = commands.add_parser("sweep", help="run several configurations in order")
    sweep.add_argument("configs", nargs="+", help="configuration files, one job each")
    sweep.add_argument(
        "--workers", type=int, default=4, help="accepted and ignored; jobs run one after another"
    )
    sweep.add_argument("--summary", help="summary JSON path (default: stdout)")
    sweep.set_defaults(func=_cmd_sweep)

    validate = commands.add_parser(
        "validate", help="cross-check the independent computation routes"
    )
    _add_config_flags(validate)
    validate.set_defaults(func=_cmd_run)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse has printed its usage error or help
        return exc.code
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
