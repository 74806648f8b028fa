"""Cross-route measurements, each defined once.

Every function here drives two or three formula-disjoint routes on the
same input and returns the largest disagreement it saw, as a float.  The
``validate`` subcommand and the acceptance tests both call these, each on
its own grid and against its own threshold; neither re-derives a measured
number.  The routes themselves stay apart: this module only puts their
outputs side by side.  Each route takes the whole time array, block
table or density stack in one call, so a check costs one call per route,
not one per time point, block or state.  Maxima are numpy's, so a NaN
anywhere reads as NaN, never as the largest finite gap beside it.
"""

from __future__ import annotations

import numpy as np

from .closed_form import CouplingPair, amplitude_table, block_spectrum, phase_propagator
from .entanglement import closed_form_negativity, negativity
from .fock_thermal import ThermalFieldSpec
from .oracle import block_table, oracle_reduced_density
from .phase_engine import mixed_reduced_density, reconstruct_field_density
from .reduction import AtomicMixtureSpec, TwoQubitDensity, reduced_density

__all__ = [
    "column_norm_defect",
    "field_reconstruction_residuals",
    "negativity_route_gap",
    "route_gap",
    "spectrum_defect",
]


def _require_times(times) -> None:
    """Refuse an empty time array, whose maximum gap would be undefined."""
    if np.size(times) == 0:
        raise ValueError("a check needs at least one time, got an empty time array")


def column_norm_defect(
    couplings: CouplingPair, n_max: int, times: float | np.ndarray
) -> float:
    """Largest | ||column||^2 - 1 | of the ee, eg and gg amplitude tables.

    Every column of an amplitude table is the evolved image of one basis
    state, so unitarity makes it a unit vector at every time.
    """
    _require_times(times)
    worst = []
    for label in ("ee", "eg", "gg"):
        table = amplitude_table(label, n_max, times, couplings)
        norms = np.sum(np.abs(table) ** 2, axis=0)
        worst.append(np.abs(norms - 1.0).max())
    return float(np.max(worst))


def spectrum_defect(couplings: CouplingPair, n_max: int) -> float:
    """Largest gap between the closed-form frequencies +-Omega_plus,
    +-Omega_minus of blocks 0 .. n_max and the eigenvalues of the same
    blocks built entry by entry.

    The blocks E = 2 .. n_max + 2 of one :func:`block_table` go to numpy's
    ``eigvalsh`` as one stack, and the closed-form frequencies of all of
    them come from one spectrum array call.
    """
    w = np.linalg.eigvalsh(block_table(couplings, n_max)[2:])
    *_, omega_plus_sq, omega_minus_sq = block_spectrum(np.arange(n_max + 1), couplings)
    op, om = np.sqrt(omega_plus_sq), np.sqrt(omega_minus_sq)
    reference = np.sort(np.stack([-op, -om, om, op], axis=-1), axis=-1)
    return float(np.abs(w - reference).max())


def route_gap(
    spec: ThermalFieldSpec,
    mixture: AtomicMixtureSpec,
    couplings: CouplingPair,
    times: float | np.ndarray,
    count: int | None = None,
) -> float:
    """Largest pairwise entry gap of the three reduced-density routes.

    The routes are the closed-form reduction, the phase-state average
    traced over the field (on ``count`` nodes, None for the default grid)
    and the diagonalized oracle.  ``times`` is one time or a 1-D array of
    them; the result is the maximum over all of them.
    """
    _require_times(times)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    closed = reduced_density(spec, mixture, couplings, times).matrix
    solver = phase_propagator(couplings)
    quad = mixed_reduced_density(solver, spec, mixture.weights(), times, count)
    direct = oracle_reduced_density(spec, mixture, couplings, times).matrix
    gaps = (closed - quad, closed - direct, quad - direct)
    return float(np.max([np.abs(gap).max() for gap in gaps]))


def field_reconstruction_residuals(
    spec: ThermalFieldSpec, count: int | None = None
) -> tuple[float, float]:
    """Largest entry of the phase-grid average minus the thermal diagonal,
    over the full period and over the half period.

    The full-period residual is rounding once the grid is exact; the
    half-period one is the odd coherences the half grid cannot cancel,
    order one by design.
    """
    probabilities = spec.probabilities()

    def residual(interval: str) -> float:
        average = reconstruct_field_density(spec, count, interval)
        average[np.diag_indices_from(average)] -= probabilities
        return float(np.abs(average).max())

    return residual("full"), residual("half")


def negativity_route_gap(densities: TwoQubitDensity) -> float:
    """Largest gap between the eigenvalue negativity and the X-state closed form.

    ``densities`` is a TwoQubitDensity stack; both routes score the whole
    stack in one call each.
    """
    if densities.matrix.size == 0:
        raise ValueError("a check needs at least one density, got an empty stack")
    gaps = np.abs(negativity(densities).xi - closed_form_negativity(densities))
    return float(np.max(gaps))
