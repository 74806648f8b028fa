"""Thermal mixtures as phase-state averages on a uniform grid.

A thermal field is diagonal in photon number, but its dynamics is easiest
to drive through pure states.  The bridge is the phase average: the
number-diagonal mixture equals the uniform average of phase states over one
full period.  On a grid of M equally spaced angles the average of
``exp(i d phi)`` vanishes for every difference d that is not a multiple of
M, so once M exceeds every photon-number difference present the grid
average is not an approximation at all; it reproduces the mixture
identically.  Averaging over half a period instead leaves every
odd-difference coherence standing at size 2/(pi d), which is an order-one
error, not a small one; :func:`reconstruct_field_density` can build both so
the failure stays visible.

The engine itself never touches the interaction: evolution is delegated to
a solver obeying :class:`PureStatePropagator`, so the same averaging drives
the closed-form amplitudes, the diagonalized reference, or any partner
system with the same product layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Protocol

import numpy as np

from .closed_form import ATOM_LABELS
from .fock_thermal import ThermalFieldSpec, phase_state_rows
from .reduction import TwoQubitDensity

__all__ = [
    "FieldReconstruction",
    "JointDensity",
    "PureStatePropagator",
    "evolve_mixed",
    "partial_trace_field",
    "quadrature_nodes",
    "reconstruct_field_density",
]


class PureStatePropagator(Protocol):
    """Evolves a stack of phase states against one partner basis state.

    Takes an (M, N+1) stack of field coefficients, row k holding C_0 .. C_N
    of one phase state, the partner's starting basis label and the time;
    returns the (M, P (N+3)) stack of flat joint vectors over
    (partner basis) x (Fock 0 .. N+2), row k evolved from row k.  A 1-D row
    is the M = 1 case and gives one flat vector.  Each row must preserve
    its squared norm to 1e-12 and reduce to the plain embedding at t = 0.
    :func:`thermalqubits.closed_form.phase_propagator` builds one from a
    coupling pair; :func:`thermalqubits.oracle.numeric_propagator` builds
    the independently diagonalized counterpart.
    """

    def __call__(self, coefficients: np.ndarray, label: str, t: float) -> np.ndarray: ...


def quadrature_nodes(count: int) -> list[tuple[float, float]]:
    """``count`` equally spaced angles over [0, 2 pi), each weighted 1/count.

    The left-endpoint grid is the periodic trapezoid rule, exact for any
    trigonometric polynomial of degree below ``count``.
    """
    if count < 1:
        raise ValueError(f"need at least one node, got {count}")
    return [(math.tau * k / count, 1.0 / count) for k in range(count)]


@dataclass(frozen=True, eq=False)
class FieldReconstruction:
    """Grid average of phase-state projectors over the truncated Fock space.

    ``exact`` records whether the grid is fine enough (and the interval a
    full period) for the off-diagonals to cancel identically rather than
    approximately.
    """

    matrix: np.ndarray
    exact: bool
    interval: str
    node_count: int


def reconstruct_field_density(
    spec: ThermalFieldSpec, count: int | None = None, interval: str = "full"
) -> FieldReconstruction:
    """Average the field's phase-state projectors on a uniform grid.

    On the full interval the result is the diagonal photon-number mixture
    up to rounding once ``count`` exceeds the largest coherence the grid
    must cancel; the reported ``exact`` flag uses the 2 N + 3 threshold
    that also covers states evolved out of the truncated field.  On the
    half interval (midpoint grid on [0, pi]) the odd coherences never
    cancel, whatever the count, and the surviving entries are the point.
    """
    if count is None:
        count = 2 * spec.truncation + 3
    if interval == "full":
        nodes = quadrature_nodes(count)
    elif interval == "half":
        if count < 1:
            raise ValueError(f"need at least one node, got {count}")
        nodes = [(math.pi * (k + 0.5) / count, 1.0 / count) for k in range(count)]
    else:
        raise ValueError(f"interval must be 'full' or 'half', got {interval!r}")
    rows = phase_state_rows(spec, np.array([phi for phi, _ in nodes]))
    weights = np.array([w for _, w in nodes])
    matrix = (rows.T * weights) @ rows.conj()
    exact = interval == "full" and count >= 2 * spec.truncation + 3
    return FieldReconstruction(
        matrix=matrix, exact=exact, interval=interval, node_count=count
    )


@dataclass(frozen=True, eq=False)
class JointDensity:
    """Density matrix on (partner basis) x (truncated field).

    Flat index q * fock_dim + f with q running over ``atom_labels`` and f
    over Fock levels.  The trace equals the photon mass retained by the
    truncation, deliberately not renormalized to 1; how much is missing is
    information the caller should keep.
    """

    matrix: np.ndarray
    fock_dim: int
    atom_labels: tuple[str, ...] = ATOM_LABELS

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))


def evolve_mixed(
    solver: PureStatePropagator,
    spec: ThermalFieldSpec,
    partner_mixture: Iterable[tuple[float, str]],
    t: float,
    count: int | None = None,
) -> JointDensity:
    """Joint density at time t from a diagonal partner mixture in the field.

    ``partner_mixture`` lists (weight, starting label) pairs with weights
    summing to one.  The phase states of all grid nodes go to the solver as
    one (M, N+1) stack, so each start with nonzero weight costs one solver
    call, and the projectors are averaged with fixed summation order, so
    repeated runs agree bitwise.  The default grid of 2 truncation + 3
    nodes exceeds every photon-number difference the evolved states can
    hold, making the average exact rather than approximate.
    """
    pairs = [(float(w), label) for w, label in partner_mixture]
    for w, label in pairs:
        if w < 0.0:
            raise ValueError(f"weight of {label!r} is negative: {w}")
    total = math.fsum(w for w, _ in pairs)
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"partner weights must sum to 1, got {total}")
    if count is None:
        count = 2 * spec.truncation + 3
    nodes = quadrature_nodes(count)
    node_weights = np.array([w for _, w in nodes])
    fock_dim = spec.truncation + 3

    rows = phase_state_rows(spec, np.array([phi for phi, _ in nodes]))
    stacks = []
    stack_weights = []
    for w_label, label in pairs:
        if w_label == 0.0:
            continue
        out = np.asarray(solver(rows, label, t), dtype=complex)
        if out.shape[:-1] != (count,) or out.shape[-1] % fock_dim != 0:
            raise ValueError(
                f"solver output shape {out.shape} is not {count} rows, one per "
                f"node, of a multiple of the Fock dimension {fock_dim}"
            )
        stacks.append(out)
        stack_weights.append(w_label * node_weights)
    v = np.concatenate(stacks)
    matrix = (v.T * np.concatenate(stack_weights)) @ v.conj()
    partner_dim = v.shape[1] // fock_dim
    labels = ATOM_LABELS if partner_dim == 4 else tuple(
        str(q) for q in range(partner_dim)
    )
    return JointDensity(matrix=matrix, fock_dim=fock_dim, atom_labels=labels)


def partial_trace_field(rho: JointDensity) -> TwoQubitDensity | np.ndarray:
    """Partner density left after tracing out the field.

    A four-state partner comes back wrapped as a TwoQubitDensity, anything
    else as a bare matrix.
    """
    f = rho.fock_dim
    p = rho.matrix.shape[0] // f
    blocks = rho.matrix.reshape(p, f, p, f)
    traced = np.einsum("afbf->ab", blocks)
    if p == 4:
        return TwoQubitDensity(traced)
    return traced
