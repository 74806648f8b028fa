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

Two averages share one node loop.  :func:`evolve_mixed` keeps the whole
joint density at one time, a (P (N+3))^2 matrix.  When only the partner
state is wanted, :func:`mixed_reduced_density` traces out the field from
each evolved chunk of nodes before it is averaged, takes a whole array of
times, and holds one chunk of evolved vectors at a time, never the joint
matrix.
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
    "exact_node_count",
    "mixed_reduced_density",
    "node_chunk_length",
    "partial_trace_field",
    "quadrature_nodes",
    "reconstruct_field_density",
]


# Joint-vector entries (nodes x four partner states x Fock levels) that
# :func:`mixed_reduced_density` evolves per solver call.  It bounds the
# working set of one node chunk; the chunk length follows from the
# truncation and never changes the result beyond rounding.
NODE_CHUNK_ENTRIES = 2**20


def node_chunk_length(truncation: int) -> int:
    """Phase-grid nodes per solver call of :func:`mixed_reduced_density`."""
    return max(1, NODE_CHUNK_ENTRIES // (4 * (truncation + 3)))


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


def exact_node_count(truncation: int) -> int:
    """Default grid size, 2 N + 3 nodes, on which the phase average is exact.

    It exceeds every photon-number difference that states evolved out of
    the truncated field can hold, Fock levels 0 .. N + 2.
    """
    return 2 * truncation + 3


def quadrature_nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` equally spaced angles over [0, 2 pi), each weighted 1/count.

    Returns the (angles, weights) arrays.  The left-endpoint grid is the
    periodic trapezoid rule, exact for any trigonometric polynomial of
    degree below ``count``.
    """
    if count < 1:
        raise ValueError(f"need at least one node, got {count}")
    return math.tau * np.arange(count) / count, np.full(count, 1.0 / count)


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
    must cancel; the reported ``exact`` flag uses the threshold of
    :func:`exact_node_count`, which also covers states evolved out of the
    truncated field.  On the half interval (midpoint grid on [0, pi]) the
    odd coherences never cancel, whatever the count, and the surviving
    entries are the point.
    """
    if interval not in ("full", "half"):
        raise ValueError(f"interval must be 'full' or 'half', got {interval!r}")
    exact_count = exact_node_count(spec.truncation)
    if count is None:
        count = exact_count
    phis, weights = quadrature_nodes(count)
    if interval == "half":
        phis = math.pi * (np.arange(count) + 0.5) / count
    rows = phase_state_rows(spec, phis)
    matrix = (rows.T * weights) @ rows.conj()
    exact = interval == "full" and count >= exact_count
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


def _weighted_starts(partner_mixture: Iterable[tuple[float, str]]) -> list[tuple[float, str]]:
    """The (weight, label) pairs with nonzero weight, after checking that the
    weights form a distribution."""
    pairs = [(float(w), label) for w, label in partner_mixture]
    for w, label in pairs:
        if w < 0.0:
            raise ValueError(f"weight of {label!r} is negative: {w}")
    total = math.fsum(w for w, _ in pairs)
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"partner weights must sum to 1, got {total}")
    return [(w, label) for w, label in pairs if w != 0.0]


def _evolved_nodes(
    solver: PureStatePropagator,
    spec: ThermalFieldSpec,
    partner_mixture: Iterable[tuple[float, str]],
    times: Iterable[float],
    count: int,
    chunk: int,
):
    """Evolve the grid's phase states, ``chunk`` nodes at a time.

    Yields (time index, weights, evolved stack) for every node chunk,
    weighted start label and time, in that nesting order.  The phase-state
    rows of a chunk are built once and go to the solver as one stack;
    ``weights`` are the chunk's node weights times the label weight, one
    per row of the (K, P (N+3)) evolved stack.
    """
    pairs = _weighted_starts(partner_mixture)
    times = list(times)
    phis, node_weights = quadrature_nodes(count)
    fock_dim = spec.truncation + 3
    for first in range(0, count, chunk):
        rows = phase_state_rows(spec, phis[first : first + chunk])
        weights = node_weights[first : first + chunk]
        for w_label, label in pairs:
            for k, t in enumerate(times):
                out = np.asarray(solver(rows, label, t), dtype=complex)
                if out.shape[:-1] != (len(rows),) or out.shape[-1] % fock_dim != 0:
                    raise ValueError(
                        f"solver output shape {out.shape} is not {len(rows)} rows, one "
                        f"per node, of a multiple of the Fock dimension {fock_dim}"
                    )
                yield k, w_label * weights, out


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
    call, and the projectors are averaged in one product with fixed
    summation order, so repeated runs agree bitwise.  The default grid of
    :func:`exact_node_count` nodes exceeds every photon-number difference
    the evolved states can hold, making the average exact rather than
    approximate.  For the partner state alone, :func:`mixed_reduced_density`
    traces out the field before averaging and never builds this matrix.
    """
    if count is None:
        count = exact_node_count(spec.truncation)
    evolved = list(_evolved_nodes(solver, spec, partner_mixture, [t], count, count))
    v = np.concatenate([out for _, _, out in evolved])
    matrix = (v.T * np.concatenate([w for _, w, _ in evolved])) @ v.conj()
    fock_dim = spec.truncation + 3
    partner_dim = v.shape[1] // fock_dim
    labels = ATOM_LABELS if partner_dim == 4 else tuple(
        str(q) for q in range(partner_dim)
    )
    return JointDensity(matrix=matrix, fock_dim=fock_dim, atom_labels=labels)


def mixed_reduced_density(
    solver: PureStatePropagator,
    spec: ThermalFieldSpec,
    partner_mixture: Iterable[tuple[float, str]],
    times: float | np.ndarray,
    count: int | None = None,
) -> TwoQubitDensity | np.ndarray:
    """Partner density at each time, with the field traced out before the
    grid average.

    The same average as ``partial_trace_field(evolve_mixed(...))``, but each
    evolved stack is reduced on arrival: a chunk of K nodes adds
    sum_k w_k Tr_F |v_k><v_k| as one (P, K F) @ (K F, P) product, so no
    joint matrix is ever formed.  Nodes go to the solver in chunks of about
    NODE_CHUNK_ENTRIES joint-vector entries, one call per chunk, start label
    and time, and the chunk sums are added with one rounding per entry, so
    the chunk length moves the result by rounding inside a chunk only.  The
    average stays explicit and weighted, so a grid coarser than 2 N + 3
    nodes shows its error here as it does in the joint density.

    A scalar time gives one P x P density, a 1-D array of T times a stack
    of T.  A four-state partner comes back as a TwoQubitDensity, anything
    else as a bare array.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim > 1 or times.size == 0:
        raise ValueError(f"need a time or a 1-D array of times, got shape {times.shape}")
    if count is None:
        count = exact_node_count(spec.truncation)
    fock_dim = spec.truncation + 3
    chunk = node_chunk_length(spec.truncation)
    flat = np.atleast_1d(times).tolist()
    terms: list[list[np.ndarray]] = [[] for _ in flat]
    for k, weights, v in _evolved_nodes(solver, spec, partner_mixture, flat, count, chunk):
        x = v.reshape(len(weights), -1, fock_dim).transpose(1, 0, 2)
        x = x.reshape(x.shape[0], -1)
        terms[k].append((x * np.repeat(weights, fock_dim)) @ x.conj().T)
    rho = np.array([_exact_sum(np.array(chunks)) for chunks in terms])
    if times.ndim == 0:
        rho = rho[0]
    return TwoQubitDensity(rho) if rho.shape[-1] == 4 else rho


def _exact_sum(stack: np.ndarray) -> np.ndarray:
    """Sum of a (C, ...) complex stack over its first axis, each entry
    rounded once, so the order in which the chunks arrive does not matter."""
    columns = stack.reshape(len(stack), -1).T
    sums = [complex(math.fsum(c.real), math.fsum(c.imag)) for c in columns]
    return np.array(sums).reshape(stack.shape[1:])


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
