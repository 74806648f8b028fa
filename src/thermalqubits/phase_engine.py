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

The engine knows nothing about the partner system: evolution is delegated
to a solver obeying :class:`PureStatePropagator`, so the same averaging
drives the closed-form amplitudes, the diagonalized reference, or any
partner system with the same product layout.  It reads the partner
dimension P and the Fock dimension F off the solver's output and returns
plain arrays; a caller that knows its partner wraps them itself, for two
qubits in :class:`thermalqubits.reduction.TwoQubitDensity`.

Two averages share one node loop.  :func:`evolve_mixed` keeps the whole
joint density at one time, a (P F)^2 matrix.  When only the partner state
is wanted, :func:`mixed_reduced_density` traces out the field from each
evolved chunk of nodes before it is averaged, takes a whole array of
times, and holds one chunk of evolved vectors at a time, never the joint
matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Protocol

import numpy as np

from .fock_thermal import ThermalFieldSpec, phase_state_rows

__all__ = [
    "JointDensity",
    "PureStatePropagator",
    "evolve_mixed",
    "evolve_mixed_bytes",
    "exact_node_count",
    "mixed_reduced_density",
    "mixed_reduced_density_bytes",
    "partial_trace_field",
    "quadrature_nodes",
    "reconstruct_field_density",
    "reconstruct_field_density_bytes",
]


# Joint-vector entries that :func:`mixed_reduced_density` evolves per
# solver call, counted as 4 (N + 3) per node, the two-qubit solvers' width.
# It bounds the working set of one node chunk; the chunk length follows
# from the truncation and never changes the result beyond rounding.
NODE_CHUNK_ENTRIES = 2**20


def node_chunk_length(truncation: int) -> int:
    """Phase-grid nodes per solver call of :func:`mixed_reduced_density`."""
    return max(1, NODE_CHUNK_ENTRIES // (4 * (truncation + 3)))


# Memory plans.  Each counts the arrays of one call from the solver's entries
# per node, ``width`` (P F), and the grid size, N + 1 nodes unless ``count``
# is given, at a traced peak per entry rounded up; the fixed cost of a call,
# up to about 8 kB, is the caller's to add.  evolve_mixed holds its
# whole-grid stack, the weighted transpose and the conjugate (48.1-48.6 B
# per evolved entry at 1,000-20,000 nodes); mixed_reduced_density one node
# chunk (40-61 B per evolved entry at nbar 0.5-100); and
# reconstruct_field_density the phase-state rows, conjugated in place, and
# their average (24-39 B per entry at nbar 0.5-50 and up to 5,000 nodes).
STACK_ENTRY_BYTES = 56
CHUNK_ENTRY_BYTES = 72
FIELD_ENTRY_BYTES = 48


def evolve_mixed_bytes(truncation: int, width: int, starts: int, count: int | None = None) -> int:
    """Planned peak of :func:`evolve_mixed` for ``starts`` start labels,
    besides the (width x width) matrix it returns."""
    count = exact_node_count(truncation) if count is None else count
    return STACK_ENTRY_BYTES * starts * count * width


def mixed_reduced_density_bytes(truncation: int, width: int, count: int | None = None) -> int:
    """Planned peak of :func:`mixed_reduced_density`: one node chunk."""
    count = exact_node_count(truncation) if count is None else count
    return CHUNK_ENTRY_BYTES * min(count, node_chunk_length(truncation)) * width


def reconstruct_field_density_bytes(truncation: int, count: int | None = None) -> int:
    """Planned peak of :func:`reconstruct_field_density`: the phase-state
    rows and the average, N + 1 columns each."""
    count = exact_node_count(truncation) if count is None else count
    return FIELD_ENTRY_BYTES * (truncation + 1) * (count + truncation + 1)


class PureStatePropagator(Protocol):
    """Evolves a stack of phase states against one partner basis state.

    Takes an (M, N+1) stack of field coefficients, row k holding C_0 .. C_N
    of one phase state, the partner's starting basis label and the time;
    returns the (M, P, F) stack of amplitudes over P partner basis states
    and the F Fock levels the solver needs, entry k evolved from row k.  A
    1-D row is the M = 1 case and gives one (P, F) array.  Each row must
    preserve its squared norm to 1e-12 and reduce to the plain embedding at
    t = 0.  :func:`thermalqubits.closed_form.phase_propagator` builds one
    from a coupling pair, with P = 4 and F = N+3;
    :func:`thermalqubits.oracle.numeric_propagator` builds the independently
    diagonalized counterpart.
    """

    def __call__(self, coefficients: np.ndarray, label: str, t: float) -> np.ndarray: ...


def exact_node_count(truncation: int) -> int:
    """Default grid size, N + 1 nodes, the exact threshold.

    The phase enters only through the field levels 0 .. N and the solver is
    linear, so a full-period average of the field, or of states evolved out
    of it, is exact from N + 1 nodes on; a grid of N nodes or fewer aliases
    the coherences of difference N and shows its error.
    """
    return truncation + 1


def quadrature_nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` equally spaced angles over [0, 2 pi), each weighted 1/count.

    Returns the (angles, weights) arrays.  The left-endpoint grid is the
    periodic trapezoid rule, exact for any trigonometric polynomial of
    degree below ``count``.
    """
    if count < 1:
        raise ValueError(f"need at least one node, got {count}")
    return math.tau * np.arange(count) / count, np.full(count, 1.0 / count)


def reconstruct_field_density(
    spec: ThermalFieldSpec, count: int | None = None, interval: str = "full"
) -> np.ndarray:
    """Average the field's phase-state projectors on a uniform grid.

    Returns the (N+1, N+1) average.  On the full interval it is the
    diagonal photon-number mixture up to rounding once ``count`` reaches
    :func:`exact_node_count`, the default.  On the half interval (midpoint
    grid on [0, pi]) the odd coherences never cancel, whatever the count,
    and the surviving entries are the point.
    """
    if interval not in ("full", "half"):
        raise ValueError(f"interval must be 'full' or 'half', got {interval!r}")
    if count is None:
        count = exact_node_count(spec.truncation)
    phis, weights = quadrature_nodes(count)
    if interval == "half":
        phis = math.pi * (np.arange(count) + 0.5) / count
    rows = phase_state_rows(spec, phis)
    # the weighted copy is taken before the rows are conjugated in place
    return (rows.T * weights) @ np.conjugate(rows, out=rows)


@dataclass(frozen=True, eq=False)
class JointDensity:
    """Density matrix on (partner basis) x (truncated field).

    Flat index q * fock_dim + f with q running over the solver's P partner
    basis states, in its order, and f over Fock levels.  The trace equals
    the photon mass retained by the truncation, deliberately not
    renormalized to 1; how much is missing is information the caller
    should keep.
    """

    matrix: np.ndarray
    fock_dim: int

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
    pairs: list[tuple[float, str]],
    times: list[float],
    count: int,
    chunk: int,
):
    """Evolve the grid's phase states, ``chunk`` nodes at a time.

    ``pairs`` are the checked starts of :func:`_weighted_starts`.  Yields
    (time index, weights, evolved stack) for every node chunk, start label
    and time, in that nesting order.  The phase-state rows of a chunk are
    built once and go to the solver as one stack; ``weights`` are the
    chunk's node weights times the label weight, one per entry of the
    (K, P, F) evolved stack.
    """
    phis, node_weights = quadrature_nodes(count)
    for first in range(0, count, chunk):
        rows = phase_state_rows(spec, phis[first : first + chunk])
        weights = node_weights[first : first + chunk]
        for w_label, label in pairs:
            for k, t in enumerate(times):
                out = np.asarray(solver(rows, label, t), dtype=complex)
                if out.ndim != 3 or len(out) != len(rows):
                    raise ValueError(
                        f"solver output shape {out.shape} is not a (P, F) amplitude "
                        f"stack with one entry per node, {len(rows)} in all"
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
    summation order, so repeated runs agree bitwise.  Any grid of more than
    N nodes makes the average exact rather than approximate; the default
    is :func:`exact_node_count`.  The partner dimension P and the Fock
    dimension F are the solver's.  For the partner state alone,
    :func:`mixed_reduced_density` traces out the field before averaging and
    never builds this matrix.
    """
    if count is None:
        count = exact_node_count(spec.truncation)
    pairs = _weighted_starts(partner_mixture)
    # one whole-grid stack per start label, copied into place as it arrives
    for j, (_, w_nodes, out) in enumerate(
        _evolved_nodes(solver, spec, pairs, [t], count, count)
    ):
        if j == 0:  # the solver's output fixes P and F
            v = np.empty((len(pairs), count) + out.shape[1:], dtype=complex)
            weights = np.empty((len(pairs), count))
        v[j], weights[j] = out, w_nodes
    del out  # the last label's stack, already copied
    fock_dim = v.shape[-1]
    v = v.reshape(len(pairs) * count, -1)
    return JointDensity(matrix=(v.T * weights.ravel()) @ v.conj(), fock_dim=fock_dim)


def mixed_reduced_density(
    solver: PureStatePropagator,
    spec: ThermalFieldSpec,
    partner_mixture: Iterable[tuple[float, str]],
    times: float | np.ndarray,
    count: int | None = None,
) -> np.ndarray:
    """Partner density at each time, with the field traced out before the
    grid average.

    The same average as ``partial_trace_field(evolve_mixed(...))``, but each
    evolved stack is reduced on arrival: a chunk of K nodes forms every
    node's P x P trace Tr_F |v_k><v_k| in one batched (K, P, F) @ (K, F, P)
    product, scales it by its weight w_k and sums the K traces pairwise, so
    no joint matrix is ever formed.  Nodes go to the solver in chunks of
    about NODE_CHUNK_ENTRIES joint-vector entries, one call per chunk, start
    label and time, and the chunk sums are added with one rounding per
    entry, so the chunk length moves the result by rounding inside a chunk
    only.  The average stays explicit and weighted, so a grid of N nodes or
    fewer shows its error here as it does in the joint density.

    A scalar time gives one (P, P) density, a 1-D array of T times a
    (T, P, P) stack.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim > 1 or times.size == 0:
        raise ValueError(f"need a time or a 1-D array of times, got shape {times.shape}")
    if count is None:
        count = exact_node_count(spec.truncation)
    pairs = _weighted_starts(partner_mixture)
    chunk = node_chunk_length(spec.truncation)
    flat = np.atleast_1d(times).tolist()
    terms: list[list[np.ndarray]] = [[] for _ in flat]
    for k, weights, v in _evolved_nodes(solver, spec, pairs, flat, count, chunk):
        per_node = np.matmul(v, v.conj().transpose(0, 2, 1)) * weights[:, None, None]
        # nodes along the contiguous axis, so numpy sums them pairwise
        by_entry = np.ascontiguousarray(per_node.reshape(len(v), -1).T)
        terms[k].append(by_entry.sum(axis=1).reshape(per_node.shape[1:]))
    rho = np.array([_exact_sum(np.array(chunks)) for chunks in terms])
    return rho[0] if times.ndim == 0 else rho


def _exact_sum(stack: np.ndarray) -> np.ndarray:
    """Sum of a (C, ...) complex stack over its first axis, each entry
    rounded once, so the order in which the chunks arrive does not matter."""
    columns = stack.reshape(len(stack), -1).T
    sums = [complex(math.fsum(c.real), math.fsum(c.imag)) for c in columns]
    return np.array(sums).reshape(stack.shape[1:])


def partial_trace_field(rho: JointDensity) -> np.ndarray:
    """The (P, P) partner density left after tracing out the field."""
    f = rho.fock_dim
    p = rho.matrix.shape[0] // f
    return np.einsum("afbf->ab", rho.matrix.reshape(p, f, p, f))
