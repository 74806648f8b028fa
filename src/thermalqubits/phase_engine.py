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
partner system with the same product layout.  The partner starts in a
diagonal mixture, given as a mapping from each basis label to its weight
(:meth:`thermalqubits.reduction.AtomicMixtureSpec.weights` for two
qubits).  The engine reads the partner dimension P and the Fock
dimension F off the solver's output and returns plain arrays; a caller
that knows its partner wraps them itself, for two qubits in
:class:`thermalqubits.reduction.TwoQubitDensity`.

Both averages run through one node loop.  It walks the grid in chunks
sized in the N + 1 phase-state coefficients of a node, so every partner
gets the same nodes per solver call, builds each chunk only when it
reaches it, and makes one solver call per chunk and start label for all
the times.  Each evolved stack is reduced on arrival and added into its
time's sum in grid order, so the loop holds one chunk at a time.
:func:`evolve_mixed` keeps the whole joint density, a (P F)^2 matrix, at
one time; :func:`mixed_reduced_density` traces out the field from each
stack first, takes an array of times and never forms the joint matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Protocol

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


# Phase-state coefficients that the node loop builds per solver call,
# nodes x (N + 1).  It bounds the working set of one node chunk; the chunk
# length never changes the result beyond rounding.
NODE_CHUNK_ENTRIES = 2**18


def node_chunk_length(truncation: int) -> int:
    """Phase-grid nodes per solver call, at N + 1 phase-state coefficients
    per node."""
    return max(1, NODE_CHUNK_ENTRIES // (truncation + 1))


# Memory plans.  Each counts the arrays of one call from the solver's entries
# per node, ``width`` (P F), and the grid size, N + 1 nodes unless ``count``
# is given, at a traced peak per entry rounded up; the fixed cost of a call,
# up to about 8 kB, is the caller's to add.  evolve_mixed holds one node
# chunk, its stack conjugated in place and the weighted transpose (36-45 B
# per evolved entry at nbar 0.5-15 and 21-20,000 nodes), beside the
# (P F)^2 complex sum it returns and one start label's product (32 B per
# entry); mixed_reduced_density one node chunk (41-71 B per evolved entry
# at nbar 0.5-100 and 7 times) beside the tables a solver call keeps for
# all its times (22-40 B per time and width entry for the closed-form
# solver and 44-53 B for the diagonalized one, from the growth of the peak
# between 200 and 1,000 times at nbar 0.5-20); and
# reconstruct_field_density the phase-state rows, conjugated in place, and
# their average (24-39 B per entry at nbar 0.5-50 and up to 5,000 nodes).
STACK_ENTRY_BYTES = 48
MATRIX_ENTRY_BYTES = 32
CHUNK_ENTRY_BYTES = 72
TIME_ENTRY_BYTES = 56
FIELD_ENTRY_BYTES = 48


def evolve_mixed_bytes(truncation: int, width: int, count: int | None = None) -> int:
    """Planned peak of :func:`evolve_mixed`: one node chunk of evolved
    vectors, the (width x width) sum it returns and one label's product."""
    count = exact_node_count(truncation) if count is None else count
    chunk = min(count, node_chunk_length(truncation))
    return STACK_ENTRY_BYTES * chunk * width + MATRIX_ENTRY_BYTES * width * width


def mixed_reduced_density_bytes(
    truncation: int, width: int, times: int, count: int | None = None
) -> int:
    """Planned peak of :func:`mixed_reduced_density` at ``times`` times:
    one node chunk and the solver's tables for all the times of one call."""
    count = exact_node_count(truncation) if count is None else count
    chunk = min(count, node_chunk_length(truncation))
    return (CHUNK_ENTRY_BYTES * chunk + TIME_ENTRY_BYTES * times) * width


def reconstruct_field_density_bytes(truncation: int, count: int | None = None) -> int:
    """Planned peak of :func:`reconstruct_field_density`: the phase-state
    rows and the average, N + 1 columns each."""
    count = exact_node_count(truncation) if count is None else count
    return FIELD_ENTRY_BYTES * (truncation + 1) * (count + truncation + 1)


class PureStatePropagator(Protocol):
    """Evolves a stack of phase states against one partner basis state.

    Takes an (M, N+1) stack of field coefficients, row k holding C_0 .. C_N
    of one phase state, the partner's starting basis label and a 1-D array
    of T times; returns an iterator over T (M, P, F) stacks of amplitudes,
    one per time in the order given, over P partner basis states and the F
    Fock levels the solver needs, entry k evolved from row k.  A 1-D row is
    the M = 1 case and gives (P, F) arrays.  A solver does its per-call
    work once for all T times and builds each time's stack only when it is
    asked for, so a caller that reduces each stack on arrival holds one at
    a time.  Each stack is fresh and writable, the caller's to overwrite
    (:func:`evolve_mixed` conjugates it in place).
    Each row must preserve its squared norm to 1e-12 and reduce to the
    plain embedding at t = 0.
    :func:`thermalqubits.closed_form.phase_propagator` builds one from a
    coupling pair, with P = 4 and F = N+3;
    :func:`thermalqubits.oracle.numeric_propagator` builds the
    independently diagonalized counterpart.
    """

    def __call__(
        self, coefficients: np.ndarray, label: str, times: np.ndarray
    ) -> Iterator[np.ndarray]: ...


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
    return next(_node_chunks(count, count))


def _node_chunks(count: int, chunk: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The :func:`quadrature_nodes` grid in pieces of up to ``chunk`` nodes,
    each built only when reached, so a walk never holds the whole grid."""
    if count < 1:
        raise ValueError(f"need at least one node, got {count}")
    for first in range(0, count, chunk):
        stop = min(first + chunk, count)
        yield math.tau * np.arange(first, stop) / count, np.full(stop - first, 1.0 / count)


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
    return _projector_average(phase_state_rows(spec, phis), weights)


def _projector_average(v: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sum of w_k v_k v_k^H over the entries v_k of ``v``, each flattened
    to one row.  The weighted copy is taken before ``v`` is conjugated in
    place, so ``v`` is spent."""
    v = v.reshape(len(v), -1)
    return (v.T * weights) @ np.conjugate(v, out=v)


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


def _weighted_starts(partner_mixture: Mapping[str, float]) -> dict[str, float]:
    """The label -> weight entries with nonzero weight, in the mapping's
    order, after checking that the weights form a distribution."""
    starts = {label: float(w) for label, w in partner_mixture.items()}
    for label, w in starts.items():
        if w < 0.0:
            raise ValueError(f"weight of {label!r} is negative: {w}")
    total = math.fsum(starts.values())
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"partner weights must sum to 1, got {total}")
    return {label: w for label, w in starts.items() if w != 0.0}


def _grid_sums(
    solver: PureStatePropagator,
    spec: ThermalFieldSpec,
    partner_mixture: Mapping[str, float],
    times: np.ndarray,
    count: int | None,
    reduce: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[list[np.ndarray], int]:
    """Sum ``reduce(stack, weights)`` over the grid, one sum per time.

    Checks the label -> weight mapping of starts, then walks ``count``
    nodes (:func:`exact_node_count` by default) in chunks of
    :func:`node_chunk_length`, with one solver call per chunk and start
    label, in the mapping's order, for all ``times``.  Each evolved
    (K, P, F) stack is checked, reduced with the chunk's node weights times
    the label weight, and added into its time's sum in grid order.  Returns
    the T sums and the solver's F.
    """
    count = exact_node_count(spec.truncation) if count is None else count
    starts = _weighted_starts(partner_mixture)
    sums = [0] * len(times)  # each an array from its first term on, then added in place
    for phis, node_weights in _node_chunks(count, node_chunk_length(spec.truncation)):
        rows = phase_state_rows(spec, phis)
        for label, w_label in starts.items():
            weights = w_label * node_weights
            k = -1
            for k, out in enumerate(solver(rows, label, times)):
                out = np.asarray(out, dtype=complex)
                if out.ndim != 3 or len(out) != len(rows) or k >= len(times):
                    raise ValueError(
                        f"solver output {k} of shape {out.shape} is not a (P, F) amplitude "
                        f"stack with one entry per node, {len(rows)} in all, for one of "
                        f"{len(times)} times"
                    )
                sums[k] += reduce(out, weights)
            if k + 1 != len(times):
                raise ValueError(f"solver gave {k + 1} stacks for {len(times)} times")
    return sums, out.shape[-1]


def _traced_average(v: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sum of w_k Tr_F |v_k><v_k| over the (P, F) entries v_k of ``v``:
    every node's P x P trace in one batched (K, P, F) @ (K, F, P) product,
    scaled by its weight and summed pairwise over the K nodes."""
    per_node = np.matmul(v, v.conj().transpose(0, 2, 1)) * weights[:, None, None]
    # nodes along the contiguous axis, so numpy sums them pairwise
    by_entry = np.ascontiguousarray(per_node.reshape(len(v), -1).T)
    return by_entry.sum(axis=1).reshape(per_node.shape[1:])


def evolve_mixed(
    solver: PureStatePropagator,
    spec: ThermalFieldSpec,
    partner_mixture: Mapping[str, float],
    t: float,
    count: int | None = None,
) -> JointDensity:
    """Joint density at time t from a diagonal partner mixture in the field.

    ``partner_mixture`` maps each starting label to its weight, the
    weights summing to one, as
    :meth:`thermalqubits.reduction.AtomicMixtureSpec.weights` returns
    them, and ``t`` is one time; an array of times is refused.  The phase
    states of a node chunk go to the solver as one (K, N+1) stack with the
    one-time array [t], so each start with nonzero weight costs one solver
    call per chunk, in the mapping's order; each call's projectors
    are averaged in one product and the products are added in grid order,
    so repeated runs agree bitwise and the chunk length moves the result
    by rounding only.  Any grid of more than N nodes makes the average
    exact rather than approximate; the default is :func:`exact_node_count`.
    The partner dimension P and the Fock dimension F are the solver's.
    For the partner state alone, :func:`mixed_reduced_density` traces out
    the field before averaging and never builds this matrix.
    """
    if np.ndim(t) != 0:
        raise ValueError(f"evolve_mixed takes one time, got an array of shape {np.shape(t)}")
    (matrix,), fock_dim = _grid_sums(
        solver, spec, partner_mixture, np.array([t], dtype=float), count, _projector_average
    )
    return JointDensity(matrix=matrix, fock_dim=fock_dim)


def mixed_reduced_density(
    solver: PureStatePropagator,
    spec: ThermalFieldSpec,
    partner_mixture: Mapping[str, float],
    times: float | np.ndarray,
    count: int | None = None,
) -> np.ndarray:
    """Partner density at each time, with the field traced out before the
    grid average.

    The same average as ``partial_trace_field(evolve_mixed(...))``, over
    the same node chunks, but each evolved stack is reduced on arrival to
    the weighted sum of its nodes' P x P traces Tr_F |v_k><v_k|, so no
    joint matrix is ever formed, and one solver call per chunk and start
    label serves all the times.  The average stays explicit and weighted,
    so a grid of N nodes or fewer shows its error here as it does in the
    joint density.

    ``partner_mixture`` is the label -> weight mapping
    :func:`evolve_mixed` takes.  A scalar time gives one (P, P) density, a
    1-D array of T times a (T, P, P) stack.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim > 1 or times.size == 0:
        raise ValueError(f"need a time or a 1-D array of times, got shape {times.shape}")
    sums, _ = _grid_sums(
        solver, spec, partner_mixture, np.atleast_1d(times), count, _traced_average
    )
    return sums[0] if times.ndim == 0 else np.array(sums)


def partial_trace_field(rho: JointDensity) -> np.ndarray:
    """The (P, P) partner density left after tracing out the field."""
    f = rho.fock_dim
    p = rho.matrix.shape[0] // f
    return np.einsum("afbf->ab", rho.matrix.reshape(p, f, p, f))
