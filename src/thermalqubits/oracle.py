"""Reference dynamics by explicit block diagonalization.

This module rebuilds the physics of :mod:`thermalqubits.closed_form` from
the other end: write down each conserved-excitation block of the resonant
interaction Hamiltonian, diagonalize it numerically, and exponentiate.  It
deliberately shares no formulas with the closed-form path, and it does not
call LAPACK either; the blocks are at most 4x4 and a cyclic Jacobi sweep,
its plane rotations applied in round-robin rounds of disjoint pairs, keeps
the whole chain inspectable.  Agreement between the two routes is then
evidence rather than tautology.  The only code the two share is plumbing:
both solvers read their times through one check and place their own
arrival amplitudes into joint amplitude stacks through one helper, each
with its own photon shifts.

Blocks are labelled by the total excitation count E (atomic excitations
plus photons).  E = 0 is the single state |gg, 0>, E = 1 couples
{|eg, 0>, |ge, 0>, |gg, 1>}, and every E >= 2 couples the four states
{|ee, n>, |eg, n+1>, |ge, n+1>, |gg, n+2>} with n = E - 2.

The small blocks E = 0 and 1 are padded to four states in the layout of
the others, so every block has one shape: |gg, 0> sits at the gg position,
{eg0, ge0, gg1} at the eg, ge and gg positions, and the padding states are
those whose photon count would be negative.  Every coupling carries the
square root of a photon count, clipped at zero, so the padding states stay
uncoupled: their amplitudes remain exact zeros and never reach a joint
vector or the trace.

The work is done on stacks.  :func:`block_table` writes every block
E = 0 .. N+2 as one (N+3, 4, 4) array indexed by E, :func:`jacobi_eigh`
diagonalizes a whole stack with the same rotations it would apply to each
block alone, and the evolution of a (T, K, 4) stack of starts is one array
expression.  Nothing is cached between calls: a caller that evolves many
times builds its table once and keeps it (:func:`numeric_propagator` does,
in its closure), and a caller that needs the same diagonalization for
several measurements makes it once and passes it on
(:func:`oracle_reduced_density` takes it as ``eigen``).
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .closed_form import CouplingPair, _joint_vectors, _time_array
from .fock_thermal import ThermalFieldSpec
from .reduction import AtomicMixtureSpec, TwoQubitDensity

__all__ = [
    "block_table",
    "jacobi_eigh",
    "numeric_propagator",
    "oracle_reduced_density",
    "oracle_reduced_density_bytes",
]

_EXCITATION = {"ee": 2, "eg": 1, "ge": 1, "gg": 0}

# Basis of the block E = n + 2: (atomic label, photons - n), in the row
# order of ATOM_LABELS, so basis position i is arrival row i.
_LAYOUT = (("ee", 0), ("eg", 1), ("ge", 1), ("gg", 2))
_PHOTON = np.array([offset for _, offset in _LAYOUT])
# Position of each start label in the layout.
_POSITION = {label: k for k, (label, _) in enumerate(_LAYOUT)}

# Traced peak bytes per planned entry of the oracle route, rounded up: 34-57 B
# at nbar 0.5-100 with three or seven times.
ENTRY_BYTES = 72


def block_table(couplings: CouplingPair, n_max: int) -> np.ndarray:
    """Hamiltonians of the blocks E = 0 .. n_max + 2 as one stack.

    Entry [E] is the block of |ee, E - 2>, in the basis order ee, eg, ge,
    gg of ATOM_LABELS; the shape is (n_max + 3, 4, 4).  Entries 0 and 1
    are the padded small blocks.
    """
    if n_max < 0 or n_max != int(n_max):
        raise ValueError(f"photon cutoff must be a nonnegative integer, got {n_max}")
    l1, l2 = couplings.lambda1, couplings.lambda2
    n = np.arange(-2, int(n_max) + 1)
    lower = np.sqrt(np.maximum(n + 1.0, 0.0))
    upper = np.sqrt(n + 2.0)
    a = l2 * lower
    b = l1 * lower
    c = l1 * upper
    d = l2 * upper
    h = np.zeros(n.shape + (4, 4))
    h[..., 0, 1] = h[..., 1, 0] = a
    h[..., 0, 2] = h[..., 2, 0] = b
    h[..., 1, 3] = h[..., 3, 1] = c
    h[..., 2, 3] = h[..., 3, 2] = d
    return h


def jacobi_eigh(matrix: np.ndarray):
    """Eigendecomposition of small real symmetric matrices by cyclic Jacobi.

    ``matrix`` is one (s, s) matrix or a (..., s, s) stack of them.  Returns
    (w, v) with eigenvalues ascending along the last axis and
    matrix = v @ diag(w) @ v.T for every block.  A block whose largest
    asymmetry exceeds 1e-13 times its largest entry is refused, whatever
    the units of its entries.  Each sweep zeroes every off-diagonal pair
    (p, q) once, in the round-robin rounds of :func:`_rounds`: the pairs of
    a round share no index, so their plane rotations commute and a round
    applies all of them at once, one pass over the columns and one over
    the rows.  A block stops rotating once its off-diagonal norm, checked
    once per sweep, drops below 1e-14 times its largest entry, a rule that
    does not depend on the units of the entries either (blocks with entries
    far below 1 still rotate to full relative accuracy), and a zero block
    never rotates.  Every block of a stack goes through exactly the
    rotations it would go through alone, so the result is bitwise the same.
    Quadratic convergence makes 60 sweeps a formality for the 4x4 blocks
    this module produces.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"need a square matrix or a stack of them, got shape {a.shape}")
    magnitude = np.abs(a).max(axis=(-2, -1), initial=0.0)
    asymmetry = np.abs(a - a.swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    if np.any(asymmetry > 1e-13 * magnitude):
        raise ValueError("matrix is not symmetric")
    size, stack = a.shape[-1], a.shape[:-2]
    # blocks along the last axis, so each operation below is one pass over
    # the whole stack
    a = np.moveaxis(a.reshape((int(np.prod(stack)), size, size)), 0, -1).copy()
    v = np.broadcast_to(np.eye(size)[..., None], a.shape).copy()
    upper = np.triu_indices(size, 1)
    threshold = 1e-14 * magnitude.reshape(-1)
    rounds = _rounds(size)
    for _ in range(60):
        off = np.zeros(a.shape[-1])
        for p, q in zip(*upper):
            off = off + a[p, q] ** 2
        rotating = np.sqrt(off) > threshold
        if not rotating.any():
            break
        for indices in rounds:
            active = rotating & (a[indices[0], indices[1]] != 0.0)
            if active.any():
                _rotate(a, v, indices, active, upper)
    else:
        raise RuntimeError("Jacobi sweep did not converge")
    w = np.diagonal(a, axis1=0, axis2=1).reshape(stack + (size,))
    v = np.moveaxis(v, -1, 0).reshape(stack + (size, size))
    order = np.argsort(w, axis=-1, kind="stable")
    return (
        np.take_along_axis(w, order, axis=-1),
        np.take_along_axis(v, order[..., None, :], axis=-1),
    )


def _rounds(size: int) -> list[tuple[np.ndarray, ...]]:
    """Every pair p < q of ``size`` indices, in rounds of disjoint pairs.

    The round-robin (circle) schedule: index 0 stays put while the others
    turn one place per round, and each round pairs the line's ends inwards.
    An odd size gets a phantom index, and whichever index the phantom meets
    sits the round out.  That makes size - 1 rounds for an even size and
    size rounds for an odd one.  Each round is the index arrays (p, q, p q,
    q p) that :func:`_rotate` reads: its pairs' p and q, and both joined in
    the two orders.
    """
    ring = list(range(1, size + size % 2))
    rounds = []
    for _ in ring:
        line = [0] + ring
        pairs = sorted(
            (min(x, y), max(x, y))
            for x, y in zip(line[: len(line) // 2], line[::-1])
            if size not in (x, y)
        )
        if pairs:
            p, q = (np.array(side) for side in zip(*pairs))
            rounds.append((p, q, np.concatenate([p, q]), np.concatenate([q, p])))
        ring = ring[1:] + ring[:1]
    return rounds


def _rotate(a: np.ndarray, v: np.ndarray, indices, active: np.ndarray, upper) -> None:
    """Zero a[p, q] of every active block for one round of disjoint pairs,
    in place.

    ``a`` and its eigenvectors ``v`` are (s, s, K) for K blocks;
    ``indices`` is one round of :func:`_rounds`, ``active`` its
    (pairs, K) mask and ``upper`` the strict upper triangle's indices.
    a <- g.T a g and v <- v g, with g the product of the round's plane
    rotations, each holding cos at (p, p) and (q, q), sin at (p, q) and
    -sin at (q, p).  Each pair's diagonal moves by -+ tan a[p, q] and its
    pivot becomes an exact zero; every other entry of its rows and columns
    rotates in the tau = sin / (1 + cos) form, which keeps rounding small,
    columns first and then rows, and the upper triangle is then mirrored
    into the lower so a stays exactly symmetric.  The q half of a rotation
    is the p half with p and q swapped and tan negated, which rounds
    exactly as the q formula does, so each pass is one expression over both
    halves.  Inactive pairs get tan = 0 and are left exactly as they were.
    """
    p, q, pq, qp = indices
    apq, diagonal = a[p, q], a[pq, pq]  # the diagonal's p entries, then its q entries
    theta = (diagonal[len(p) :] - diagonal[: len(p)]) / (2.0 * np.where(active, apq, 1.0))
    root = np.sqrt(theta * theta + 1.0)
    sign = np.where(theta >= 0.0, 1.0, -1.0)
    tan = np.where(active, sign / (np.abs(theta) + root), 0.0)
    tan = np.concatenate([tan, -tan])  # the p halves, then the q halves
    cos = 1.0 / np.sqrt(tan * tan + 1.0)
    sin = tan * cos
    tau = sin / (1.0 + cos)
    pivot = np.where(active, 0.0, apq)
    shifted = diagonal - tan * np.concatenate([apq, apq])
    for m in (a, v):  # columns: m <- m g
        m[:, pq] = _turned(m[:, pq], m[:, qp], sin, tau)
    a[pq] = _turned(a[pq], a[qp], sin[:, None], tau[:, None])  # rows: a <- g.T a
    a[upper[1], upper[0]] = a[upper]
    a[pq, pq] = shifted
    a[pq, qp] = np.concatenate([pivot, pivot])


def _turned(x: np.ndarray, y: np.ndarray, sin: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """x - sin (y + tau x), the tau-form turn of the gathered lines x towards
    their partners y, evaluated in place in the two gathered copies."""
    y += tau * x
    y *= sin
    x -= y
    return x


def _start_amplitudes(w, v, label: str, n_max: int, t) -> np.ndarray:
    """Evolved block amplitudes from |label, n> for n = 0 .. n_max.

    ``w`` and ``v`` diagonalize a :func:`block_table`.  Shape (n_max + 1, 4)
    for a scalar ``t``, (T, n_max + 1, 4) for T times; position i of row n
    sits on arrival ATOM_LABELS[i] with n + _EXCITATION[label] - 2 +
    _PHOTON[i] photons.
    """
    if label not in _EXCITATION:
        raise ValueError(f"unknown atomic start {label!r}")
    blocks = slice(_EXCITATION[label], _EXCITATION[label] + n_max + 1)
    w, v = w[blocks], v[blocks]
    phases = np.exp(-1j * np.multiply.outer(np.asarray(t, dtype=float), w))
    return np.einsum("kim,...km->...ki", v, phases * v[:, _POSITION[label], :])


def numeric_propagator(
    couplings: CouplingPair,
) -> Callable[[np.ndarray, str, np.ndarray], Iterator[np.ndarray]]:
    """Bind the couplings, yielding the diagonalized counterpart of the
    closed-form solver for the mixture engine.

    Like :func:`thermalqubits.closed_form.phase_propagator`, it maps an
    (M, N+1) stack of coefficient rows and a 1-D array of T times to an
    iterator over T (M, 4, N+3) stacks, in time order.  A call evolves
    each block once for all its rows and times and places one time's
    amplitudes at a time with ``_joint_vectors``, at this route's own
    photon shifts.  It also accepts a "ge" start, which the closed-form
    tables refuse.  The blocks are diagonalized on the first call and kept
    in the closure; a later call with more photon levels diagonalizes the
    larger table, and one with fewer reuses the held one.
    """
    eigen = None
    held = -1

    def solver(coefficients: np.ndarray, label: str, times: np.ndarray) -> Iterator[np.ndarray]:
        nonlocal eigen, held
        n_max = np.shape(coefficients)[-1] - 1
        times = _time_array(times)
        if eigen is None or n_max > held:
            eigen, held = jacobi_eigh(block_table(couplings, n_max)), n_max
        amps = _start_amplitudes(*eigen, label, n_max, times)
        shifts = _EXCITATION[label] - 2 + _PHOTON
        return (_joint_vectors(coefficients, table.T, shifts) for table in amps)

    return solver


def oracle_reduced_density(
    spec: ThermalFieldSpec,
    mixture: AtomicMixtureSpec,
    couplings: CouplingPair,
    t: float | np.ndarray,
    *,
    eigen: tuple[np.ndarray, np.ndarray] | None = None,
) -> TwoQubitDensity:
    """Atomic density from a diagonal photon-number mixture, by diagonalization.

    A scalar ``t`` gives one 4x4 density, a 1-D array of T times a
    (T, 4, 4) stack.  Every (label, n) start evolves inside its own block,
    all of them as one (T, N+1, 4) stack per label, and the field trace
    pairs two block positions exactly when their photon offsets agree.
    ``eigen`` is the ``(w, v)`` pair of :func:`jacobi_eigh` on
    ``block_table(couplings, spec.truncation)``, for a caller that already
    holds it; without it the table is built and diagonalized here.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"times must be a scalar or a 1-D array, got shape {times.shape}")
    probs = spec.probabilities()
    if eigen is None:
        eigen = jacobi_eigh(block_table(couplings, spec.truncation))
    same_photons = _PHOTON[:, None] == _PHOTON[None, :]
    block_rho = np.zeros(times.shape + (4, 4), dtype=complex)
    for label, w_label in mixture.weights().items():
        if w_label == 0.0:
            continue
        amps = _start_amplitudes(*eigen, label, spec.truncation, times)
        block_rho += np.einsum("n,...ni,...nj->...ij", w_label * probs, amps, amps.conj())
    return TwoQubitDensity(matrix=np.where(same_photons, block_rho, 0.0))


def oracle_reduced_density_bytes(truncation: int, times: int) -> int:
    """Planned peak of :func:`oracle_reduced_density` at ``times`` times,
    diagonalizing its own table: the (N+3, 4, 4) block table with its
    eigenvectors, and each label's (T, N+1, 4) evolved amplitudes.  The
    fixed cost of a call, about 11 kB, is the caller's to add."""
    return ENTRY_BYTES * (16 * (truncation + 3) + 4 * times * (truncation + 1))
