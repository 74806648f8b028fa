"""Reference dynamics by explicit block diagonalization.

This module rebuilds the physics of :mod:`thermalqubits.closed_form` from
the other end: write down each conserved-excitation block of the resonant
interaction Hamiltonian, diagonalize it numerically, and exponentiate.  It
deliberately shares no formulas with the closed-form path, and it does not
call LAPACK either; the blocks are at most 4x4 and a plain cyclic Jacobi
sweep keeps the whole chain inspectable.  Agreement between the two routes
is then evidence rather than tautology.  The only code the two share is
plumbing: both solvers place their own arrival amplitudes into joint
amplitude stacks through one helper, each with its own photon shifts.

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

from typing import Callable

import numpy as np

from .closed_form import CouplingPair, _joint_vectors
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
    (p, q) once with a plane rotation that touches rows and columns p and
    q only.  A block stops rotating once its off-diagonal norm drops below
    1e-14 times its largest entry, a rule that does not depend on the
    units of the entries either (blocks with entries far below 1 still
    rotate to full relative accuracy), and a zero block never rotates.
    Every block of a stack goes through exactly the rotations it
    would go through alone, so the result is bitwise the same.  Quadratic
    convergence makes 60 sweeps a formality for the 4x4 blocks this module
    produces.
    """
    a = np.array(matrix, dtype=float, copy=True)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"need a square matrix or a stack of them, got shape {a.shape}")
    magnitude = np.abs(a).max(axis=(-2, -1), initial=0.0)
    asymmetry = np.abs(a - a.swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    if np.any(asymmetry > 1e-13 * magnitude):
        raise ValueError("matrix is not symmetric")
    size = a.shape[-1]
    v = np.broadcast_to(np.eye(size), a.shape).copy()
    threshold = 1e-14 * magnitude
    pairs = [(p, q) for p in range(size - 1) for q in range(p + 1, size)]
    for _ in range(60):
        off = np.zeros(a.shape[:-2])
        for p, q in pairs:
            off = off + a[..., p, q] ** 2
        rotating = np.sqrt(off) > threshold
        if not rotating.any():
            break
        for p, q in pairs:
            active = rotating & (a[..., p, q] != 0.0)
            if active.any():
                _rotate(a, v, p, q, active)
    else:
        raise RuntimeError("Jacobi sweep did not converge")
    w = np.diagonal(a, axis1=-2, axis2=-1)
    order = np.argsort(w, axis=-1, kind="stable")
    return (
        np.take_along_axis(w, order, axis=-1),
        np.take_along_axis(v, order[..., None, :], axis=-1),
    )


def _rotate(a: np.ndarray, v: np.ndarray, p: int, q: int, active: np.ndarray) -> None:
    """Zero a[p, q] of every active block by one plane rotation, in place.

    a <- g.T a g and v <- v g, with g holding cos at (p, p) and (q, q), sin
    at (p, q) and -sin at (q, p).  The diagonal moves by -+ tan a[p, q] and
    the other entries of rows and columns p and q rotate in the
    tau = sin / (1 + cos) form, which keeps rounding small.  Inactive blocks
    get tan = 0 and are left exactly as they were.
    """
    apq = a[..., p, q]
    theta = (a[..., q, q] - a[..., p, p]) / (2.0 * np.where(active, apq, 1.0))
    root = np.sqrt(theta * theta + 1.0)
    sign = np.where(theta >= 0.0, 1.0, -1.0)
    tan = np.where(active, sign / (np.abs(theta) + root), 0.0)
    cos = 1.0 / np.sqrt(tan * tan + 1.0)
    sin = (tan * cos)[..., None]
    tau = (sin[..., 0] / (1.0 + cos))[..., None]
    shift = tan * apq
    rest = [r for r in range(a.shape[-1]) if r not in (p, q)]
    rp, rq = a[..., rest, p], a[..., rest, q]
    a[..., rest, p] = a[..., p, rest] = rp - sin * (rq + tau * rp)
    a[..., rest, q] = a[..., q, rest] = rq + sin * (rp - tau * rq)
    a[..., p, p] -= shift
    a[..., q, q] += shift
    a[..., p, q] = a[..., q, p] = np.where(active, 0.0, apq)
    vp, vq = v[..., :, p].copy(), v[..., :, q].copy()
    v[..., :, p] = vp - sin * (vq + tau * vp)
    v[..., :, q] = vq + sin * (vp - tau * vq)


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
) -> Callable[[np.ndarray, str, float], np.ndarray]:
    """Bind the couplings, yielding the diagonalized counterpart of the
    closed-form solver for the mixture engine.

    Like :func:`thermalqubits.closed_form.phase_propagator`, it maps an
    (M, N+1) stack of coefficient rows to an (M, 4, N+3) stack, evolving
    each block once for all rows and placing the amplitudes with
    ``_joint_vectors`` at this route's own photon shifts.  It also accepts
    a "ge" start, which the closed-form tables refuse.  The blocks are
    diagonalized on the first call and kept in the closure; a later call
    with more photon levels diagonalizes the larger table, and one with
    fewer reuses the held one.
    """
    eigen = None
    held = -1

    def solver(coefficients: np.ndarray, label: str, t: float) -> np.ndarray:
        nonlocal eigen, held
        n_max = np.shape(coefficients)[-1] - 1
        if eigen is None or n_max > held:
            eigen, held = jacobi_eigh(block_table(couplings, n_max)), n_max
        amps = _start_amplitudes(*eigen, label, n_max, t)
        return _joint_vectors(coefficients, amps.T, _EXCITATION[label] - 2 + _PHOTON)

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
