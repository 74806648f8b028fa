"""Reference dynamics by explicit block diagonalization.

This module rebuilds the physics of :mod:`thermalqubits.closed_form` from
the other end: write down each conserved-excitation block of the resonant
interaction Hamiltonian, diagonalize it numerically, and exponentiate.  It
deliberately shares no formulas with the closed-form path, and it does not
call LAPACK either; the blocks are at most 4x4 and a plain cyclic Jacobi
sweep keeps the whole chain inspectable.  Agreement between the two routes
is then evidence rather than tautology.

Blocks are labelled by the total excitation count E (atomic excitations
plus photons).  E = 0 is the single state |gg, 0>, E = 1 couples
{|eg, 0>, |ge, 0>, |gg, 1>}, and every E >= 2 couples the four states
{|ee, n>, |eg, n+1>, |ge, n+1>, |gg, n+2>} with n = E - 2.

The work is done on stacks.  :func:`block_table` writes the four-state
blocks E = 2 .. N+2 as one (N+1, 4, 4) array, :func:`jacobi_eigh`
diagonalizes a whole stack with the same rotations it would apply to each
block alone, and the evolution of a (T, K, 4) stack of starts is one array
expression.  Nothing is cached between calls: a caller that evolves many
times builds its table once and keeps it (:func:`numeric_propagator` does,
in its closure).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .closed_form import ATOM_LABELS, CouplingPair
from .fock_thermal import ThermalFieldSpec
from .reduction import AtomicMixtureSpec, TwoQubitDensity

__all__ = [
    "ManifoldBlock",
    "block_table",
    "build_block",
    "evolve_block",
    "jacobi_eigh",
    "numeric_propagator",
    "oracle_reduced_density",
]

_EXCITATION = {"ee": 2, "eg": 1, "ge": 1, "gg": 0}

# Basis of the four-state block E = n + 2: (atomic label, photons - n).
_LAYOUT = (("ee", 0), ("eg", 1), ("ge", 1), ("gg", 2))
# Per basis position: its row in ATOM_LABELS and its photon offset.
_ARRIVAL = np.array([ATOM_LABELS.index(label) for label, _ in _LAYOUT])
_PHOTON = np.array([offset for _, offset in _LAYOUT])
# Position of each start label in the layout.
_POSITION = {label: k for k, (label, _) in enumerate(_LAYOUT)}


@dataclass(frozen=True, eq=False)
class ManifoldBlock:
    """One conserved-excitation block: its basis states and Hamiltonian.

    ``basis`` lists (atomic label, photon number) pairs; ``hamiltonian`` is
    the real symmetric matrix of the resonant interaction in that basis.
    """

    excitation: int
    basis: tuple[tuple[str, int], ...]
    hamiltonian: np.ndarray


def _four_state_blocks(couplings: CouplingPair, n: np.ndarray) -> np.ndarray:
    """Hamiltonians of the blocks E = n + 2, one 4x4 per entry of ``n``."""
    l1, l2 = couplings.lambda1, couplings.lambda2
    lower = np.sqrt(n + 1.0)
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


def block_table(couplings: CouplingPair, n_max: int) -> np.ndarray:
    """Hamiltonians of the four-state blocks E = 2 .. n_max + 2 as one stack.

    Entry [n] is the block of |ee, n>, in the basis order ee, eg, ge, gg of
    :func:`build_block`; the shape is (n_max + 1, 4, 4).
    """
    if n_max < 0 or n_max != int(n_max):
        raise ValueError(f"photon cutoff must be a nonnegative integer, got {n_max}")
    return _four_state_blocks(couplings, np.arange(int(n_max) + 1))


def build_block(excitation: int, couplings: CouplingPair) -> ManifoldBlock:
    if excitation < 0:
        raise ValueError(f"excitation count must be nonnegative, got {excitation}")
    l1, l2 = couplings.lambda1, couplings.lambda2
    if excitation == 0:
        basis = (("gg", 0),)
        h = np.zeros((1, 1))
    elif excitation == 1:
        basis = (("eg", 0), ("ge", 0), ("gg", 1))
        h = np.array(
            [
                [0.0, 0.0, l1],
                [0.0, 0.0, l2],
                [l1, l2, 0.0],
            ]
        )
    else:
        n = excitation - 2
        basis = tuple((label, n + offset) for label, offset in _LAYOUT)
        h = _four_state_blocks(couplings, np.array([n]))[0]
    return ManifoldBlock(excitation=excitation, basis=basis, hamiltonian=h)


def jacobi_eigh(matrix: np.ndarray, tol: float = 1e-14, max_sweeps: int = 60):
    """Eigendecomposition of small real symmetric matrices by cyclic Jacobi.

    ``matrix`` is one (s, s) matrix or a (..., s, s) stack of them.  Returns
    (w, v) with eigenvalues ascending along the last axis and
    matrix = v @ diag(w) @ v.T for every block.  Each sweep zeroes every
    off-diagonal pair (p, q) once with a plane rotation that touches rows
    and columns p and q only.  A block stops rotating once its off-diagonal
    norm drops below ``tol`` times its scale, so every block of a stack
    goes through exactly the rotations it would go through alone, and the
    result is bitwise the same.  Quadratic convergence makes 60 sweeps a
    formality for the 4x4 blocks this module produces.
    """
    a = np.array(matrix, dtype=float, copy=True)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"need a square matrix or a stack of them, got shape {a.shape}")
    magnitude = np.abs(a).max(axis=(-2, -1), initial=0.0)
    asymmetry = np.abs(a - a.swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    if np.any(asymmetry > 1e-13 * (1.0 + magnitude)):
        raise ValueError("matrix is not symmetric")
    size = a.shape[-1]
    v = np.broadcast_to(np.eye(size), a.shape).copy()
    threshold = tol * np.maximum(1.0, magnitude)
    pairs = [(p, q) for p in range(size - 1) for q in range(p + 1, size)]
    for _ in range(max_sweeps):
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


def _evolve_start(w: np.ndarray, v: np.ndarray, start: int, t) -> np.ndarray:
    """exp(-i H t) on basis state ``start`` of each block H = v diag(w) v^T.

    ``w`` is (K, s) and ``v`` (K, s, s); a scalar ``t`` gives the (K, s)
    evolved columns, a 1-D array of T times a (T, K, s) stack.
    """
    phases = np.exp(-1j * np.multiply.outer(np.asarray(t, dtype=float), w))
    return np.einsum("kim,...km->...ki", v, phases * v[:, start, :])


def evolve_block(block: ManifoldBlock, t: float, initial: int) -> np.ndarray:
    """exp(-i H t) applied to basis state ``initial`` of the block.

    The one-block case of the stacked evolution, diagonalized on the spot
    so a single call can be followed end to end.
    """
    if not 0 <= initial < len(block.basis):
        raise ValueError(
            f"initial index {initial} outside block of size {len(block.basis)}"
        )
    w, v = jacobi_eigh(block.hamiltonian[None])
    return _evolve_start(w, v, initial, t)[0]


def _diagonalized_blocks(couplings: CouplingPair, n_max: int):
    """(w, v) of every block E = 0 .. n_max + 2, indexed by E.

    The small blocks E = 0 and 1 are padded to four states in the layout
    of the others: |gg, 0> at the gg position, and {eg0, ge0, gg1} at the
    eg, ge and gg positions.  The padding states have no coupling, so their
    amplitudes stay exact zeros and never reach the trace.
    """
    h = np.zeros((n_max + 3, 4, 4))
    h[1, 1:, 1:] = build_block(1, couplings).hamiltonian
    h[2:] = block_table(couplings, n_max)
    return jacobi_eigh(h)


def _start_amplitudes(w, v, label: str, n_max: int, t) -> np.ndarray:
    """Evolved block amplitudes from |label, n> for n = 0 .. n_max.

    Shape (n_max + 1, 4) for a scalar ``t``, (T, n_max + 1, 4) for T
    times; position i of row n sits on arrival ATOM_LABELS[_ARRIVAL[i]]
    with n + _EXCITATION[label] - 2 + _PHOTON[i] photons.
    """
    if label not in _EXCITATION:
        raise ValueError(f"unknown atomic start {label!r}")
    blocks = slice(_EXCITATION[label], _EXCITATION[label] + n_max + 1)
    return _evolve_start(w[blocks], v[blocks], _POSITION[label], t)


def _evolve_coefficients(coefficients: np.ndarray, label: str, t: float, eigen) -> np.ndarray:
    """Evolve the field superposition sum C_n |label, n> block by block.

    ``coefficients`` is one row of C_0..C_N or a stack of rows along its
    leading axes; each block is evolved once for all of them, with the
    (w, v) tables of :func:`_diagonalized_blocks`.  Each result row is a
    flat joint vector with layout q * (n_max + 3) + f, the same as the
    closed-form assembly.  This route also accepts a "ge" start, which the
    closed-form tables refuse.
    """
    coefficients = np.asarray(coefficients)
    stack = coefficients.shape[:-1]
    n_max = coefficients.shape[-1] - 1
    fock_dim = n_max + 3
    amps = _start_amplitudes(*eigen, label, n_max, t)
    out = np.zeros(stack + (4, fock_dim), dtype=complex)
    for i, (q, offset) in enumerate(zip(_ARRIVAL, _PHOTON)):
        # start n arrives with n + shift photons; a negative count is a
        # padding state of the small blocks, whose amplitude is zero
        shift = _EXCITATION[label] - 2 + offset
        first = max(0, -shift)
        if first <= n_max:
            out[..., q, first + shift : n_max + 1 + shift] = (
                coefficients[..., first:] * amps[first:, i]
            )
    return out.reshape(stack + (4 * fock_dim,))


def numeric_propagator(
    couplings: CouplingPair,
) -> Callable[[np.ndarray, str, float], np.ndarray]:
    """Bind the couplings, yielding the diagonalized counterpart of the
    closed-form solver for the mixture engine.

    Like :func:`thermalqubits.closed_form.phase_propagator`, it maps an
    (M, N+1) stack of coefficient rows to an (M, 4 (N+3)) stack.  The
    blocks are diagonalized on the first call and kept in the closure; a
    later call with more photon levels diagonalizes the larger table.
    """
    eigen = None
    held = -1

    def solver(coefficients: np.ndarray, label: str, t: float) -> np.ndarray:
        nonlocal eigen, held
        n_max = np.shape(coefficients)[-1] - 1
        if n_max > held:
            eigen, held = _diagonalized_blocks(couplings, n_max), n_max
        return _evolve_coefficients(coefficients, label, t, eigen)

    return solver


def oracle_reduced_density(
    spec: ThermalFieldSpec,
    mixture: AtomicMixtureSpec,
    couplings: CouplingPair,
    t: float | np.ndarray,
) -> TwoQubitDensity:
    """Atomic density from a diagonal photon-number mixture, by diagonalization.

    A scalar ``t`` gives one 4x4 density, a 1-D array of T times a
    (T, 4, 4) stack.  Every (label, n) start evolves inside its own block,
    all of them as one (T, N+1, 4) stack per label, and the field trace
    pairs two block positions exactly when their photon offsets agree.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"times must be a scalar or a 1-D array, got shape {times.shape}")
    probs = spec.probabilities()
    eigen = _diagonalized_blocks(couplings, spec.truncation)
    same_photons = _PHOTON[:, None] == _PHOTON[None, :]
    block_rho = np.zeros(times.shape + (4, 4), dtype=complex)
    for label, w_label in mixture.weights().items():
        if w_label == 0.0:
            continue
        amps = _start_amplitudes(*eigen, label, spec.truncation, times)
        block_rho += np.einsum("n,...ni,...nj->...ij", w_label * probs, amps, amps.conj())
    rho = np.zeros_like(block_rho)
    rho[..., _ARRIVAL[:, None], _ARRIVAL[None, :]] = np.where(same_photons, block_rho, 0.0)
    return TwoQubitDensity(matrix=rho)
