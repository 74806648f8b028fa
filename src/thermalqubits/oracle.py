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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .closed_form import ATOM_LABELS, CouplingPair
from .fock_thermal import ThermalFieldSpec
from .reduction import AtomicMixtureSpec, TwoQubitDensity

__all__ = [
    "ManifoldBlock",
    "block_eigh",
    "build_block",
    "evolve_block",
    "jacobi_eigh",
    "numeric_propagator",
    "oracle_reduced_density",
]

_EXCITATION = {"ee": 2, "eg": 1, "ge": 1, "gg": 0}


@dataclass(frozen=True, eq=False)
class ManifoldBlock:
    """One conserved-excitation block: its basis states and Hamiltonian.

    ``basis`` lists (atomic label, photon number) pairs; ``hamiltonian`` is
    the real symmetric matrix of the resonant interaction in that basis.
    """

    excitation: int
    basis: tuple[tuple[str, int], ...]
    hamiltonian: np.ndarray


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
        basis = (("ee", n), ("eg", n + 1), ("ge", n + 1), ("gg", n + 2))
        a = l2 * np.sqrt(n + 1)
        b = l1 * np.sqrt(n + 1)
        c = l1 * np.sqrt(n + 2)
        d = l2 * np.sqrt(n + 2)
        h = np.array(
            [
                [0.0, a, b, 0.0],
                [a, 0.0, 0.0, c],
                [b, 0.0, 0.0, d],
                [0.0, c, d, 0.0],
            ]
        )
    return ManifoldBlock(excitation=excitation, basis=basis, hamiltonian=h)


def jacobi_eigh(matrix: np.ndarray, tol: float = 1e-14, max_sweeps: int = 60):
    """Eigendecomposition of a small real symmetric matrix by cyclic Jacobi.

    Returns (w, v) with eigenvalues ascending and matrix = v @ diag(w) @ v.T.
    Each sweep zeroes every off-diagonal pair once with an explicit plane
    rotation; quadratic convergence makes 60 sweeps a formality for the
    4x4 blocks this module produces.
    """
    a = np.array(matrix, dtype=float, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-13 * (1.0 + np.abs(a).max())):
        raise ValueError("matrix is not symmetric")
    size = a.shape[0]
    v = np.eye(size)
    scale = max(1.0, np.abs(a).max())
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= tol * scale:
            break
        for p in range(size - 1):
            for q in range(p + 1, size):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta >= 0.0:
                    tan = 1.0 / (theta + np.sqrt(theta * theta + 1.0))
                else:
                    tan = -1.0 / (-theta + np.sqrt(theta * theta + 1.0))
                cos = 1.0 / np.sqrt(tan * tan + 1.0)
                sin = tan * cos
                g = np.eye(size)
                g[p, p] = cos
                g[q, q] = cos
                g[p, q] = sin
                g[q, p] = -sin
                a = g.T @ a @ g
                v = v @ g
    else:
        raise RuntimeError("Jacobi sweep did not converge")
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


@lru_cache(maxsize=4096)
def block_eigh(couplings: CouplingPair, excitation: int):
    """(block, w, v) of one excitation block, diagonalized once and cached.

    ``w`` and ``v`` are the :func:`jacobi_eigh` eigenvalues and eigenvectors
    of the block's Hamiltonian, read-only because every caller shares them.
    """
    block = build_block(excitation, couplings)
    w, v = jacobi_eigh(block.hamiltonian)
    w.setflags(write=False)
    v.setflags(write=False)
    return block, w, v


def _evolve_start(w: np.ndarray, v: np.ndarray, start: int, t: float) -> np.ndarray:
    """exp(-i H t) on basis state ``start`` of a block with H = v diag(w) v^T."""
    return v @ (np.exp(-1j * w * t) * v[start, :])


def evolve_block(block: ManifoldBlock, t: float, initial: int) -> np.ndarray:
    """exp(-i H t) applied to basis state ``initial`` of the block.

    Diagonalizes on the spot rather than through the cache so a single
    call can be followed end to end.
    """
    if not 0 <= initial < len(block.basis):
        raise ValueError(
            f"initial index {initial} outside block of size {len(block.basis)}"
        )
    w, v = jacobi_eigh(block.hamiltonian)
    return _evolve_start(w, v, initial, t)


def _evolve_coefficients(
    coefficients: np.ndarray, label: str, t: float, couplings: CouplingPair
) -> np.ndarray:
    """Evolve the field superposition sum C_n |label, n> block by block.

    ``coefficients`` is one row of C_0..C_N or a stack of rows along its
    leading axes; each block is evolved once for all of them.  Each result
    row is a flat joint vector with layout q * (n_max + 3) + f, the same as
    the closed-form assembly.  This route also accepts a "ge" start, which
    the closed-form tables refuse.
    """
    if label not in _EXCITATION:
        raise ValueError(f"unknown atomic start {label!r}")
    coefficients = np.asarray(coefficients)
    stack = coefficients.shape[:-1]
    n_max = coefficients.shape[-1] - 1
    fock_dim = n_max + 3
    out = np.zeros(stack + (4, fock_dim), dtype=complex)
    for n in range(n_max + 1):
        c_n = coefficients[..., n]
        if not np.any(c_n):
            continue
        block, w, v = block_eigh(couplings, _EXCITATION[label] + n)
        evolved = _evolve_start(w, v, block.basis.index((label, n)), t)
        for (arrival, f), amp in zip(block.basis, evolved):
            out[..., ATOM_LABELS.index(arrival), f] += c_n * amp
    return out.reshape(stack + (4 * fock_dim,))


def numeric_propagator(
    couplings: CouplingPair,
) -> Callable[[np.ndarray, str, float], np.ndarray]:
    """Bind the couplings, yielding the diagonalized counterpart of the
    closed-form solver for the mixture engine.

    Like :func:`thermalqubits.closed_form.phase_propagator`, it maps an
    (M, N+1) stack of coefficient rows to an (M, 4 (N+3)) stack.
    """

    def solver(coefficients: np.ndarray, label: str, t: float) -> np.ndarray:
        return _evolve_coefficients(coefficients, label, t, couplings)

    return solver


def oracle_reduced_density(
    spec: ThermalFieldSpec,
    mixture: AtomicMixtureSpec,
    couplings: CouplingPair,
    t: float,
) -> TwoQubitDensity:
    """Atomic density at time t from a diagonal photon-number mixture.

    Each (label, n) start evolves inside its own block and is traced over
    the field on the spot; since a block never holds the same photon number
    twice with one atomic label, the trace is a short explicit double loop.
    """
    rho = np.zeros((4, 4), dtype=complex)
    probs = spec.probabilities()
    for label, w_label in mixture.weights().items():
        if w_label == 0.0:
            continue
        for n, p_n in enumerate(probs):
            if p_n == 0.0:
                continue
            block, w, v = block_eigh(couplings, _EXCITATION[label] + n)
            evolved = _evolve_start(w, v, block.basis.index((label, n)), t)
            for i, (lab_i, f_i) in enumerate(block.basis):
                qi = ATOM_LABELS.index(lab_i)
                for j, (lab_j, f_j) in enumerate(block.basis):
                    if f_i != f_j:
                        continue
                    qj = ATOM_LABELS.index(lab_j)
                    rho[qi, qj] += w_label * p_n * evolved[i] * np.conj(evolved[j])
    return TwoQubitDensity(matrix=rho)
