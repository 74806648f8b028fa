"""Reference dynamics by explicit block diagonalization.

This module rebuilds the physics of :mod:`thermalqubits.closed_form` from
the other end: write down each conserved-excitation block of the resonant
interaction Hamiltonian entry by entry, diagonalize it numerically with
numpy's ``eigh``, and exponentiate.  It deliberately shares no formulas
with the closed-form path: the route is independent because it builds H
itself, whoever wrote the eigensolver.  Agreement between the two routes
is then evidence rather than tautology.  The only code the two share is
plumbing: both solvers read their times through one check and place their
own arrival amplitudes into joint amplitude stacks through one helper,
each with its own photon shifts.

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
E = 0 .. N+2 as one (N+3, 4, 4) array indexed by E, ``eigh`` diagonalizes
the whole stack block by block, and the evolution of a (T, K, 4) stack of
starts is one array expression.  Nothing is cached between calls: every
call, :func:`numeric_propagator`'s solver included, builds and
diagonalizes its own table and evolves all its times from it at once.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .closed_form import CouplingPair, _joint_vectors, _time_array
from .fock_thermal import ThermalFieldSpec
from .reduction import AtomicMixtureSpec, TwoQubitDensity

__all__ = [
    "block_table",
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

# Traced peak bytes per planned entry of the oracle route, rounded up: 34-54 B
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
    tables refuse.  It holds nothing between calls: each call builds and
    diagonalizes the block table of its own truncation.
    """

    def solver(coefficients: np.ndarray, label: str, times: np.ndarray) -> Iterator[np.ndarray]:
        n_max = np.shape(coefficients)[-1] - 1
        times = _time_array(times)
        eigen = np.linalg.eigh(block_table(couplings, n_max))
        amps = _start_amplitudes(*eigen, label, n_max, times)
        shifts = _EXCITATION[label] - 2 + _PHOTON
        return (_joint_vectors(coefficients, table.T, shifts) for table in amps)

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
    w, v = np.linalg.eigh(block_table(couplings, spec.truncation))
    same_photons = _PHOTON[:, None] == _PHOTON[None, :]
    block_rho = np.zeros(times.shape + (4, 4), dtype=complex)
    for label, w_label in mixture.weights().items():
        if w_label == 0.0:
            continue
        amps = _start_amplitudes(w, v, label, spec.truncation, times)
        block_rho += np.einsum("n,...ni,...nj->...ij", w_label * probs, amps, amps.conj())
    return TwoQubitDensity(matrix=np.where(same_photons, block_rho, 0.0))


def oracle_reduced_density_bytes(truncation: int, times: int) -> int:
    """Planned peak of :func:`oracle_reduced_density` at ``times`` times,
    diagonalizing its own table: the (N+3, 4, 4) block table with its
    eigenvectors, and each label's (T, N+1, 4) evolved amplitudes.  The
    fixed cost of a call, about 11 kB, is the caller's to add."""
    return ENTRY_BYTES * (16 * (truncation + 3) + 4 * times * (truncation + 1))
