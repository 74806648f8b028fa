"""Closed-form reduced dynamics of the atom pair.

For a field that starts diagonal in photon number, each component
|label, n> evolves inside one excitation block and the field trace pairs
only arrivals with equal photon count.  Of the four arrival states from any
start, exactly one pair shares a photon number: eg and ge.  The atomic
density therefore keeps an X shape for all times, five numbers per instant:
four populations and the single eg/ge coherence.  This module assembles
those five from the closed-form amplitude rows as array sums over the
photon components, for one time or a whole series in chunks of times
that share each block's cos/sin among the start labels.  Pairwise sums
suffice: at nbar 100 they agree with the diagonalized reference to 1e-13.

From a diagonal start every amplitude is purely real or purely imaginary,
so the sums run in real arithmetic on one buffer per chunk, with the same
bits as the complex tables of :func:`thermalqubits.closed_form.amplitude_table`.
A chunk holds about CHUNK_BUDGET = 8192 row entries, which measured
fastest among 2048-16384 at N = 20-2314; its traced peak is 126-136 B per
entry in full chunks, 1.0-1.4 MB for a whole series up to nbar 100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import CouplingPair, _amplitude_rows
from .fock_thermal import ThermalFieldSpec

__all__ = [
    "AtomicMixtureSpec",
    "TwoQubitDensity",
    "reduced_density",
    "reduced_density_bytes",
]

# Amplitude-row entries (time points x photon levels) per chunk of a series;
# it bounds the working set, and the chunk length follows from the truncation.
CHUNK_BUDGET = 8192
# Traced peak bytes per amplitude-row entry of one chunk, rounded up:
# 126-136 B in full chunks at nbar 0.5-20 and 199 B at nbar 100 with three
# times per chunk; at one time per chunk, from N = 8192, the coefficients of
# three start labels make it 336 B per photon level at nbar 1000.
CHUNK_ENTRY_BYTES = 384


def chunk_length(truncation: int) -> int:
    """Time points per chunk of a :func:`reduced_density` series."""
    return max(1, CHUNK_BUDGET // (truncation + 1))


def reduced_density_bytes(truncation: int, steps: int) -> int:
    """Planned peak of :func:`reduced_density` over ``steps`` times: one
    chunk of amplitude rows.  The fixed cost of a call, about 12 kB, is
    the caller's to add."""
    return CHUNK_ENTRY_BYTES * min(steps, chunk_length(truncation)) * (truncation + 1)


@dataclass(frozen=True)
class AtomicMixtureSpec:
    """Diagonal two-atom starting mixture on two angles.

    The eg weight is cos(theta)^2; the remainder sin(theta)^2 splits
    between ee and gg as cos(vartheta)^2 to sin(vartheta)^2, so the three
    weights partition one by construction.
    """

    theta: float
    vartheta: float

    def weights(self) -> dict[str, float]:
        excited = math.sin(self.theta) ** 2
        return {
            "ee": excited * math.cos(self.vartheta) ** 2,
            "eg": math.cos(self.theta) ** 2,
            "gg": excited * math.sin(self.vartheta) ** 2,
        }


def _unwrap(entries: np.ndarray):
    """A Python scalar for a single density, the array itself for a stack."""
    return entries.item() if entries.ndim == 0 else entries


@dataclass(frozen=True, eq=False)
class TwoQubitDensity:
    """4x4 atomic density in the basis ee, eg, ge, gg, or a stack of them.

    Only X-shaped matrices arise here: four populations plus the central
    eg/ge coherence.  The closed-form assembly leaves the corner entries
    exactly zero because no pair of arrival states other than eg/ge ever
    shares a photon number; densities traced out of a quadrature average
    carry rounding there instead, below 1e-14.

    ``matrix`` has shape (4, 4) for one density and (T, 4, 4) for a stack
    of T, one per time point.  The component properties are Python
    scalars for one density and arrays of length T for a stack.
    """

    matrix: np.ndarray

    @classmethod
    def from_components(
        cls,
        B_ee: float | np.ndarray,
        B_egeg: float | np.ndarray,
        B_gege: float | np.ndarray,
        B_gg: float | np.ndarray,
        B_coh: complex | np.ndarray,
    ) -> "TwoQubitDensity":
        m = np.zeros(np.shape(B_ee) + (4, 4), dtype=complex)
        m[..., 0, 0] = B_ee
        m[..., 1, 1] = B_egeg
        m[..., 2, 2] = B_gege
        m[..., 3, 3] = B_gg
        m[..., 1, 2] = B_coh
        m[..., 2, 1] = np.conj(B_coh)
        return cls(matrix=m)

    @property
    def B_ee(self) -> float | np.ndarray:
        return _unwrap(self.matrix[..., 0, 0].real)

    @property
    def B_egeg(self) -> float | np.ndarray:
        return _unwrap(self.matrix[..., 1, 1].real)

    @property
    def B_gege(self) -> float | np.ndarray:
        return _unwrap(self.matrix[..., 2, 2].real)

    @property
    def B_gg(self) -> float | np.ndarray:
        return _unwrap(self.matrix[..., 3, 3].real)

    @property
    def B_coh(self) -> complex | np.ndarray:
        return _unwrap(self.matrix[..., 1, 2])

    @property
    def trace(self) -> float | np.ndarray:
        return _unwrap(np.trace(self.matrix, axis1=-2, axis2=-1).real)


def reduced_density(
    spec: ThermalFieldSpec,
    mixture: AtomicMixtureSpec,
    couplings: CouplingPair,
    t: float | np.ndarray,
) -> TwoQubitDensity:
    """Atomic density with the field traced out, in closed form.

    Each starting label of the mixture contributes |X_q|^2 to the
    populations and X2 X3* to the coherence, weighted by w_label p(n) and
    summed over photon components.  No phase average is needed: every
    product that survives the field trace pairs equal photon numbers,
    where the phases cancel.  A scalar ``t`` gives one density, a 1-D
    array of times a stack, computed :func:`chunk_length` times at a
    time.  Each time's sums run over its own table row, so no density
    depends on the chunk length or on the other times.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim == 0:
        return TwoQubitDensity(reduced_density(spec, mixture, couplings, times[None]).matrix[0])
    probs = spec.probabilities()
    weights = {label: w for label, w in mixture.weights().items() if w != 0.0}
    trig, fills = _amplitude_rows(list(weights), spec.truncation, couplings)
    populations = np.zeros((4, len(times)))
    coherence = np.zeros(len(times), dtype=complex)
    chunk = chunk_length(spec.truncation)
    for start in range(0, len(times), chunk):
        part = slice(start, start + chunk)
        chunk_trig = trig(times[part])
        # every amplitude row is purely real or purely imaginary, so one real
        # buffer takes them all; the coherence product X2 X3* is real too, but
        # it is summed as a complex array to keep the complex sum's order
        rows = np.empty((4, len(times[part]), len(probs)))
        product = np.zeros(rows.shape[1:], dtype=complex)
        for w_label, fill in zip(weights.values(), fills):
            fill(rows, rows, chunk_trig)
            scaled = w_label * probs
            np.multiply(scaled * rows[1], rows[2], out=product.real)
            coherence[part] += np.sum(product, axis=-1)
            # |X_q|^2 = a^2 whether X_q is a or i a
            np.multiply(np.square(rows, out=rows), scaled, out=rows)
            populations[:, part] += np.sum(rows, axis=-1)
        del chunk_trig  # freed before the next chunk's is evaluated
    return TwoQubitDensity.from_components(*populations, coherence)
