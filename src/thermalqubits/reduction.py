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
so the sums run in real arithmetic, with the same bits as the complex
tables of :func:`thermalqubits.closed_form.amplitude_table`.  The rows,
their products and squares are whole passes over the N + 3 columns of the
closed form's block frame, in buffers allocated once per call; only the
per-n sums take each label's window of N + 1 columns.  A chunk holds about
CHUNK_BUDGET = 8192 row entries, which measured fastest among 2048-16384 at
N = 20-2314; its traced peak is 116-121 B per entry in full chunks,
0.9-1.3 MB for a whole series up to nbar 100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import CouplingPair, _amplitude_rows, _framed
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
# 116-121 B in full chunks at nbar 0.5-20 and 176 B at nbar 100 with three
# times per chunk; at one time per chunk, from N = 8192, the coefficients of
# three start labels make it 305 B per photon level at nbar 1000.
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
    weights partition one by construction.  Where one of an angle's pair
    rounds to exactly 1 the other is exactly 0, so theta = fl(pi/2), whose
    cosine is 6.1e-17, starts no eg component.
    """

    theta: float
    vartheta: float

    def weights(self) -> dict[str, float]:
        eg, excited = _square_split(self.theta)
        ee, gg = _square_split(self.vartheta)
        return {"ee": excited * ee, "eg": eg, "gg": excited * gg}


def _square_split(angle: float) -> tuple[float, float]:
    """(cos^2, sin^2) of ``angle``, each exactly 0 where the other is exactly 1."""
    c2, s2 = math.cos(angle) ** 2, math.sin(angle) ** 2
    return (0.0 if s2 == 1.0 else c2), (0.0 if c2 == 1.0 else s2)


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
    trig, rows = _amplitude_rows(list(weights), spec.truncation, couplings)
    scales = [
        _framed(w_label * probs, window, spec.truncation)
        for w_label, (window, _) in zip(weights.values(), rows)
    ]
    populations = np.zeros((4, len(times)))
    coherence = np.zeros(len(times), dtype=complex)
    chunk = chunk_length(spec.truncation)
    # every amplitude row is purely real or purely imaginary, so one real
    # buffer takes them all; the coherence product X2 X3* is real too, but
    # it is summed as a complex array to keep the complex sum's order
    frame = (min(chunk, len(times)), spec.truncation + 3)
    buffer, half, product = np.empty((4,) + frame), np.empty(frame), np.zeros(frame, dtype=complex)
    for start in range(0, len(times), chunk):
        part = slice(start, start + chunk)
        size = len(times[part])
        chunk_trig = trig(times[part])
        amplitudes, halves, products = buffer[:, :size], half[:size], product[:size]
        for scale, (window, fill) in zip(scales, rows):
            fill(amplitudes, amplitudes, chunk_trig)
            np.multiply(amplitudes[1], scale, out=halves)
            np.multiply(halves, amplitudes[2], out=products.real)
            coherence[part] += np.add.reduce(products[:, window], axis=-1)
            # |X_q|^2 = a^2 whether X_q is a or i a
            np.square(amplitudes, out=amplitudes)
            np.multiply(amplitudes, scale, out=amplitudes)
            populations[:, part] += np.add.reduce(amplitudes[..., window], axis=-1)
        del chunk_trig  # freed before the next chunk's is evaluated
    return TwoQubitDensity.from_components(*populations, coherence)
