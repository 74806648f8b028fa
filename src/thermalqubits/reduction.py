"""Closed-form reduced dynamics of the atom pair.

For a field that starts diagonal in photon number, each component
|label, n> evolves inside one excitation block and the field trace pairs
only arrivals with equal photon count.  Of the four arrival states from any
start, exactly one pair shares a photon number: eg and ge.  The atomic
density therefore keeps an X shape for all times, five numbers per instant:
four populations and the single eg/ge coherence.  This module assembles
those five from the closed-form amplitude tables as array sums over the
photon components, for one time or for a whole array of times at once.
Plain pairwise summation suffices: at nbar 100 the sums agree with the
diagonalized reference to about 1e-13.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import CouplingPair, amplitude_table
from .fock_thermal import ThermalFieldSpec

__all__ = [
    "AtomicMixtureSpec",
    "TwoQubitDensity",
    "reduced_density",
]


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
    array of times a stack with one density per time.  Each time's sums
    run over its own row of the amplitude table, so a density does not
    depend on which other times share the call.
    """
    times = np.asarray(t, dtype=float)
    probs = spec.probabilities()
    populations = np.zeros((4,) + times.shape)
    coherence = np.zeros(times.shape, dtype=complex)
    for label, w_label in mixture.weights().items():
        if w_label == 0.0:
            continue
        table = amplitude_table(label, spec.truncation, times, couplings)
        scaled = w_label * probs
        populations += np.sum(np.abs(table) ** 2 * scaled, axis=-1)
        coherence += np.sum(scaled * table[1] * np.conj(table[2]), axis=-1)
    return TwoQubitDensity.from_components(*populations, coherence)
