"""Thermal photon statistics and phase states of a single cavity mode.

A thermal (chaotic) field with mean occupation ``nbar`` has the geometric
number distribution

    p(n) = nbar**n / (1 + nbar)**(n + 1)

which is diagonal in the Fock basis.  The same mixture can be written as a
uniform average of pure "phase states" over one full period of the phase
angle.  :func:`phase_state_rows` builds the pure members at an array of
angles, one row each, so a single phase state is
``phase_state_rows(spec, [phi])[0]``; the grid average lives in
:mod:`thermalqubits.phase_engine`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ThermalFieldSpec",
    "mean_photons_from_temperature",
    "phase_state_rows",
    "photon_probability",
    "truncation_for_tolerance",
]


def mean_photons_from_temperature(energy_ratio: float) -> float:
    """Bose occupation 1 / (exp(r) - 1) for r = (energy quantum)/(kT).

    Uses ``expm1`` so small ratios do not lose precision to cancellation.
    Raises ``ValueError`` for r <= 0: the occupation diverges at 0 and a
    negative ratio has no thermal meaning here.
    """
    if not energy_ratio > 0.0:
        raise ValueError(f"temperature ratio must be positive, got {energy_ratio}")
    return 1.0 / math.expm1(energy_ratio)


def _geometric_distribution(n: np.ndarray, nbar: float) -> np.ndarray:
    """p(n) = nbar**n / (1 + nbar)**(n + 1) elementwise, in log space for nbar > 0.

    Log space lets large ``n`` underflow gracefully to 0.0 instead of
    overflowing the intermediate power.
    """
    if nbar == 0.0:
        return np.where(n == 0, 1.0, 0.0)
    return np.exp(n * math.log(nbar) - (n + 1) * math.log1p(nbar))


def photon_probability(n: int, nbar: float) -> float:
    """Probability of exactly ``n`` photons in a thermal field of mean ``nbar``."""
    if n < 0 or n != int(n):
        raise ValueError(f"photon number must be a nonnegative integer, got {n}")
    if nbar < 0.0:
        raise ValueError(f"mean photon number must be nonnegative, got {nbar}")
    # a one-element array takes the same numpy loop as probabilities(), so
    # both give bit-identical values
    return float(_geometric_distribution(np.array([n], dtype=float), nbar)[0])


def truncation_for_tolerance(nbar: float, eps: float) -> int:
    """Smallest N with tail mass sum_{n>N} p(n) = (nbar/(1+nbar))**(N+1) <= eps.

    The tail of a geometric distribution is itself geometric, so the cut is
    exact, not an estimate.  nbar = 0 needs no excited states at all, and
    eps = 1 permits dropping everything past the ground state.
    """
    if not math.isfinite(nbar):
        raise ValueError(f"mean photon number must be finite, got {nbar}")
    if nbar < 0.0:
        raise ValueError(f"mean photon number must be nonnegative, got {nbar}")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"tail tolerance must lie in (0, 1], got {eps}")
    if nbar == 0.0:
        return 0
    r = nbar / (1.0 + nbar)
    n = max(0, math.ceil(math.log(eps) / math.log(r)) - 1)
    # The log estimate can land one off at representation boundaries; settle
    # it against the exact predicate.
    while n > 0 and r ** n <= eps:
        n -= 1
    while r ** (n + 1) > eps:
        n += 1
    return n


@dataclass(frozen=True)
class ThermalFieldSpec:
    """A thermal field together with the truncation used to represent it.

    ``truncation`` is the highest retained Fock index, computed so the
    discarded tail mass is at most ``tail_tolerance``.
    """

    mean_photons: float
    tail_tolerance: float = 1e-10
    truncation: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "truncation",
            truncation_for_tolerance(self.mean_photons, self.tail_tolerance),
        )

    def probabilities(self) -> np.ndarray:
        """Number distribution p(0..truncation), read-only.

        Computed on the first call and kept, so every time chunk of a run
        shares one evaluation.
        """
        probs = self.__dict__.get("_probabilities")
        if probs is None:
            probs = _geometric_distribution(
                np.arange(self.truncation + 1), self.mean_photons
            )
            probs.setflags(write=False)
            object.__setattr__(self, "_probabilities", probs)
        return probs

    def retained_mass(self) -> float:
        """Probability kept by the truncation, 1 minus the geometric tail."""
        return math.fsum(self.probabilities())


def phase_state_rows(spec: ThermalFieldSpec, phis: np.ndarray) -> np.ndarray:
    """Phase-state coefficients at each angle, one row per angle.

    Row k holds C_n = sqrt(p(n)) exp(i n phis[k]) for n = 0 .. truncation,
    so the result has shape (len(phis), truncation + 1).  The angles are
    used as given, not reduced.  Each row's squared norm is the retained
    mass, 1 minus the truncation tail, not exactly 1.
    """
    n = np.arange(spec.truncation + 1)
    phis = np.asarray(phis, dtype=float)
    return np.sqrt(spec.probabilities()) * np.exp(1j * n * phis[:, None])
