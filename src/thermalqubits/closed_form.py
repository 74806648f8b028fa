"""Exact dynamics of two qubits exchanging excitations with one cavity mode.

The resonant interaction conserves the total excitation number, so the
Hamiltonian splits into finite blocks.  Labelling blocks by ``n`` (the block
reached from the doubly excited atoms with ``n`` photons), each one carries
two Rabi frequencies Omega_plus and Omega_minus obtained from

    Lambda_n = sqrt((l1^2 + l2^2)^2 + 16 l1^2 l2^2 (n+1)(n+2))
    Omega_{pm}^2 = ((l1^2 + l2^2)(2n+3) pm Lambda_n) / 2

and the evolution of any basis state is a short combination of
cos(Omega t) and sin(Omega t)/Omega terms.  This module evaluates those
combinations directly, with no matrix diagonalization; the numerically
diagonalized reference lives in :mod:`thermalqubits.oracle`.

Lambda_n is the usual discriminant
sqrt((l1^2 + l2^2)^2 (2n+3)^2 - 4 (l1^2 - l2^2)^2 (n+1)(n+2)) rewritten as a
sum, so it loses no digits to cancellation at large n or near decoupling.
The small partners follow without subtraction too:
mu_minus = (l1^2 + l2^2) - Lambda_n = -16 l1^2 l2^2 (n+1)(n+2) / (l1^2 + l2^2 +
Lambda_n) and, by Vieta, Omega_minus^2 = (l1^2 - l2^2)^2 (n+1)(n+2) / Omega_plus^2.
At indices -1 and -2 these give Lambda = l1^2 + l2^2 and mu_minus = 0
exactly, with no special case.

Index -2 is the empty block (both atoms and the field in the ground state),
where Omega_plus = 0 and Omega_minus^2 = -(l1^2+l2^2) is negative; every
term carrying Omega_minus there is dropped: nothing evolves.

Amplitude tables broadcast over a 1-D array of times, so a whole time
series is one array expression per start label.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "ATOM_LABELS",
    "CouplingPair",
    "ManifoldSpectrum",
    "amplitude_table",
    "manifold_spectrum",
    "phase_propagator",
]

# Row order used for the atomic part of every joint vector and matrix.
ATOM_LABELS = ("ee", "eg", "ge", "gg")

# Block index reached from |label, n photons>: ee sits in block n, eg in n-1,
# gg in n-2.
_BLOCK_SHIFT = {"ee": 0, "eg": -1, "gg": -2}

# Photon shift of each arrival state relative to the start, rows ordered as
# ATOM_LABELS.
_ARRIVAL_SHIFTS = {
    "ee": (0, 1, 1, 2),
    "eg": (-1, 0, 0, 1),
    "gg": (-2, -1, -1, 0),
}


@dataclass(frozen=True)
class CouplingPair:
    """Coupling strengths of the two qubits to the mode.

    Atom 1 must couple (lambda1 > 0); atom 2 may decouple entirely
    (lambda2 = 0), which is the gamma = 1 end of the one-parameter family
    lambda1 = 1 + gamma, lambda2 = 1 - gamma built by ``from_gamma``.
    """

    lambda1: float
    lambda2: float

    def __post_init__(self) -> None:
        for name, value in (("lambda1", self.lambda1), ("lambda2", self.lambda2)):
            if not math.isfinite(value):
                raise ValueError(f"coupling {name} must be finite, got {value}")
        if not self.lambda1 > 0.0:
            raise ValueError(f"coupling of atom 1 must be positive, got {self.lambda1}")
        if self.lambda2 < 0.0:
            raise ValueError(f"coupling of atom 2 must be nonnegative, got {self.lambda2}")

    @classmethod
    def from_gamma(cls, gamma: float) -> "CouplingPair":
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"asymmetry must lie in [0, 1], got {gamma}")
        return cls(1.0 + gamma, 1.0 - gamma)

    @property
    def gamma(self) -> float:
        """Relative asymmetry (lambda1 - lambda2) / (lambda1 + lambda2)."""
        return (self.lambda1 - self.lambda2) / (self.lambda1 + self.lambda2)


@dataclass(frozen=True)
class ManifoldSpectrum:
    """Spectral data of one excitation block.

    Lambda is the discriminant root splitting the two Rabi branches,
    mu_plus and mu_minus its sum and difference partners; the amplitude
    formulas use all of them.  The block eigenvalues are +-Omega_plus and
    +-Omega_minus.  In the empty block (index -2) Omega_minus is imaginary;
    dynamics never uses that branch because every term carrying it has an
    exactly vanishing coefficient there.
    """

    manifold_index: int
    Lambda: float
    mu_plus: float
    mu_minus: float
    Omega_plus: complex
    Omega_minus: complex


def _spectrum(m: np.ndarray, couplings: CouplingPair):
    """(Lambda, mu_plus, mu_minus, Omega_plus^2, Omega_minus^2) of blocks ``m``."""
    l1, l2 = couplings.lambda1, couplings.lambda2
    s2 = l1 * l1 + l2 * l2
    d2 = l1 * l1 - l2 * l2
    two_m3 = 2 * m + 3
    pairs = (m + 1) * (m + 2)
    cross = 16.0 * (l1 * l1) * (l2 * l2) * pairs
    gap = np.sqrt(s2 * s2 + cross)
    mu_plus = s2 + gap
    mu_minus = -cross / mu_plus
    omega_plus_sq = (s2 * two_m3 + gap) / 2.0
    # the empty block has Omega_plus = 0; its Omega_minus^2 is the sum rule's -s2
    empty = m == -2
    omega_minus_sq = np.where(
        empty, -s2, d2 * d2 * pairs / np.where(empty, 1.0, omega_plus_sq)
    )
    return gap, mu_plus, mu_minus, omega_plus_sq, omega_minus_sq


def manifold_spectrum(n: int, couplings: CouplingPair) -> ManifoldSpectrum:
    """Rabi frequencies of block ``n``; the lowest block is n = -2."""
    if n < -2:
        raise ValueError(f"block index must be at least -2, got {n}")
    gap, mu_p, mu_m, op2, om2 = (
        float(arr[0]) for arr in _spectrum(np.array([n]), couplings)
    )
    return ManifoldSpectrum(
        manifold_index=n,
        Lambda=gap,
        mu_plus=mu_p,
        mu_minus=mu_m,
        Omega_plus=cmath.sqrt(op2),
        Omega_minus=cmath.sqrt(om2),
    )


@lru_cache(maxsize=64)
def _spectrum_arrays(couplings: CouplingPair, m_max: int):
    """Block spectra for m = -2 .. m_max as read-only arrays indexed by m + 2."""
    out = _spectrum(np.arange(-2, m_max + 1), couplings)
    for arr in out:
        arr.setflags(write=False)
    return out


def _sin_ratio(t: np.ndarray, omega_sq: np.ndarray) -> np.ndarray:
    """sin(t sqrt(omega_sq)) / sqrt(omega_sq), continuous through omega = 0."""
    omega = np.sqrt(omega_sq)
    x = t * omega
    small = np.abs(x) < 1e-4
    x2 = x * x
    series = t * (1.0 - x2 / 6.0 + x2 * x2 / 120.0)
    return np.where(small, series, np.sin(x) / np.where(small, 1.0, omega))


def amplitude_table(
    label: str, n_max: int, t: float | np.ndarray, couplings: CouplingPair
) -> np.ndarray:
    """Arrival amplitudes from |label, n> for every n = 0 .. n_max at once.

    For a scalar ``t`` returns a complex array of shape (4, n_max + 1); row
    q holds the amplitude on arrival state ATOM_LABELS[q], whose photon
    number is n + _ARRIVAL_SHIFTS[label][q].  Columns are unit vectors
    (unitarity), and column n does not depend on ``n_max``, so
    ``amplitude_table(label, n, t, couplings)[:, n]`` is the single start
    |label, n>.  The weights multiplying cos(Omega t) in the diagonal
    entries are convex, so at t = 0 the start state is recovered exactly,
    not merely to rounding.  For a 1-D array of T times the result has
    shape (4, T, n_max + 1), and entry [:, k] is the table at ``t[k]``.

    Only "ee", "eg" and "gg" starts are provided.  "ge" follows from "eg"
    by swapping the two couplings and the middle rows, and accepting it
    here would silently mean a different qubit than the caller thinks.
    """
    if label == "ge":
        raise ValueError(
            "no amplitudes for a 'ge' start: swap the couplings and use 'eg'"
        )
    if label not in _BLOCK_SHIFT:
        raise ValueError(f"unknown atomic start {label!r}")
    if n_max < 0 or n_max != int(n_max):
        raise ValueError(f"photon cutoff must be a nonnegative integer, got {n_max}")
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise ValueError(f"times must be a scalar or a 1-D array, got shape {t.shape}")
    if t.ndim == 1:
        t = t[:, None]

    shift = _BLOCK_SHIFT[label]
    n = np.arange(n_max + 1)
    m = n + shift
    gap, mu_p, mu_m, op2, om2 = (
        arr[m + 2] for arr in _spectrum_arrays(couplings, n_max)
    )
    l1, l2 = couplings.lambda1, couplings.lambda2

    empty = m == -2
    om2_safe = np.where(empty, 0.0, om2)
    cos_p = np.cos(t * np.sqrt(op2))
    cos_m = np.where(empty, 0.0, np.cos(t * np.sqrt(om2_safe)))
    g_p = _sin_ratio(t, op2)
    g_m = np.where(empty, 0.0, _sin_ratio(t, om2_safe))

    if label == "ee":
        w1 = -mu_m / (2.0 * gap)
        x1 = w1 * cos_p + (1.0 - w1) * cos_m
        x2 = (
            -1j * l2 * np.sqrt(n + 1) / (2.0 * gap)
            * ((4.0 * l1 * l1 * (n + 2) - mu_m) * g_p
               - (4.0 * l1 * l1 * (n + 2) - mu_p) * g_m)
        )
        x3 = (
            -1j * l1 * np.sqrt(n + 1) / (2.0 * gap)
            * ((4.0 * l2 * l2 * (n + 2) - mu_m) * g_p
               - (4.0 * l2 * l2 * (n + 2) - mu_p) * g_m)
        )
        x4 = 2.0 * l1 * l2 * np.sqrt((n + 1) * (n + 2)) / gap * (cos_p - cos_m)
    elif label == "eg":
        x1 = (
            1j * l2 * np.sqrt(n) / (2.0 * gap)
            * ((mu_m - 4.0 * l1 * l1 * (n + 1)) * g_p
               + (4.0 * l1 * l1 * (n + 1) - mu_p) * g_m)
        )
        w2 = (l1 * l1 - l2 * l2 + gap) / (2.0 * gap)
        x2 = w2 * cos_p + (1.0 - w2) * cos_m
        x3 = l1 * l2 * (2 * n + 1) / gap * (cos_p - cos_m)
        x4 = (
            1j * l1 * np.sqrt(n + 1) / (2.0 * gap)
            * ((mu_m + 4.0 * l2 * l2 * n) * g_m
               - (mu_p + 4.0 * l2 * l2 * n) * g_p)
        )
    else:
        x1 = 2.0 * l1 * l2 * np.sqrt(n * (n - 1)) / gap * (cos_p - cos_m)
        x2 = (
            -1j * l1 * np.sqrt(n) / (2.0 * gap)
            * ((4.0 * l2 * l2 * (n - 1) + mu_p) * g_p
               - (4.0 * l2 * l2 * (n - 1) + mu_m) * g_m)
        )
        x3 = (
            -1j * l2 * np.sqrt(n) / (2.0 * gap)
            * ((4.0 * l1 * l1 * (n - 1) + mu_p) * g_p
               - (4.0 * l1 * l1 * (n - 1) + mu_m) * g_m)
        )
        w4 = mu_p / (2.0 * gap)
        x4 = w4 * cos_p + (1.0 - w4) * cos_m
    return np.stack([x1 + 0j, x2 + 0j, x3 + 0j, x4 + 0j])


def _joint_vectors(coefficients: np.ndarray, table: np.ndarray, shifts) -> np.ndarray:
    """Flat joint vectors from field coefficients and arrival amplitudes.

    ``coefficients`` is one row of C_0..C_N or a stack of rows along its
    leading axes.  Row q of the (4, N+1) ``table`` holds the amplitude on
    arrival ATOM_LABELS[q] from each start n = 0 .. N, which lands on Fock
    level n + shifts[q].  Each result row is flat with layout
    q * (N + 3) + f, f running over Fock levels 0 .. N + 2; the extra two
    levels hold the photons released by an "ee" start at the truncation
    edge.  Both solvers place their own amplitudes through this one
    function.
    """
    coefficients = np.asarray(coefficients)
    stack = coefficients.shape[:-1]
    n_max = coefficients.shape[-1] - 1
    fock_dim = n_max + 3
    out = np.zeros(stack + (4, fock_dim), dtype=complex)
    for q, shift in enumerate(shifts):
        # entries that would land below Fock 0 are exact zeros (a sqrt(n)
        # or sqrt(n(n-1)) factor here, an uncoupled padding state in the
        # oracle); drop them, possibly all of them when the cutoff sits
        # below the shift
        first = max(0, -shift)
        if first <= n_max:
            out[..., q, first + shift : n_max + 1 + shift] = (
                coefficients[..., first:] * table[q, first:]
            )
    return out.reshape(stack + (4 * fock_dim,))


def _assemble(
    coefficients: np.ndarray, label: str, t: float, couplings: CouplingPair
) -> np.ndarray:
    """Joint atoms+field vectors from field coefficients C_0..C_N at time t.

    Every row of ``coefficients`` shares one amplitude table, placed by
    :func:`_joint_vectors`.
    """
    table = amplitude_table(label, np.shape(coefficients)[-1] - 1, t, couplings)
    return _joint_vectors(coefficients, table, _ARRIVAL_SHIFTS[label])


def phase_propagator(couplings: CouplingPair) -> Callable[[np.ndarray, str, float], np.ndarray]:
    """Bind the couplings, yielding a solver the mixture engine can drive.

    The returned callable maps (field coefficients, atomic label, t) to the
    joint vectors of :func:`_assemble`: an (M, N+1) stack of coefficient
    rows gives an (M, 4 (N+3)) stack, one amplitude table for all of them.
    """

    def solver(coefficients: np.ndarray, label: str, t: float) -> np.ndarray:
        return _assemble(coefficients, label, t, couplings)

    return solver
