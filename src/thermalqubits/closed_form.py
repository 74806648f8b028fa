"""Exact dynamics of two qubits exchanging excitations with one cavity mode.

The resonant interaction conserves the total excitation number, so the
Hamiltonian splits into finite blocks.  Labelling blocks by ``n`` (the block
reached from the doubly excited atoms with ``n`` photons), each one carries
two Rabi frequencies Omega_plus and Omega_minus obtained from

    Lambda_n = sqrt((l1^2 + l2^2)^2 + 16 l1^2 l2^2 (n+1)(n+2))
    Omega_{pm}^2 = ((l1^2 + l2^2)(2n+3) pm Lambda_n) / 2

and the evolution of any basis state is a short combination of
cos(Omega t) and sin(Omega t)/Omega terms.  :func:`block_spectrum` gives
these quantities for one block index or an array of them, and this module
evaluates the combinations directly, with no matrix diagonalization; the
numerically diagonalized reference lives in :mod:`thermalqubits.oracle`.

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

Amplitude tables broadcast over a 1-D array of times.  A series shares each
block's cos/sin among |ee, n>, |eg, n+1> and |gg, n+2>, all in block n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "ATOM_LABELS",
    "CouplingPair",
    "amplitude_table",
    "block_spectrum",
    "phase_propagator",
]

# Row order used for the atomic part of every joint vector and matrix.
ATOM_LABELS = ("ee", "eg", "ge", "gg")

# Photon shift of each arrival state relative to the start, rows ordered as
# ATOM_LABELS.
_ARRIVAL_SHIFTS = {
    "ee": (0, 1, 1, 2),
    "eg": (-1, 0, 0, 1),
    "gg": (-2, -1, -1, 0),
}

# A start's block is the photon shift of its ee arrival: ee sits in block n,
# eg in n-1, gg in n-2.
_BLOCK_SHIFT = {label: shifts[0] for label, shifts in _ARRIVAL_SHIFTS.items()}


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


def block_spectrum(m: int | np.ndarray, couplings: CouplingPair):
    """(Lambda, mu_plus, mu_minus, Omega_plus^2, Omega_minus^2) of blocks ``m``.

    ``m`` is one block index or an array of them; the lowest block is -2.
    The block eigenvalues are +-Omega_plus and +-Omega_minus.  In the empty
    block Omega_minus^2 = -(l1^2 + l2^2) is negative; dynamics never uses
    that branch because every term carrying it vanishes exactly there.
    """
    if np.any(np.asarray(m) < -2):
        raise ValueError(f"block index must be at least -2, got {np.min(m)}")
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


def _block_trig(t: np.ndarray, omegas) -> list[np.ndarray]:
    """[cos Omega_+ t, sin(Omega_+ t)/Omega_+, cos Omega_- t, sin(Omega_- t)/Omega_-].

    Column m + 2 is block m of ``omegas`` = (Omega_+, Omega_-) over blocks -2 .. M,
    ``t`` a scalar or a (T, 1) column; the empty block's Omega_- terms are zeros.
    Where Omega = 0 (block -2's Omega_+, block -1's Omega_-, and every Omega_-
    at equal couplings) the ratio is its exact limit t.
    """
    out = []
    for omega in omegas:
        x = t * omega
        zero = omega == 0.0
        out += [np.cos(x), np.where(zero, t, np.sin(x) / np.where(zero, 1.0, omega))]
    out[2][..., 0] = out[3][..., 0] = 0.0
    return out


def _label_rows(label: str, n_max: int, spectrum, couplings: CouplingPair):
    """One start label's time-independent coefficients, bound to a writer of its rows.

    Each label is data: a cosine mix (q, w), written to real row q as
    w cos_+ + (1 - w) cos_-; a cosine difference (q, c), written as
    c (cos_+ - cos_-); and two sine rows (q, p, a, b), written to imaginary
    row q as p (a sin_+ - b sin_-), with sin = sin(Omega t)/Omega.  The writer
    ``fill(re, im, trig)`` meets the :func:`_block_trig` columns at the
    label's block shift.
    """
    cols = slice(_BLOCK_SHIFT[label] + 2, _BLOCK_SHIFT[label] + n_max + 3)
    gap, mu_p, mu_m = (arr[cols] for arr in spectrum[:3])
    l1, l2 = couplings.lambda1, couplings.lambda2
    n = np.arange(n_max + 1)
    half = 1.0 / (2.0 * gap)
    if label == "ee":
        k1, k2 = 4.0 * l1 * l1 * (n + 2), 4.0 * l2 * l2 * (n + 2)
        mix, diff = (0, -mu_m / (2.0 * gap)), (3, 2.0 * l1 * l2 * np.sqrt((n + 1) * (n + 2)) / gap)
        sines = [(1, -l2 * np.sqrt(n + 1) * half, k1 - mu_m, k1 - mu_p),
                 (2, -l1 * np.sqrt(n + 1) * half, k2 - mu_m, k2 - mu_p)]
    elif label == "eg":
        k1, k2 = 4.0 * l1 * l1 * (n + 1), 4.0 * l2 * l2 * n
        a1, b1, a4, b4 = mu_m - k1, k1 - mu_p, mu_m + k2, mu_p + k2
        mix, diff = (1, (l1 * l1 - l2 * l2 + gap) / (2.0 * gap)), (2, l1 * l2 * (2 * n + 1) / gap)
        # rows 0 and 3 are p (a1 sin_+ + b1 sin_-) and p (a4 sin_- - b4 sin_+);
        # negation is exact, so the signs fold into a and b at no rounding
        sines = [(0, l2 * np.sqrt(n) * half, a1, -b1), (3, l1 * np.sqrt(n + 1) * half, -b4, -a4)]
    else:
        k2, k1 = 4.0 * l2 * l2 * (n - 1), 4.0 * l1 * l1 * (n - 1)
        mix, diff = (3, mu_p / (2.0 * gap)), (0, 2.0 * l1 * l2 * np.sqrt(n * (n - 1)) / gap)
        sines = [(1, -l1 * np.sqrt(n) * half, k2 + mu_p, k2 + mu_m),
                 (2, -l2 * np.sqrt(n) * half, k1 + mu_p, k1 + mu_m)]
    (q_mix, w), (q_diff, c) = mix, diff

    def fill(re, im, trig):
        cos_p, g_p, cos_m, g_m = (f[..., cols] for f in trig)
        re[q_mix] = w * cos_p + (1.0 - w) * cos_m
        re[q_diff] = c * (cos_p - cos_m)
        for q, p, a, b in sines:
            im[q] = p * (a * g_p - b * g_m)

    return fill


def _amplitude_rows(labels, n_max: int, couplings: CouplingPair):
    """Bind the spectrum and the labels' coefficients.

    Returns ``(trig, fills)``.  ``trig(t)`` evaluates the block cos/sin once
    for a time or a 1-D time array, and ``fills[i](re, im, trig(t))`` writes
    the four rows of ``labels[i]``, each of shape ``np.shape(t) + (n_max + 1,)``.
    Each row is purely real or purely imaginary and goes to ``re`` or ``im``
    accordingly, so one real buffer passed as both takes every row's value.
    """
    spectrum = block_spectrum(np.arange(-2, n_max + 1), couplings)
    fills = [_label_rows(label, n_max, spectrum, couplings) for label in labels]
    # each square root once; the empty block's imaginary Omega_minus is never used
    omegas = (np.sqrt(spectrum[3]), np.sqrt(np.maximum(spectrum[4], 0.0)))
    def trig(t: float | np.ndarray) -> list[np.ndarray]:
        t = np.asarray(t, dtype=float)
        if t.ndim > 1:
            raise ValueError(f"times must be a scalar or a 1-D array, got shape {t.shape}")
        return _block_trig(t[:, None] if t.ndim else t, omegas)
    return trig, fills


def _check_start(label: str, n_max: int) -> None:
    if label == "ge":
        raise ValueError(
            "no amplitudes for a 'ge' start: swap the couplings and use 'eg'"
        )
    if label not in _BLOCK_SHIFT:
        raise ValueError(f"unknown atomic start {label!r}")
    if n_max < 0 or n_max != int(n_max):
        raise ValueError(f"photon cutoff must be a nonnegative integer, got {n_max}")


def _time_array(times) -> np.ndarray:
    """The times of one solver call as a float array, refusing all but 1-D."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"a solver takes a 1-D array of times, got shape {times.shape}")
    return times


def _written_table(fill, trig, n_max: int, t) -> np.ndarray:
    """One label's complex amplitude table at ``t``, written by ``fill``."""
    out = np.zeros((4,) + np.shape(t) + (n_max + 1,), dtype=complex)
    fill(out.real, out.imag, trig(t))
    out += 0j  # every zero is +0.0, whichever product made it
    return out


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
    _check_start(label, n_max)
    trig, (fill,) = _amplitude_rows([label], n_max, couplings)
    return _written_table(fill, trig, n_max, t)


def _joint_vectors(coefficients: np.ndarray, table: np.ndarray, shifts) -> np.ndarray:
    """Joint amplitudes from field coefficients and arrival amplitudes.

    ``coefficients`` is one row of C_0..C_N or a stack of rows along its
    leading axes.  Row q of the (4, N+1) ``table`` holds the amplitude on
    arrival ATOM_LABELS[q] from each start n = 0 .. N, which lands on Fock
    level n + shifts[q].  Each row gives a (4, N + 3) array indexed by
    (arrival, Fock level 0 .. N + 2); the extra two levels hold the photons
    released by an "ee" start at the truncation edge.  Both solvers place
    their own amplitudes through this one function.
    """
    coefficients = np.asarray(coefficients)
    stack = coefficients.shape[:-1]
    n_max = coefficients.shape[-1] - 1
    out = np.zeros(stack + (4, n_max + 3), dtype=complex)
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
    return out


def phase_propagator(
    couplings: CouplingPair,
) -> Callable[[np.ndarray, str, np.ndarray], Iterator[np.ndarray]]:
    """Bind the couplings, yielding a solver the mixture engine can drive.

    The returned callable maps (field coefficients, atomic label, times) to
    joint amplitudes, one stack per time: an (M, N+1) stack of coefficient
    rows and a 1-D array of T times give an iterator over T (M, 4, N+3)
    stacks over (arrival, Fock level), in time order.  The block spectrum,
    its frequencies and the row writers of all three start labels are
    bound on the first call and kept in the closure until a call brings a
    different truncation.  A call evaluates the block cos/sin and one
    label's (4, T, N+1) amplitude table for all its times at once, rows
    equal to :func:`amplitude_table`'s bit for bit, and builds each time's
    joint stack with :func:`_joint_vectors` only when the iterator reaches
    it.
    """
    bound = None
    held = -1  # no truncation is bound yet

    def solver(coefficients: np.ndarray, label: str, times: np.ndarray) -> Iterator[np.ndarray]:
        nonlocal bound, held
        n_max = np.shape(coefficients)[-1] - 1
        _check_start(label, n_max)
        times = _time_array(times)
        if n_max != held:
            trig, fills = _amplitude_rows(tuple(_BLOCK_SHIFT), n_max, couplings)
            bound, held = (trig, dict(zip(_BLOCK_SHIFT, fills))), n_max
        trig, fills = bound
        table = _written_table(fills[label], trig, n_max, times)
        shifts = _ARRIVAL_SHIFTS[label]
        return (_joint_vectors(coefficients, table[:, k], shifts) for k in range(len(times)))

    return solver
