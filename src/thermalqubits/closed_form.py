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
Every row is written in one block frame, the N + 3 columns of blocks
-2 .. N: each start label's coefficients sit there at its block shift, with
zeros outside its window of n = 0 .. N, so a row is a few whole contiguous
passes over the frame.  The cosine difference cos_+ - cos_- is formed once
per evaluation for every label, and the rows read cos_- + w (cos_+ - cos_-),
c (cos_+ - cos_-) and (p a) sin_+ - (p b) sin_- with sin = sin(Omega t)/Omega.
Near equal couplings sin_- is about t, so each b it multiplies is written
by Vieta's formulas as a multiple of l1^2 - l2^2 = (l1 - l2)(l1 + l2),
never as a difference of nearly equal numbers: columns stay unit vectors
to rounding at any gamma and long times.
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
    d2 = (l1 - l2) * (l1 + l2)
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


def _block_trig(t: np.ndarray, omegas, safe, zeros) -> list[np.ndarray]:
    """[cos_+ - cos_-, sin(Omega_+ t)/Omega_+, cos_-, sin(Omega_- t)/Omega_-], cos_pm = cos Omega_pm t.

    Column m + 2 is block m of ``omegas`` = (Omega_+, Omega_-) over blocks -2 .. M,
    ``t`` a scalar or a (T, 1) column; the empty block's Omega_- terms are zeros.
    ``safe`` holds each Omega with its zeros replaced by 1, and ``zeros`` the
    columns where Omega = 0 (block -2's Omega_+, block -1's Omega_-, and every
    Omega_- at equal couplings); there the ratio is its exact limit t.  The
    sine overwrites its argument, and the cosine difference its cos_+.
    """
    out = []
    for omega, divisor, zero in zip(omegas, safe, zeros):
        x = t * omega
        cos = np.cos(x)
        np.sin(x, out=x)
        x /= divisor
        x[..., zero] = t
        out += [cos, x]
    out[2][..., 0] = out[3][..., 0] = 0.0
    out[0] -= out[2]
    return out


def _framed(values: np.ndarray, window: slice, n_max: int) -> np.ndarray:
    """``values`` over n = 0 .. n_max at ``window`` of the N + 3 block columns, zeros elsewhere."""
    out = np.zeros(n_max + 3)
    out[window] = values
    return out


def _label_rows(label: str, n_max: int, spectrum, couplings: CouplingPair):
    """One start label's time-independent coefficients, bound to a writer of its rows.

    Returns ``(window, fill)``.  Each label is data: a cosine mix (q, w),
    written to real row q as cos_- + w (cos_+ - cos_-); a cosine difference
    (q, c), written as c (cos_+ - cos_-); and two sine rows (q, p a, p b),
    written to imaginary row q as (p a) sin_+ - (p b) sin_-, with
    sin = sin(Omega t)/Omega.  Every coefficient sits in the block frame,
    the N + 3 block columns of :func:`_block_trig`, with zeros outside the
    label's ``window`` of n = 0 .. N at its block shift, so
    ``fill(re, im, trig)`` writes whole (T, N + 3) rows and the caller
    slices the window out.

    Each b that multiplies sin_- is taken by Vieta's formulas
    (mu_+ + mu_- = 2 (l1^2 + l2^2), mu_+ mu_- = -16 l1^2 l2^2 (m+1)(m+2))
    as a multiple of l1^2 - l2^2 = (l1 - l2)(l1 + l2): near equal couplings
    sin_- is about t, and the direct differences would lose digits.
    """
    shift = _BLOCK_SHIFT[label]
    window = slice(shift + 2, shift + n_max + 3)
    gap, mu_p, mu_m = (arr[window] for arr in spectrum[:3])
    l1, l2 = couplings.lambda1, couplings.lambda2
    d2 = (l1 - l2) * (l1 + l2)
    n = np.arange(n_max + 1)
    half = 1.0 / (2.0 * gap)
    if label == "ee":
        k1, k2 = 4.0 * l1 * l1 * (n + 2), 4.0 * l2 * l2 * (n + 2)
        mix, diff = (0, -mu_m / (2.0 * gap)), (3, 2.0 * l1 * l2 * np.sqrt((n + 1) * (n + 2)) / gap)
        grow = 2.0 * (2 * n + 3) * d2
        b1 = grow / (1.0 + 4.0 * l2 * l2 * (n + 1) / mu_p)  # k1 - mu_+
        b2 = -grow / (1.0 + 4.0 * l1 * l1 * (n + 1) / mu_p)  # k2 - mu_+
        sines = [(1, -l2 * np.sqrt(n + 1) * half, k1 - mu_m, b1),
                 (2, -l1 * np.sqrt(n + 1) * half, k2 - mu_m, b2)]
    elif label == "eg":
        k1, k2 = 4.0 * l1 * l1 * (n + 1), 4.0 * l2 * l2 * n
        a1, b4 = mu_m - k1, mu_p + k2
        b1 = 2.0 * (2 * n + 1) * d2 / (1.0 + k2 / mu_p)  # k1 - mu_+
        a4 = -2.0 * k2 * (2 * n + 1) * d2 / b4  # mu_- + k2
        mix, diff = (1, (d2 + gap) / (2.0 * gap)), (2, l1 * l2 * (2 * n + 1) / gap)
        # rows 0 and 3 are p (a1 sin_+ + b1 sin_-) and p (a4 sin_- - b4 sin_+);
        # negation is exact, so the signs fold into a and b at no rounding
        sines = [(0, l2 * np.sqrt(n) * half, a1, -b1), (3, l1 * np.sqrt(n + 1) * half, -b4, -a4)]
    else:
        k2, k1 = 4.0 * l2 * l2 * (n - 1), 4.0 * l1 * l1 * (n - 1)
        grow = 2.0 * (2 * n - 1) * d2
        a2, a1 = k2 + mu_p, k1 + mu_p
        # k2 + mu_- and k1 + mu_-, taken directly at n = 0, the empty block,
        # where a = +-2 d2 and p = 0
        b2, b1 = k2 + mu_m, k1 + mu_m
        b2[1:] = -k2[1:] * grow[1:] / a2[1:]
        b1[1:] = k1[1:] * grow[1:] / a1[1:]
        mix, diff = (3, mu_p / (2.0 * gap)), (0, 2.0 * l1 * l2 * np.sqrt(n * (n - 1)) / gap)
        sines = [(1, -l1 * np.sqrt(n) * half, a2, b2), (2, -l2 * np.sqrt(n) * half, a1, b1)]
    (q_mix, w), (q_diff, c) = mix, diff
    w, c = _framed(w, window, n_max), _framed(c, window, n_max)
    sines = [(q, _framed(p * a, window, n_max), _framed(p * b, window, n_max))
             for q, p, a, b in sines]

    def fill(re, im, trig):
        diff_t, g_p, cos_m, g_m = trig
        np.multiply(diff_t, w, out=re[q_mix])
        re[q_mix] += cos_m
        np.multiply(diff_t, c, out=re[q_diff])
        for q, pa, pb in sines:
            np.multiply(g_p, pa, out=im[q])
            im[q] -= pb * g_m

    return window, fill


def _amplitude_rows(labels, n_max: int, couplings: CouplingPair):
    """Bind the spectrum and the labels' coefficients.

    Returns ``(trig, rows)``.  ``trig(t)`` evaluates the block cos/sin once
    for a time or a 1-D time array, and ``rows[i]`` is the ``(window, fill)``
    of ``labels[i]``: ``fill(re, im, trig(t))`` writes its four rows in the
    block frame, each of shape ``np.shape(t) + (n_max + 3,)``, and
    ``[..., window]`` of a row is its n = 0 .. n_max.  Each row is purely
    real or purely imaginary and goes to ``re`` or ``im`` accordingly, so
    one real buffer passed as both takes every row's value.
    """
    spectrum = block_spectrum(np.arange(-2, n_max + 1), couplings)
    rows = [_label_rows(label, n_max, spectrum, couplings) for label in labels]
    # each square root once; the empty block's imaginary Omega_minus is never used
    omegas = (np.sqrt(spectrum[3]), np.sqrt(np.maximum(spectrum[4], 0.0)))
    zeros = [np.flatnonzero(omega == 0.0) for omega in omegas]
    safe = [np.where(omega == 0.0, 1.0, omega) for omega in omegas]
    def trig(t: float | np.ndarray) -> list[np.ndarray]:
        t = np.asarray(t, dtype=float)
        if t.ndim > 1:
            raise ValueError(f"times must be a scalar or a 1-D array, got shape {t.shape}")
        return _block_trig(t[:, None] if t.ndim else t, omegas, safe, zeros)
    return trig, rows


def _time_array(times) -> np.ndarray:
    """The times of one solver call as a float array, refusing all but 1-D."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"a solver takes a 1-D array of times, got shape {times.shape}")
    return times


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
    trig, ((window, fill),) = _amplitude_rows([label], n_max, couplings)
    frame = np.zeros((4,) + np.shape(t) + (n_max + 3,), dtype=complex)
    fill(frame.real, frame.imag, trig(t))
    return frame[..., window] + 0j  # every zero is +0.0, whichever product made it


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
    stacks over (arrival, Fock level), in time order.  It holds nothing
    between calls: each call takes the label's (4, T, N+1)
    :func:`amplitude_table` for all its times at once, so it refuses what
    the table refuses, and builds each time's joint stack with
    :func:`_joint_vectors` only when the iterator reaches it.
    """

    def solver(coefficients: np.ndarray, label: str, times: np.ndarray) -> Iterator[np.ndarray]:
        times = _time_array(times)
        table = amplitude_table(label, np.shape(coefficients)[-1] - 1, times, couplings)
        shifts = _ARRIVAL_SHIFTS[label]
        return (_joint_vectors(coefficients, table[:, k], shifts) for k in range(len(times)))

    return solver
