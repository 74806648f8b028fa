"""Negativity of the atom pair, general and closed form.

The measure used throughout is twice the absolute sum of the negative
eigenvalues of the partial transpose (so a Bell pair scores 1).  For the
X-shaped densities produced by :mod:`thermalqubits.reduction` the partial
transpose moves the central coherence into the corner block, and the only
eigenvalue that can go negative is available in closed form; the general
eigenvalue route stays the primary path and the closed form rides along as
an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reduction import TwoQubitDensity

__all__ = [
    "NegativityResult",
    "closed_form_gamma",
    "closed_form_negativity",
    "negativity",
    "upsilon_witness",
]

# Eigenvalues this close below zero are rounding residue of an exact zero,
# not entanglement; treat them as zero on both routes.
_NEGATIVE_EIGENVALUE_FLOOR = -1e-12


def _as_stack(rho: TwoQubitDensity | np.ndarray) -> tuple[np.ndarray, bool]:
    """The density as a (T, 4, 4) stack, and whether it was one 4x4 matrix."""
    m = rho.matrix if isinstance(rho, TwoQubitDensity) else np.asarray(rho, dtype=complex)
    if m.shape[-2:] != (4, 4) or m.ndim not in (2, 3):
        raise ValueError(f"need a 4x4 density matrix or a stack of them, got shape {m.shape}")
    stack = m.reshape(-1, 4, 4)
    # entry pair by entry pair, so a whole series makes no stack-sized
    # temporaries; numpy's max keeps a NaN from any pair, and a NaN refuses
    upper = [(i, j) for i in range(4) for j in range(i, 4)]
    defect = np.max(
        [np.abs(stack[:, i, j] - np.conj(stack[:, j, i])).max(initial=0.0) for i, j in upper]
    )
    if not defect <= 1e-8:
        raise ValueError("density matrix is not Hermitian")
    return stack, m.ndim == 2


@dataclass(frozen=True, eq=False)
class NegativityResult:
    """Negativity plus its ingredients and the sign witness.

    For one density, ``negative_eigenvalues`` lists the partial-transpose
    eigenvalues that survive below zero after flooring rounding residue,
    ascending, so ``xi == -2 * sum(negative_eigenvalues)``.  ``upsilon`` is
    B_ee * B_gg - |B_coh|^2, which for X states goes negative exactly when
    xi goes positive.

    For a stack of T densities ``xi`` and ``upsilon`` are arrays of length
    T and ``negative_eigenvalues`` is a (T, 4) array of the floored
    eigenvalues, ascending, with the nonnegative ones set to zero, so
    ``xi == -2 * negative_eigenvalues.sum(axis=-1)``.
    """

    xi: float | np.ndarray
    negative_eigenvalues: tuple[float, ...] | np.ndarray
    upsilon: float | np.ndarray


def negativity(rho: TwoQubitDensity | np.ndarray) -> NegativityResult:
    """Twice the absolute sum of negative partial-transpose eigenvalues.

    Accepts any Hermitian 4x4 density (ordering ee, eg, ge, gg), or a
    (T, 4, 4) stack of them, such as the time series that
    :func:`thermalqubits.reduction.reduced_density` returns for an array of
    times; the transpose is taken over the second qubit.
    """
    m, single = _as_stack(rho)
    # 256 densities per eigenvalue call, so a long series makes no big copies;
    # an empty stack still makes one (empty) call, so its eigenvalues are (0, 4)
    pt = m.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2)
    blocks = (pt[k : k + 256].reshape(-1, 4, 4) for k in range(0, max(len(pt), 1), 256))
    eigs = np.concatenate([np.linalg.eigvalsh(block) for block in blocks])
    eigs = np.where((eigs > _NEGATIVE_EIGENVALUE_FLOOR) & (eigs < 0.0), 0.0, eigs)
    negative = np.minimum(eigs, 0.0)
    # the leading 0.0 turns the empty case into +0.0 rather than -0.0
    xi = 0.0 - 2.0 * negative.sum(axis=-1)
    upsilon = upsilon_witness(TwoQubitDensity(m))
    if single:
        return NegativityResult(
            xi=float(xi[0]),
            negative_eigenvalues=tuple(float(e) for e in eigs[0] if e < 0.0),
            upsilon=float(upsilon[0]),
        )
    return NegativityResult(xi=xi, negative_eigenvalues=negative, upsilon=upsilon)


def closed_form_gamma(
    B_ee: float | np.ndarray, B_gg: float | np.ndarray, B_coh: complex | np.ndarray
) -> float | np.ndarray:
    """The one partial-transpose eigenvalue of an X state that can go negative.

    The partial transpose sends the eg/ge coherence to the ee/gg corner, so
    the candidate eigenvalue mixes the corner populations with the
    coherence magnitude:

        (B_ee + B_gg - sqrt((B_ee - B_gg)^2 + 4 |B_coh|^2)) / 2

    Scalar components give a float, arrays one value per entry.
    """
    # |B_coh| as the hypot of its parts, which is what abs() of one complex
    # computes; numpy's vectorized complex abs can differ in the last bit,
    # and a stack must score exactly as its members do one at a time
    spread = np.hypot(B_ee - B_gg, 2.0 * np.hypot(np.real(B_coh), np.imag(B_coh)))
    gamma = (B_ee + B_gg - spread) / 2.0
    return float(gamma) if np.ndim(gamma) == 0 else gamma


def closed_form_negativity(rho: TwoQubitDensity) -> float | np.ndarray:
    """Negativity from :func:`closed_form_gamma`, same floor as the general route.

    One density gives a float, a stack of T densities an array of length T.
    """
    gamma = closed_form_gamma(rho.B_ee, rho.B_gg, rho.B_coh)
    xi = np.where(gamma >= _NEGATIVE_EIGENVALUE_FLOOR, 0.0, -2.0 * gamma)
    return float(xi) if xi.ndim == 0 else xi


def upsilon_witness(rho: TwoQubitDensity) -> float | np.ndarray:
    """Sign witness for X-state entanglement: B_ee * B_gg - |B_coh|^2.

    Negative exactly when :func:`closed_form_gamma` is negative, i.e. when
    the central coherence outweighs the corner populations; it carries the
    sign of the entanglement decision without its magnitude.  A stack of
    densities gives one value per density.  One density is scored as a
    stack of one, so it gets the bits of its entry in any stack, and
    :func:`negativity` reports this same value as its ``upsilon``.
    """
    stack = TwoQubitDensity(rho.matrix.reshape(-1, 4, 4))
    upsilon = stack.B_ee * stack.B_gg - abs(stack.B_coh) ** 2
    return float(upsilon[0]) if rho.matrix.ndim == 2 else upsilon
