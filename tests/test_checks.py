"""The cross-route checks see a planted defect of the size it was planted.

Each check is first run clean, then with one route or input perturbed by
a known amount.  A check that compared a route with itself, or skipped
one, would read the clean value again and fail here, so it could not pass
the acceptance criteria vacuously.
"""

import dataclasses
import math

import numpy as np
import pytest

from thermalqubits import AtomicMixtureSpec, CouplingPair, ThermalFieldSpec, TwoQubitDensity
from thermalqubits import checks

SPEC = ThermalFieldSpec(0.5, 1e-6)
MIX = AtomicMixtureSpec(0.9, 0.4)
PAIR = CouplingPair.from_gamma(0.3)
TIMES = np.array([0.0, 1.7, 6.2])
PLANT = 1e-6


def _shifted(fn, delta):
    """``fn`` with ``delta`` added to every entry of the density it returns."""

    def perturbed(*args, **kwargs):
        result = fn(*args, **kwargs)
        return dataclasses.replace(result, matrix=result.matrix + delta)

    return perturbed


def test_column_norm_defect_sees_a_scaled_table(monkeypatch):
    assert checks.column_norm_defect(PAIR, 12, TIMES) <= 1e-12
    original = checks.amplitude_table
    monkeypatch.setattr(
        checks, "amplitude_table", lambda *args: original(*args) * (1.0 + 1e-9)
    )
    # a column of norm 1 scaled by 1 + s has squared norm 1 + 2s + s^2
    assert checks.column_norm_defect(PAIR, 12, TIMES) >= 1e-9


def test_spectrum_defect_sees_a_shifted_frequency(monkeypatch):
    assert checks.spectrum_defect(PAIR, 12) <= 1e-11
    original = checks._spectrum

    def shifted(m, couplings):
        # move Omega_plus of block 3 alone by PLANT
        *rest, omega_plus_sq, omega_minus_sq = original(m, couplings)
        omega_plus = np.sqrt(omega_plus_sq) + np.where(m == 3, PLANT, 0.0)
        return (*rest, omega_plus**2, omega_minus_sq)

    monkeypatch.setattr(checks, "_spectrum", shifted)
    assert checks.spectrum_defect(PAIR, 12) == pytest.approx(PLANT, abs=1e-12)


@pytest.mark.parametrize(
    "route", ["reduced_density", "mixed_reduced_density", "oracle_reduced_density"]
)
def test_route_gap_sees_each_perturbed_route(route, monkeypatch):
    assert checks.route_gap(SPEC, MIX, PAIR, TIMES) <= 1e-10
    monkeypatch.setattr(checks, route, _shifted(getattr(checks, route), PLANT))
    # the other two routes agree with each other, so the gap is the plant
    assert checks.route_gap(SPEC, MIX, PAIR, TIMES) == pytest.approx(PLANT, abs=1e-12)


def test_route_gap_takes_one_time_or_an_array():
    per_time = [checks.route_gap(SPEC, MIX, PAIR, float(t)) for t in TIMES]
    assert checks.route_gap(SPEC, MIX, PAIR, TIMES) == max(per_time)


def test_field_reconstruction_sees_a_perturbed_full_period(monkeypatch):
    full, half = checks.field_reconstruction_residuals(SPEC)
    assert full <= 1e-12 and half >= 1e-2
    original = checks.reconstruct_field_density

    def perturbed(spec, count=None, interval="full"):
        result = original(spec, count, interval)
        if interval == "full":
            result = dataclasses.replace(result, matrix=result.matrix + PLANT)
        return result

    monkeypatch.setattr(checks, "reconstruct_field_density", perturbed)
    full, planted_half = checks.field_reconstruction_residuals(SPEC)
    assert full == pytest.approx(PLANT, abs=1e-12)
    assert planted_half == half


def test_negativity_route_gap_sees_a_shifted_closed_form(monkeypatch):
    bell = np.zeros((4, 4), dtype=complex)
    bell[1, 1] = bell[2, 2] = bell[1, 2] = bell[2, 1] = 0.5
    states = [
        TwoQubitDensity(bell),
        TwoQubitDensity.from_components(0.4, 0.3, 0.2, 0.1, 0.1j),
        TwoQubitDensity.from_components(0.1, 0.4, 0.4, 0.1, 0.35 * math.sqrt(2.0)),
    ]
    assert checks.negativity_route_gap(states) <= 1e-11
    original = checks.closed_form_negativity
    monkeypatch.setattr(checks, "closed_form_negativity", lambda rho: original(rho) + PLANT)
    assert checks.negativity_route_gap(states) == pytest.approx(PLANT, abs=1e-12)


def test_each_route_runs_once_per_time_array(monkeypatch):
    calls = []
    for name in (
        "reduced_density",
        "mixed_reduced_density",
        "oracle_reduced_density",
        "jacobi_eigh",
    ):
        original = getattr(checks, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(checks, name, counting)
    checks.route_gap(SPEC, MIX, PAIR, TIMES)
    assert sorted(calls) == ["mixed_reduced_density", "oracle_reduced_density", "reduced_density"]
    calls.clear()
    checks.spectrum_defect(PAIR, 12)
    assert calls == ["jacobi_eigh"]


def test_negativity_route_gap_takes_a_stack_or_single_states():
    states = [
        TwoQubitDensity.from_components(0.4, 0.3, 0.2, 0.1, 0.1j),
        TwoQubitDensity.from_components(0.1, 0.4, 0.4, 0.1, 0.35 * math.sqrt(2.0)),
    ]
    stack = TwoQubitDensity(np.array([rho.matrix for rho in states]))
    assert checks.negativity_route_gap(stack) == checks.negativity_route_gap(states)
    assert checks.negativity_route_gap([]) == 0.0
