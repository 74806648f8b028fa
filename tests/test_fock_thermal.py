"""Thermal number statistics, truncation search and phase states."""

import math

import numpy as np
import pytest

from thermalqubits import (
    ThermalFieldSpec,
    mean_photons_from_temperature,
    phase_state_rows,
    photon_probability,
    quadrature_nodes,
    truncation_for_tolerance,
)
from thermalqubits.phase_engine import exact_node_count


def test_mean_photons_small_ratio_keeps_precision():
    # naive 1/(exp(r) - 1) loses half the digits at r = 0.01
    assert mean_photons_from_temperature(0.01) == pytest.approx(
        99.50083333194445, rel=1e-14
    )


def test_mean_photons_at_log_two_is_one():
    assert mean_photons_from_temperature(math.log(2.0)) == pytest.approx(1.0, rel=1e-14)


def test_mean_photons_cold_limit_underflows_smoothly():
    tiny = mean_photons_from_temperature(30.0)
    assert 0.0 < tiny < 1e-12


@pytest.mark.parametrize("ratio", [0.0, -1.0])
def test_mean_photons_rejects_nonpositive_ratio(ratio):
    with pytest.raises(ValueError):
        mean_photons_from_temperature(ratio)


def test_probability_is_geometric_at_unit_mean():
    for n in range(12):
        assert photon_probability(n, 1.0) == pytest.approx(0.5 ** (n + 1), rel=1e-13)


def test_probability_vacuum_limit():
    assert photon_probability(0, 0.0) == 1.0
    assert photon_probability(5, 0.0) == 0.0


def test_probability_underflows_to_zero_for_huge_n():
    assert photon_probability(100000, 1.0) == 0.0
    assert photon_probability(10**20, 1.0) == 0.0


def test_probability_successive_ratio_is_constant():
    nbar = 2.7
    r = nbar / (1.0 + nbar)
    for n in range(1, 9):
        ratio = photon_probability(n + 1, nbar) / photon_probability(n, nbar)
        assert ratio == pytest.approx(r, rel=1e-13)


def test_distribution_is_computed_once_and_shares_the_scalar_formula():
    spec = ThermalFieldSpec(3.7)
    probs = spec.probabilities()
    assert spec.probabilities() is probs
    assert not probs.flags.writeable
    assert probs.tolist() == [photon_probability(n, 3.7) for n in range(spec.truncation + 1)]


@pytest.mark.parametrize("bad", [-1, 1.5])
def test_probability_rejects_bad_photon_number(bad):
    with pytest.raises(ValueError):
        photon_probability(bad, 1.0)


def test_probability_rejects_negative_mean():
    with pytest.raises(ValueError):
        photon_probability(0, -0.5)


@pytest.mark.parametrize(
    "nbar, eps, expected",
    [
        (1.0, 1e-6, 19),
        (1.0, 1e-10, 33),
        (0.5, 1e-10, 20),
        (2.0, 1e-10, 56),
        (0.01, 1e-10, 4),
        (0.0, 1e-10, 0),
        (1.0, 1.0, 0),
    ],
)
def test_truncation_frozen_values(nbar, eps, expected):
    assert truncation_for_tolerance(nbar, eps) == expected


def test_truncation_is_the_smallest_passing_cutoff():
    rng = np.random.default_rng(7)
    for nbar in rng.uniform(0.05, 5.0, size=25):
        r = nbar / (1.0 + nbar)
        n = truncation_for_tolerance(float(nbar), 1e-9)
        assert r ** (n + 1) <= 1e-9
        assert n == 0 or r ** n > 1e-9


@pytest.mark.parametrize("eps", [0.0, -1e-3, 1.5])
def test_truncation_rejects_eps_outside_unit_interval(eps):
    with pytest.raises(ValueError):
        truncation_for_tolerance(1.0, eps)


def test_spec_computes_its_truncation():
    spec = ThermalFieldSpec(1.0, 1e-6)
    assert spec.truncation == 19
    assert ThermalFieldSpec(1.0).truncation == 33


def test_spec_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        ThermalFieldSpec(1.0, 0.0)


@pytest.mark.parametrize("nbar", [math.nan, math.inf])
def test_spec_rejects_a_non_finite_mean(nbar):
    with pytest.raises(ValueError, match=f"mean photon number must be finite, got {nbar}"):
        ThermalFieldSpec(nbar)


def test_retained_mass_is_one_minus_the_tail():
    spec = ThermalFieldSpec(1.0, 1e-6)
    assert spec.retained_mass() == pytest.approx(1.0 - 0.5 ** 20, abs=1e-15)


def test_probabilities_positive_and_decreasing():
    probs = ThermalFieldSpec(0.5).probabilities()
    assert probs.shape == (21,)
    assert np.all(probs > 0.0)
    assert np.all(np.diff(probs) < 0.0)


def test_phase_state_norm_equals_retained_mass():
    spec = ThermalFieldSpec(1.0, 1e-6)
    z = phase_state_rows(spec, [0.3])[0]
    norm = float(np.vdot(z, z).real)
    assert norm == pytest.approx(spec.retained_mass(), abs=1e-14)


def test_phase_state_cutoff_matches_the_spec():
    spec = ThermalFieldSpec(1.0, 1e-6)
    assert phase_state_rows(spec, [1.0]).shape == (1, spec.truncation + 1)
    assert spec.truncation == 19


def test_vacuum_phase_state_is_trivial():
    z = phase_state_rows(ThermalFieldSpec(0.0), [2.2])[0]
    assert z.tolist() == [1.0 + 0.0j]


@pytest.mark.parametrize("nbar", [0.5, 2.0, 20.0])
@pytest.mark.parametrize("count", [7, 67, None])
def test_phase_state_rows_equal_single_phase_states(nbar, count):
    # one row per grid angle, each bit-equal to the phase state built alone
    # and to the formula sqrt(p(n)) exp(i n phi) written out per angle
    spec = ThermalFieldSpec(nbar)
    phis, _ = quadrature_nodes(count or exact_node_count(spec.truncation))
    rows = phase_state_rows(spec, phis)
    assert rows.shape == (len(phis), spec.truncation + 1)
    n = np.arange(spec.truncation + 1)
    for row, phi in zip(rows, phis):
        assert np.array_equal(row, phase_state_rows(spec, [phi])[0])
        assert np.array_equal(row, np.sqrt(spec.probabilities()) * np.exp(1j * n * phi))
