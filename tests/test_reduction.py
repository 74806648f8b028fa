"""Field traced out: mixture weights and the X-shaped atomic density."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from thermalqubits import (
    AtomicMixtureSpec,
    CouplingPair,
    ThermalFieldSpec,
    TwoQubitDensity,
    amplitude_table,
    negativity,
    reduced_density,
    reduction,
)


def test_weights_partition_unity():
    rng = np.random.default_rng(19)
    for theta, vartheta in rng.uniform(0.0, math.tau, size=(40, 2)):
        w = AtomicMixtureSpec(float(theta), float(vartheta)).weights()
        assert set(w) == {"ee", "eg", "gg"}
        assert all(0.0 <= v <= 1.0 for v in w.values())
        assert math.fsum(w.values()) == pytest.approx(1.0, abs=1e-15)


def test_weight_dials_reach_each_pure_start():
    assert AtomicMixtureSpec(math.pi / 2.0, 0.0).weights()["ee"] == pytest.approx(1.0)
    assert AtomicMixtureSpec(0.0, 0.0).weights()["eg"] == 1.0
    assert AtomicMixtureSpec(math.pi / 2.0, math.pi / 2.0).weights()["gg"] == pytest.approx(1.0)


def test_components_round_trip():
    rho = TwoQubitDensity.from_components(0.1, 0.2, 0.3, 0.4, 0.05 + 0.02j)
    assert rho.B_ee == 0.1
    assert rho.B_egeg == 0.2
    assert rho.B_gege == 0.3
    assert rho.B_gg == 0.4
    assert rho.B_coh == 0.05 + 0.02j
    assert rho.matrix[2, 1] == 0.05 - 0.02j
    assert rho.trace == pytest.approx(1.0, abs=1e-15)


def test_zero_time_density_is_the_starting_mixture():
    spec = ThermalFieldSpec(1.0)
    mix = AtomicMixtureSpec(0.9, 0.4)
    rho = reduced_density(spec, mix, CouplingPair.from_gamma(0.3), 0.0)
    w = mix.weights()
    mass = spec.retained_mass()
    assert rho.B_ee == pytest.approx(w["ee"] * mass, abs=1e-12)
    assert rho.B_egeg == pytest.approx(w["eg"] * mass, abs=1e-12)
    assert rho.B_gg == pytest.approx(w["gg"] * mass, abs=1e-12)
    assert rho.B_gege == 0.0
    assert rho.B_coh == 0.0


def test_corners_vanish_identically():
    spec = ThermalFieldSpec(1.0, 1e-8)
    rho = reduced_density(
        spec, AtomicMixtureSpec(1.1, 0.6), CouplingPair.from_gamma(0.8), 7.7
    )
    m = rho.matrix
    x_mask = np.zeros((4, 4), dtype=bool)
    x_mask[np.arange(4), np.arange(4)] = True
    x_mask[1, 2] = x_mask[2, 1] = True
    assert np.all(m[~x_mask] == 0.0)
    assert m[2, 1] == np.conj(m[1, 2])


def test_trace_is_the_retained_photon_mass():
    for nbar, tol in ((0.0, 1e-10), (0.5, 1e-6), (1.0, 1e-10)):
        spec = ThermalFieldSpec(nbar, tol)
        rho = reduced_density(
            spec, AtomicMixtureSpec(0.7, 0.2), CouplingPair.from_gamma(0.4), 3.3
        )
        assert rho.trace == pytest.approx(spec.retained_mass(), abs=1e-12)


def test_equal_couplings_balance_the_middle_populations():
    # an ee or gg start cannot tell the atoms apart when the couplings match
    spec = ThermalFieldSpec(1.0, 1e-8)
    mix = AtomicMixtureSpec(math.pi / 2.0, 0.7)
    for t in (1.0, 4.2, 13.0):
        rho = reduced_density(spec, mix, CouplingPair.from_gamma(0.0), t)
        assert rho.B_egeg == pytest.approx(rho.B_gege, abs=1e-12)


def test_density_entries_stay_physical():
    spec = ThermalFieldSpec(1.0, 1e-8)
    pair = CouplingPair.from_gamma(0.6)
    rng = np.random.default_rng(31)
    for t in rng.uniform(0.0, 20.0, size=10):
        rho = reduced_density(spec, AtomicMixtureSpec(0.5, 0.5), pair, float(t))
        for value in (rho.B_ee, rho.B_egeg, rho.B_gege, rho.B_gg):
            assert -1e-12 <= value <= 1.0 + 1e-12
        assert abs(rho.B_coh) <= math.sqrt(rho.B_egeg * rho.B_gege) + 1e-12


def test_lone_excitation_in_vacuum_peaks_at_half_transfer():
    # one excited atom, empty cavity, equal couplings: a quarter Rabi
    # period in, the excitation is shared and the pair maximally entangled
    spec = ThermalFieldSpec(0.0)
    mix = AtomicMixtureSpec(0.0, 0.0)
    pair = CouplingPair.from_gamma(0.0)
    t = math.pi / (2.0 * math.sqrt(2.0))
    rho = reduced_density(spec, mix, pair, t)
    assert rho.B_egeg == pytest.approx(0.25, abs=1e-14)
    assert rho.B_gege == pytest.approx(0.25, abs=1e-14)
    assert rho.B_gg == pytest.approx(0.5, abs=1e-14)
    assert rho.B_coh.real == pytest.approx(-0.25, abs=1e-14)
    xi = negativity(rho).xi
    assert xi == pytest.approx((math.sqrt(2.0) - 1.0) / 2.0, abs=1e-12)


def test_closed_form_matches_the_diagonalized_reference():
    from thermalqubits.oracle import oracle_reduced_density

    spec = ThermalFieldSpec(0.5, 1e-8)
    mix = AtomicMixtureSpec(1.2, 0.4)
    pair = CouplingPair(1.6, 0.7)
    for t in (0.4, 2.9, 11.0):
        a = reduced_density(spec, mix, pair, t).matrix
        b = oracle_reduced_density(spec, mix, pair, t).matrix
        assert np.abs(a - b).max() < 1e-12


def test_time_array_gives_the_stack_of_single_time_densities():
    spec = ThermalFieldSpec(1.0, 1e-8)
    mix = AtomicMixtureSpec(0.8, 0.3)
    pair = CouplingPair.from_gamma(0.6)
    times = np.array([0.0, 0.5, 4.0, 17.5])
    stack = reduced_density(spec, mix, pair, times)
    assert stack.matrix.shape == (4, 4, 4)
    assert stack.B_gege[0] == 0.0 and stack.B_coh[0] == 0.0
    np.testing.assert_allclose(stack.trace, spec.retained_mass(), rtol=0.0, atol=1e-12)
    for k, t in enumerate(times):
        single = reduced_density(spec, mix, pair, float(t))
        assert np.abs(stack.matrix[k] - single.matrix).max() <= 1e-15
        assert single.B_ee == pytest.approx(stack.B_ee[k], abs=1e-15)


def test_array_sums_match_the_diagonalized_reference_at_nbar_100():
    from thermalqubits.oracle import oracle_reduced_density

    spec = ThermalFieldSpec(100.0)
    mix = AtomicMixtureSpec(0.7, 0.4)
    pair = CouplingPair.from_gamma(0.3)
    closed = reduced_density(spec, mix, pair, np.array([1e3]))
    numeric = oracle_reduced_density(spec, mix, pair, 1e3)
    assert np.abs(closed.matrix[0] - numeric.matrix).max() <= 1e-10


def _per_label_reference(spec, mixture, couplings, times):
    """The density summed from one amplitude table per start label."""
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
    return TwoQubitDensity.from_components(*populations, coherence).matrix


@pytest.mark.parametrize("nbar", [0.5, 2.0, 20.0, 100.0])
@pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0 - 1e-6])
def test_shared_trig_is_bitwise_the_per_label_tables(nbar, gamma, monkeypatch):
    spec = ThermalFieldSpec(nbar)
    pair = CouplingPair.from_gamma(gamma)
    times = np.array([0.0, 1e-6, 0.3, 2.5, 7.0, 19.0, 40.0, 1e3, 3e4])
    levels = spec.truncation + 1
    for theta, vartheta in ((0.9, 0.4), (0.0, 0.0)):
        mix = AtomicMixtureSpec(theta, vartheta)
        reference = _per_label_reference(spec, mix, pair, times).tobytes()
        for budget in (1, 7 * levels - 1, 10**9):
            monkeypatch.setattr(reduction, "CHUNK_BUDGET", budget)
            assert reduced_density(spec, mix, pair, times).matrix.tobytes() == reference


def test_repeated_calls_retain_no_memory():
    # every benchmark op draws new couplings; nothing keyed on them may outlive its call
    spec = ThermalFieldSpec(50.0)
    mix = AtomicMixtureSpec(0.9, 0.4)
    times = np.linspace(0.0, 10.0, 3)
    reduced_density(spec, mix, CouplingPair.from_gamma(0.5), times)
    # collections also empty the interpreter's free lists, which hold
    # released tuples and are not retained by the call
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(50):
            reduced_density(spec, mix, CouplingPair.from_gamma(0.01 + 0.019 * k), times)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 4096


def test_plan_is_one_chunk_of_amplitude_rows():
    # 8192 // 100 = 81 times per chunk at N = 99
    assert reduction.reduced_density_bytes(99, 10) == reduction.CHUNK_ENTRY_BYTES * 10 * 100
    assert reduction.reduced_density_bytes(99, 1000) == reduction.CHUNK_ENTRY_BYTES * 81 * 100


@pytest.mark.parametrize(
    "nbar, steps", [(1.0, 1001), (20.0, 201), (100.0, 3), (1000.0, 3)],
    ids=["1.0-1001steps", "20.0-201steps", "100.0", "1000.0"],
)
def test_plan_covers_the_measured_peak(nbar, steps, traced_peak):
    # full chunks at nbar 1 and 20, three times per chunk at nbar 100, and
    # one time per chunk at nbar 1000, where the per-level coefficients of
    # all three start labels bound
    spec = ThermalFieldSpec(nbar)
    times = np.linspace(0.0, 25.0, steps)
    mix, pair = AtomicMixtureSpec(0.9, 0.4), CouplingPair.from_gamma(0.3)
    peak = traced_peak(lambda: reduced_density(spec, mix, pair, times))
    assert peak <= reduction.reduced_density_bytes(spec.truncation, steps)
