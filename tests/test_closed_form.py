"""Block spectra and closed-form arrival amplitudes."""

import math

import numpy as np
import pytest

from thermalqubits import (
    ATOM_LABELS,
    CouplingPair,
    ThermalFieldSpec,
    amplitude_table,
    block_spectrum,
    closed_form,
    phase_propagator,
    phase_state_rows,
    quadrature_nodes,
)
from thermalqubits.checks import spectrum_defect
from thermalqubits.closed_form import _ARRIVAL_SHIFTS, _joint_vectors
from thermalqubits.oracle import numeric_propagator

SYM = CouplingPair.from_gamma(0.0)
ASYM = CouplingPair.from_gamma(0.5)


def amplitudes(label, n, t, pair):
    """The four arrival amplitudes of the single start |label, n>."""
    return amplitude_table(label, n, t, pair)[:, n]


def at(solver, coefficients, label, t):
    """The solver's one stack for the one-time array [t]."""
    (out,) = solver(coefficients, label, np.array([t]))
    return out


def test_gamma_parametrization_endpoints():
    decoupled = CouplingPair.from_gamma(1.0)
    assert (decoupled.lambda1, decoupled.lambda2) == (2.0, 0.0)
    assert SYM.gamma == 0.0
    assert CouplingPair(3.0, 1.0).gamma == pytest.approx(0.5)


@pytest.mark.parametrize("gamma", [-0.1, 1.1])
def test_gamma_outside_unit_interval_is_refused(gamma):
    with pytest.raises(ValueError):
        CouplingPair.from_gamma(gamma)


def test_coupling_sign_constraints():
    with pytest.raises(ValueError):
        CouplingPair(0.0, 1.0)
    with pytest.raises(ValueError):
        CouplingPair(1.0, -0.5)


@pytest.mark.parametrize(
    "l1, l2", [(1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)]
)
def test_non_finite_couplings_are_refused(l1, l2):
    with pytest.raises(ValueError, match="must be finite"):
        CouplingPair(l1, l2)


def test_spectrum_sum_and_difference_identities():
    rng = np.random.default_rng(11)
    for _ in range(50):
        l1 = float(rng.uniform(0.2, 3.0))
        l2 = float(rng.uniform(0.0, l1))
        pair = CouplingPair(l1, l2)
        n = int(rng.integers(0, 40))
        gap, mu_plus, mu_minus, op2, om2 = block_spectrum(n, pair)
        s2 = l1 * l1 + l2 * l2
        assert mu_plus + mu_minus == pytest.approx(2.0 * s2, rel=1e-13)
        assert mu_plus - mu_minus == pytest.approx(2.0 * gap, rel=1e-13)
        assert op2 + om2 == pytest.approx(s2 * (2 * n + 3), rel=1e-12)
        assert op2 - om2 == pytest.approx(gap, rel=1e-12)


def test_bottom_block_frequencies_are_exact():
    s2 = ASYM.lambda1 ** 2 + ASYM.lambda2 ** 2
    _, _, mu_minus, omega_plus_sq, omega_minus_sq = block_spectrum(-2, ASYM)
    assert mu_minus == 0.0
    assert omega_plus_sq == 0.0
    # the unused branch continues to an imaginary frequency, exactly
    assert omega_minus_sq == -s2


def test_single_excitation_block_collapses_to_one_frequency():
    s2 = ASYM.lambda1 ** 2 + ASYM.lambda2 ** 2
    gap, _, mu_minus, omega_plus_sq, omega_minus_sq = block_spectrum(-1, ASYM)
    assert gap == s2
    assert mu_minus == 0.0
    assert omega_minus_sq == 0.0
    assert math.sqrt(omega_plus_sq) == pytest.approx(math.sqrt(s2), rel=1e-15)


def test_equal_couplings_keep_the_slow_branch_at_zero():
    # the collapsed discriminant must not leak a rounding ulp into
    # Omega_minus, where a sqrt would blow it up to 1e-8
    for pair in (SYM, CouplingPair(1.3, 1.3)):
        assert np.all(block_spectrum(np.arange(0, 41), pair)[4] == 0.0)


def sine_ratio_columns(n_max, t, pair):
    """The (T, n_max + 3) sin(Omega t)/Omega columns and the frequencies behind them."""
    _, _, _, omega_plus_sq, omega_minus_sq = block_spectrum(np.arange(-2, n_max + 1), pair)
    _, ratio_plus, _, ratio_minus = closed_form._amplitude_rows((), n_max, pair)[0](t)
    omegas = (np.sqrt(omega_plus_sq), np.sqrt(np.maximum(omega_minus_sq, 0.0)))
    return (ratio_plus, ratio_minus), omegas


@pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
def test_zero_frequency_ratios_are_exactly_the_time(gamma):
    t = np.concatenate([[0.0, -2.5], np.geomspace(1e-9, 1e4, 40)])
    (ratio_plus, ratio_minus), (omega_plus, omega_minus) = sine_ratio_columns(
        60, t, CouplingPair.from_gamma(gamma)
    )
    # block -2's Omega_+ and block -1's Omega_- vanish at every gamma, and
    # every Omega_- at gamma 0; the empty block's Omega_- terms are dropped
    zero_plus, zero_minus = omega_plus == 0.0, omega_minus == 0.0
    zero_minus[0] = False
    assert np.flatnonzero(zero_plus).tolist() == [0]
    assert np.flatnonzero(zero_minus).tolist() == (list(range(1, 63)) if gamma == 0.0 else [1])
    assert (ratio_plus[:, zero_plus] == t[:, None]).all()
    assert (ratio_minus[:, zero_minus] == t[:, None]).all()
    assert not ratio_minus[:, 0].any()


@pytest.mark.parametrize("n_max", [5, 60, 400])
@pytest.mark.parametrize("gamma", [1e-9, 1e-6])
def test_small_argument_ratios_stay_within_3_ulp_of_the_series(gamma, n_max):
    t = np.geomspace(1e-6, 1e3, 91)
    ratios, omegas = sine_ratio_columns(n_max, t, CouplingPair.from_gamma(gamma))
    checked = 0
    for ratio, omega in zip(ratios, omegas):
        x = t[:, None] * omega
        small = (x != 0.0) & (np.abs(x) < 1e-4)
        # the reference series in extended precision where the platform has it
        ts = np.broadcast_to(t[:, None], x.shape)[small].astype(np.longdouble)
        xs = ts * np.broadcast_to(omega, x.shape)[small]
        series = ts * (1.0 - xs**2 / 6.0 + xs**4 / 120.0)
        assert (np.abs(ratio[small] - series) <= 3.0 * np.spacing(np.abs(ratio[small]))).all()
        checked += small.sum()
    assert checked > 500


def test_block_index_below_the_bottom_is_refused():
    for m in (-3, np.array([0, 5, -3])):
        with pytest.raises(ValueError, match="at least -2, got -3"):
            block_spectrum(m, SYM)


def test_ground_pair_in_vacuum_is_stationary():
    assert amplitudes("gg", 0, 3.7, ASYM).tolist() == [0.0, 0.0, 0.0, 1.0]


def test_ground_pair_with_one_photon_oscillates_at_the_vacuum_rabi_rate():
    t = 1.3
    s2 = ASYM.lambda1 ** 2 + ASYM.lambda2 ** 2
    root = math.sqrt(s2)
    x1, x2, x3, x4 = amplitudes("gg", 1, t, ASYM)
    assert x1 == 0.0
    assert complex(x4) == pytest.approx(math.cos(t * root), rel=1e-13)
    assert complex(x2) == pytest.approx(-1j * ASYM.lambda1 * math.sin(t * root) / root, rel=1e-13)
    assert complex(x3) == pytest.approx(-1j * ASYM.lambda2 * math.sin(t * root) / root, rel=1e-13)


def test_single_excitation_splits_evenly_for_equal_couplings():
    t = 0.9
    root = math.sqrt(2.0)
    c = math.cos(t * root)
    x1, x2, x3, x4 = amplitudes("eg", 0, t, SYM)
    assert x1 == 0.0
    assert complex(x2) == pytest.approx((c + 1.0) / 2.0, rel=1e-13)
    assert complex(x3) == pytest.approx((c - 1.0) / 2.0, abs=1e-13)
    assert complex(x4) == pytest.approx(-1j * math.sin(t * root) / root, rel=1e-13)


def test_zero_time_recovers_the_start_exactly():
    # the diagonal weights are convex, so this is equality, not closeness
    for label in ("ee", "eg", "gg"):
        for n in (0, 1, 5, 17):
            expected = [0.0, 0.0, 0.0, 0.0]
            expected[ATOM_LABELS.index(label)] = 1.0
            assert amplitudes(label, n, 0.0, ASYM).tolist() == expected


def test_columns_stay_unit_vectors():
    rng = np.random.default_rng(23)
    for _ in range(5):
        l1 = float(rng.uniform(0.3, 2.5))
        l2 = float(rng.uniform(0.0, l1))
        pair = CouplingPair(l1, l2)
        for label in ("ee", "eg", "gg"):
            for t in (0.1, 1.0, 10.0, 100.0):
                table = amplitude_table(label, 30, t, pair)
                norms = np.sum(np.abs(table) ** 2, axis=0)
                np.testing.assert_allclose(norms, 1.0, rtol=0.0, atol=1e-11)


@pytest.mark.parametrize("gamma", [1.0 - 1e-4, 1.0 - 1e-6])
def test_columns_stay_unit_vectors_at_high_photon_numbers_near_decoupling(gamma):
    # nbar 100 keeps N = 2314; the old difference-of-squares discriminant
    # lost about 1e-8 of column norm here
    pair = CouplingPair.from_gamma(gamma)
    n_max = ThermalFieldSpec(100.0).truncation
    times = np.array([0.3, 7.0, 1e2, 1e3, 1e4, 1e5])
    for label in ("ee", "eg", "gg"):
        norms = np.sum(np.abs(amplitude_table(label, n_max, times, pair)) ** 2, axis=0)
        assert np.abs(norms - 1.0).max() <= 1e-12


@pytest.mark.parametrize("gamma", [0.0, 1e-9, 1e-7, 1e-6, 1e-5, 1e-3, 0.3, 1.0 - 1e-6, 1.0])
def test_columns_stay_unit_vectors_at_long_times_near_symmetry(gamma):
    # near equal couplings sin(Omega_- t)/Omega_- is about t, so a relative
    # error eps/gamma in the coefficients it multiplies, as direct
    # differences k - mu carry, grows to a norm defect of 4e-10 at gamma 1e-7
    # and t 1e5
    pair = CouplingPair.from_gamma(gamma)
    n_max = ThermalFieldSpec(20.0).truncation
    times = np.array([1e2, 1e4, 1e5])
    for label in ("ee", "eg", "gg"):
        norms = np.sum(np.abs(amplitude_table(label, n_max, times, pair)) ** 2, axis=0)
        assert np.abs(norms - 1.0).max() <= 1e-12


@pytest.mark.parametrize("gamma", [1e-5, 1e-9])
def test_spectrum_matches_block_diagonalization_near_symmetry(gamma):
    pair = CouplingPair.from_gamma(gamma)
    assert spectrum_defect(pair, ThermalFieldSpec(5.0).truncation) <= 1e-11


def test_time_array_stacks_the_scalar_tables():
    times = np.array([0.0, 0.7, 3.1, 250.0])
    for label in ("ee", "eg", "gg"):
        stacked = amplitude_table(label, 12, times, ASYM)
        assert stacked.shape == (4, len(times), 13)
        for k, t in enumerate(times):
            assert np.array_equal(stacked[:, k], amplitude_table(label, 12, float(t), ASYM))
    with pytest.raises(ValueError, match="1-D"):
        amplitude_table("ee", 3, np.zeros((2, 2)), ASYM)


def test_table_column_equals_single_amplitude_call():
    table = amplitude_table("ee", 6, 2.4, ASYM)
    assert table[:, 4].tolist() == amplitudes("ee", 4, 2.4, ASYM).tolist()


def test_amplitudes_match_the_diagonalized_blocks():
    # unit coefficient rows start the oracle from each |label, n> alone;
    # arrival q of start n must hold amplitude_table's entry [q, n] on Fock
    # level n + excitation - 2 + offset, and nothing else anywhere
    n_max = 30
    for gamma in (0.0, 0.1, 0.5, 0.9, 1.0):
        pair = CouplingPair.from_gamma(gamma)
        solver = numeric_propagator(pair)
        for label, excitation in (("ee", 2), ("eg", 1), ("gg", 0)):
            for t in (0.5, 2.0, 7.3):
                evolved = at(solver, np.eye(n_max + 1), label, t)
                table = amplitude_table(label, n_max, t, pair)
                expected = np.zeros_like(evolved)
                for q, offset in enumerate((0, 1, 1, 2)):
                    for n in range(n_max + 1):
                        photons = n + excitation - 2 + offset
                        if photons >= 0:
                            expected[n, q, photons] = table[q, n]
                        else:
                            # arrivals absent from the block are structural zeros
                            assert table[q, n] == 0.0
                assert np.abs(evolved - expected).max() <= 1e-11


def test_tiny_asymmetry_stays_close_to_the_symmetric_point():
    near = CouplingPair.from_gamma(1e-9)
    for label in ("ee", "eg", "gg"):
        for t in (0.5, 5.0, 20.0):
            a = amplitude_table(label, 10, t, SYM)
            b = amplitude_table(label, 10, t, near)
            assert np.abs(a - b).max() < 1e-6


def test_swapped_start_is_refused():
    with pytest.raises(ValueError, match="swap the couplings"):
        amplitude_table("ge", 3, 1.0, SYM)


def test_unknown_label_is_refused():
    with pytest.raises(ValueError):
        amplitude_table("xx", 3, 1.0, SYM)


def test_negative_cutoff_is_refused():
    with pytest.raises(ValueError):
        amplitude_table("ee", -1, 1.0, SYM)


@pytest.mark.parametrize("n", [-1, 1.5])
def test_bad_photon_numbers_are_refused(n):
    with pytest.raises(ValueError):
        amplitude_table("eg", n, 1.0, SYM)


def test_joint_layout_places_arrivals_at_shifted_photon_numbers():
    coeffs = np.array([0.0, 1.0], dtype=complex)
    vec = at(phase_propagator(ASYM), coeffs, "eg", 0.8)
    x1, x2, x3, x4 = amplitudes("eg", 1, 0.8, ASYM)
    assert vec[0, 0] == x1
    assert vec[1, 1] == x2
    assert vec[2, 1] == x3
    assert vec[3, 2] == x4
    mask = np.ones((4, 4), dtype=bool)
    mask[0, 0] = mask[1, 1] = mask[2, 1] = mask[3, 2] = False
    assert np.all(vec[mask] == 0.0)


def test_vacuum_ground_start_assembles_without_arrivals_below_zero():
    # truncation 0 with a gg start drops every entry of the two-photon-down
    # arrival row; the slice must come out empty instead of wrapping
    coeffs = np.array([1.0 + 0j])
    vec = at(phase_propagator(ASYM), coeffs, "gg", 2.4)
    assert vec[3, 0] == 1.0
    mask = np.ones((4, 3), dtype=bool)
    mask[3, 0] = False
    assert np.all(vec[mask] == 0.0)


def test_propagated_phase_state_keeps_its_norm():
    spec = ThermalFieldSpec(1.0, 1e-8)
    coeffs = phase_state_rows(spec, [1.1])[0]
    out = at(phase_propagator(ASYM), coeffs, "ee", 4.2)
    assert out.shape == (4, spec.truncation + 3)
    norm = float(np.vdot(out, out).real)
    assert norm == pytest.approx(spec.retained_mass(), abs=1e-12)


def test_propagator_closure_matches_the_direct_call():
    spec = ThermalFieldSpec(0.5)
    coeffs = phase_state_rows(spec, [2.0])[0]
    solver = phase_propagator(ASYM)
    direct = _joint_vectors(
        coeffs, amplitude_table("gg", spec.truncation, 3.3, ASYM), _ARRIVAL_SHIFTS["gg"]
    )
    assert np.array_equal(at(solver, coeffs, "gg", 3.3), direct)


@pytest.mark.parametrize("label", ["ee", "eg", "gg"])
@pytest.mark.parametrize("nbar", [0.0, 1e-6, 0.5])
def test_stacked_assembly_equals_row_by_row_calls(label, nbar):
    # nbar 0 and 1e-6 give truncations 0 and 1, where a gg start's lower
    # arrival rows fall partly or wholly below Fock 0
    spec = ThermalFieldSpec(nbar)
    rows = phase_state_rows(spec, quadrature_nodes(9)[0])
    solver = phase_propagator(ASYM)
    stacked = at(solver, rows, label, 2.7)
    assert stacked.shape == (9, 4, spec.truncation + 3)
    for row, out in zip(rows, stacked):
        assert np.array_equal(out, at(solver, row, label, 2.7))


def _random_rows(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_bound_solver_matches_the_one_shot_table_across_truncations():
    # a solver of either kind must give at each truncation bitwise what a
    # freshly built one gives, also after another truncation and when a
    # truncation comes back; the closed form's stacks are its one-shot tables
    times = np.array([0.0, 2.7])
    for factory in (phase_propagator, numeric_propagator):
        rng = np.random.default_rng(5)
        solver = factory(ASYM)
        for n_max in (0, 1, 20, 3, 20):
            for shape in ((n_max + 1,), (9, n_max + 1)):
                rows = _random_rows(rng, shape)
                for label in ("ee", "eg", "gg"):
                    stacks = solver(rows, label, times)
                    fresh = factory(ASYM)(rows, label, times)
                    for t, out, alone in zip(times, stacks, fresh, strict=True):
                        assert np.array_equal(out, alone), (factory, n_max, label)
                        if factory is phase_propagator:
                            table = amplitude_table(label, n_max, t, ASYM)
                            direct = _joint_vectors(rows, table, _ARRIVAL_SHIFTS[label])
                            assert np.array_equal(out, direct), (n_max, label)


@pytest.mark.parametrize("label", ["ge", "xx"])
def test_bound_solver_refuses_what_the_table_refuses(label):
    with pytest.raises(ValueError) as table_error:
        amplitude_table(label, 4, 1.0, ASYM)
    solver = phase_propagator(ASYM)
    rows = np.ones(5, dtype=complex)
    for _ in range(2):  # a refused call leaves the solver as it was
        with pytest.raises(ValueError) as solver_error:
            solver(rows, label, np.array([1.0]))
        assert str(solver_error.value) == str(table_error.value)
        solver(rows, "ee", np.array([1.0]))


@pytest.mark.parametrize("label", ["ee", "eg", "gg"])
def test_time_array_call_equals_one_call_per_time(label):
    # one call evaluates the cos/sin and the table for all its times; each
    # stack it yields is bitwise the one-time call's, small-argument series
    # included (t = 1e-9)
    spec = ThermalFieldSpec(2.0, 1e-8)
    rows = phase_state_rows(spec, quadrature_nodes(spec.truncation + 1)[0])
    times = np.array([0.0, 1e-9, 0.7, 3.1, 12.5, 40.0])
    solver = phase_propagator(ASYM)
    stacks = list(solver(rows, label, times))
    assert len(stacks) == len(times)
    for t, out in zip(times, stacks):
        assert np.array_equal(out, at(solver, rows, label, t))


@pytest.mark.parametrize("times", [1.0, np.zeros((2, 2))])
def test_solver_takes_only_a_time_array(times):
    with pytest.raises(ValueError, match="1-D array of times"):
        phase_propagator(ASYM)(np.ones(5, dtype=complex), "ee", times)
