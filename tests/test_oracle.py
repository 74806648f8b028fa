"""The diagonalization route: block layout, Jacobi sweeps and evolution."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from thermalqubits import (
    ATOM_LABELS,
    AtomicMixtureSpec,
    CouplingPair,
    ThermalFieldSpec,
    phase_state_rows,
    quadrature_nodes,
    reduced_density,
)
from thermalqubits import checks, oracle
from thermalqubits.oracle import (
    block_table,
    jacobi_eigh,
    numeric_propagator,
    oracle_reduced_density,
)


def test_empty_block_is_the_lone_ground_state():
    # E = 0 holds |gg, 0> at the gg position; its padding states are uncoupled
    table = block_table(CouplingPair(1.5, 0.5), 3)
    assert table.shape == (6, 4, 4)
    assert np.array_equal(table[0], np.zeros((4, 4)))


def test_single_excitation_block_layout():
    # E = 1 couples {eg0, ge0, gg1} at the eg, ge and gg positions
    block = block_table(CouplingPair(1.5, 0.5), 0)[1]
    expected = np.zeros((4, 4))
    expected[1:, 1:] = [[0.0, 0.0, 1.5], [0.0, 0.0, 0.5], [1.5, 0.5, 0.0]]
    assert np.array_equal(block, expected)


def test_higher_blocks_scale_with_photon_number():
    # E = 5 couples |ee, 3>, |eg, 4>, |ge, 4>, |gg, 5>
    h = block_table(CouplingPair(2.0, 1.0), 3)[5]
    assert h[0, 1] == pytest.approx(1.0 * 2.0)
    assert h[0, 2] == pytest.approx(2.0 * 2.0)
    assert h[1, 3] == pytest.approx(2.0 * math.sqrt(5.0))
    assert h[2, 3] == pytest.approx(1.0 * math.sqrt(5.0))
    assert np.array_equal(h, h.T)
    # no direct ee-gg matrix element, no eg-ge element
    assert h[0, 3] == 0.0 and h[1, 2] == 0.0


def test_negative_excitation_is_refused():
    # the top block of a table is E = n_max + 2, so no table or solver call
    # may ask for blocks without a start of photon number 0 or more
    pair = CouplingPair(1.0, 1.0)
    for n_max in (-1, -3):
        with pytest.raises(ValueError):
            block_table(pair, n_max)
    with pytest.raises(ValueError):
        numeric_propagator(pair)(np.zeros(0), "gg", 1.0)


def test_jacobi_agrees_with_the_two_by_two_closed_form():
    w, v = jacobi_eigh(np.array([[2.0, 1.0], [1.0, 3.0]]))
    half_gap = math.sqrt(1.25)
    assert w[0] == pytest.approx(2.5 - half_gap, rel=1e-14)
    assert w[1] == pytest.approx(2.5 + half_gap, rel=1e-14)
    assert np.allclose(v.T @ v, np.eye(2), atol=1e-14)


def test_jacobi_reconstructs_random_symmetric_matrices():
    rng = np.random.default_rng(3)
    for size in (3, 4, 6):
        a = rng.standard_normal((size, size))
        m = (a + a.T) / 2.0
        w, v = jacobi_eigh(m)
        assert np.all(np.diff(w) >= 0.0)
        assert np.allclose(v @ np.diag(w) @ v.T, m, atol=1e-12)
        assert np.allclose(v.T @ v, np.eye(size), atol=1e-12)


def test_jacobi_rejects_nonsquare_and_nonsymmetric_input():
    with pytest.raises(ValueError):
        jacobi_eigh(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_jacobi_symmetry_check_is_relative_to_the_entries():
    # a nilpotent block far below 1 is as asymmetric as one of order 1
    with pytest.raises(ValueError, match="not symmetric"):
        jacobi_eigh(np.array([[0.0, 1e-14], [0.0, 0.0]]))
    w, v = jacobi_eigh(np.zeros((2, 2)))
    assert w.tolist() == [0.0, 0.0]
    assert np.array_equal(v, np.eye(2))


def test_two_photon_block_spectrum_for_equal_couplings():
    # E = 2, lambda1 = lambda2 = lam: eigenvalues 0, 0 and +-lam sqrt(6)
    lam = 1.3
    w, _ = jacobi_eigh(block_table(CouplingPair(lam, lam), 0)[2])
    expected = np.sort([-lam * math.sqrt(6.0), 0.0, 0.0, lam * math.sqrt(6.0)])
    np.testing.assert_allclose(w, expected, rtol=0.0, atol=1e-13)


def _unit_starts(pair, label, n_max, t):
    """Joint vectors evolved from each |label, n> alone, as (n, arrival, Fock)."""
    return numeric_propagator(pair)(np.eye(n_max + 1), label, t)


def test_block_evolution_starts_at_the_basis_state():
    pair = CouplingPair(1.2, 0.4)
    for row, label in enumerate(ATOM_LABELS):
        evolved = _unit_starts(pair, label, 4, 0.0)
        for n in range(5):
            expected = np.zeros((4, 7), dtype=complex)
            expected[row, n] = 1.0
            assert np.allclose(evolved[n], expected, atol=1e-13)


def test_block_evolution_preserves_norm():
    pair = CouplingPair(1.7, 0.2)
    for label in ATOM_LABELS:
        for t in (0.5, 2.0, 7.3, 19.0):
            norms = np.sum(np.abs(_unit_starts(pair, label, 6, t)) ** 2, axis=(1, 2))
            assert np.abs(norms - 1.0).max() < 1e-13


def test_swapping_labels_swaps_the_couplings():
    # a ge start under (l1, l2) is an eg start under (l2, l1) with the
    # middle arrival rows exchanged
    spec = ThermalFieldSpec(0.5, 1e-8)
    coeffs = phase_state_rows(spec, [0.9])[0]
    a = numeric_propagator(CouplingPair(1.5, 0.5))(coeffs, "ge", 2.1)
    b = numeric_propagator(CouplingPair(0.5, 1.5))(coeffs, "eg", 2.1)
    assert np.abs(a[0] - b[0]).max() < 1e-13
    assert np.abs(a[1] - b[2]).max() < 1e-13
    assert np.abs(a[2] - b[1]).max() < 1e-13
    assert np.abs(a[3] - b[3]).max() < 1e-13


def test_unknown_label_is_refused():
    solver = numeric_propagator(CouplingPair(1.0, 1.0))
    with pytest.raises(ValueError):
        solver(np.array([1.0 + 0j]), "xx", 1.0)


def test_reduced_density_matches_the_closed_form_assembly():
    spec = ThermalFieldSpec(1.0, 1e-8)
    mix = AtomicMixtureSpec(1.0, 0.7)
    pair = CouplingPair.from_gamma(0.3)
    for t in (0.0, 1.7, 6.4):
        a = oracle_reduced_density(spec, mix, pair, t).matrix
        b = reduced_density(spec, mix, pair, t).matrix
        assert np.abs(a - b).max() < 1e-12


def test_reduced_density_trace_and_hermiticity():
    spec = ThermalFieldSpec(0.5, 1e-8)
    rho = oracle_reduced_density(
        spec, AtomicMixtureSpec(0.8, 0.3), CouplingPair(1.6, 0.7), 4.4
    )
    assert rho.trace == pytest.approx(spec.retained_mass(), abs=1e-12)
    assert np.abs(rho.matrix - rho.matrix.conj().T).max() < 1e-15


@pytest.mark.parametrize("label", ["ee", "eg", "ge", "gg"])
@pytest.mark.parametrize("nbar", [0.0, 1e-6, 0.5])
def test_stacked_propagation_equals_row_by_row_calls(label, nbar):
    spec = ThermalFieldSpec(nbar, 1e-8)
    rows = phase_state_rows(spec, quadrature_nodes(9)[0])
    solver = numeric_propagator(CouplingPair(1.3, 0.4))
    stacked = solver(rows, label, 2.7)
    assert stacked.shape == (9, 4, spec.truncation + 3)
    for row, out in zip(rows, stacked):
        assert np.array_equal(out, solver(row, label, 2.7))


GAMMAS = [0.0, 1e-9, 0.3, 1.0 - 1e-6]


@pytest.mark.parametrize("gamma", GAMMAS)
def test_block_table_rows_are_the_built_blocks(gamma):
    # every row equals the block written out entry by entry, and a row
    # does not depend on the cutoff of the table it sits in
    pair = CouplingPair.from_gamma(gamma)
    l1, l2 = pair.lambda1, pair.lambda2
    table = block_table(pair, 40)
    assert table.shape == (43, 4, 4)
    assert np.array_equal(block_table(pair, 17), table[:20])
    for n in (-1, 0, 1, 17, 40):
        lower, upper = math.sqrt(max(n + 1, 0)), math.sqrt(n + 2)
        block = np.zeros((4, 4))
        block[0, 1] = block[1, 0] = l2 * lower
        block[0, 2] = block[2, 0] = l1 * lower
        block[1, 3] = block[3, 1] = l1 * upper
        block[2, 3] = block[3, 2] = l2 * upper
        assert np.array_equal(table[n + 2], block)


def test_block_table_refuses_a_bad_cutoff():
    with pytest.raises(ValueError):
        block_table(CouplingPair(1.0, 1.0), -1)
    with pytest.raises(ValueError):
        block_table(CouplingPair(1.0, 1.0), 2.5)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_stacked_jacobi_is_bitwise_the_one_block_calls(gamma):
    table = block_table(CouplingPair.from_gamma(gamma), 60)
    w, v = jacobi_eigh(table)
    assert w.shape == (63, 4) and v.shape == (63, 4, 4)
    for n, block in enumerate(table):
        w1, v1 = jacobi_eigh(block[None])
        assert np.array_equal(w1[0], w[n]) and np.array_equal(v1[0], v[n])
        w2, v2 = jacobi_eigh(block)
        assert np.array_equal(w2, w[n]) and np.array_equal(v2, v[n])


def test_stacked_jacobi_handles_blocks_converging_at_different_sweeps():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 4, 4))
    stack = (a + a.swapaxes(-1, -2)) / 2.0
    stack[1] = np.diag([3.0, -1.0, 2.0, 0.5])  # converged before any rotation
    stack[2] = 0.0
    w, v = jacobi_eigh(stack)
    for k in range(5):
        w1, v1 = jacobi_eigh(stack[k])
        assert np.array_equal(w1, w[k]) and np.array_equal(v1, v[k])
        assert np.allclose(v[k] @ np.diag(w[k]) @ v[k].T, stack[k], atol=1e-13)
    assert np.array_equal(w[1], [-1.0, 0.5, 2.0, 3.0])


@pytest.mark.parametrize("scale", [1.0, 1e-8, 1e-15, 1e-70])
def test_rescaled_couplings_leave_every_route_in_agreement(scale):
    # only lambda t enters the dynamics, so couplings scaled by s and times by
    # 1/s give the same densities; the sweep must still rotate small blocks
    pair = CouplingPair(1.4 * scale, 0.55 * scale)
    spec = ThermalFieldSpec(1.0)
    times = np.array([0.0, 1.3, 7.9, 25.0]) / scale
    assert checks.route_gap(spec, AtomicMixtureSpec(0.9, 0.4), pair, times) <= 1e-12
    assert checks.spectrum_defect(pair, spec.truncation) / scale <= 1e-11


@pytest.mark.parametrize("gamma", GAMMAS)
def test_stacked_jacobi_eigenvalues_match_lapack(gamma):
    # numpy's eigvalsh is a test-only reference.  Against a 40-digit
    # reference eigvalsh itself misses by up to 8.5 ulp of the block scale
    # on these blocks and the Jacobi sweep by up to 3.8, so the two are
    # compared at 4e-15 of the scale rather than at one rounding.
    table = block_table(CouplingPair.from_gamma(gamma), 300)
    w, v = jacobi_eigh(table)
    scale = np.abs(table).max(axis=(-2, -1))
    gap = np.abs(w - np.linalg.eigvalsh(table)).max(axis=-1)
    assert np.all(gap <= 4e-15 * scale)
    reconstructed = v @ (w[..., None] * v.swapaxes(-1, -2))
    assert np.abs(reconstructed - table).max() <= 1e-14 * scale.max()


def test_time_array_oracle_matches_per_time_calls():
    spec = ThermalFieldSpec(2.0, 1e-8)
    mix = AtomicMixtureSpec(0.8, 0.3)
    pair = CouplingPair.from_gamma(0.45)
    times = np.array([0.0, 0.7, 3.1, 12.5, 40.0])
    stack = oracle_reduced_density(spec, mix, pair, times)
    assert stack.matrix.shape == (5, 4, 4)
    for t, rho in zip(times, stack.matrix):
        single = oracle_reduced_density(spec, mix, pair, float(t)).matrix
        assert single.shape == (4, 4)
        assert np.abs(single - rho).max() < 1e-14


def test_oracle_refuses_a_time_matrix():
    with pytest.raises(ValueError):
        oracle_reduced_density(
            ThermalFieldSpec(0.5), AtomicMixtureSpec(0.5, 0.5), CouplingPair(1.0, 1.0),
            np.zeros((2, 2)),
        )


def test_propagator_diagonalizes_once(monkeypatch):
    spec = ThermalFieldSpec(0.5, 1e-8)
    rows = phase_state_rows(spec, np.array([0.0, 1.0, 2.0]))
    shapes = []
    original = oracle.jacobi_eigh

    def counting(matrix, *args, **kwargs):
        shapes.append(np.shape(matrix))
        return original(matrix, *args, **kwargs)

    monkeypatch.setattr(oracle, "jacobi_eigh", counting)
    solver = numeric_propagator(CouplingPair(1.3, 0.4))
    for label, t in (("ee", 1.0), ("gg", 2.0), ("ge", 0.5)):
        solver(rows, label, t)
    assert shapes == [(spec.truncation + 3, 4, 4)]
    # a smaller cutoff reuses the table it holds
    solver(rows[:, :3], "gg", 1.0)
    assert shapes == [(spec.truncation + 3, 4, 4)]
    # more photon levels need a larger table, built once more
    solver(np.ones((1, spec.truncation + 5)), "eg", 1.0)
    assert shapes[1:] == [(spec.truncation + 7, 4, 4)]


def test_oracle_keeps_nothing_between_calls():
    spec = ThermalFieldSpec(1.0, 1e-8)
    mix = AtomicMixtureSpec(0.8, 0.3)
    times = np.linspace(0.0, 10.0, 7)

    def run(k):
        pair = CouplingPair(1.0 + 1e-3 * k, 0.5)
        oracle_reduced_density(spec, mix, pair, times)
        numeric_propagator(pair)(np.ones((2, spec.truncation + 1)), "ee", 1.0)

    run(0)
    gc.collect()
    tracemalloc.start()
    try:
        run(1)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for k in range(2, 52):
            run(k)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # one table at this size is about 7 kB; 50 retained tables would be 350 kB
    assert grown < 4096


def test_plan_counts_the_block_table_and_the_evolved_amplitudes():
    # N + 3 blocks of 4 x 4 and a (T, N + 1, 4) amplitude stack, at N = 99
    plan = oracle.ENTRY_BYTES * (16 * 102 + 4 * 7 * 100)
    assert oracle.oracle_reduced_density_bytes(99, 7) == plan


@pytest.mark.parametrize("nbar, times", [(1.0, 7), (20.0, 3), (100.0, 7)])
def test_plan_covers_the_measured_peak(nbar, times, traced_peak):
    spec = ThermalFieldSpec(nbar)
    probes = np.linspace(0.0, 25.0, times)
    mix, pair = AtomicMixtureSpec(0.9, 0.4), CouplingPair.from_gamma(0.3)
    peak = traced_peak(lambda: oracle_reduced_density(spec, mix, pair, probes))
    assert peak <= oracle.oracle_reduced_density_bytes(spec.truncation, times)
