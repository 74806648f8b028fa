"""The diagonalization route: block layout, block spectra and evolution.

The route diagonalizes its blocks with numpy's ``eigh``.
"""

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
    numeric_propagator,
    oracle_reduced_density,
)


def at(solver, coefficients, label, t):
    """The solver's one stack for the one-time array [t]."""
    (out,) = solver(coefficients, label, np.array([t]))
    return out


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
        numeric_propagator(pair)(np.zeros(0), "gg", np.array([1.0]))


def test_eigh_agrees_with_the_two_by_two_closed_form():
    # E = 1 is a two-level problem: the bright state (l1 |eg0> + l2 |ge0>) / W
    # couples to |gg1> with W = sqrt(l1^2 + l2^2), the dark state stays at 0
    l1, l2 = 2.0, 1.0
    w, v = np.linalg.eigh(block_table(CouplingPair(l1, l2), 0)[1])
    big_w = math.sqrt(l1 * l1 + l2 * l2)
    np.testing.assert_allclose(w, [-big_w, 0.0, 0.0, big_w], rtol=0.0, atol=1e-14 * big_w)
    for k in (0, 3):
        bright = math.copysign(1.0, w[k]) / big_w
        np.testing.assert_allclose(
            v[1:, k] * np.sign(v[3, k]),
            np.array([l1 * bright, l2 * bright, 1.0]) / math.sqrt(2.0),
            rtol=0.0,
            atol=1e-14,
        )
    assert np.all(v[0, [0, 3]] == 0.0)  # the ee padding state stays out
    assert np.allclose(v.T @ v, np.eye(4), atol=1e-14)


def test_eigh_reconstructs_block_tables_at_random_couplings():
    # block tables at random couplings: ascending eigenvalues, orthonormal
    # eigenvectors, and v diag(w) v^T gives the table back
    rng = np.random.default_rng(3)
    for n_max in (3, 4, 6):
        table = block_table(CouplingPair(*rng.uniform(0.05, 2.0, 2)), n_max)
        w, v = np.linalg.eigh(table)
        assert np.all(np.diff(w, axis=-1) >= 0.0)
        assert np.allclose(v @ (w[..., None] * v.swapaxes(-1, -2)), table, atol=1e-12)
        assert np.allclose(v.swapaxes(-1, -2) @ v, np.eye(4), atol=1e-12)


def test_block_tables_stay_exactly_symmetric_at_every_scale():
    # eigh reads one triangle, so every block must be exactly symmetric, at
    # any coupling scale; the uncoupled block E = 0 comes back as w = 0 and
    # v = +-I exactly, which keeps its padding amplitudes exact zeros
    for scale in (1.0, 1e-15, 1e-70):
        table = block_table(CouplingPair(1.4 * scale, 0.55 * scale), 5)
        assert np.array_equal(table, table.swapaxes(-1, -2))
        w, v = np.linalg.eigh(table)
        assert w[0].tolist() == [0.0, 0.0, 0.0, 0.0]
        assert np.array_equal(np.abs(v[0]), np.eye(4))


def test_two_photon_block_spectrum_for_equal_couplings():
    # E = 2, lambda1 = lambda2 = lam: eigenvalues 0, 0 and +-lam sqrt(6)
    lam = 1.3
    w = np.linalg.eigvalsh(block_table(CouplingPair(lam, lam), 0)[2])
    expected = np.sort([-lam * math.sqrt(6.0), 0.0, 0.0, lam * math.sqrt(6.0)])
    np.testing.assert_allclose(w, expected, rtol=0.0, atol=1e-13)


def _unit_starts(pair, label, n_max, t):
    """Joint vectors evolved from each |label, n> alone, as (n, arrival, Fock)."""
    return at(numeric_propagator(pair), np.eye(n_max + 1), label, t)


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
    a = at(numeric_propagator(CouplingPair(1.5, 0.5)), coeffs, "ge", 2.1)
    b = at(numeric_propagator(CouplingPair(0.5, 1.5)), coeffs, "eg", 2.1)
    assert np.abs(a[0] - b[0]).max() < 1e-13
    assert np.abs(a[1] - b[2]).max() < 1e-13
    assert np.abs(a[2] - b[1]).max() < 1e-13
    assert np.abs(a[3] - b[3]).max() < 1e-13


def test_unknown_label_is_refused():
    solver = numeric_propagator(CouplingPair(1.0, 1.0))
    with pytest.raises(ValueError):
        solver(np.array([1.0 + 0j]), "xx", np.array([1.0]))


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
    stacked = at(solver, rows, label, 2.7)
    assert stacked.shape == (9, 4, spec.truncation + 3)
    for row, out in zip(rows, stacked):
        assert np.array_equal(out, at(solver, row, label, 2.7))


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


@pytest.mark.parametrize("gamma", GAMMAS + [1.0])
def test_stacked_eigh_is_bitwise_the_one_block_calls(gamma):
    # each block's eigenpairs do not depend on the stack it sits in, so the
    # oracle's densities do not depend on its cutoff beyond the blocks it
    # reads, and numeric_propagator may reuse a larger table it holds
    table = block_table(CouplingPair.from_gamma(gamma), 60)
    w, v = np.linalg.eigh(table)
    assert w.shape == (63, 4) and v.shape == (63, 4, 4)
    for n, block in enumerate(table):
        w1, v1 = np.linalg.eigh(block[None])
        assert np.array_equal(w1[0], w[n]) and np.array_equal(v1[0], v[n])
        w2, v2 = np.linalg.eigh(block)
        assert np.array_equal(w2, w[n]) and np.array_equal(v2, v[n])
    w3, v3 = np.linalg.eigh(block_table(CouplingPair.from_gamma(gamma), 17))
    assert np.array_equal(w3, w[:20]) and np.array_equal(v3, v[:20])


@pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
def test_padding_positions_stay_exact_zeros(gamma):
    # the padding states of blocks E = 0 and 1 (every position of E = 0 but
    # gg, the ee position of E = 1) are uncoupled, so the diagonalization
    # must leave their amplitudes exactly zero at every time
    w, v = np.linalg.eigh(block_table(CouplingPair.from_gamma(gamma), 6))
    times = np.array([0.0, 1.3, 7.9, 2.5e3])
    gg = oracle._start_amplitudes(w, v, "gg", 6, times)
    assert np.all(gg[:, 0, :3] == 0.0) and np.all(gg[:, 1, 0] == 0.0)
    for label in ("eg", "ge"):
        assert np.all(oracle._start_amplitudes(w, v, label, 6, times)[:, 0, 0] == 0.0)


def test_stacked_eigh_returns_each_kind_of_block_as_if_alone():
    # blocks that need different work share one stack: the zero block E = 0,
    # degenerate (gamma 0), decoupled (gamma 1) and tiny (1e-70) couplings;
    # each comes back as if alone and reconstructs at its own scale
    pairs = [
        CouplingPair.from_gamma(0.0),
        CouplingPair.from_gamma(1.0),
        CouplingPair(1.4e-70, 0.55e-70),
        CouplingPair.from_gamma(0.3),
    ]
    stack = np.concatenate([block_table(pair, 4) for pair in pairs])
    w, v = np.linalg.eigh(stack)
    for k, block in enumerate(stack):
        w1, v1 = np.linalg.eigh(block)
        assert np.array_equal(w1, w[k]) and np.array_equal(v1, v[k])
        scale = np.abs(block).max()
        assert np.abs(v[k] @ np.diag(w[k]) @ v[k].T - block).max() <= 1e-13 * scale
    assert np.all(w[:: block_table(pairs[0], 4).shape[0]] == 0.0)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_eigh_and_eigvalsh_agree_on_block_tables(gamma):
    # the oracle route takes eigh's eigenpairs and the spectrum line
    # eigvalsh's eigenvalues, two LAPACK drivers that differ by a few ulp
    # of the block scale (up to 2.5e-15 at N = 300), so they are compared
    # at 4e-15 of the scale rather than bitwise
    table = block_table(CouplingPair.from_gamma(gamma), 300)
    w, v = np.linalg.eigh(table)
    scale = np.abs(table).max(axis=(-2, -1))
    gap = np.abs(w - np.linalg.eigvalsh(table)).max(axis=-1)
    assert np.all(gap <= 4e-15 * scale)
    reconstructed = v @ (w[..., None] * v.swapaxes(-1, -2))
    assert np.abs(reconstructed - table).max() <= 1e-14 * scale.max()


def _random_tables(rng, count, n_max):
    """``count`` block tables at random couplings, scales spread over 1e-6 .. 1e6."""
    scales = 10.0 ** rng.uniform(-6.0, 6.0, count)
    return np.stack(
        [block_table(CouplingPair(*(s * rng.uniform(0.05, 1.0, 2))), n_max) for s in scales]
    )


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_eigh_and_eigvalsh_agree_on_random_stacks(size):
    # the bounds of the block-table comparison above, on stacks of tables
    # whose couplings span twelve decades; ``size`` is the tables' cutoff
    stack = _random_tables(np.random.default_rng(size), 300, size)
    w, v = np.linalg.eigh(stack)
    scale = np.abs(stack).max(axis=(-2, -1))
    gap = np.abs(w - np.linalg.eigvalsh(stack)).max(axis=-1)
    assert np.all(gap <= 4e-15 * scale)
    reconstructed = v @ (w[..., None] * v.swapaxes(-1, -2))
    assert np.all(np.abs(reconstructed - stack).max(axis=(-2, -1)) <= 1e-14 * scale)
    assert np.abs(v.swapaxes(-1, -2) @ v - np.eye(4)).max() <= 1e-14


@pytest.mark.parametrize("size", [3, 5])
def test_stacked_eigh_of_odd_size_is_bitwise_the_one_block_calls(size):
    # tables of odd cutoff at random couplings, with a decoupled second atom
    # (lambda2 = 0) among them, stacked on a leading axis
    stack = _random_tables(np.random.default_rng(7), 40, size)
    stack[8] = block_table(CouplingPair(1.3, 0.0), size)
    w, v = np.linalg.eigh(stack)
    for k, table in enumerate(stack):
        for n, block in enumerate(table):
            w1, v1 = np.linalg.eigh(block)
            assert np.array_equal(w1, w[k, n]) and np.array_equal(v1, v[k, n])


@pytest.mark.parametrize("scale", [1.0, 1e-8, 1e-15, 1e-70])
def test_rescaled_couplings_leave_every_route_in_agreement(scale):
    # only lambda t enters the dynamics, so couplings scaled by s and times by
    # 1/s give the same densities; the diagonalization must still resolve
    # blocks whose entries are far below 1
    pair = CouplingPair(1.4 * scale, 0.55 * scale)
    spec = ThermalFieldSpec(1.0)
    times = np.array([0.0, 1.3, 7.9, 25.0]) / scale
    assert checks.route_gap(spec, AtomicMixtureSpec(0.9, 0.4), pair, times) <= 1e-12
    assert checks.spectrum_defect(pair, spec.truncation) / scale <= 1e-11


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


@pytest.mark.parametrize("label", ["ee", "eg", "ge", "gg"])
def test_time_array_propagation_matches_per_time_calls(label):
    spec = ThermalFieldSpec(2.0, 1e-8)
    rows = phase_state_rows(spec, quadrature_nodes(spec.truncation + 1)[0])
    times = np.array([0.0, 0.7, 3.1, 12.5, 40.0])
    solver = numeric_propagator(CouplingPair.from_gamma(0.45))
    stacks = list(solver(rows, label, times))
    assert len(stacks) == len(times)
    for t, out in zip(times, stacks):
        assert out.shape == (len(rows), 4, spec.truncation + 3)
        assert np.abs(out - at(solver, rows, label, t)).max() <= 1e-14


@pytest.mark.parametrize("times", [1.0, np.zeros((2, 2))])
def test_propagator_takes_only_a_time_array(times):
    with pytest.raises(ValueError, match="1-D array of times"):
        numeric_propagator(CouplingPair(1.0, 1.0))(np.ones(5, dtype=complex), "ee", times)


def test_oracle_refuses_a_time_matrix():
    with pytest.raises(ValueError):
        oracle_reduced_density(
            ThermalFieldSpec(0.5), AtomicMixtureSpec(0.5, 0.5), CouplingPair(1.0, 1.0),
            np.zeros((2, 2)),
        )


def test_oracle_keeps_nothing_between_calls():
    spec = ThermalFieldSpec(1.0, 1e-8)
    mix = AtomicMixtureSpec(0.8, 0.3)
    times = np.linspace(0.0, 10.0, 7)

    def run(k):
        pair = CouplingPair(1.0 + 1e-3 * k, 0.5)
        oracle_reduced_density(spec, mix, pair, times)
        at(numeric_propagator(pair), np.ones((2, spec.truncation + 1)), "ee", 1.0)

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
