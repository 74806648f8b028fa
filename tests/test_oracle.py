"""The diagonalization route: block layout, Jacobi sweeps and evolution."""

import math

import numpy as np
import pytest

from thermalqubits import (
    AtomicMixtureSpec,
    CouplingPair,
    ThermalFieldSpec,
    make_phase_state,
    phase_state_rows,
    quadrature_nodes,
    reduced_density,
)
from thermalqubits.oracle import (
    build_block,
    evolve_block,
    jacobi_eigh,
    numeric_propagator,
    oracle_reduced_density,
)


def test_empty_block_is_the_lone_ground_state():
    block = build_block(0, CouplingPair(1.5, 0.5))
    assert block.basis == (("gg", 0),)
    assert block.hamiltonian.shape == (1, 1)
    assert block.hamiltonian[0, 0] == 0.0


def test_single_excitation_block_layout():
    block = build_block(1, CouplingPair(1.5, 0.5))
    assert block.basis == (("eg", 0), ("ge", 0), ("gg", 1))
    expected = np.array([[0.0, 0.0, 1.5], [0.0, 0.0, 0.5], [1.5, 0.5, 0.0]])
    assert np.array_equal(block.hamiltonian, expected)


def test_higher_blocks_scale_with_photon_number():
    block = build_block(5, CouplingPair(2.0, 1.0))
    assert block.basis == (("ee", 3), ("eg", 4), ("ge", 4), ("gg", 5))
    h = block.hamiltonian
    assert h[0, 1] == pytest.approx(1.0 * 2.0)
    assert h[0, 2] == pytest.approx(2.0 * 2.0)
    assert h[1, 3] == pytest.approx(2.0 * math.sqrt(5.0))
    assert h[2, 3] == pytest.approx(1.0 * math.sqrt(5.0))
    assert np.array_equal(h, h.T)
    # no direct ee-gg matrix element, no eg-ge element
    assert h[0, 3] == 0.0 and h[1, 2] == 0.0


def test_negative_excitation_is_refused():
    with pytest.raises(ValueError):
        build_block(-1, CouplingPair(1.0, 1.0))


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


def test_two_photon_block_spectrum_for_equal_couplings():
    # E = 2, lambda1 = lambda2 = lam: eigenvalues 0, 0 and +-lam sqrt(6)
    lam = 1.3
    w, _ = jacobi_eigh(build_block(2, CouplingPair(lam, lam)).hamiltonian)
    expected = np.sort([-lam * math.sqrt(6.0), 0.0, 0.0, lam * math.sqrt(6.0)])
    np.testing.assert_allclose(w, expected, rtol=0.0, atol=1e-13)


def test_block_evolution_starts_at_the_basis_state():
    block = build_block(4, CouplingPair(1.2, 0.4))
    for start in range(4):
        vec = evolve_block(block, 0.0, start)
        expected = np.zeros(4, dtype=complex)
        expected[start] = 1.0
        assert np.allclose(vec, expected, atol=1e-13)


def test_block_evolution_preserves_norm():
    block = build_block(3, CouplingPair(1.7, 0.2))
    for t in (0.5, 2.0, 7.3, 19.0):
        vec = evolve_block(block, t, 1)
        assert abs(float(np.vdot(vec, vec).real) - 1.0) < 1e-13


def test_block_evolution_checks_the_start_index():
    block = build_block(1, CouplingPair(1.0, 1.0))
    with pytest.raises(ValueError):
        evolve_block(block, 1.0, 3)
    with pytest.raises(ValueError):
        evolve_block(block, 1.0, -1)


def test_swapping_labels_swaps_the_couplings():
    # a ge start under (l1, l2) is an eg start under (l2, l1) with the
    # middle arrival rows exchanged
    spec = ThermalFieldSpec(0.5, 1e-8)
    coeffs = make_phase_state(spec, 0.9).coefficients
    a = numeric_propagator(CouplingPair(1.5, 0.5))(coeffs, "ge", 2.1).reshape(4, -1)
    b = numeric_propagator(CouplingPair(0.5, 1.5))(coeffs, "eg", 2.1).reshape(4, -1)
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
    rows = phase_state_rows(spec, np.array([phi for phi, _ in quadrature_nodes(9)]))
    solver = numeric_propagator(CouplingPair(1.3, 0.4))
    stacked = solver(rows, label, 2.7)
    assert stacked.shape == (9, 4 * (spec.truncation + 3))
    for row, out in zip(rows, stacked):
        assert np.array_equal(out, solver(row, label, 2.7))
