"""Partial-transpose negativity, eigenvalue route against the X closed form."""

import math

import numpy as np
import pytest

from thermalqubits import (
    TwoQubitDensity,
    closed_form_gamma,
    closed_form_negativity,
    negativity,
    upsilon_witness,
)


def bell_density():
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = m[2, 2] = m[1, 2] = m[2, 1] = 0.5
    return m


def random_x_state(rng):
    pop = rng.dirichlet(np.ones(4))
    phase = np.exp(2j * math.pi * rng.uniform())
    coh = rng.uniform() * math.sqrt(pop[1] * pop[2]) * phase
    return TwoQubitDensity.from_components(
        float(pop[0]), float(pop[1]), float(pop[2]), float(pop[3]), complex(coh)
    )


def test_bell_pair_scores_one():
    res = negativity(bell_density())
    assert res.xi == pytest.approx(1.0, abs=1e-14)
    assert len(res.negative_eigenvalues) == 1
    assert res.negative_eigenvalues[0] == pytest.approx(-0.5, abs=1e-14)
    assert res.upsilon == pytest.approx(-0.25, abs=1e-15)


def test_diagonal_densities_score_positive_zero():
    res = negativity(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    assert res.xi == 0.0
    assert res.negative_eigenvalues == ()
    assert math.copysign(1.0, res.xi) == 1.0


def test_result_is_consistent_with_its_own_eigenvalues():
    rho = TwoQubitDensity.from_components(0.2, 0.3, 0.3, 0.2, 0.1 + 0.05j)
    res = negativity(rho)
    assert res.xi == 0.0 - 2.0 * sum(res.negative_eigenvalues)
    assert res.upsilon == pytest.approx(upsilon_witness(rho), abs=1e-15)


def test_stack_gives_the_single_matrix_results():
    rng = np.random.default_rng(41)
    singles = [random_x_state(rng) for _ in range(30)]
    singles.append(TwoQubitDensity(bell_density()))
    singles.append(TwoQubitDensity.from_components(0.0, 0.5, 0.5, 0.0, 2.5e-13))
    stack = TwoQubitDensity(np.stack([rho.matrix for rho in singles]))
    res = negativity(stack)
    assert res.xi.shape == res.upsilon.shape == (len(singles),)
    assert res.negative_eigenvalues.shape == (len(singles), 4)
    assert np.array_equal(res.xi, 0.0 - 2.0 * res.negative_eigenvalues.sum(axis=-1))
    assert np.array_equal(res.upsilon, upsilon_witness(stack))
    for k, rho in enumerate(singles):
        one = negativity(rho)
        assert one.xi == res.xi[k]
        assert one.upsilon == res.upsilon[k]
        assert one.negative_eigenvalues == tuple(e for e in res.negative_eigenvalues[k] if e < 0.0)
    assert np.array_equal(negativity(stack.matrix).xi, res.xi)


def test_single_witness_is_bitwise_its_stack_entry():
    # one density is scored as a stack of one, so a single call, its entry
    # in a stack call and negativity's upsilon carry the same bits
    rng = np.random.default_rng(5)
    singles = [random_x_state(rng) for _ in range(500)]
    stacked = upsilon_witness(TwoQubitDensity(np.stack([rho.matrix for rho in singles])))
    for k, rho in enumerate(singles):
        one = upsilon_witness(rho)
        assert isinstance(one, float)
        assert one == stacked[k] == negativity(rho).upsilon


def test_rounding_residue_is_floored_to_zero():
    rho = TwoQubitDensity.from_components(0.0, 0.5, 0.5, 0.0, 2.5e-13)
    assert negativity(rho).xi == 0.0
    assert closed_form_negativity(rho) == 0.0


def test_honest_small_negativity_passes_the_floor():
    rho = TwoQubitDensity.from_components(0.0, 0.5, 0.5, 0.0, 1e-5)
    assert negativity(rho).xi == pytest.approx(2e-5, rel=1e-9)


def test_closed_form_gamma_worked_examples():
    # no coherence: the smaller corner population
    assert closed_form_gamma(0.3, 0.2, 0.0) == pytest.approx(0.2, rel=1e-15)
    assert closed_form_gamma(0.0, 0.0, 0.5) == pytest.approx(-0.5, rel=1e-15)
    assert closed_form_gamma(0.1, 0.2, 0.25) == pytest.approx(
        (0.3 - math.sqrt(0.26)) / 2.0, rel=1e-14
    )


def test_closed_form_gamma_ignores_the_coherence_phase():
    for phase in (1.0, -1.0, 1j, np.exp(0.7j)):
        assert closed_form_gamma(0.1, 0.3, 0.2 * phase) == pytest.approx(
            closed_form_gamma(0.1, 0.3, 0.2), rel=1e-15
        )


def test_random_x_states_agree_with_the_eigenvalue_route():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        rho = random_x_state(rng)
        worst = max(worst, abs(negativity(rho).xi - closed_form_negativity(rho)))
    assert worst < 1e-11


def test_witness_sign_tracks_the_entanglement_decision():
    rng = np.random.default_rng(8)
    for _ in range(300):
        rho = random_x_state(rng)
        ups = upsilon_witness(rho)
        xi = negativity(rho).xi
        if ups < -1e-12:
            assert xi > 0.0
        elif ups > 1e-12:
            assert xi == 0.0


def test_transposing_either_atom_gives_the_same_spectrum():
    rng = np.random.default_rng(77)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    pt2 = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    pt1 = rho.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
    w1 = np.linalg.eigvalsh(pt1)
    w2 = np.linalg.eigvalsh(pt2)
    np.testing.assert_allclose(w1, w2, rtol=0.0, atol=1e-12)
    assert negativity(rho).xi == pytest.approx(
        -2.0 * float(np.sum(np.minimum(w2, 0.0))), abs=1e-12
    )


def test_general_route_accepts_full_hermitian_densities():
    # not X-shaped: a pure superposition of ee and gg
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 0.5
    m[0, 3] = m[3, 0] = 0.5
    assert negativity(m).xi == pytest.approx(1.0, abs=1e-14)


def test_shape_and_hermiticity_are_checked():
    with pytest.raises(ValueError, match="4x4"):
        negativity(np.eye(3, dtype=complex) / 3.0)
    bad = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    bad[0, 1] = 0.1
    with pytest.raises(ValueError, match="Hermitian"):
        negativity(bad)


def test_closed_form_negativity_scores_a_stack_like_single_states():
    rng = np.random.default_rng(5)
    states = [random_x_state(rng) for _ in range(50)]
    states.append(TwoQubitDensity(bell_density()))
    stack = TwoQubitDensity(np.array([rho.matrix for rho in states]))
    scores = closed_form_negativity(stack)
    assert isinstance(scores, np.ndarray) and scores.shape == (51,)
    assert scores.tolist() == [closed_form_negativity(rho) for rho in states]
    gammas = closed_form_gamma(stack.B_ee, stack.B_gg, stack.B_coh)
    assert gammas.tolist() == [closed_form_gamma(r.B_ee, r.B_gg, r.B_coh) for r in states]
