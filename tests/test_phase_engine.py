"""Phase-grid averages and the joint-density bookkeeping around them."""

import ast
import gc
import math
import tracemalloc

import numpy as np
import pytest

from thermalqubits import (
    AtomicMixtureSpec,
    CouplingPair,
    JointDensity,
    ThermalFieldSpec,
    evolve_mixed,
    partial_trace_field,
    phase_propagator,
    phase_state_rows,
    quadrature_nodes,
    reconstruct_field_density,
    reduced_density,
)
from thermalqubits import closed_form, oracle, phase_engine, reduction
from thermalqubits.oracle import numeric_propagator
from thermalqubits.phase_engine import mixed_reduced_density


def _package_imports(module):
    """The package modules ``module`` imports, each with the names it takes
    from it (empty for a plain ``import``)."""
    tree = ast.parse(open(module.__file__, encoding="utf-8").read())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.name, set())
        elif isinstance(node, ast.ImportFrom):
            names = imported.setdefault("." * node.level + (node.module or ""), set())
            names.update(alias.name for alias in node.names)
    return {
        name.removeprefix("thermalqubits").lstrip("."): names
        for name, names in imported.items()
        if name.startswith((".", "thermalqubits"))
    }


def test_engine_imports_only_the_field_module_of_the_package():
    # the average is partner-agnostic: no qubit labels or density types inside
    assert set(_package_imports(phase_engine)) == {"fock_thermal"}


def test_routes_share_plumbing_but_no_formula():
    # the diagonalized reference may borrow the closed form's coupling
    # type, amplitude placement and time check, never its spectrum or
    # tables; the closed form and the direct reduction never see the oracle
    assert _package_imports(oracle).get("closed_form", set()) <= {
        "CouplingPair", "_joint_vectors", "_time_array"
    }
    for module in (closed_form, reduction):
        assert "oracle" not in _package_imports(module)


def test_single_node_grid():
    phis, weights = quadrature_nodes(1)
    assert phis.tolist() == [0.0] and weights.tolist() == [1.0]


def test_four_node_grid_is_exact():
    phis, weights = quadrature_nodes(4)
    assert phis.tolist() == [0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0]
    assert weights.tolist() == [0.25] * 4


@pytest.mark.parametrize("count", [1, 2, 3, 97, 598, 599, 4001, 10007])
def test_grid_arrays_equal_the_per_node_formulas(count):
    # the array grids round exactly as the per-node expressions do
    phis, weights = quadrature_nodes(count)
    assert phis.tolist() == [math.tau * k / count for k in range(count)]
    assert weights.tolist() == [1.0 / count] * count


def test_empty_grids_are_refused():
    with pytest.raises(ValueError):
        quadrature_nodes(0)
    with pytest.raises(ValueError):
        reconstruct_field_density(ThermalFieldSpec(0.5), 0)
    with pytest.raises(ValueError):
        reconstruct_field_density(ThermalFieldSpec(0.5), 0, interval="half")


def test_full_period_average_collapses_to_the_number_mixture():
    spec = ThermalFieldSpec(1.0, 1e-6)
    rec = reconstruct_field_density(spec)
    target = np.diag(spec.probabilities()).astype(complex)
    assert np.abs(rec - target).max() < 1e-13


def test_field_residual_follows_the_grid_threshold():
    # N + 1 nodes cancel every phase difference of levels 0 .. N
    spec = ThermalFieldSpec(1.0, 1e-6)
    assert spec.truncation == 19
    target = np.diag(spec.probabilities()).astype(complex)
    exact = reconstruct_field_density(spec, 20)
    coarse = reconstruct_field_density(spec, 19)
    assert np.abs(exact - target).max() <= 1e-13
    assert np.abs(coarse - target).max() >= 1e-6


def test_coarse_grid_keeps_aliased_coherences():
    # two nodes cancel odd differences but pass n - m = 2 at full weight
    spec = ThermalFieldSpec(1.0, 1e-6)
    rec = reconstruct_field_density(spec, 2)
    p = spec.probabilities()
    assert abs(rec[0, 2]) == pytest.approx(math.sqrt(p[0] * p[2]), rel=1e-12)
    assert abs(rec[0, 1]) < 1e-15


def test_half_period_average_leaves_odd_coherences_standing():
    spec = ThermalFieldSpec(1.0, 1e-6)
    rec = reconstruct_field_density(spec, 101, interval="half")
    p = spec.probabilities()
    survivor = abs(rec[0, 1])
    assert survivor > 1e-2
    # the survivor sits at 2/pi of the full coherence, whatever the grid
    assert survivor == pytest.approx(2.0 / math.pi * math.sqrt(p[0] * p[1]), rel=1e-3)


def test_unknown_interval_is_refused():
    with pytest.raises(ValueError):
        reconstruct_field_density(ThermalFieldSpec(0.5), 7, interval="third")


def test_mixture_weights_must_form_a_distribution():
    spec = ThermalFieldSpec(0.5)
    solver = phase_propagator(CouplingPair.from_gamma(0.2))
    with pytest.raises(ValueError, match="negative"):
        evolve_mixed(solver, spec, {"ee": -0.1, "gg": 1.1}, 1.0)
    with pytest.raises(ValueError, match="sum"):
        evolve_mixed(solver, spec, {"ee": 0.7, "gg": 0.2}, 1.0)


def test_initial_joint_state_is_a_product():
    spec = ThermalFieldSpec(1.0, 1e-6)
    solver = phase_propagator(CouplingPair.from_gamma(0.4))
    joint = evolve_mixed(solver, spec, {"eg": 1.0}, 0.0)
    fock_dim = spec.truncation + 3
    assert joint.fock_dim == fock_dim
    expected = np.zeros((4 * fock_dim, 4 * fock_dim), dtype=complex)
    block = slice(fock_dim, 2 * fock_dim)
    expected[block, block][: spec.truncation + 1, : spec.truncation + 1] = np.diag(
        spec.probabilities()
    )
    assert np.abs(joint.matrix - expected).max() < 1e-12


def test_trace_equals_the_retained_mass():
    spec = ThermalFieldSpec(1.0, 1e-6)
    solver = phase_propagator(CouplingPair.from_gamma(0.4))
    for t in (0.0, 2.2, 9.1):
        joint = evolve_mixed(solver, spec, {"ee": 0.25, "eg": 0.75}, t)
        assert joint.trace == pytest.approx(spec.retained_mass(), abs=1e-12)


def test_zero_weight_labels_are_never_evolved():
    spec = ThermalFieldSpec(0.5, 1e-6)
    inner = phase_propagator(CouplingPair.from_gamma(0.0))
    calls = []

    def solver(coeffs, label, times):
        calls.append(label)
        return inner(coeffs, label, times)

    evolve_mixed(solver, spec, {"gg": 1.0, "ee": 0.0}, 1.0)
    assert set(calls) == {"gg"}


def test_evolution_is_linear_in_the_mixture():
    spec = ThermalFieldSpec(0.5, 1e-8)
    solver = phase_propagator(CouplingPair.from_gamma(0.6))
    t = 3.1
    mixed = evolve_mixed(solver, spec, {"ee": 0.3, "gg": 0.7}, t).matrix
    a = evolve_mixed(solver, spec, {"ee": 1.0}, t).matrix
    b = evolve_mixed(solver, spec, {"gg": 1.0}, t).matrix
    assert np.abs(mixed - (0.3 * a + 0.7 * b)).max() < 1e-13


def test_grid_refinement_changes_nothing_past_the_threshold():
    spec = ThermalFieldSpec(1.0, 1e-6)
    solver = phase_propagator(CouplingPair.from_gamma(0.3))
    base = evolve_mixed(solver, spec, {"ee": 1.0}, 2.0)
    finer = evolve_mixed(solver, spec, {"ee": 1.0}, 2.0, count=67)
    assert np.abs(base.matrix - finer.matrix).max() < 1e-12


def test_default_grid_sits_at_the_exact_threshold():
    # N nodes alias the coherences of difference N; N + 1 nodes cancel them all
    spec = ThermalFieldSpec(1.0, 1e-6)
    n = spec.truncation
    assert phase_engine.exact_node_count(n) == n + 1
    solver = phase_propagator(CouplingPair.from_gamma(0.3))
    weights = {"ee": 0.25, "eg": 0.75}
    fine = evolve_mixed(solver, spec, weights, 2.0, count=2 * n + 3).matrix
    default = evolve_mixed(solver, spec, weights, 2.0).matrix
    coarse = evolve_mixed(solver, spec, weights, 2.0, count=n).matrix
    assert np.abs(default - fine).max() <= 1e-15
    assert np.abs(coarse - fine).max() >= 1e-6


def test_repeated_runs_are_bitwise_identical():
    spec = ThermalFieldSpec(0.5, 1e-6)
    solver = phase_propagator(CouplingPair.from_gamma(0.8))
    weights = {"ee": 0.5, "eg": 0.5}
    assert np.array_equal(
        evolve_mixed(solver, spec, weights, 5.5).matrix,
        evolve_mixed(solver, spec, weights, 5.5).matrix,
    )


def test_vacuum_single_start_stays_pure():
    spec = ThermalFieldSpec(0.0)
    solver = phase_propagator(CouplingPair.from_gamma(0.5))
    joint = evolve_mixed(solver, spec, {"ee": 1.0}, 4.4).matrix
    purity = float(np.real(np.trace(joint @ joint)))
    assert purity == pytest.approx(1.0, abs=1e-10)


def test_solver_output_length_is_checked():
    spec = ThermalFieldSpec(0.5, 1e-6)

    def broken(coeffs, label, times):
        return [np.ones(7, dtype=complex) for _ in times]

    with pytest.raises(ValueError, match="amplitude stack"):
        evolve_mixed(broken, spec, {"ee": 1.0}, 0.5)


@pytest.mark.parametrize("surplus", [-1, 1])
def test_solver_must_yield_one_stack_per_time(surplus):
    spec = ThermalFieldSpec(0.5, 1e-6)
    inner = phase_propagator(CouplingPair.from_gamma(0.3))

    def miscounting(coeffs, label, times):
        stacks = list(inner(coeffs, label, times))
        return stacks[:surplus] if surplus < 0 else stacks + stacks[:surplus]

    with pytest.raises(ValueError, match="3 times"):
        mixed_reduced_density(miscounting, spec, MIX_WEIGHTS, TRACE_TIMES)


def test_solver_errors_pass_through():
    spec = ThermalFieldSpec(0.5, 1e-6)

    def failing(coeffs, label, times):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        evolve_mixed(failing, spec, {"ee": 1.0}, 0.5)


def _idle_partner(spec, partners):
    """A solver that leaves every phase state where it starts, with
    ``partners`` partner states and F = N + 3, so P F = partners (N + 3)."""
    fock_dim = spec.truncation + 3

    def at_rest(coeffs, label):
        out = np.zeros(coeffs.shape[:-1] + (partners, fock_dim), dtype=complex)
        out[..., int(label), : coeffs.shape[-1]] = coeffs
        return out

    def solver(coeffs, label, times):
        # a fresh stack per time: the caller may overwrite each one
        return [at_rest(coeffs, label) for _ in times]

    return solver


def test_engine_accepts_other_partner_dimensions():
    spec = ThermalFieldSpec(0.5, 1e-6)
    fock_dim = spec.truncation + 3
    joint = evolve_mixed(_idle_partner(spec, 2), spec, {"0": 1.0}, 0.0)
    assert joint.fock_dim == fock_dim
    assert joint.matrix.shape == (2 * fock_dim, 2 * fock_dim)


def _jaynes_cummings(g):
    """One resonant qubit: |e, n> <-> |g, n+1> at frequency g sqrt(n+1).

    Returns the (M, 2, N+2) stack over (e, g) x Fock levels 0 .. N+1.
    """

    def at(coeffs, label, t):
        n = np.arange(coeffs.shape[-1])
        out = np.zeros(coeffs.shape[:-1] + (2, len(n) + 1), dtype=complex)
        if label == "e":
            angle = g * np.sqrt(n + 1) * t
            out[..., 0, :-1] = coeffs * np.cos(angle)
            out[..., 1, 1:] = -1j * coeffs * np.sin(angle)
        else:
            angle = g * np.sqrt(n) * t
            out[..., 1, :-1] = coeffs * np.cos(angle)
            out[..., 0, :-2] = -1j * coeffs[..., 1:] * np.sin(angle[1:])
        return out

    def solver(coeffs, label, times):
        return (at(coeffs, label, t) for t in times)

    return solver


def test_engine_drives_a_one_qubit_solver_with_its_own_fock_width():
    spec = ThermalFieldSpec(2.0, 1e-10)
    g = 1.3
    solver = _jaynes_cummings(g)
    times = np.array([0.0, 0.7, 3.1, 12.5])
    rho = mixed_reduced_density(solver, spec, {"e": 1.0}, times)
    assert rho.shape == (4, 2, 2)
    n = np.arange(spec.truncation + 1)
    for t, excited in zip(times, rho[:, 0, 0].real):
        expected = math.fsum(spec.probabilities() * np.cos(g * np.sqrt(n + 1) * t) ** 2)
        assert abs(excited - expected) <= 1e-14
    for t in times:
        joint = evolve_mixed(solver, spec, {"e": 0.4, "g": 0.6}, t)
        assert joint.fock_dim == spec.truncation + 2
        traced = partial_trace_field(joint)
        assert abs(np.trace(traced) - spec.retained_mass()) <= 1e-12


def test_partial_trace_inverts_a_product_state():
    sigma = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    field = reconstruct_field_density(ThermalFieldSpec(0.5, 1e-4))
    joint = JointDensity(matrix=np.kron(sigma, field), fock_dim=field.shape[0])
    out = partial_trace_field(joint)
    assert np.abs(out - sigma * np.trace(field)).max() < 1e-14


def test_partial_trace_handles_other_partner_dimensions():
    sigma = np.array([[0.6, 0.1], [0.1, 0.4]], dtype=complex)
    field = np.eye(3, dtype=complex) / 3.0
    joint = JointDensity(matrix=np.kron(sigma, field), fock_dim=3)
    out = partial_trace_field(joint)
    assert isinstance(out, np.ndarray)
    assert out.shape == (2, 2)
    assert np.abs(out - sigma).max() < 1e-14


def test_traced_engine_matches_the_direct_reduction():
    spec = ThermalFieldSpec(1.0, 1e-8)
    pair = CouplingPair.from_gamma(0.7)
    mix = AtomicMixtureSpec(0.8, 0.3)
    solver = phase_propagator(pair)
    for t in (0.6, 5.0):
        traced = partial_trace_field(evolve_mixed(solver, spec, mix.weights(), t))
        direct = reduced_density(spec, mix, pair, t)
        assert np.abs(traced - direct.matrix).max() < 1e-10


def test_both_solvers_agree_inside_the_engine():
    spec = ThermalFieldSpec(0.5, 1e-8)
    pair = CouplingPair(1.8, 0.6)
    t = 3.7
    a = evolve_mixed(phase_propagator(pair), spec, {"eg": 1.0}, t).matrix
    b = evolve_mixed(numeric_propagator(pair), spec, {"eg": 1.0}, t).matrix
    assert np.abs(a - b).max() < 1e-11


def _per_node_reference(solver, spec, weights, t):
    """The grid average with one solver call per (label, node), one
    product per label, added in the mapping's order."""
    phis, node_weights = quadrature_nodes(phase_engine.exact_node_count(spec.truncation))
    total = 0
    for label, w_label in weights.items():
        if w_label == 0.0:
            continue
        vectors = []
        for phi in phis:
            (out,) = solver(phase_state_rows(spec, [phi])[0], label, np.array([t]))
            vectors.append(out)
        v = np.array(vectors).reshape(len(vectors), -1)
        total += (v.T * (w_label * node_weights)) @ v.conj()
    return total


def test_stacked_engine_matches_a_per_node_loop():
    spec = ThermalFieldSpec(1.0, 1e-6)
    pair = CouplingPair(1.4, 0.5)
    weights = {"ee": 0.2, "eg": 0.3, "gg": 0.5}
    closed = phase_propagator(pair)
    assert np.array_equal(
        evolve_mixed(closed, spec, weights, 3.3).matrix,
        _per_node_reference(closed, spec, weights, 3.3),
    )
    oracle = numeric_propagator(pair)
    weights = {"ge": 0.4, "ee": 0.6}
    gap = evolve_mixed(oracle, spec, weights, 3.3).matrix - _per_node_reference(
        oracle, spec, weights, 3.3
    )
    assert np.abs(gap).max() < 1e-13


def test_one_solver_call_per_weighted_label():
    spec = ThermalFieldSpec(0.5, 1e-6)
    inner = phase_propagator(CouplingPair.from_gamma(0.3))
    calls = []

    def solver(coeffs, label, times):
        calls.append((label, coeffs.shape, times.tolist()))
        return inner(coeffs, label, times)

    evolve_mixed(solver, spec, {"ee": 0.5, "eg": 0.0, "gg": 0.5}, 1.0, count=11)
    shape = (11, spec.truncation + 1)
    assert calls == [("ee", shape, [1.0]), ("gg", shape, [1.0])]


MIX = AtomicMixtureSpec(0.9, 0.4)
MIX_WEIGHTS = MIX.weights()
TRACE_PAIR = CouplingPair(1.4, 0.55)
TRACE_TIMES = np.array([0.0, 1.3, 7.9])


def _traced_joint(solver, spec, times, count=None):
    """The reduced route through the joint density, one time at a time."""
    return np.array(
        [
            partial_trace_field(evolve_mixed(solver, spec, MIX_WEIGHTS, t, count))
            for t in times
        ]
    )


@pytest.mark.parametrize("nbar", [0.5, 2.0, 20.0])
@pytest.mark.parametrize("make_solver", [phase_propagator, numeric_propagator])
def test_trace_first_average_equals_the_traced_joint_density(nbar, make_solver):
    spec = ThermalFieldSpec(nbar, 1e-8)
    solver = make_solver(TRACE_PAIR)
    rho = mixed_reduced_density(solver, spec, MIX_WEIGHTS, TRACE_TIMES)
    assert rho.shape == (3, 4, 4)
    assert np.abs(rho - _traced_joint(solver, spec, TRACE_TIMES)).max() < 1e-15


@pytest.mark.parametrize("count", [1, 2])
def test_coarse_grid_error_shows_on_both_reduced_routes(count):
    spec = ThermalFieldSpec(2.0, 1e-8)
    assert count <= spec.truncation
    solver = phase_propagator(TRACE_PAIR)
    rho = mixed_reduced_density(solver, spec, MIX_WEIGHTS, TRACE_TIMES, count)
    joint = _traced_joint(solver, spec, TRACE_TIMES, count)
    assert np.abs(rho - joint).max() < 1e-15
    exact = reduced_density(spec, MIX, TRACE_PAIR, TRACE_TIMES).matrix
    # aliased coherences of photon difference 1 or 2 reach the atoms
    assert np.abs(rho - exact).max() > 1e-2
    assert np.abs(joint - exact).max() > 1e-2


# both averages of the node loop, each with an array of times: the
# partner density over all of them and the joint density at the last
GRID_ROUTES = {
    "reduced": lambda solver, spec, weights, times, count=None: mixed_reduced_density(
        solver, spec, weights, times, count
    ),
    "joint": lambda solver, spec, weights, times, count=None: evolve_mixed(
        solver, spec, weights, times[-1], count
    ).matrix,
}


@pytest.mark.parametrize("route", GRID_ROUTES)
@pytest.mark.parametrize("make_solver", [phase_propagator, numeric_propagator])
def test_chunk_length_changes_nothing_but_rounding(make_solver, route, monkeypatch):
    spec = ThermalFieldSpec(2.0, 1e-8)
    row = spec.truncation + 1
    solver = make_solver(TRACE_PAIR)
    results = []
    for nodes in (1, 7, phase_engine.exact_node_count(spec.truncation)):
        monkeypatch.setattr(phase_engine, "NODE_CHUNK_ENTRIES", nodes * row)
        assert phase_engine.node_chunk_length(spec.truncation) == nodes
        results.append(GRID_ROUTES[route](solver, spec, MIX_WEIGHTS, TRACE_TIMES))
    for rho in results[1:]:
        assert np.abs(rho - results[0]).max() < 1e-15


@pytest.mark.parametrize("route", GRID_ROUTES)
def test_trace_first_calls_the_solver_once_per_chunk_and_label(route, monkeypatch):
    spec = ThermalFieldSpec(0.5, 1e-6)
    monkeypatch.setattr(phase_engine, "NODE_CHUNK_ENTRIES", 10 * (spec.truncation + 1))
    inner = phase_propagator(CouplingPair.from_gamma(0.3))
    calls = []

    def solver(coeffs, label, times):
        calls.append((label, times.tolist(), coeffs.shape[0]))
        return inner(coeffs, label, times)

    weights = {"ee": 0.5, "eg": 0.0, "gg": 0.5}
    times = np.array([1.0, 2.0])
    GRID_ROUTES[route](solver, spec, weights, times, count=25)
    called = times.tolist() if route == "reduced" else [2.0]
    expected = [(label, called, rows) for rows in (10, 10, 5) for label in ("ee", "gg")]
    assert calls == expected


def _one_time_at_a_time(solver):
    """The solver called once per time, each call with a one-time array."""

    def per_time(coeffs, label, times):
        return [next(iter(solver(coeffs, label, np.array([t])))) for t in times]

    return per_time


@pytest.mark.parametrize("nbar", [0.5, 2.0, 20.0])
def test_time_array_solver_calls_are_bitwise_the_per_time_calls(nbar):
    spec = ThermalFieldSpec(nbar, 1e-8)
    solver = phase_propagator(TRACE_PAIR)
    reference = _one_time_at_a_time(phase_propagator(TRACE_PAIR))
    assert np.array_equal(
        mixed_reduced_density(solver, spec, MIX_WEIGHTS, TRACE_TIMES),
        mixed_reduced_density(reference, spec, MIX_WEIGHTS, TRACE_TIMES),
    )
    t = TRACE_TIMES[1]
    joint = evolve_mixed(solver, spec, MIX_WEIGHTS, t).matrix
    assert np.array_equal(joint, _per_node_reference(solver, spec, MIX_WEIGHTS, t))


def test_time_array_solver_calls_are_bitwise_the_per_time_calls_over_chunks(monkeypatch):
    spec = ThermalFieldSpec(2.0, 1e-8)
    count = phase_engine.exact_node_count(spec.truncation)
    monkeypatch.setattr(
        phase_engine, "NODE_CHUNK_ENTRIES", (count // 3 + 1) * (spec.truncation + 1)
    )
    inner = phase_propagator(TRACE_PAIR)
    calls = []

    def solver(coeffs, label, times):
        calls.append(len(coeffs))
        return inner(coeffs, label, times)

    rho = mixed_reduced_density(solver, spec, MIX_WEIGHTS, TRACE_TIMES)
    assert len(calls) == 3 * 3  # three chunks, three weighted labels
    reference = _one_time_at_a_time(phase_propagator(TRACE_PAIR))
    assert np.array_equal(rho, mixed_reduced_density(reference, spec, MIX_WEIGHTS, TRACE_TIMES))


@pytest.mark.parametrize("route", GRID_ROUTES)
def test_grid_walk_holds_one_chunk_of_nodes_however_large_the_grid(
    route, traced_peak, monkeypatch
):
    # chunks of 10 nodes over a grid of 10,000: the angles and weights of
    # the whole grid alone would take 160 kB, ten times the plan, which
    # stops growing past one chunk; 8 kB is the fixed cost of a call
    spec = ThermalFieldSpec(0.5, 1e-6)
    monkeypatch.setattr(phase_engine, "NODE_CHUNK_ENTRIES", 10 * (spec.truncation + 1))
    times, count = np.array([0.0, 1.0]), 10_000
    solver = _idle_partner(spec, 1)
    peak = traced_peak(lambda: GRID_ROUTES[route](solver, spec, {"0": 1.0}, times, count))
    width = spec.truncation + 3
    if route == "joint":
        plan = phase_engine.evolve_mixed_bytes(spec.truncation, width, count)
        assert plan == phase_engine.evolve_mixed_bytes(spec.truncation, width, 10)
    else:
        plan = phase_engine.mixed_reduced_density_bytes(spec.truncation, width, 2, count)
        assert plan == phase_engine.mixed_reduced_density_bytes(spec.truncation, width, 2, 10)
    assert 16 * count > 10 * plan
    assert peak <= plan + 8192


@pytest.mark.parametrize("partners", [2, 8])
def test_every_partner_gets_the_chunks_of_a_two_qubit_solver(partners, monkeypatch):
    # chunks count phase-state coefficients, N + 1 per node, so the width
    # P F of the solver's stacks sizes no chunk; the plan scales with it
    spec = ThermalFieldSpec(0.5, 1e-6)
    monkeypatch.setattr(phase_engine, "NODE_CHUNK_ENTRIES", 10 * (spec.truncation + 1))
    assert phase_engine.node_chunk_length(spec.truncation) == 10

    def counted(inner, calls):
        def solver(coeffs, label, times):
            calls.append(len(coeffs))
            return inner(coeffs, label, times)

        return solver

    two_qubit, calls = [], []
    solver = counted(phase_propagator(TRACE_PAIR), two_qubit)
    mixed_reduced_density(solver, spec, {"ee": 1.0}, TRACE_TIMES, count=25)
    idle = counted(_idle_partner(spec, partners), calls)
    rho = mixed_reduced_density(idle, spec, {"1": 1.0}, TRACE_TIMES, count=25)
    assert calls == two_qubit == [10, 10, 5]
    expected = np.zeros((partners, partners))
    expected[1, 1] = spec.retained_mass()
    assert np.abs(rho - expected).max() < 1e-15
    width = partners * (spec.truncation + 3)
    plan = phase_engine.mixed_reduced_density_bytes(spec.truncation, width, len(TRACE_TIMES), 25)
    per_node, per_time = phase_engine.CHUNK_ENTRY_BYTES, phase_engine.TIME_ENTRY_BYTES
    assert plan == (per_node * 10 + per_time * len(TRACE_TIMES)) * width


def test_bound_solver_tables_die_with_their_solver():
    # each solver binds O(N) tables at nbar 50 (N = 1162); nothing may
    # outlive it.  Four nodes keep the calls cheap: the bound tables follow
    # the truncation, not the grid.
    spec = ThermalFieldSpec(50.0)
    times = np.linspace(0.0, 10.0, 3)
    mixed_reduced_density(phase_propagator(TRACE_PAIR), spec, MIX_WEIGHTS, times, 4)
    # collections also empty the interpreter's free lists, which hold
    # released tuples and are not retained by the call
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(50):
            solver = phase_propagator(CouplingPair.from_gamma(0.01 + 0.019 * k))
            mixed_reduced_density(solver, spec, MIX_WEIGHTS, times, 4)
        del solver
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 4096


def test_trace_first_takes_one_time_or_an_array():
    spec = ThermalFieldSpec(0.5, 1e-6)
    solver = phase_propagator(TRACE_PAIR)
    stack = mixed_reduced_density(solver, spec, MIX_WEIGHTS, TRACE_TIMES)
    for t, rho in zip(TRACE_TIMES, stack):
        single = mixed_reduced_density(solver, spec, MIX_WEIGHTS, float(t))
        assert single.shape == (4, 4)
        assert np.array_equal(single, rho)


def test_trace_first_checks_its_inputs():
    spec = ThermalFieldSpec(0.5, 1e-6)
    solver = phase_propagator(TRACE_PAIR)
    with pytest.raises(ValueError, match="sum"):
        mixed_reduced_density(solver, spec, {"ee": 0.7}, 1.0)
    with pytest.raises(ValueError, match="1-D"):
        mixed_reduced_density(solver, spec, MIX_WEIGHTS, np.zeros((2, 2)))


def test_joint_density_takes_one_time():
    spec = ThermalFieldSpec(0.5, 1e-6)
    solver = phase_propagator(TRACE_PAIR)
    for times in (np.array([1.0, 2.0]), [1.0]):
        with pytest.raises(ValueError, match=r"evolve_mixed takes one time, .* shape \("):
            evolve_mixed(solver, spec, MIX_WEIGHTS, times)


def test_trace_first_returns_a_bare_matrix_for_other_partners():
    spec = ThermalFieldSpec(0.5, 1e-6)
    idle = _idle_partner(spec, 2)
    rho = mixed_reduced_density(idle, spec, {"0": 0.25, "1": 0.75}, np.array([0.0, 1.0]))
    assert isinstance(rho, np.ndarray)
    assert rho.shape == (2, 2, 2)
    expected = np.diag([0.25, 0.75]) * spec.retained_mass()
    assert np.abs(rho - expected).max() < 1e-15


def test_plans_follow_the_grid_and_the_chunk_rule(monkeypatch):
    n, dim = 99, 4 * 102
    stack, chunk, per_time, field = (
        phase_engine.STACK_ENTRY_BYTES,
        phase_engine.CHUNK_ENTRY_BYTES,
        phase_engine.TIME_ENTRY_BYTES,
        phase_engine.FIELD_ENTRY_BYTES,
    )
    matrix = phase_engine.MATRIX_ENTRY_BYTES * dim * dim
    # the joint sum holds one chunk of 2621 nodes at N = 99, whatever the grid
    assert phase_engine.node_chunk_length(n) == 2621
    assert phase_engine.evolve_mixed_bytes(n, dim) == stack * 100 * dim + matrix
    assert phase_engine.evolve_mixed_bytes(n, dim, 2000) == stack * 2000 * dim + matrix
    for nodes in (2621, 10**7):
        assert phase_engine.evolve_mixed_bytes(n, dim, nodes) == stack * 2621 * dim + matrix
    assert phase_engine.reconstruct_field_density_bytes(n) == field * 100 * 200
    assert phase_engine.reconstruct_field_density_bytes(n, 3) == field * 100 * 103
    # the whole default grid fits one chunk; the solver's tables grow with the times
    assert phase_engine.mixed_reduced_density_bytes(n, dim, 7) == (chunk * 100 + per_time * 7) * dim
    assert phase_engine.mixed_reduced_density_bytes(n, dim, 1, 3) == (chunk * 3 + per_time) * dim
    monkeypatch.setattr(phase_engine, "NODE_CHUNK_ENTRIES", 5 * (n + 1) + 1)
    assert phase_engine.mixed_reduced_density_bytes(n, dim, 7) == (chunk * 5 + per_time * 7) * dim


PLAN_PAIR = CouplingPair.from_gamma(0.3)
PLAN_WEIGHTS = AtomicMixtureSpec(0.9, 0.4).weights()


@pytest.mark.parametrize(
    "nbar, nodes", [(1.0, None), (5.0, None), (0.5, 500), (0.5, 20000)]
)
def test_evolve_mixed_plan_covers_the_measured_peak(nbar, nodes, traced_peak):
    # 20,000 nodes at nbar 0.5 (N = 20) take two chunks of up to 12,483
    spec = ThermalFieldSpec(nbar)
    width = 4 * (spec.truncation + 3)
    peak = traced_peak(
        lambda: evolve_mixed(phase_propagator(PLAN_PAIR), spec, PLAN_WEIGHTS, 25.0, nodes)
    )
    plan = phase_engine.evolve_mixed_bytes(spec.truncation, width, nodes)
    assert peak <= plan


@pytest.mark.parametrize("nbar, chunk", [(0.5, None), (5.0, None), (5.0, 20)])
def test_mixed_reduced_density_plan_covers_the_measured_peak(
    nbar, chunk, traced_peak, monkeypatch
):
    spec = ThermalFieldSpec(nbar)
    width = 4 * (spec.truncation + 3)
    if chunk is not None:
        monkeypatch.setattr(phase_engine, "NODE_CHUNK_ENTRIES", chunk * (spec.truncation + 1))
    times = np.linspace(0.0, 25.0, 7)
    peak = traced_peak(
        lambda: mixed_reduced_density(phase_propagator(PLAN_PAIR), spec, PLAN_WEIGHTS, times)
    )
    assert peak <= phase_engine.mixed_reduced_density_bytes(spec.truncation, width, 7)


@pytest.mark.parametrize("make_solver", [phase_propagator, numeric_propagator])
@pytest.mark.parametrize("times", [7, 50, 200])
@pytest.mark.parametrize("nbar", [0.5, 5.0])
def test_mixed_reduced_density_plan_covers_the_solver_tables_of_every_time(
    nbar, times, make_solver, traced_peak
):
    # a solver call keeps its tables for all the times it is given beside
    # the node chunk; without a time term the plan falls short from about
    # 50 times at nbar 0.5 (1.9x) and 200 at nbar 5
    spec = ThermalFieldSpec(nbar)
    width = 4 * (spec.truncation + 3)
    probes = np.linspace(0.0, 25.0, times)
    peak = traced_peak(
        lambda: mixed_reduced_density(make_solver(PLAN_PAIR), spec, PLAN_WEIGHTS, probes)
    )
    assert peak <= phase_engine.mixed_reduced_density_bytes(spec.truncation, width, times=times)


@pytest.mark.parametrize("nbar, nodes", [(0.5, None), (20.0, None), (0.5, 5000)])
def test_reconstruct_field_density_plan_covers_the_measured_peak(nbar, nodes, traced_peak):
    spec = ThermalFieldSpec(nbar)
    peak = traced_peak(lambda: reconstruct_field_density(spec, nodes))
    assert peak <= phase_engine.reconstruct_field_density_bytes(spec.truncation, nodes)
