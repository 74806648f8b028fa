"""Release gate: every numbered check prints one PASS or FAIL line.

The checks cross the independent computation routes against each other at
fixed tolerances and pin the behavior the package promises.  Two of them
(5a and 5b) encode a published entanglement-window formula for the vacuum
field; the computed dynamics contradicts that formula, the checks state it
as given, and they fail with the measured numbers in the message.  The
failure is the finding, not a defect of the routes, which agree with each
other everywhere.
"""

import json
import math
import time

import numpy as np
import pytest

from thermalqubits import (
    AtomicMixtureSpec,
    CouplingPair,
    ThermalFieldSpec,
    TwoQubitDensity,
    block_spectrum,
    negativity,
    reduced_density,
)
from thermalqubits import checks
from thermalqubits.cli import main
from thermalqubits.oracle import oracle_reduced_density
from thermalqubits.phase_engine import exact_node_count

MIXTURES = ((math.pi / 2.0, 0.0), (math.pi / 2.0, math.pi / 2.0), (0.0, 0.0))


def test_criterion_1_three_routes_agree_everywhere(criterion):
    started = time.monotonic()
    worst = 0.0
    for nbar in (0.0, 0.5, 1.0):
        spec = ThermalFieldSpec(nbar, 1e-10)
        for gamma in (0.0, 0.1, 0.5, 0.9, 1.0):
            pair = CouplingPair.from_gamma(gamma)
            for theta, vartheta in MIXTURES:
                mix = AtomicMixtureSpec(theta, vartheta)
                gap = checks.route_gap(spec, mix, pair, np.linspace(0.0, 25.0, 50))
                worst = max(worst, gap)
    elapsed = time.monotonic() - started
    ok = worst <= 1e-10 and elapsed < 120.0
    detail = f"largest pairwise entry gap {worst:.3e}, {elapsed:.1f} s"
    assert criterion(1, ok, detail), detail


def test_criterion_2_amplitude_columns_are_unit_vectors(criterion):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(12):
        l1 = float(rng.uniform(0.2, 2.5))
        l2 = float(rng.uniform(0.0, l1))
        pair = CouplingPair(l1, l2)
        worst = max(worst, checks.column_norm_defect(pair, 30, np.array([0.5, 2.0, 7.3, 19.0])))
    ok = worst <= 1e-12
    detail = f"norm defect {worst:.3e} over 12 coupling pairs, n up to 30"
    assert criterion(2, ok, detail), detail


def test_criterion_3_frequencies_match_the_diagonalized_blocks(criterion):
    rng = np.random.default_rng(333)
    worst = 0.0
    for _ in range(20):
        l1 = float(rng.uniform(0.2, 2.5))
        l2 = float(rng.uniform(0.0, l1))
        worst = max(worst, checks.spectrum_defect(CouplingPair(l1, l2), 30))
    ok = worst <= 1e-11
    detail = f"eigenvalue gap {worst:.3e} over 20 coupling pairs, n up to 30"
    assert criterion(3, ok, detail), detail


def test_criterion_4_phase_average_reconstructs_the_field(criterion):
    spec = ThermalFieldSpec(1.0, 1e-10)
    # N + 1 nodes cancel every phase difference of levels 0 .. N
    count = spec.truncation + 1
    full_err, survivor = checks.field_reconstruction_residuals(spec, count)
    ok = full_err <= 1e-12 and survivor >= 1e-2 and count >= exact_node_count(spec.truncation)
    detail = (
        f"full-period defect {full_err:.3e} on {count} nodes; "
        f"half-period odd coherences survive at {survivor:.3e}"
    )
    assert criterion(4, ok, detail), detail


def test_criterion_5a_symmetric_vacuum_witness_formula(criterion):
    pair = CouplingPair.from_gamma(0.0)
    spec = ThermalFieldSpec(0.0)
    mix = AtomicMixtureSpec(0.0, 0.0)
    omega = math.sqrt(block_spectrum(-1, pair)[3])
    worst = 0.0
    for t in np.linspace(0.0, 20.0, 401):
        res = negativity(reduced_density(spec, mix, pair, float(t)))
        claimed = math.sin(float(t) * omega) ** 2 / 4.0
        worst = max(worst, abs(res.upsilon - claimed))
    t_quarter = math.pi / (2.0 * omega)
    xi_quarter = negativity(reduced_density(spec, mix, pair, t_quarter)).xi
    ok = worst <= 1e-10
    detail = (
        f"a: the coded witness sin^2(t w)/4 misses the computed one by {worst:.3e}; "
        f"the measured witness follows -sin^4(t w)/16, "
        f"and xi({t_quarter:.3f}) = {xi_quarter:.6f} rather than 0"
    )
    assert criterion("5a", ok, detail), detail


def test_criterion_5b_asymmetric_vacuum_entanglement_window(criterion):
    pair = CouplingPair.from_gamma(0.5)
    spec = ThermalFieldSpec(0.0)
    mix = AtomicMixtureSpec(0.0, 0.0)
    omega = math.sqrt(block_spectrum(-1, pair)[3])
    threshold = -(pair.lambda2 ** 2) / (pair.lambda1 ** 2)
    grid = np.linspace(0.0, 20.0, 801)
    mismatches = []
    for t in grid:
        c = math.cos(float(t) * omega)
        if abs(c - threshold) < 1e-8:
            continue
        xi = negativity(reduced_density(spec, mix, pair, float(t))).xi
        if (xi > 0.0) != (c < threshold):
            mismatches.append((float(t), c, xi))
    ok = not mismatches
    if ok:
        detail = "b: entanglement appears exactly where the cosine crosses the cutoff"
    else:
        t_bad, c_bad, xi_bad = max(mismatches, key=lambda m: m[2])
        detail = (
            f"b: {len(mismatches)} of {len(grid)} grid times land on the wrong side "
            f"of the coded window cos(t w) < {threshold:+.4f}; "
            f"e.g. xi({t_bad:.3f}) = {xi_bad:.6f} while cos = {c_bad:+.3f}"
        )
    assert criterion("5b", ok, detail), detail


def test_criterion_5c_double_ground_vacuum_stays_separable(criterion):
    spec = ThermalFieldSpec(0.0)
    mix = AtomicMixtureSpec(math.pi / 2.0, math.pi / 2.0)
    pair = CouplingPair.from_gamma(0.5)
    worst = 0.0
    for t in np.linspace(0.0, 20.0, 81):
        worst = max(worst, negativity(reduced_density(spec, mix, pair, float(t))).xi)
    ok = worst == 0.0
    detail = f"c: xi stays at {worst:.1e} for every probed time"
    assert criterion("5c", ok, detail), detail


VACUUM_GAMMAS = (0.0, 0.5, 0.9, 1.0)
VACUUM_TIMES = np.linspace(0.0, 20.0, 801)


def _vacuum_forms(gamma):
    """Coherence, witness and negativity from |eg, 0> in the vacuum, derived
    by hand: only the E = 1 block {eg0, ge0, gg1} moves, at Omega^2 =
    lambda1^2 + lambda2^2, and the reduced state has B_ee = 0."""
    l1, l2 = 1.0 + gamma, 1.0 - gamma
    omega2 = l1 * l1 + l2 * l2
    phase = math.sqrt(omega2) * VACUUM_TIMES
    c = np.cos(phase)
    x_eg = (l2 * l2 + l1 * l1 * c) / omega2
    x_ge = l1 * l2 * (c - 1.0) / omega2
    b_gg = l1 * l1 * np.sin(phase) ** 2 / omega2
    coherence = x_eg * x_ge
    return coherence, -(coherence**2), np.sqrt(b_gg**2 + 4.0 * coherence**2) - b_gg


def _vacuum_routes(gamma):
    """Negativity results from |eg, 0> in the vacuum, closed form then oracle."""
    spec, mix = ThermalFieldSpec(0.0), AtomicMixtureSpec(0.0, 0.0)
    pair = CouplingPair(1.0 + gamma, 1.0 - gamma)
    return [negativity(route(spec, mix, pair, VACUUM_TIMES))
            for route in (reduced_density, oracle_reduced_density)]


def test_criterion_5d_vacuum_witness_follows_the_derived_forms(criterion):
    worst = 0.0
    for gamma in VACUUM_GAMMAS:
        _, upsilon, xi = _vacuum_forms(gamma)
        for result in _vacuum_routes(gamma):
            worst = max(worst, np.abs(result.upsilon - upsilon).max(), np.abs(result.xi - xi).max())
    ok = worst <= 1e-12
    detail = (
        "d: from |eg, 0> in the vacuum, upsilon = -(X_eg X_ge)^2 and "
        "xi = sqrt(B_gg^2 + 4 (X_eg X_ge)^2) - B_gg hold on both routes to "
        f"{worst:.3e} at gamma 0, 0.5, 0.9 and 1"
    )
    assert criterion("5d", ok, detail), detail


def test_criterion_5e_vacuum_entanglement_vanishes_only_at_isolated_times(criterion):
    misses = 0
    entangled = []
    for gamma in VACUUM_GAMMAS:
        coherence, _, _ = _vacuum_forms(gamma)
        for result in _vacuum_routes(gamma):
            if gamma == 1.0:
                misses += np.count_nonzero(result.xi != 0.0)
            else:
                misses += np.count_nonzero((np.abs(coherence) > 1e-6) & ~(result.xi > 0.0))
                entangled.append(np.count_nonzero(result.xi > 0.0))
    ok = misses == 0
    detail = (
        f"e: below gamma 1 xi > 0 wherever |X_eg X_ge| > 1e-6, at {min(entangled)} to "
        f"{max(entangled)} of {len(VACUUM_TIMES)} times, and xi = 0 at gamma 1; "
        f"{misses} route values break this"
    )
    assert criterion("5e", ok, detail), detail


def test_criterion_6_negativity_routes_coincide(criterion):
    rng = np.random.default_rng(66)

    def random_x_state():
        pop = rng.dirichlet(np.ones(4))
        coh = rng.uniform() * math.sqrt(pop[1] * pop[2]) * np.exp(2j * math.pi * rng.uniform())
        return TwoQubitDensity.from_components(
            float(pop[0]), float(pop[1]), float(pop[2]), float(pop[3]), complex(coh)
        )

    states = TwoQubitDensity(np.array([random_x_state().matrix for _ in range(1000)]))
    worst = checks.negativity_route_gap(states)
    bell = np.zeros((4, 4), dtype=complex)
    bell[1, 1] = bell[2, 2] = bell[1, 2] = bell[2, 1] = 0.5
    bell_xi = negativity(bell).xi
    diag_xi = negativity(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)).xi
    ok = worst <= 1e-11 and abs(bell_xi - 1.0) <= 1e-12 and diag_xi == 0.0
    detail = (
        f"route gap {worst:.3e} over 1000 X states, "
        f"Bell xi = {bell_xi:.12f}, diagonal xi = {diag_xi}"
    )
    assert criterion(6, ok, detail), detail


def test_criterion_7_negativity_is_continuous_in_the_asymmetry(criterion):
    spec = ThermalFieldSpec(1.0, 1e-10)
    mix = AtomicMixtureSpec(0.0, 0.0)
    sym = CouplingPair.from_gamma(0.0)
    near = CouplingPair.from_gamma(1e-9)
    worst = 0.0
    for t in np.linspace(0.0, 25.0, 201):
        a = negativity(reduced_density(spec, mix, sym, float(t))).xi
        b = negativity(reduced_density(spec, mix, near, float(t))).xi
        worst = max(worst, abs(a - b))
    ok = worst <= 1e-6
    detail = f"xi moves by {worst:.3e} under a 1e-9 coupling asymmetry"
    assert criterion(7, ok, detail), detail


def test_criterion_8_sweep_shows_the_asymmetry_advantage(criterion, tmp_path):
    names = {}
    for label, theta, vartheta in (("ee", math.pi / 2.0, 0.0), ("eg", 0.0, 0.0)):
        for gamma in (0.0, 0.5, 0.9):
            name = f"{label}-{gamma}"
            path = tmp_path / f"{name}.cfg"
            path.write_text(
                f"nbar = 1.0\ngamma = {gamma!r}\ntheta = {theta!r}\nvartheta = {vartheta!r}\n"
                f"steps = 251\nt_max = 25.0\noutput_path = {tmp_path / name}.csv\n"
            )
            names[str(path)] = name
    summary_path = tmp_path / "summary.json"
    main(["sweep", *names, "--summary", str(summary_path)])
    summary = json.loads(summary_path.read_text())
    starts_at_zero = True
    stays_in_range = True
    peaks = {}
    for entry in summary["jobs"]:
        with open(entry["output"], encoding="utf-8") as handle:
            rows = [
                line
                for line in handle.read().splitlines()
                if line and not line.startswith("#") and not line.startswith("t,")
            ]
        ts = [float(r.split(",")[0]) for r in rows]
        xs = [float(r.split(",")[1]) for r in rows]
        peaks[names[entry["config"]]] = max(xs)
        if xs[ts.index(0.0)] != 0.0:
            starts_at_zero = False
        if min(xs) < 0.0 or max(xs) > 1.0:
            stays_in_range = False
    advantage = (
        peaks["eg-0.5"] > peaks["eg-0.0"] and peaks["eg-0.9"] > peaks["eg-0.0"]
    )
    ok = summary["failed"] == 0 and starts_at_zero and stays_in_range and advantage
    detail = (
        f"excited-ground peaks: symmetric {peaks['eg-0.0']:.4f}, "
        f"asymmetric {peaks['eg-0.5']:.4f} and {peaks['eg-0.9']:.4f}"
    )
    assert criterion(8, ok, detail), detail
