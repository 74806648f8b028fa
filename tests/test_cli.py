"""Configuration parsing, output plumbing and the command entry point."""

import ast
import dataclasses
import json
import math
import os
import stat
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from thermalqubits import (
    ThermalFieldSpec,
    checks,
    cli,
    closed_form,
    negativity,
    oracle,
    phase_engine,
    reduced_density,
    reduction,
)
from thermalqubits.cli import (
    CSV_HEADER,
    ConfigError,
    OutputError,
    RunConfig,
    config_from_preamble,
    load_config,
    main,
    parse_config_text,
    render_joint,
    render_timeseries,
    render_validation,
    run_sweep,
    run_timeseries,
    timeseries_rows,
)


def small_config(**kw):
    base = dict(nbar=0.5, tail_tolerance=1e-6, gamma=0.5, steps=9, t_max=4.0)
    base.update(kw)
    return RunConfig(**base)


def data_lines(text):
    return [
        line
        for line in text.splitlines()
        if line and not line.startswith("#") and line != CSV_HEADER
    ]


def test_defaults_are_complete():
    cfg = RunConfig()
    assert cfg.nbar == 1.0
    assert cfg.tail_tolerance == 1e-10
    assert cfg.gamma == 0.0
    assert cfg.lambda1 is None and cfg.lambda2 is None
    assert cfg.theta == math.pi / 2.0
    assert cfg.vartheta == 0.0
    assert (cfg.t_min, cfg.t_max, cfg.steps) == (0.0, 25.0, 1001)
    assert cfg.quadrature_nodes == "auto"
    assert cfg.node_count() is None
    assert cfg.mode == "reduced"
    assert cfg.couplings().lambda1 == 1.0


def test_gamma_and_explicit_pair_are_exclusive():
    with pytest.raises(ConfigError, match="not both"):
        RunConfig(gamma=0.5, lambda1=1.0, lambda2=1.0)
    with pytest.raises(ConfigError, match="together"):
        RunConfig(lambda1=1.0)


def test_field_validation_surfaces_as_config_errors():
    with pytest.raises(ConfigError, match="steps"):
        RunConfig(steps=0)
    with pytest.raises(ConfigError, match="t_max"):
        RunConfig(t_min=2.0, t_max=1.0)
    with pytest.raises(ConfigError, match="mode"):
        RunConfig(mode="banana")
    with pytest.raises(ConfigError, match="quadrature_nodes"):
        RunConfig(quadrature_nodes=0)
    with pytest.raises(ConfigError):
        RunConfig(nbar=-1.0)
    with pytest.raises(ConfigError):
        RunConfig(gamma=1.5)


def test_mixture_weights_cover_the_three_starts_in_label_order():
    # the engine evolves the labels in this order, so it fixes every grid sum's bits
    weights = small_config(theta=0.3, vartheta=0.4).mixture().weights()
    assert list(weights) == ["ee", "eg", "gg"]
    assert math.fsum(weights.values()) == pytest.approx(1.0, abs=1e-15)


def test_default_mixture_is_exactly_the_ee_start():
    # theta = fl(pi/2) has cos(theta) = 6.1e-17; its eg weight is 0, not 3.7e-33
    assert RunConfig().mixture().weights() == {"ee": 1.0, "eg": 0.0, "gg": 0.0}


def test_default_series_binds_one_start_label(monkeypatch):
    bound = []
    original = reduction._amplitude_rows

    def recording(labels, *args):
        bound.append(list(labels))
        return original(labels, *args)

    monkeypatch.setattr(reduction, "_amplitude_rows", recording)
    cfg = RunConfig(steps=3)
    rows = timeseries_rows(cfg)
    assert bound == [["ee"]]
    # the t = 0 row: all of the retained mass in ee, the rest exactly 0
    assert rows[0][3] == pytest.approx(cfg.field().retained_mass(), abs=1e-15)
    assert rows[0][4:] == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_default_joint_run_makes_one_solver_call_per_node_chunk(monkeypatch):
    labels = []
    original = cli.phase_propagator

    def counting(couplings):
        solver = original(couplings)

        def counted(rows, label, times):
            labels.append(label)
            return solver(rows, label, times)

        return counted

    monkeypatch.setattr(cli, "phase_propagator", counting)
    monkeypatch.setattr(phase_engine, "node_chunk_length", lambda truncation: 4)
    cfg = small_config(mode="joint")
    render_joint(cfg)
    assert labels == ["ee"] * math.ceil((cfg.field().truncation + 1) / 4)


def test_parse_key_value_lines():
    text = "\n".join(
        [
            "# a comment",
            "nbar = 0.5",
            "gamma = 0.25",
            "",
            "steps = 11",
        ]
    )
    assert parse_config_text(text) == {"nbar": 0.5, "gamma": 0.25, "steps": 11}


def test_parse_rejects_unknown_duplicate_and_malformed_lines():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("volume = 11")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("nbar = 1\nnbar = 2")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just words")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("nbar = 1\nsteps = many")


def test_command_line_couplings_replace_the_file_pair(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lambda1 = 1.5\nlambda2 = 0.5\nsteps = 3\n")
    kept = load_config(str(path), {})
    assert (kept.lambda1, kept.lambda2) == (1.5, 0.5)
    assert kept.gamma is None
    replaced = load_config(str(path), {"gamma": 0.25})
    assert replaced.gamma == 0.25
    assert replaced.lambda1 is None


def test_missing_config_file_is_a_config_error():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/nope.cfg", {})


def test_rows_carry_the_negativity_and_all_components():
    cfg = small_config(theta=0.0)
    rows = timeseries_rows(cfg)
    assert len(rows) == 9
    assert all(len(row) == 9 for row in rows)
    assert rows[0][0] == 0.0
    assert rows[0][1] == 0.0
    mass = cfg.field().retained_mass()
    for row in rows:
        assert math.fsum(row[3:7]) == pytest.approx(mass, abs=1e-12)


def _per_time_rows(cfg):
    field, mixture, couplings = cfg.field(), cfg.mixture(), cfg.couplings()
    rows = []
    for t in cfg.times():
        rho = reduced_density(field, mixture, couplings, float(t))
        res = negativity(rho)
        rows.append(
            (float(t), res.xi, res.upsilon, rho.B_ee, rho.B_egeg, rho.B_gege,
             rho.B_gg, rho.B_coh.real, rho.B_coh.imag)
        )
    return np.array(rows)


def test_chunked_series_matches_per_time_scalar_calls():
    cfg = RunConfig(nbar=1.0, gamma=0.4, theta=0.6, vartheta=0.3, t_max=100.0, steps=1001)
    chunk = reduction.chunk_length(cfg.field().truncation)
    assert cfg.steps > 3 * chunk
    rows = np.array(timeseries_rows(cfg))
    assert rows.shape == (1001, 9)
    assert np.abs(rows - _per_time_rows(cfg)).max() <= 1e-15


def test_rows_do_not_depend_on_the_chunk_length(monkeypatch):
    cfg = RunConfig(nbar=0.7, gamma=0.8, theta=1.0, vartheta=0.5, t_max=12.0, steps=97)
    reference = timeseries_rows(cfg)
    for budget in (1, 7 * (cfg.field().truncation + 1) - 1, 10**9):
        monkeypatch.setattr(reduction, "CHUNK_BUDGET", budget)
        assert timeseries_rows(cfg) == reference


def test_zero_time_row_keeps_its_exact_zeros(monkeypatch):
    # t = 0 shares its chunk with later times, which have nonzero coherence
    monkeypatch.setattr(reduction, "CHUNK_BUDGET", 10**9)
    rows = timeseries_rows(small_config(theta=0.9, vartheta=0.4))
    t, _, _, _, _, b_gege, _, re_coh, im_coh = rows[0]
    assert t == 0.0
    assert b_gege == 0.0
    assert re_coh == 0.0 and im_coh == 0.0
    assert any(row[7] != 0.0 for row in rows[1:])


def test_series_is_one_density_call_and_one_trig_call_per_chunk(monkeypatch):
    calls = {"reduced": 0, "negativity": 0, "trig": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "reduced_density", counted("reduced", cli.reduced_density))
    monkeypatch.setattr(cli, "negativity", counted("negativity", cli.negativity))
    monkeypatch.setattr(closed_form, "_block_trig", counted("trig", closed_form._block_trig))
    cfg = RunConfig(nbar=1.0, gamma=0.4, theta=0.6, vartheta=0.3, t_max=30.0, steps=301)
    assert all(cfg.mixture().weights().values())
    chunk = reduction.chunk_length(cfg.field().truncation)
    timeseries_rows(cfg)
    assert calls == {"reduced": 1, "negativity": 1, "trig": math.ceil(301 / chunk)}


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--lambda1", "1e200", "--lambda2", "1e200"],
        ["run", "--lambda1", "1e-200", "--lambda2", "1e-300"],
        ["validate", "--lambda1", "1e150", "--lambda2", "1e150"],
    ],
)
def test_couplings_outside_the_double_range_are_config_errors(argv, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("rendered a run with unresolvable couplings")

    for name in ("run_timeseries", "render_joint", "render_validation"):
        monkeypatch.setattr(cli, name, refuse)
    assert main(argv) == 2
    assert "leave the double range" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["run", "--nbar", "1e16"], ["validate", "--nbar", "1e300"]])
def test_means_without_a_truncation_are_config_errors(argv, monkeypatch, capsys):
    # past 2**53 nbar / (1 + nbar) rounds to 1, so no cutoff meets the tail tolerance
    def refuse(*args, **kwargs):
        raise AssertionError("rendered a run with no truncation")

    for name in ("run_timeseries", "render_joint", "render_validation"):
        monkeypatch.setattr(cli, name, refuse)
    assert main(argv) == 2
    assert "config error: mean photon number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--t-max", "1e308", "--steps", "3"],
        ["validate", "--t-max", "1e308"],
        ["run", "--mode", "joint", "--nbar", "0.5", "--t-max", "1e308"],
        ["run", "--t-min=-1.7e308", "--t-max", "1.7e308", "--lambda1", "1e-8",
         "--lambda2", "1e-8", "--steps", "3"],
    ],
)
def test_times_whose_phase_overflows_are_config_errors(argv, monkeypatch, capsys):
    # the last one keeps every phase finite, but not the span t_max - t_min
    def refuse(*args, **kwargs):
        raise AssertionError("rendered a run with overflowing phases")

    for name in ("run_timeseries", "render_joint", "render_validation"):
        monkeypatch.setattr(cli, name, refuse)
    assert main(argv) == 2
    assert "config error: times" in capsys.readouterr().err


def test_times_below_the_phase_overflow_stay_accepted(capsys):
    # the top phase Omega_+ t reaches 1.17e308 here, within a factor 1.6 of the overflow
    cfg = load_config(None, {"t_max": 1e307, "steps": 3})
    top = closed_form.block_spectrum(cfg.field().truncation, cfg.couplings())[3]
    assert 1e308 < math.sqrt(top) * cfg.t_max < math.inf
    assert main(["run", "--t-max", "1e307", "--steps", "3"]) == 0
    assert len(data_lines(capsys.readouterr().out)) == 3


@pytest.mark.parametrize("gamma", [0.0, 1e-9, 1.0 - 1e-6, 1.0])
def test_the_gamma_family_stays_accepted_at_nbar_100(gamma):
    assert RunConfig(nbar=100.0, gamma=gamma).couplings().lambda1 == 1.0 + gamma


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--nbar", "inf"),
        ("--tail-tolerance", "nan"),
        ("--gamma", "nan"),
        ("--lambda1", "nan"),
        ("--lambda2", "nan"),
        ("--theta", "nan"),
        ("--vartheta", "-inf"),
        ("--t-min", "nan"),
        ("--t-max", "nan"),
    ],
)
def test_non_finite_values_are_config_errors(flag, value, capsys):
    argv = ["run", f"{flag}={value}", "--steps", "3"]
    if flag in ("--lambda1", "--lambda2"):
        argv += ["--lambda2" if flag == "--lambda1" else "--lambda1", "0.5"]
    assert main(argv) == 2
    key = flag[2:].replace("-", "_")
    assert f"config error: {key} must be a finite number" in capsys.readouterr().err


# Every config key with its flag, spelled out, and a sample value that is
# not the default.
FLAGS = {
    "nbar": ("--nbar", "0.5"),
    "tail_tolerance": ("--tail-tolerance", "1e-6"),
    "gamma": ("--gamma", "0.25"),
    "lambda1": ("--lambda1", "1.5"),
    "lambda2": ("--lambda2", "0.5"),
    "theta": ("--theta", "0.3"),
    "vartheta": ("--vartheta", "0.2"),
    "t_min": ("--t-min", "1"),
    "t_max": ("--t-max", "3"),
    "steps": ("--steps", "5"),
    "quadrature_nodes": ("--quadrature-nodes", "9"),
    "mode": ("--mode", "joint"),
    "output_path": ("--output", "out.csv"),
}


@pytest.mark.parametrize("key", [field.name for field in dataclasses.fields(RunConfig)])
def test_file_key_and_flag_parse_to_the_same_config(key, tmp_path):
    flag, value = FLAGS[key]
    # an explicit coupling needs its partner
    partner = {"lambda1": "lambda2", "lambda2": "lambda1"}.get(key)
    keys = [key] + ([partner] if partner else [])
    path = tmp_path / "one.cfg"
    path.write_text("".join(f"{k} = {FLAGS[k][1]}\n" for k in keys))
    from_file = load_config(str(path), {})
    argv = ["run"] + [token for k in keys for token in FLAGS[k]]
    overrides = cli._overrides_from_args(cli._build_parser().parse_args(argv))
    assert set(overrides) == set(keys)
    assert load_config(None, overrides) == from_file
    assert from_file != RunConfig()
    assert str(getattr(from_file, key)) == str(cli._SCHEMA[key](value))


def test_work_estimate_follows_the_planned_arrays():
    n, dim = 99, 4 * 102
    # up to 2000 nodes: rendering the joint density is the larger stage
    render = cli._JSON_BYTES * dim * dim
    assert phase_engine.evolve_mixed_bytes(n, dim, 2000) < render
    for nodes in (None, 7, 2000):
        assert cli.work_bytes(n, 10, "joint", nodes) == cli._RUN_BYTES + render
    # a full chunk of 2621 nodes: the engine's evolved vectors are, and
    # they stop growing past one chunk, however large the grid
    chunk = phase_engine.evolve_mixed_bytes(n, dim, 2621)
    assert chunk > render
    for nodes in (2621, 10**7, 10**9):
        assert cli.work_bytes(n, 10, "joint", nodes) == cli._RUN_BYTES + chunk
    # the chunk's tables are the larger stage up to 1000 steps, the rows at 20001
    for steps in (10, 1000):
        assert cli.work_bytes(n, steps, "reduced") == (
            cli._RUN_BYTES + reduction.reduced_density_bytes(n, steps)
        )
    assert reduction.reduced_density_bytes(n, 1000) > cli._ROW_BYTES * 1000
    assert cli.work_bytes(n, 20001, "reduced") == cli._RUN_BYTES + cli._ROW_BYTES * 20001


def _render_peak(traced_peak, render, cfg):
    """Peak traced allocation of one render, after a warm-up render of the
    same mode at nbar 0.5."""
    return traced_peak(lambda: render(cfg), lambda: render(dataclasses.replace(cfg, nbar=0.5)))


@pytest.mark.parametrize(
    "nbar, steps", [(100.0, 3), (1000.0, 3), (1.0, 1001), (20.0, 201), (0.5, 20001)],
    ids=["100.0", "1000.0", "1.0-1001steps", "20.0-201steps", "0.5-20001steps"],
)
def test_reduced_entry_term_covers_the_measured_peak(nbar, steps, traced_peak):
    # nbar 1000 takes one time per chunk, and all three start labels bound:
    # the per-level arrays set the peak, with no help from _RUN_BYTES; the
    # long series at nbar 1 and 20 fill whole chunks; at 20001 steps the
    # rows and their CSV lines are the larger stage
    cfg = RunConfig(nbar=nbar, steps=steps, gamma=0.3, theta=0.9, vartheta=0.4)
    if steps > 3:
        assert steps > reduction.chunk_length(cfg.field().truncation)
    peak = _render_peak(traced_peak, render_timeseries, cfg)
    assert peak <= cli.work_bytes(cfg.field().truncation, steps, "reduced") - cli._RUN_BYTES


@pytest.mark.parametrize(
    "nbar, nodes", [(1.0, "auto"), (5.0, "auto"), (0.5, 1000)], ids=["1", "5", "0.5-1000nodes"]
)
def test_joint_plan_covers_the_measured_peak(nbar, nodes, traced_peak):
    # the JSON render sets the peak on the default grid, the engine's
    # evolved vectors on a grid far past the threshold
    cfg = RunConfig(nbar=nbar, steps=3, gamma=0.3, theta=0.9, vartheta=0.4,
                    mode="joint", quadrature_nodes=nodes)
    peak = _render_peak(traced_peak, render_joint, cfg)
    plan = cli.work_bytes(cfg.field().truncation, 3, "joint", cfg.node_count())
    assert peak <= plan - cli._RUN_BYTES


@pytest.mark.parametrize("nbar", [5.0, 20.0])
def test_validate_plan_covers_the_measured_peak(nbar, traced_peak):
    cfg = RunConfig(nbar=nbar, steps=3, gamma=0.3, theta=0.9, vartheta=0.4, mode="validate")
    peak = _render_peak(traced_peak, render_validation, cfg)
    plan = cli.work_bytes(cfg.field().truncation, 3, "validate")
    assert peak <= plan - cli._RUN_BYTES


def test_validate_estimate_is_its_larger_stage():
    def stages(n, probes, nodes=None):
        dim = 4 * (n + 3)
        routes = phase_engine.mixed_reduced_density_bytes(n, dim, probes, nodes)
        routes += oracle.oracle_reduced_density_bytes(n, probes)
        return routes, phase_engine.reconstruct_field_density_bytes(n, nodes)

    # at N = 99 the whole grid fits one chunk: the route stage is larger;
    # three steps probe three times
    routes, field = stages(99, 7)
    assert routes > field
    assert cli.work_bytes(99, 1001, "validate") == cli._RUN_BYTES + routes
    assert cli.work_bytes(99, 3, "validate") == cli._RUN_BYTES + stages(99, 3)[0]
    assert cli.work_bytes(99, 1001, "validate", 3) == cli._RUN_BYTES + max(stages(99, 7, 3))
    # at N = 2314 (nbar 100) a chunk holds 113 of 2315 nodes: the field
    # reconstruction is larger
    routes, field = stages(2314, 7)
    assert field > routes
    assert cli.work_bytes(2314, 1001, "validate") == cli._RUN_BYTES + field


def test_validate_has_no_joint_density_term():
    # the plan grows with N^2 through the field matrix only, below the bytes
    # of the complex (4 (N + 3))^2 joint density alone, so nbar 100 fits the limit
    n = ThermalFieldSpec(100.0).truncation
    assert cli.work_bytes(n, 1001, "validate") < cli.MAX_WORK_BYTES
    assert cli.work_bytes(n, 1001, "validate") < 16 * (4 * (n + 3)) ** 2
    assert load_config(None, {"nbar": 100.0, "mode": "validate"}).nbar == 100.0


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--nbar", "1e6"],
        ["run", "--nbar", "100", "--mode", "joint"],
        ["validate", "--nbar", "200"],
        ["run", "--nbar", "0.5", "--steps", "100000000"],
        ["validate", "--nbar", "0.5", "--quadrature-nodes", "10000000"],
        ["run", "--nbar", "8.9e15"],
    ],
)
def test_oversize_runs_are_refused_before_allocating(argv, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(ThermalFieldSpec, "probabilities", refuse)
    for name in ("timeseries_rows", "render_joint", "render_validation"):
        monkeypatch.setattr(cli, name, refuse)
    assert main(argv) == 2
    assert "GiB limit" in capsys.readouterr().err


def test_nbar_1e6_plans_the_tables_of_its_truncation():
    n = ThermalFieldSpec(1e6).truncation
    assert 2.2e7 < n < 2.4e7
    assert cli.work_bytes(n, 1001, "reduced") > 8 * cli.MAX_WORK_BYTES


@pytest.mark.parametrize(
    "mode, accepted, refused",
    [
        ("joint", (454, 1001), (455, 1001)),
        ("validate", (3340, 1001), (3341, 1001)),
        ("reduced", (33, 1_196_032), (33, 1_196_033)),  # N = 33 at nbar 1
    ],
)
def test_refusal_points_of_the_plan(mode, accepted, refused):
    assert cli.work_bytes(*accepted, mode) <= cli.MAX_WORK_BYTES
    assert cli.work_bytes(*refused, mode) > cli.MAX_WORK_BYTES


@pytest.mark.parametrize(
    "accepted, refused",
    [
        ({"nbar": 19.2, "mode": "joint"}, {"nbar": 19.3, "mode": "joint"}),
        ({"nbar": 144.5, "mode": "validate"}, {"nbar": 144.6, "mode": "validate"}),
        ({"nbar": 1.0, "steps": 1_196_032}, {"nbar": 1.0, "steps": 1_196_033}),
    ],
    ids=["joint", "validate", "reduced"],
)
def test_configs_at_the_refusal_points_are_checked_without_allocating(
    accepted, refused, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated while checking the config")

    monkeypatch.setattr(ThermalFieldSpec, "probabilities", refuse)
    load_config(None, accepted)
    with pytest.raises(ConfigError, match="GiB limit"):
        load_config(None, refused)


def test_cli_leaves_the_memory_plans_to_their_modules():
    # each stage's chunk rule and bytes per entry live beside its allocation
    tree = ast.parse(open(cli.__file__, encoding="utf-8").read())
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name)
    forbidden = {
        "CHUNK_BUDGET", "NODE_CHUNK_ENTRIES", "chunk_length", "node_chunk_length",
        "exact_node_count",
    }
    assert not named & forbidden


def test_rendered_values_round_trip_at_full_precision():
    text = render_timeseries(small_config(steps=3))
    rows = data_lines(text)
    assert len(rows) == 3
    for line in rows:
        for token in line.split(","):
            assert format(float(token), ".17g") == token


def test_row_text_is_the_per_value_format_join():
    values = (-0.0, 5e-324, 1.7976931348623157e308, 1e16, 0.1, 1 / 3)
    rows = [values + values[:3], values[3:] + values]
    expected = [",".join(format(float(v), ".17g") for v in row) for row in rows]
    assert data_lines(cli._render_rows(small_config(), rows)) == expected


@pytest.mark.parametrize(
    "keys",
    [
        {},
        {"gamma": None, "lambda1": 1.5, "lambda2": 0.5},
        {"quadrature_nodes": 7},
        {"output_path": "out dir/series file.csv"},
        {"t_min": -2.5},
        {"mode": "joint"},
        {"mode": "validate"},
    ],
    ids=["gamma", "pair", "nodes", "spaced-output", "negative-t_min", "joint", "validate"],
)
def test_preamble_round_trips_to_the_same_config(keys):
    cfg = small_config(**keys)
    assert config_from_preamble(render_timeseries(cfg)) == cfg


def test_preamble_notes_the_time_convention():
    text = render_timeseries(small_config(steps=2))
    notes = [line for line in text.splitlines() if line.startswith("##")]
    assert any("lambda1 + lambda2 = 2" in line for line in notes)
    assert any("partial-transpose" in line for line in notes)


def test_run_reports_the_peak_it_wrote(tmp_path):
    out = tmp_path / "series.csv"
    cfg = small_config(theta=0.0, nbar=0.0, steps=41, t_max=8.0, output_path=str(out))
    stats = run_timeseries(cfg)
    rows = data_lines(out.read_text())
    assert len(rows) == 41
    ts = [float(r.split(",")[0]) for r in rows]
    xs = [float(r.split(",")[1]) for r in rows]
    best = max(range(len(xs)), key=lambda i: xs[i])
    assert stats["max_xi"] == xs[best]
    assert stats["argmax_t"] == ts[best]


def test_unwritable_output_is_an_output_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg = small_config(steps=2, output_path=str(blocker / "x.csv"))
    with pytest.raises(OutputError):
        run_timeseries(cfg)


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_output_files_get_the_mode_of_a_plain_open(umask, tmp_path):
    out = tmp_path / "series.csv"
    config = tmp_path / "job.cfg"
    config.write_text(f"nbar = 0.25\nsteps = 2\noutput_path = {tmp_path / 'job.csv'}\n")
    summary = tmp_path / "summary.json"
    previous = os.umask(umask)
    try:
        assert main(["run", "--nbar", "0.25", "--steps", "2", "--output", str(out)]) == 0
        assert main(["sweep", str(config), "--summary", str(summary)]) == 0
    finally:
        os.umask(previous)
    for path in (out, tmp_path / "job.csv", summary):
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path.name


def test_repeated_renders_are_bitwise_identical():
    cfg = small_config(steps=7)
    assert render_timeseries(cfg) == render_timeseries(cfg)
    jcfg = small_config(mode="joint", steps=3)
    assert render_joint(jcfg) == render_joint(jcfg)
    vcfg = small_config(mode="validate", steps=5)
    assert render_validation(vcfg) == render_validation(vcfg)


def test_joint_output_carries_the_full_matrix(tmp_path):
    out = tmp_path / "joint.json"
    argv = ["run", "--mode", "joint", "--nbar", "0.5", "--tail-tolerance", "1e-6",
            "--gamma", "0.5", "--theta", "0.9", "--vartheta", "0.4", "--steps", "3",
            "--t-max", "4", "--quadrature-nodes", "9", "--output", str(out)]
    assert main(argv) == 0
    blob = json.loads(out.read_text())
    assert set(blob) == {
        "config",
        "t",
        "atom_labels",
        "fock_dim",
        "trace",
        "matrix_re",
        "matrix_im",
    }
    assert blob["t"] == 4.0
    assert blob["atom_labels"] == ["ee", "eg", "ge", "gg"]
    dim = 4 * blob["fock_dim"]
    assert len(blob["matrix_re"]) == dim
    assert len(blob["matrix_im"][0]) == dim
    # the trace survives any grid, aliased or not
    assert abs(blob["trace"] - ThermalFieldSpec(0.5, 1e-6).retained_mass()) <= 1e-12
    assert blob["config"]["gamma"] == 0.5


def test_validation_report_shape_and_tolerances():
    report = render_validation(small_config(steps=5))
    lines = report.strip().splitlines()
    assert len(lines) == 6
    values = {}
    for line in lines:
        name, _, value = line.partition(":")
        values[name.strip()] = float(value)
    assert values["unitarity defect"] < 1e-11
    assert values["spectrum vs block diagonalization"] < 1e-10
    assert values["reduced density, three routes"] < 1e-10
    assert values["field reconstruction, full period"] < 1e-12
    assert values["field reconstruction, half period"] > 1e-2
    assert values["negativity, closed form vs eigenvalues"] < 1e-11


def test_validate_diagonalizes_the_block_table_once(monkeypatch):
    # only the oracle route needs eigenvectors; the spectrum line takes
    # eigenvalues alone from its own eigvalsh call
    calls = []
    original = np.linalg.eigh

    def counting(matrix, *args, **kwargs):
        calls.append(np.shape(matrix))
        return original(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    cfg = small_config(steps=5, mode="validate")
    render_validation(cfg)
    assert calls == [(cfg.field().truncation + 3, 4, 4)]


def _separate_report(cfg):
    """The validate report from each check called on its own."""
    field, couplings = cfg.field(), cfg.couplings()
    probes = np.linspace(cfg.t_min, cfg.t_max, min(cfg.steps, cli.VALIDATE_PROBES))
    full, half = checks.field_reconstruction_residuals(field, cfg.node_count())
    values = [
        ("unitarity defect", checks.column_norm_defect(couplings, field.truncation, probes)),
        ("spectrum vs block diagonalization", checks.spectrum_defect(couplings, field.truncation)),
        (
            "reduced density, three routes",
            checks.route_gap(field, cfg.mixture(), couplings, probes, cfg.node_count()),
        ),
        ("field reconstruction, full period", full),
        ("field reconstruction, half period", half),
        (
            "negativity, closed form vs eigenvalues",
            checks.negativity_route_gap(cli._sample_x_states(200)),
        ),
    ]
    return "".join(f"{label}: {value:.3e}\n" for label, value in values)


@pytest.mark.parametrize(
    "overrides",
    [
        *(
            {"nbar": nbar, "gamma": gamma}
            for nbar in (1.0, 3.0, 5.0)
            for gamma in (0.0, 0.37, 1.0 - 1e-6)
        ),
        {"nbar": 2.0, "quadrature_nodes": 2, "theta": 0.9, "vartheta": 0.4},
        {
            "nbar": 1.0, "lambda1": 1.4e-8, "lambda2": 5.5e-9,
            "theta": 0.9, "vartheta": 0.4, "t_max": 2.5e9, "steps": 7,
        },
    ],
    ids=lambda overrides: "-".join(f"{k}={v}" for k, v in overrides.items()),
)
def test_validate_report_equals_the_separate_checks(overrides):
    cfg = RunConfig(mode="validate", **overrides)
    assert render_validation(cfg) == _separate_report(cfg)


def _validate_lines(argv, capsys):
    assert main(["validate", *argv]) == 0
    out = capsys.readouterr().out
    return {label: float(value) for label, value in (line.split(": ") for line in out.splitlines())}


def test_validate_shows_the_error_of_an_aliased_grid(capsys):
    # two nodes, far below the N + 1 = 57 of nbar 2, pass every even
    # photon-number difference; the traced routes and the field average show it
    argv = ["--nbar", "2", "--theta", "0.9", "--vartheta", "0.4"]
    grid_lines = ("reduced density, three routes", "field reconstruction, full period")
    coarse = _validate_lines([*argv, "--quadrature-nodes", "2"], capsys)
    for label in grid_lines:
        assert coarse[label] >= 1e-2, label
    default = _validate_lines(argv, capsys)
    assert default["reduced density, three routes"] <= 1e-10
    assert default["field reconstruction, full period"] <= 1e-12


def test_sweep_isolates_the_failing_job(tmp_path):
    good = tmp_path / "good.cfg"
    good.write_text(
        "nbar = 0.5\ntail_tolerance = 1e-6\nsteps = 5\nt_max = 2\n"
        f"output_path = {tmp_path / 'good.csv'}\n"
    )
    bad = tmp_path / "bad.cfg"
    bad.write_text("nbar = bogus\n")
    summary_path = tmp_path / "summary.json"
    rc = main(["sweep", str(good), str(bad), "--summary", str(summary_path)])
    assert rc == 1
    blob = json.loads(summary_path.read_text())
    assert blob["failed"] == 1
    by_name = {entry["config"]: entry for entry in blob["jobs"]}
    assert by_name[str(good)]["status"] == "ok"
    assert "max_xi" in by_name[str(good)]
    assert by_name[str(bad)]["status"] == "failed"
    assert "cannot parse nbar" in by_name[str(bad)]["error"]
    assert (tmp_path / "good.csv").exists()


def test_sweep_keeps_the_input_order_around_a_failing_job(tmp_path):
    jobs = [
        ("first", small_config(steps=3, output_path=str(tmp_path / "a.csv"))),
        ("middle", small_config(steps=3, mode="joint", output_path=str(tmp_path / "b.csv"))),
        ("last", small_config(steps=3, output_path=str(tmp_path / "c.csv"))),
    ]
    summary = run_sweep(jobs)
    assert [entry["config"] for entry in summary["jobs"]] == ["first", "middle", "last"]
    assert [entry["status"] for entry in summary["jobs"]] == ["ok", "failed", "ok"]
    assert summary["failed"] == 1

    paths = []
    for name, text in (("a", "nbar = 0.5"), ("b", "nbar = bogus"), ("c", "nbar = 0.25")):
        path = tmp_path / f"{name}.cfg"
        path.write_text(f"{text}\nsteps = 3\noutput_path = {tmp_path / name}.csv\n")
        paths.append(str(path))
    summary_path = tmp_path / "summary.json"
    assert main(["sweep", *paths, "--workers", "2", "--summary", str(summary_path)]) == 1
    blob = json.loads(summary_path.read_text())
    assert [entry["config"] for entry in blob["jobs"]] == paths
    assert [entry["status"] for entry in blob["jobs"]] == ["ok", "failed", "ok"]
    assert blob["failed"] == 1


def test_undecodable_config_is_a_config_error_and_fails_only_its_sweep_job(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"nbar = 0.5\n\xff\xfe\n")
    for command in ("run", "validate"):
        assert main([command, str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot read config {bad}")

    paths = []
    for name in ("a", "c"):
        path = tmp_path / f"{name}.cfg"
        path.write_text(f"nbar = 0.5\nsteps = 3\noutput_path = {tmp_path / name}.csv\n")
        paths.append(str(path))
    paths.insert(1, str(bad))
    summary_path = tmp_path / "summary.json"
    assert main(["sweep", *paths, "--summary", str(summary_path)]) == 1
    blob = json.loads(summary_path.read_text())
    assert [entry["config"] for entry in blob["jobs"]] == paths
    assert [entry["status"] for entry in blob["jobs"]] == ["ok", "failed", "ok"]
    assert "cannot read config" in blob["jobs"][1]["error"]
    assert blob["failed"] == 1


def test_config_with_a_byte_order_mark_reads_as_without_one(tmp_path, capsys):
    # editors on some systems save UTF-8 with a leading U+FEFF
    marked = tmp_path / "marked.cfg"
    marked.write_bytes(b"\xef\xbb\xbfnbar = 0.5\nsteps = 3\nt_max = 2\n")
    assert main(["run", str(marked)]) == 0
    out = capsys.readouterr().out
    assert "# nbar = 0.5\n" in out
    assert config_from_preamble(out) == load_config(str(marked), {})

    job = tmp_path / "job.cfg"
    job.write_bytes(f"\ufeffnbar = 0.5\nsteps = 3\noutput_path = {tmp_path / 'job.csv'}\n".encode())
    summary_path = tmp_path / "summary.json"
    assert main(["sweep", str(job), "--summary", str(summary_path)]) == 0
    blob = json.loads(summary_path.read_text())
    assert [entry["status"] for entry in blob["jobs"]] == ["ok"]
    assert config_from_preamble((tmp_path / "job.csv").read_text()).nbar == 0.5


def test_sweep_requires_at_least_one_job():
    with pytest.raises(ConfigError):
        run_sweep([])


def test_sweep_rejects_non_reduced_jobs(tmp_path):
    cfg = small_config(mode="joint", output_path=str(tmp_path / "x.csv"))
    summary = run_sweep([("j", cfg)])
    assert summary["failed"] == 1
    assert "reduced" in summary["jobs"][0]["error"]


def test_sweep_jobs_must_name_an_output():
    summary = run_sweep([("j", small_config())])
    assert summary["failed"] == 1
    assert "output_path" in summary["jobs"][0]["error"]


def test_exit_codes_distinguish_config_and_output_failures(tmp_path, capsys):
    ok = main(
        [
            "run",
            "--nbar", "0.25",
            "--tail-tolerance", "1e-4",
            "--steps", "2",
            "--t-max", "1",
            "--output", str(tmp_path / "ok.csv"),
        ]
    )
    assert ok == 0
    assert main(["run", "--steps", "0"]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["run", "--quadrature-nodes", "three"]) == 2
    blocker = tmp_path / "f"
    blocker.write_text("")
    rc = main(
        [
            "run",
            "--nbar", "0.25",
            "--tail-tolerance", "1e-4",
            "--steps", "2",
            "--t-max", "1",
            "--output", str(blocker / "x.csv"),
        ]
    )
    assert rc == 3


def test_output_onto_a_directory_is_an_output_error_and_leaves_no_temp_file(tmp_path, capsys):
    target = tmp_path / "taken"
    target.mkdir()
    argv = ["run", "--nbar", "0.25", "--tail-tolerance", "1e-4", "--steps", "2"]
    assert main([*argv, "--output", str(target)]) == 3
    assert capsys.readouterr().err.startswith(f"output error: cannot write {target}")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["taken"]
    assert list(target.iterdir()) == []


def test_unexpected_failures_exit_1_with_their_message(monkeypatch, capsys):
    def failing(cfg):
        raise RuntimeError("renderer broke")

    monkeypatch.setattr(cli, "render_validation", failing)
    assert main(["validate", "--nbar", "0.25", "--tail-tolerance", "1e-4", "--steps", "2"]) == 1
    assert capsys.readouterr().err == "error: renderer broke\n"


def test_from_mapping_refuses_unknown_keys():
    with pytest.raises(ConfigError, match=r"unknown keys: \['volume'\]"):
        RunConfig.from_mapping({"nbar": 0.5, "volume": 11})


def test_run_writes_to_stdout_without_an_output_path(capsys):
    rc = main(["run", "--nbar", "0.25", "--tail-tolerance", "1e-4", "--steps", "3", "--t-max", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert CSV_HEADER in out
    assert len(data_lines(out)) == 3
    assert config_from_preamble(out).steps == 3


def test_validate_subcommand_overrides_the_mode(capsys):
    rc = main(
        [
            "validate",
            "--nbar", "0.25",
            "--tail-tolerance", "1e-4",
            "--steps", "3",
            "--t-max", "2",
            "--mode", "reduced",
        ]
    )
    assert rc == 0
    assert "unitarity defect" in capsys.readouterr().out


def test_sample_x_states_are_fixed_valid_and_spread():
    # no generator: two calls give the same bits, and the sample reaches
    # both sides of the entanglement boundary and every coherence quadrant
    stack = cli._sample_x_states(200)
    assert np.array_equal(stack.matrix, cli._sample_x_states(200).matrix)
    assert len(stack.matrix) == 200
    assert np.allclose(stack.trace, 1.0, rtol=0.0, atol=1e-15)
    assert np.all(np.abs(stack.B_coh) ** 2 <= stack.B_egeg * stack.B_gege)
    xi = negativity(stack).xi
    assert np.count_nonzero(xi > 0.0) >= 20
    assert np.count_nonzero(xi == 0.0) >= 20
    quadrants = np.floor(np.angle(stack.B_coh) / (math.pi / 2)) % 4
    assert set(quadrants.tolist()) == {0.0, 1.0, 2.0, 3.0}


_NO_RANDOM_SCRIPT = textwrap.dedent(
    r"""
    import json, sys
    import numpy

    def loaded():
        return sorted(name for name in sys.modules if name.startswith("numpy.random"))

    baseline = loaded()
    from thermalqubits.cli import main

    tiny = "nbar = 0.25\ntail_tolerance = 1e-4\nsteps = 3\nt_max = 2\n"
    configs = {
        "reduced": tiny + "output_path = reduced.csv\n",
        "joint": tiny + "output_path = joint.json\n",
        "validate": tiny + "output_path = validate.txt\n",
        "sweep": tiny + "output_path = sweep.csv\n",
    }
    for name, text in configs.items():
        with open(name + ".cfg", "w") as handle:
            handle.write(text)
    codes = [
        main(["run", "reduced.cfg"]),
        main(["run", "joint.cfg", "--mode", "joint"]),
        main(["validate", "validate.cfg"]),
        main(["sweep", "sweep.cfg", "--summary", "summary.json"]),
    ]
    print(json.dumps({"codes": codes, "baseline": baseline, "after": loaded()}))
    """
)


def test_no_command_imports_numpy_random(tmp_path):
    # numpy.random adds about 5 MB to a validate process; no command needs
    # it, so every command leaves the same numpy.random modules loaded as a
    # bare "import numpy" does, whether that numpy loads them eagerly or not
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _NO_RANDOM_SCRIPT],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0]
    assert (tmp_path / "validate.txt").read_text().count("\n") == 6
    assert result["after"] == result["baseline"]
