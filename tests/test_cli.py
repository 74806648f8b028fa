"""Configuration parsing, output plumbing and the command entry point."""

import dataclasses
import json
import math

import numpy as np
import pytest

from thermalqubits import ThermalFieldSpec, cli, negativity, reduced_density
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


def test_partner_pairs_cover_the_three_starts():
    pairs = dict((label, w) for w, label in small_config(theta=0.3, vartheta=0.4).partner_pairs())
    assert set(pairs) == {"ee", "eg", "gg"}
    assert math.fsum(pairs.values()) == pytest.approx(1.0, abs=1e-15)


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
    cfg = RunConfig(nbar=1.0, gamma=0.4, theta=0.6, vartheta=0.3, t_max=30.0, steps=301)
    chunk = cli.CHUNK_BUDGET // (cfg.field().truncation + 1)
    assert cfg.steps > 3 * chunk
    rows = np.array(timeseries_rows(cfg))
    assert rows.shape == (301, 9)
    assert np.abs(rows - _per_time_rows(cfg)).max() <= 1e-15


def test_rows_do_not_depend_on_the_chunk_length(monkeypatch):
    cfg = RunConfig(nbar=0.7, gamma=0.8, theta=1.0, vartheta=0.5, t_max=12.0, steps=97)
    reference = timeseries_rows(cfg)
    for budget in (1, 7 * (cfg.field().truncation + 1) - 1, 10**9):
        monkeypatch.setattr(cli, "CHUNK_BUDGET", budget)
        assert timeseries_rows(cfg) == reference


def test_zero_time_row_keeps_its_exact_zeros(monkeypatch):
    # t = 0 shares its chunk with later times, which have nonzero coherence
    monkeypatch.setattr(cli, "CHUNK_BUDGET", 10**9)
    rows = timeseries_rows(small_config(theta=0.9, vartheta=0.4))
    t, _, _, _, _, b_gege, _, re_coh, im_coh = rows[0]
    assert t == 0.0
    assert b_gege == 0.0
    assert re_coh == 0.0 and im_coh == 0.0
    assert any(row[7] != 0.0 for row in rows[1:])


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
    n, dim, nodes = 99, 4 * 102, 2 * 99 + 3
    joint = dim * dim + 3 * nodes * dim
    assert cli.work_bytes(n, 10, "joint") == cli._ENTRY_BYTES["joint"] * joint
    assert cli.work_bytes(n, 10, "validate") == cli._ENTRY_BYTES["validate"] * joint
    assert cli.work_bytes(n, 10, "joint", 7) == cli._ENTRY_BYTES["joint"] * (
        dim * dim + 3 * 7 * dim
    )
    # 2048 // 100 = 20 times per chunk, but only 10 steps to take
    assert cli.work_bytes(n, 10, "reduced") == (
        cli._ENTRY_BYTES["reduced"] * 10 * 100 + cli._ROW_BYTES * 10
    )
    assert cli.work_bytes(n, 1000, "reduced") == (
        cli._ENTRY_BYTES["reduced"] * 20 * 100 + cli._ROW_BYTES * 1000
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--nbar", "1e6"],
        ["run", "--nbar", "100", "--mode", "joint"],
        ["validate", "--nbar", "100"],
        ["run", "--nbar", "0.5", "--steps", "100000000"],
        ["run", "--nbar", "0.5", "--mode", "joint", "--quadrature-nodes", "10000000"],
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


def test_rendered_values_round_trip_at_full_precision():
    text = render_timeseries(small_config(steps=3))
    rows = data_lines(text)
    assert len(rows) == 3
    for line in rows:
        for token in line.split(","):
            assert format(float(token), ".17g") == token


def test_preamble_round_trips_to_the_same_config():
    cfg = small_config()
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


def test_repeated_renders_are_bitwise_identical():
    cfg = small_config(steps=7)
    assert render_timeseries(cfg) == render_timeseries(cfg)
    jcfg = small_config(mode="joint", steps=3)
    assert render_joint(jcfg) == render_joint(jcfg)


def test_joint_output_carries_the_full_matrix():
    cfg = small_config(mode="joint", steps=3, quadrature_nodes=9)
    blob = json.loads(render_joint(cfg))
    assert set(blob) == {
        "config",
        "t",
        "atom_labels",
        "fock_dim",
        "trace",
        "matrix_re",
        "matrix_im",
    }
    assert blob["t"] == cfg.t_max
    assert blob["atom_labels"] == ["ee", "eg", "ge", "gg"]
    dim = 4 * blob["fock_dim"]
    assert len(blob["matrix_re"]) == dim
    assert len(blob["matrix_im"][0]) == dim
    assert blob["trace"] == pytest.approx(cfg.field().retained_mass(), abs=1e-10)
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
