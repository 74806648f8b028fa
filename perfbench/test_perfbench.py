"""Tests of the benchmark's own helpers: python -m pytest perfbench"""

import itertools
import json
import os
import sys
import types

import numpy as np
import pytest

from run import summarize, tail_percentile
from stability import parse_seeds, spread
from tracer import Span, Tracer, covered, layer_metrics, self_times
from workloads import WORKLOADS, generate


def first(workload, seed, count):
    return list(itertools.islice(generate(workload, seed), count))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_configs(workload):
    a = first(workload, 7, 12)
    b = first(workload, 7, 12)
    assert [op.argv for op in a] == [op.argv for op in b]
    assert [[job.text() for job in op.jobs] for op in a] == [
        [job.text() for job in op.jobs] for op in b
    ]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seed_gives_different_configs(workload):
    a = first(workload, 7, 4)
    b = first(workload, 8, 4)
    assert [[job.text() for job in op.jobs] for op in a] != [
        [job.text() for job in op.jobs] for op in b
    ]


def test_every_run_of_sixteen_ops_covers_the_sizes_evenly():
    ops = first("series-large", 3, 40)
    for start in range(0, 24):
        window = [op.jobs[0].keys for op in ops[start : start + 16]]
        nbar_slices = {int((keys["nbar"] - 20.0) // 10.0) for keys in window}
        steps_slices = {(keys["steps"] - 101) * 8 // 101 for keys in window}
        assert nbar_slices == set(range(8))
        assert steps_slices == set(range(8))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_seed_moves_the_inputs_but_not_the_sizes(workload):
    def sizes(seed):
        return [(job.keys["nbar"], job.steps) for op in first(workload, seed, 8) for job in op.jobs]

    assert sizes(1) == sizes(2)


def test_draws_stay_in_the_documented_ranges():
    for op in first("series-large", 5, 40):
        keys = op.jobs[0].keys
        assert 20.0 <= keys["nbar"] <= 100.0
        assert 101 <= keys["steps"] <= 201
        assert 0.0 <= keys["gamma"] <= 1.0
        assert 10.0 <= keys["t_max"] <= 100.0
    sweep = first("sweep", 5, 1)[0]
    assert len(sweep.jobs) == 4
    assert sweep.argv[-4:-2] == ("--workers", "2")
    assert sweep.time_points == 4 * 1001


def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(30, 0, -1)]
    value, percentile, count = tail_percentile(values)
    assert value == 20.0
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100.0 * 20 / 30)
    assert count == 30


def test_tail_needs_eleven_samples():
    assert tail_percentile([1.0] * 10) is None
    value, percentile, count = tail_percentile([float(v) for v in range(11)])
    assert (value, count) == (0.0, 11)


def test_covered_merges_overlapping_children():
    assert covered([(1.0, 4.0), (3.0, 6.0)], 0.0, 10.0) == pytest.approx(5.0)
    assert covered([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([], 0.0, 10.0) == 0.0


def test_self_time_subtracts_children_once():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "b", 3.0, 6.0, 0, 0),  # overlaps a, as a pool thread would
        Span(3, "leaf", 2.0, 3.0, 1, 0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(5.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)


def test_spread_is_interquartile_share_of_median():
    assert spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert spread([9.0, 10.0, 10.0, 11.0]) > 0.0
    assert parse_seeds("1-3,7") == [1, 2, 3, 7]


@pytest.fixture
def fake_package(monkeypatch):
    """A package with the layout the tracer expects, minus most targets."""
    root = types.ModuleType("fakepkg")
    closed_form = types.ModuleType("fakepkg.closed_form")
    reduction = types.ModuleType("fakepkg.reduction")

    def amplitude_table(label, n_max, t, couplings):
        return np.zeros((4, n_max + 1), dtype=complex)

    def reduced_density(n_max, times):
        for t in times:
            reduction.amplitude_table("ee", n_max, t, None)
        return "rho"

    closed_form.amplitude_table = amplitude_table
    reduction.amplitude_table = amplitude_table
    reduction.reduced_density = reduced_density
    for module in (root, closed_form, reduction):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return reduction


def test_wrappers_sit_where_callers_look_and_missing_names_are_absent(fake_package):
    tracer = Tracer()
    tracer.install("fakepkg")
    assert "cli.run_sweep" in tracer.absent
    assert "phase_engine.solver" in tracer.absent
    assert "closed_form.amplitude_table" not in tracer.absent

    tracer.op = 0
    assert fake_package.reduced_density(5, [0.0, 1.0, 1.0]) == "rho"
    metrics = layer_metrics(tracer)
    assert metrics["reduction.reduced_density.calls"][0] == 1
    assert metrics["closed_form.amplitude_table.calls"][0] == 3
    assert metrics["closed_form.amplitude_table.columns"][0] == 18
    assert metrics["reduction.reduced_density.components"][0] == 18
    assert metrics["closed_form.amplitude_table.distinct_frac"][0] == pytest.approx(2 / 3)
    assert metrics["cli.run_sweep.calls"][0] == 0
    parents = {span.name: span.parent for span in tracer.spans}
    root = next(s.id for s in tracer.spans if s.name == "reduction.reduced_density")
    assert parents["closed_form.amplitude_table"] == root


def _record(trace, layers=None):
    ops = [
        {"seconds": 0.5 + 0.01 * k, "time_points": 1001, "problems": []} for k in range(12)
    ]
    ops[3]["problems"] = ["op 3: exit code 1"]
    return {
        "trace": trace,
        "ops": ops,
        "deterministic": True,
        "setup_probes_s": [0.1, 0.2, 0.3],
        "peak_rss_mb": 40.0,
        "output_bytes": 1234,
        "validate_max": {"validate.unitarity_defect.max": 6.9e-12, "validate.spectrum_defect.max": 4.6e-11},
        "layers": layers,
    }


def test_printed_metrics_are_the_declared_ones(fake_package):
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    untraced = summarize(_record(0))
    assert set(untraced["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert (untraced["attempted"], untraced["failed"], untraced["correct"]) == (12, 1, False)
    tracer = Tracer()
    tracer.install("fakepkg")
    layers = {name: list(value) for name, value in layer_metrics(tracer).items()}
    traced = summarize(_record(1, layers))
    assert set(traced["metrics"]) == {m["name"] for m in bench["per_layer"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for summary in (untraced, traced):
        for name, (_, unit) in summary["metrics"].items():
            assert unit == units[name]


def test_tracer_bookkeeping_is_not_charged_to_the_parent():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 2.0, 4.0, 0, 0, outer=(1.5, 5.0)),
    ]
    own = self_times(spans, {0: 0.5})
    assert own[0] == pytest.approx(10.0 - 3.5 - 0.5)
    assert own[1] == pytest.approx(2.0)


def test_sweep_parallelism_is_thread_cpu_over_wall():
    tracer = Tracer()
    tracer.spans = [
        Span(0, "cli.run_sweep", 0.0, 10.0, None, 0),
        # two jobs open for the whole sweep, each running half of it
        Span(1, "cli.run_timeseries", 0.0, 10.0, 0, 0, cpu=5.0),
        Span(2, "cli.run_timeseries", 1.0, 10.0, 0, 0, cpu=4.0),
    ]
    metrics = layer_metrics(tracer)
    assert metrics["cli.run_sweep.parallelism"][0] == pytest.approx(0.9)
    assert metrics["cli.run_sweep.job_wait_s"][0] == pytest.approx(0.5)


def test_count_only_calls_are_filed_under_their_span_and_costed():
    tracer = Tracer()
    tracer.count_cost = 1e-3
    counted = tracer._count_wrapper("fock_thermal.photon_probability", lambda n: n)
    tracer.call("fock_thermal.probabilities", lambda: [counted(n) for n in range(5)], (), {})
    counted(0)  # outside any span
    span = tracer.spans[0]
    assert tracer.counts()["fock_thermal.photon_probability"] == 6
    assert tracer.count_overhead() == {span.id: pytest.approx(5e-3)}


def _validate_report(path, unitarity, spectrum=1.847e-13, routes=2.282e-14):
    lines = [
        f"unitarity defect: {unitarity:.3e}",
        f"spectrum vs block diagonalization: {spectrum:.3e}",
        f"reduced density, three routes: {routes:.3e}",
        "field reconstruction, full period: 3.331e-16",
        "field reconstruction, half period: 9.686e-02",
        "negativity, closed form vs eigenvalues: 2.220e-16",
    ]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_spectrum_precision_is_a_finding_and_route_disagreement_a_failure(tmp_path):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import checks

    clean = _validate_report(tmp_path / "clean.txt", 4.4e-16)
    assert checks.check_validation(clean) == []
    assert checks.validation_findings(clean) == []

    # measured at nbar 5: gamma 1e-5 gives both, gamma 0.994 the first
    near = _validate_report(tmp_path / "near.txt", 1.16e-10, spectrum=6.171e-11)
    assert checks.check_validation(near) == []
    assert len(checks.validation_findings(near)) == 2
    assert checks.validation_maxima([clean, near]) == {
        "validate.unitarity_defect.max": 1.16e-10,
        "validate.spectrum_defect.max": 6.171e-11,
    }

    broken = _validate_report(tmp_path / "broken.txt", float("nan"), routes=2e-10)
    assert len(checks.check_validation(broken)) == 2
