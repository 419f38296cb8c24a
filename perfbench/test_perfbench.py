"""Tests for the benchmark's own helpers.

Run from the repository root:  python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------ self time


def test_self_time_subtracts_children_on_a_synthetic_tree():
    #  0: [0, 10]  root
    #  1: [1, 4]   child of 0, with 3: [2, 3] inside it
    #  2: [5, 9]   child of 0
    #  3: [2, 3]   child of 1
    start = [0.0, 1.0, 5.0, 2.0]
    end = [10.0, 4.0, 9.0, 3.0]
    parent = [-1, 0, 0, 1]
    assert spans.self_times(start, end, parent) == pytest.approx([3.0, 2.0, 4.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_to_the_parent():
    start = [0.0, 1.0, 2.0, 8.0]
    end = [10.0, 4.0, 5.0, 12.0]
    parent = [-1, 0, 0, 0]
    # children cover [1, 5] and [8, 10] of the root: 6 of its 10 seconds
    assert spans.self_times(start, end, parent)[0] == pytest.approx(4.0)


def test_self_times_of_a_whole_run_add_up_to_the_root_spans():
    start = [0.0, 0.5, 0.6, 2.0, 3.0, 3.5]
    end = [2.0, 1.5, 1.0, 2.5, 5.0, 4.0]
    parent = [-1, 0, 1, -1, -1, 4]
    selfs = spans.self_times(start, end, parent)
    roots = sum(e - s for s, e, p in zip(start, end, parent) if p < 0)
    assert sum(selfs) == pytest.approx(roots)


# ------------------------------------------------------- wrap and restore


def _toy_layers():
    low = types.ModuleType("toy.low")
    exec(
        "def leaf(x):\n    return x + 1\n"
        "def boom():\n    raise ValueError('boom')\n"
        "def _private():\n    return 0\n",
        low.__dict__,
    )
    high = types.ModuleType("toy.high")
    high.leaf = low.leaf
    high.boom = low.boom
    exec("def outer(x):\n    return leaf(x) * 2\n", high.__dict__)
    return low, high


def test_tracer_records_spans_and_restores_every_original():
    low, high = _toy_layers()
    originals = {"low": dict(vars(low)), "high": dict(vars(high))}
    tracer = spans.Tracer({"low": low, "high": high}, [low, high])
    with tracer.installed():
        assert high.leaf is not originals["high"]["leaf"]
        assert low._private is originals["low"]["_private"]
        tracer.begin_pass(0)
        assert high.outer(1) == 4
        with pytest.raises(ValueError):
            high.boom()
        tracer.end_pass()
    assert dict(vars(low)) == originals["low"]
    assert dict(vars(high)) == originals["high"]

    names = [tracer.names[f] for f in tracer.function]
    assert names == ["high.outer", "low.leaf", "low.boom"]
    assert list(tracer.parent) == [-1, 0, -1]
    assert list(tracer.error) == [0, 0, 1]
    stats = spans.per_pass_self(tracer)[0]
    assert stats["low.boom"]["errors"] == 1
    assert stats["high.outer"]["calls"] == 1


def test_tracer_restores_after_an_exception_inside_the_run():
    low, high = _toy_layers()
    before = dict(vars(high))
    tracer = spans.Tracer({"low": low, "high": high}, [low, high])
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("stop")
    assert dict(vars(high)) == before


def test_tracer_restores_wrapped_methods_on_timeops_classes():
    import timeops
    from timeops import spectra

    eigenvalues = vars(spectra.HermitianMatrix)["eigenvalues"]
    from_json = vars(spectra.DiscreteSpectrum)["from_json"]
    tracer = spans.package_tracer()
    namespaces = tracer.namespaces
    before = [dict(vars(m)) for m in namespaces]
    with tracer.installed():
        assert vars(spectra.HermitianMatrix)["eigenvalues"] is not eigenvalues
        assert timeops.cli.decompose_spectrum is not before[0]["decompose_spectrum"]
    assert vars(spectra.HermitianMatrix)["eigenvalues"] is eigenvalues
    assert vars(spectra.DiscreteSpectrum)["from_json"] is from_json
    assert [dict(vars(m)) for m in namespaces] == before


# --------------------------------------------------------------- inputs


def test_spectrum_generator_gives_the_same_bytes_for_the_same_seed(tmp_path):
    a = workloads.write_spectrum(tmp_path / "a.json", 5, 300, 4).read_bytes()
    b = workloads.write_spectrum(tmp_path / "b.json", 5, 300, 4).read_bytes()
    c = workloads.write_spectrum(tmp_path / "c.json", 6, 300, 4).read_bytes()
    assert a == b
    assert a != c


def test_generated_spectrum_is_a_valid_zero_accumulating_spectrum():
    from timeops.spectra import Accumulation, DiscreteSpectrum

    doc = workloads.spectrum_document(3, 500, 4)
    spectrum = DiscreteSpectrum.from_json(doc)
    assert spectrum.accumulation is Accumulation.TO_ZERO
    assert len(spectrum.entries) == 500
    assert all(-1.0 <= v <= -1e-3 for v, _ in spectrum.entries)
    assert {m for _, m in spectrum.entries} <= {1, 2, 3, 4}


# ------------------------------------------------------------ the gate


def test_gate_drops_timings_and_flags_failed_reports(tmp_path):
    report = {"passed": True, "max_uw_ccr_residual": 1e-15, "timings": {"total_seconds": 1.0}}
    (tmp_path / "uwform_report.json").write_text(json.dumps(report))
    first, reports, problems = gate.read_outputs(tmp_path)
    assert problems == []
    report["timings"] = {"total_seconds": 2.0}
    (tmp_path / "uwform_report.json").write_text(json.dumps(report))
    assert gate.read_outputs(tmp_path)[0] == first
    report["passed"] = False
    (tmp_path / "uwform_report.json").write_text(json.dumps(report))
    assert gate.read_outputs(tmp_path)[2] == ["uwform_report.json: passed is False"]


def test_headroom_is_the_smallest_log_margin():
    reports = [
        {"tolerances": {"uw_ccr": 1e-10, "im_identity": 1e-10},
         "max_uw_ccr_residual": 1e-14, "im_identity_defect": 1e-13},
        {"tolerances": {}, "criteria": [{"details": {"worst_residual_over_allowed": 0.01}}]},
    ]
    assert gate.headroom_decades(reports) == pytest.approx(2.0)
    assert gate.headroom_decades([{"passed": True}]) is None


def test_benchmark_json_lists_exactly_the_metrics_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOAD_NAMES)


# ----------------------------------------------------------- smoke passes

TINY_SIZES = {
    "hydrogen-sweep": {"n_max": 3, "vectors": 2},
    "spectrum-build": {"values": 30, "max_multiplicity": 3},
    "dense-spectra": {"osc_sizes": "8,16", "osc_n_max": 12, "rabi_cutoff": 10, "rabi_count": 4},
    "weyl-grid": {"grid_points": 1024},
}


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_tiny_pass_of_each_workload_is_correct_and_traced(name, tmp_path):
    import timeops.cli as cli

    runner = run.Runner(cli, name, tmp_path, seed=3, sizes=TINY_SIZES[name])
    runner.setup()
    untraced = runner.run_for(1e-9)
    tracer = spans.package_tracer()
    with tracer.installed():
        traced = runner.run_for(1e-9, tracer)
    assert runner.failures == []
    assert runner.attempted == 2 * len(runner.invocations)
    assert gate.headroom_decades(runner.reference_reports) > 0.0
    metrics = run.layer_metrics(tracer, traced, untraced, runner.pass_bytes)
    assert set(metrics) == {n for n, _ in run.PER_LAYER}
    assert metrics["cli.calls"] >= len(runner.invocations)
    assert metrics["trace.coverage_ratio"] == pytest.approx(1.0, abs=0.05)
