import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import timeops
from timeops import acceptance, cli, contspec, spectra, timeop, uwform
from timeops.cli import DEFAULT_TOLERANCES, RunConfig, main, run
from timeops.spectra import hydrogen_point_spectrum
from timeops.timeop import OscillatorExtremes, assemble_time_operator, osc_timeop_extremes

from dense_reference import generator, plant


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {k: _strip_timings(v) for k, v in obj.items() if k != "timings"}
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


def _read(path):
    return json.loads(path.read_text())


#: Address-space cap for ``run_module``: a run that asks for a huge matrix
#: fails at once instead of exhausting the host's memory.
MODULE_ADDRESS_SPACE = 2 * 1024 ** 3


def _cap_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (MODULE_ADDRESS_SPACE, MODULE_ADDRESS_SPACE))


def run_module(*args, timeout=60.0):
    """``python -W error::RuntimeWarning -m timeops *args`` in a subprocess.

    BLAS runs on one thread and the address space is capped.  A run still
    going after ``timeout`` seconds is killed and raises
    ``subprocess.TimeoutExpired``, so a hang fails one test, not the job.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "timeops", *map(str, args)],
        env=env, capture_output=True, text=True, timeout=timeout,
        preexec_fn=_cap_address_space if os.name == "posix" else None,
    )


def assert_usage_error(*args, match, timeout=60.0):
    """``python -m timeops *args`` exits 2 with one ``error:`` line containing ``match``."""
    proc = run_module(*args, timeout=timeout)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert match in lines[0]


class TestRunConfig:
    def test_rejects_unknown_pipeline(self):
        with pytest.raises(ValueError, match="pipeline kind"):
            RunConfig(model={}, pipeline={"kind": "nonsense"}, tolerances={})

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="model kind"):
            RunConfig(model={"kind": "helium"}, pipeline={"kind": "timeop"}, tolerances={})

    def test_rejects_unknown_tolerance(self):
        with pytest.raises(ValueError, match="unknown tolerance"):
            RunConfig(model={}, pipeline={"kind": "s0check"},
                      tolerances={"bogus": 1e-9})

    def test_rejects_negative_tolerance_but_allows_zero(self):
        with pytest.raises(ValueError, match="nonnegative"):
            RunConfig(model={}, pipeline={"kind": "s0check"},
                      tolerances={"uw_ccr": -1.0})
        cfg = RunConfig(model={}, pipeline={"kind": "s0check"},
                        tolerances={"uw_ccr": 0.0})
        assert cfg.resolved_tolerances()["uw_ccr"] == 0.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "1e-9", None])
    def test_rejects_non_finite_and_non_numeric_tolerances(self, value):
        with pytest.raises(ValueError, match="tolerance 'uw_ccr'"):
            RunConfig(model={}, pipeline={"kind": "s0check"}, tolerances={"uw_ccr": value})

    def test_holds_exactly_model_pipeline_and_tolerances(self):
        assert [f.name for f in fields(RunConfig)] == ["model", "pipeline", "tolerances"]
        with pytest.raises(TypeError, match="seed"):
            RunConfig(model={}, pipeline={"kind": "s0check"}, tolerances={}, seed=7)
        config = RunConfig(model={}, pipeline={"kind": "s0check"}, tolerances={})
        assert config.to_json() == {"model": {}, "pipeline": {"kind": "s0check"}, "tolerances": {}}

    @pytest.mark.parametrize("command", [
        "spectrum", "decompose", "timeop", "uwform", "ftransform", "oscspec", "abweyl", "s0check", "selftest",
    ])
    @pytest.mark.parametrize("args,config,message", [
        (["--seed", "-1"], None, "seed must be nonnegative"),
        ([], {"seed": -3}, "seed must be nonnegative"),
        ([], {"seed": "7"}, "config field 'seed' must be an integer, not str"),
        ([], {"seed": None}, "config field 'seed' must be an integer, not NoneType"),
    ])
    def test_every_subcommand_refuses_a_bad_seed(self, tmp_path, capsys, command, args, config, message):
        # only selftest reads the seed, but every subcommand refuses a bad one, from the flag or the config
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            args = [*args, "--config", str(path)]
        code = main([command, *args, "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


class TestRunExamples:
    def test_hydrogen_ultraweak_pipeline(self):
        cfg = RunConfig(
            model={"kind": "hydrogen", "m": 1.0, "gamma": 1.0, "n_max": 3},
            pipeline={"kind": "uwform"},
            tolerances={},
        )
        report = run(cfg)
        assert report["passed"]
        assert report["admissible"] is True
        assert report["max_uw_ccr_residual"] <= 1e-10
        assert report["min_uncertainty_value"] == 0.5 - report["max_uw_ccr_residual"] / 2 >= 0.5 - 1e-10
        assert "im_identity_defect" not in report
        assert report["tolerances"]["uw_ccr"] == 1e-10

    def test_oscillator_timeop_pipeline(self):
        cfg = RunConfig(
            model={"kind": "oscillator", "omega": [1.0], "n_max": 20},
            pipeline={"kind": "timeop"},
            tolerances={},
        )
        report = run(cfg)
        assert report["passed"]
        assert report["max_ccr_residual"] <= 1e-12
        assert report["decomposition"]["channels"]

    def test_rabi_bounds_pipeline(self):
        cfg = RunConfig(
            model={"kind": "rabi", "mu": 0.5, "omega": 1.0, "g": 0.3,
                   "cutoff": 200, "count": 20},
            pipeline={"kind": "timeop"},
            tolerances={},
        )
        report = run(cfg)
        assert report["all_bounds_true"]
        assert len(report["bound_checks"]) == 20
        assert report["model_dimension"] == 402
        assert report["ground_energy"] == pytest.approx(-0.546035244863, abs=1e-9)


class TestSubcommands:
    def test_spectrum(self, tmp_path):
        code = main(["spectrum", "--model", "hydrogen", "--n-max", "3",
                     "--out", str(tmp_path)])
        assert code == 0
        doc = _read(tmp_path / "spectrum.json")
        assert doc["accumulation"] == "to_zero"
        assert len(doc["entries"]) == 3

    @pytest.mark.parametrize("multiplicity", [1.5, 2.0, math.nan, "2", True, None])
    def test_spectrum_rejects_a_non_integer_multiplicity(self, tmp_path, capsys, multiplicity):
        src = tmp_path / "custom.json"
        src.write_text(json.dumps({"accumulation": "to_zero",
                                   "entries": [[-2.0, 1], [-1.0, multiplicity]]}))
        code = main(["spectrum", "--input", str(src), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "not an integer" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out" / "spectrum.json").exists()

    @pytest.mark.parametrize("doc", [
        {"accumulation": "to_zero", "entries": [5]},
        {"accumulation": "to_zero", "entries": 5},
        [[-1.0, 1]],
        {"accumulation": "to_zero", "entries": [["-1", 1]]},
    ])
    def test_spectrum_rejects_a_malformed_document(self, tmp_path, capsys, doc):
        src = tmp_path / "custom.json"
        src.write_text(json.dumps(doc))
        code = main(["spectrum", "--input", str(src), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "out" / "spectrum.json").exists()

    def test_spectrum_rejects_rabi(self, tmp_path):
        code = main(["spectrum", "--model", "rabi", "--out", str(tmp_path)])
        assert code == 2

    def test_decompose(self, tmp_path):
        code = main(["decompose", "--model", "hydrogen", "--n-max", "3",
                     "--out", str(tmp_path)])
        assert code == 0
        doc = _read(tmp_path / "decomposition.json")
        assert set(doc) == {"prescale", "p", "channels", "certificates"}
        report = _read(tmp_path / "decompose_report.json")
        assert report["passed"] is True
        assert report["channel_count"] == 9

    @pytest.mark.parametrize("section,p", [
        ({"kind": "timeop"}, 50.0),
        ({"kind": "uwform"}, 50.0),
        ({"kind": "ftransform", "function": {"kind": "sin", "params": [0.3]}}, 50.0),
        # an ftransform section gives p even before it names its function
        ({"kind": "ftransform"}, 50.0),
        # oscspec has no p field: its section is not read
        ({"kind": "oscspec"}, 2.0),
    ])
    def test_decompose_reads_the_config_exponent(self, tmp_path, section, p):
        cfg = {
            "model": {"kind": "hydrogen", "n_max": 3},
            "pipeline": {**section, "p": 50.0},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["decompose", "--config", str(path), "--out", str(tmp_path)]) == 0
        doc = _read(tmp_path / "decomposition.json")
        assert doc["p"] == p
        # the decomposition the form pipelines build from the same file
        assert doc == json.loads(json.dumps(uwform.assemble_uwform(hydrogen_point_spectrum(1.0, 1.0, 3), p)[0].to_json()))
        # a flag overrides the file, as it does for timeop
        assert main(["decompose", "--config", str(path), "--p", "3",
                     "--out", str(tmp_path)]) == 0
        assert _read(tmp_path / "decomposition.json")["p"] == 3.0

    def test_timeop_oscillator(self, tmp_path):
        code = main(["timeop", "--model", "oscillator", "--omega", "1.0",
                     "--n-max", "20", "--out", str(tmp_path)])
        assert code == 0
        report = _read(tmp_path / "timeop_report.json")
        assert report["max_ccr_residual"] <= 1e-12
        first = report["channel_reports"][0]
        assert set(first) == {"channel_id", "dimension", "max_ccr_residual"}

    @pytest.mark.parametrize("flags", [
        ["--model", "hydrogen", "--n-max", "70"],
        ["--model", "hydrogen", "--n-max", "100"],
        *(["--model", "hydrogen", "--n-max", "4", "--gamma", gamma] for gamma in ("0.01", "1", "100")),
        *(["--model", "oscillator", "--n-max", "200", "--omega", omega] for omega in ("1e-3", "1", "1e3")),
    ], ids=lambda flags: "-".join(flags[1::2]))
    def test_timeop_passes_at_every_size_and_scale(self, tmp_path, flags):
        # the gate moves with max|h| max|A|, so neither the size nor the unit of the spectrum fails it
        assert main(["timeop", *flags, "--out", str(tmp_path)]) == 0
        report = _read(tmp_path / "timeop_report.json")
        assert 0.0 < report["max_ccr_residual_over_allowed"] < 1e-2

    def test_timeop_checks_each_dimension_once(self, tmp_path, monkeypatch):
        # the stack checks the rows of each dimension on entry, and the certificate does not check them again
        _, op = assemble_time_operator(hydrogen_point_spectrum(1.0, 1.0, 70))
        calls = []
        require = timeop._require_rows
        monkeypatch.setattr(timeop, "_require_rows", lambda ev, kind: calls.append(ev.shape[1]) or require(ev, kind))
        assert main(["timeop", "--model", "hydrogen", "--n-max", "70", "--out", str(tmp_path)]) == 0
        # one call per group, and one for the channels of dimension 1
        assert sorted(calls) == [1, *sorted(g.eigenvalues.shape[1] for g in op.groups)] == list(range(1, 71))

    def test_timeop_custom_input(self, tmp_path):
        s = hydrogen_point_spectrum(1.0, 1.0, 3)
        src = tmp_path / "custom.json"
        src.write_text(json.dumps(s.to_json()))
        code = main(["timeop", "--input", str(src), "--out", str(tmp_path)])
        assert code == 0
        report = _read(tmp_path / "timeop_report.json")
        assert report["spectrum"]["entries"] == [list(e) for e in s.entries]

    @pytest.mark.parametrize("command", ["timeop", "uwform"])
    def test_trivial_domain_is_a_usage_error(self, tmp_path, capsys, command):
        # hydrogen n_max = 1 is one level: one channel of dimension 1
        code = main([command, "--model", "hydrogen", "--n-max", "1", "--out", str(tmp_path)])
        assert code == 2
        assert "no channel has dimension 2 or more" in capsys.readouterr().err
        assert not (tmp_path / f"{command}_report.json").exists()

    def test_uwform_rejects_an_overflowing_form(self, tmp_path, capsys):
        src = tmp_path / "tiny.json"
        src.write_text(json.dumps({
            "accumulation": "to_zero",
            "entries": [[-3e-170, 1], [-2e-170, 1], [-1e-170, 1]],
        }))
        code = main(["uwform", "--input", str(src), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "not finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "uwform_report.json").exists()

    def test_timeop_rabi_rejects_infinite_coupling(self, tmp_path):
        with np.errstate(invalid="ignore"):
            code = main(["timeop", "--model", "rabi", "--g", "inf", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("flag,value", [("--mu", "nan"), ("--omega", "nan"), ("--g", "inf")])
    def test_timeop_rabi_names_the_non_finite_parameter(self, tmp_path, capsys, flag, value):
        code = main(["timeop", "--model", "rabi", flag, value, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {flag[2:]} must be finite, not {float(value)!r}\n"

    def test_timeop_rabi_omega_is_one_number(self, tmp_path, capsys):
        # one --omega flag serves both models: a list is the oscillator's, and the Rabi model refuses it
        code = main(["timeop", "--model", "rabi", "--omega", "1,2", "--out", str(tmp_path / "list")])
        err = capsys.readouterr().err
        assert code == 2 and len(err.splitlines()) == 1
        assert err == "error: --omega takes one number for the rabi model, not '1,2'\n"
        assert not (tmp_path / "list").exists()
        # the oscillator's list names the flag too
        assert main(["timeop", "--model", "oscillator", "--omega", "1,x", "--out", str(tmp_path / "list")]) == 2
        assert capsys.readouterr().err == "error: --omega takes a comma list of numbers for the oscillator model, not '1,x'\n"
        assert main(["timeop", "--model", "rabi", "--omega", "1", "--cutoff", "20", "--count", "5",
                     "--out", str(tmp_path / "rabi")]) == 0
        assert _read(tmp_path / "rabi" / "timeop_report.json")["config"]["model"]["omega"] == 1.0
        assert main(["timeop", "--model", "oscillator", "--omega", "1,2", "--n-max", "10",
                     "--out", str(tmp_path / "oscillator")]) == 0
        assert _read(tmp_path / "oscillator" / "timeop_report.json")["config"]["model"]["omega"] == [1.0, 2.0]

    def test_timeop_rabi(self, tmp_path):
        code = main(["timeop", "--model", "rabi", "--cutoff", "120",
                     "--count", "12", "--out", str(tmp_path)])
        assert code == 0
        report = _read(tmp_path / "timeop_report.json")
        assert report["all_bounds_true"] is True
        assert len(report["bound_checks"]) == 12
        # the whole 121-state chains are certified from a 2 * 12 + 64 = 88-row block
        assert report["model_dimension"] == 242 and report["leading_block"] == 88
        assert report["certificate_failed_index"] is None
        assert 0.0 < report["certificate_radius"] <= 1e-12

    @pytest.mark.parametrize("where", ["diagonals", "couplings"])
    def test_timeop_rabi_refuses_a_planted_nan(self, tmp_path, capsys, monkeypatch, where):
        build = spectra.rabi_hamiltonian

        def planted(*args):
            h = build(*args)
            arrays = {"diagonals": h.diagonals.copy(), "couplings": h.couplings.copy()}
            arrays[where][0, 3] = math.nan
            return spectra.HermitianMatrix(**arrays)

        monkeypatch.setattr(spectra, "rabi_hamiltonian", planted)
        code = main(["timeop", "--model", "rabi", "--cutoff", "20", "--count", "5", "--out", str(tmp_path)])
        assert code == 2 and capsys.readouterr().err == "error: chain entries must be finite\n"
        assert not (tmp_path / "timeop_report.json").exists()

    def test_uwform(self, tmp_path):
        code = main(["uwform", "--model", "hydrogen", "--n-max", "4",
                     "--out", str(tmp_path)])
        assert code == 0
        report = _read(tmp_path / "uwform_report.json")
        for key in ("admissible", "witnesses", "channels", "max_uw_ccr_residual",
                    "min_uncertainty_value", "passed"):
            assert key in report
        assert report["max_uw_ccr_residual"] <= 1e-10

    def test_uwform_with_inline_function(self, tmp_path):
        code = main(["uwform", "--model", "hydrogen", "--n-max", "4",
                     "--function", '{"kind": "exp", "params": [1.0]}',
                     "--out", str(tmp_path)])
        assert code == 0
        report = _read(tmp_path / "uwform_report.json")
        assert report["function"] == {"kind": "exp", "params": [1.0]}

    @pytest.mark.parametrize("command", [["uwform"], ["ftransform", "--function", "sin:0.3"]])
    def test_ultraweak_pipelines_fail_on_a_perturbed_evaluator_entry(self, tmp_path, monkeypatch, command):
        # R[0, 1] and R[1, 0] of one hydrogen channel off by a relative 1e-6: R stays antisymmetric,
        # so only the certificate can catch it, and that channel alone fails
        def perturbed(e, r):
            r[[0, 1], [1, 0]] *= 1.0 + 1e-6
            return r

        plant(monkeypatch, uwform, perturbed)
        code = main([*command, "--model", "hydrogen", "--n-max", "4", "--out", str(tmp_path)])
        assert code == 1
        report = _read(tmp_path / f"{command[0]}_report.json")
        tol = report["tolerances"]["uw_ccr"]
        assert report["passed"] is False and report["max_uw_ccr_residual"] > tol
        # the second row of the first multi-channel chunk is the second channel of that dimension, in channel order
        dimension = next(d for d in (c["dimension"] for c in report["channels"])
                         if sum(c["dimension"] == d for c in report["channels"]) > 1)
        target = [c["channel_id"] for c in report["channels"] if c["dimension"] == dimension][1]
        assert [c["channel_id"] for c in report["channels"] if not c["max_uw_ccr_residual"] <= tol] == [target]

    def test_uwform_verdict_is_scale_covariant(self, tmp_path):
        # E -> gamma^2 E leaves M = HR - RH + I as it is, so the certificate and the verdict stay put
        values = []
        for gamma in ("0.01", "1", "100"):
            out = tmp_path / gamma
            assert main(["uwform", "--model", "hydrogen", "--n-max", "16", "--gamma", gamma, "--out", str(out)]) == 0
            report = _read(out / "uwform_report.json")
            assert report["passed"] is True and report["max_uw_ccr_residual"] <= 2e-12
            values.append(report["min_uncertainty_value"])
        assert values == pytest.approx([values[1]] * 3, rel=1e-12)

    @pytest.mark.parametrize("command", [["uwform"], ["ftransform", "--function", "sin:0.3"]])
    def test_ultraweak_pipelines_fail_on_a_nan_evaluator_entry(self, tmp_path, monkeypatch, command):
        # a NaN pair R[0, 1], R[1, 0] in one channel gives that channel a NaN bound, which fails the gate
        def poisoned(e, r):
            r[[0, 1], [1, 0]] = math.nan
            return r

        plant(monkeypatch, uwform, poisoned)
        code = main([*command, "--model", "hydrogen", "--n-max", "4", "--out", str(tmp_path)])
        report = _read(tmp_path / f"{command[0]}_report.json")
        assert code == 1 and report["passed"] is False
        assert math.isnan(report["max_uw_ccr_residual"])
        assert sum(math.isnan(c["max_uw_ccr_residual"]) for c in report["channels"]) == 1

    @pytest.mark.parametrize("n_max", ["16", "40", "70", "100"])
    def test_uwform_certifies_hydrogen(self, tmp_path, n_max):
        assert main(["uwform", "--model", "hydrogen", "--n-max", n_max, "--out", str(tmp_path)]) == 0
        report = _read(tmp_path / "uwform_report.json")
        worst = max(c["max_uw_ccr_residual"] for c in report["channels"])
        assert 0.0 < report["max_uw_ccr_residual"] == worst <= report["tolerances"]["uw_ccr"]
        assert report["min_uncertainty_value"] == 0.5 - worst / 2
        assert all(c["max_uw_ccr_residual"] == 0.0 for c in report["channels"] if c["dimension"] == 1)
        assert "vectors_per_channel" not in report

    def test_seed_help_names_the_one_subcommand_that_reads_it(self):
        parser = cli._build_parser()
        (sub,) = [a for a in parser._actions if a.choices and "timeop" in a.choices]
        for subparser in sub.choices.values():
            (flag,) = [a for a in subparser._actions if a.dest == "seed"]
            assert "selftest's partition sequences" in flag.help and "ignored by every other" in flag.help

    def test_vectors_is_a_parse_only_flag_of_the_form_subcommands(self):
        parser = cli._build_parser()
        (sub,) = [a for a in parser._actions if a.choices and "timeop" in a.choices]
        for kind, subparser in sub.choices.items():
            flags = [a for a in subparser._actions if a.dest == "vectors"]
            if kind in ("timeop", "uwform", "ftransform"):
                assert [(a.type, a.help) for a in flags] == [(int, "ignored")]
            else:
                assert not flags

    @pytest.mark.parametrize("command", [
        ["s0check"],
        ["oscspec", "--sizes", "40,80"],
        ["abweyl", "--N", "256"],
        ["timeop", "--model", "hydrogen", "--n-max", "16"],
        ["uwform", "--model", "hydrogen", "--n-max", "16"],
        ["ftransform", "--model", "hydrogen", "--n-max", "16", "--function", "sin:0.3"],
    ], ids=lambda command: command[0])
    def test_a_report_is_a_function_of_its_config(self, tmp_path, command):
        # whole reports, config included: only the timings may differ across the parse-only flags
        parse_only = {"--seed": ["1", "7"], "--jobs": ["1", "2"]}
        if command[0] in ("timeop", "uwform", "ftransform"):
            # neither end of the range that --vectors once had is refused any more
            parse_only["--vectors"] = ["1", "20", "0", "10001"]
        base = {flag: values[0] for flag, values in parse_only.items()}
        variants = [{**base, flag: value} for flag, values in parse_only.items() for value in values]
        reports = set()
        for i, flags in enumerate(variants):
            out = tmp_path / str(i)
            assert main([*command, *(x for item in flags.items() for x in item), "--out", str(out)]) == 0
            report = _read(out / f"{command[0]}_report.json")
            del report["timings"]
            reports.add(json.dumps(report, sort_keys=True))
        assert len(reports) == 1
        assert set(json.loads(reports.pop())["config"]) == {"model", "pipeline", "tolerances"}

    def test_ftransform_admissible_sine(self, tmp_path):
        code = main(["ftransform", "--model", "hydrogen", "--n-max", "4",
                     "--function", "sin:0.3", "--out", str(tmp_path)])
        assert code == 0
        report = _read(tmp_path / "ftransform_report.json")
        assert report["admissible"] is True
        assert report["passed"] is True

    def test_ftransform_resonant_sine_fails(self, tmp_path):
        code = main(["ftransform", "--model", "hydrogen", "--n-max", "4",
                     "--function", "sin:-1.0", "--out", str(tmp_path)])
        assert code == 1
        report = _read(tmp_path / "ftransform_report.json")
        assert report["admissible"] is False
        assert report["witnesses"][0]["reason"] == "sine resonance"
        assert report["admissibility_details"]["scanned_integer_range"] == 2
        assert report["max_uw_ccr_residual"] is None

    @pytest.mark.parametrize("function, code", [("sin:0.3", 0), ("sin:-1.0", 1)], ids=["admissible", "resonant"])
    def test_ftransform_checks_admissibility_once(self, tmp_path, monkeypatch, function, code):
        calls = []
        check = uwform.f_condition_check

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(uwform, "f_condition_check", counted)
        # a pipeline that imported the check under its own name would bypass the patch above
        monkeypatch.setattr(cli, "f_condition_check", counted, raising=False)
        assert main(["ftransform", "--model", "hydrogen", "--n-max", "4",
                     "--function", function, "--out", str(tmp_path)]) == code
        assert len(calls) == 1

    def test_ftransform_rejects_an_overflowing_transform(self, tmp_path, capsys):
        code = main(["ftransform", "--model", "hydrogen", "--n-max", "4",
                     "--function", "exp:1e308", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: the shifted function overflows to inf at eigenvalue index 1 ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "ftransform_report.json").exists()

    @pytest.mark.parametrize("function,message", [
        ("poly:0,1e300,1e300", "error: the products E_n*E_m overflow"),
        ("poly:0,1,1e308", "error: the derivative factor of the polynomial overflows"),
    ])
    def test_ftransform_rejects_an_overflowing_polynomial(self, tmp_path, capsys, function, message):
        code = main(["ftransform", "--model", "hydrogen", "--n-max", "4",
                     "--function", function, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(message)
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "ftransform_report.json").exists()

    def test_ftransform_requires_function(self, tmp_path, capsys):
        code = main(["ftransform", "--model", "hydrogen", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: the ftransform pipeline needs --function or pipeline.function\n"
        assert not list(tmp_path.glob("*_report.json"))

    def test_a_function_file_is_read(self, tmp_path):
        path = tmp_path / "function.json"
        path.write_text(json.dumps({"kind": "sin", "params": [0.3]}))
        assert main(["ftransform", "--model", "hydrogen", "--n-max", "3", "--function", str(path),
                     "--out", str(tmp_path / "out")]) == 0
        assert _read(tmp_path / "out" / "ftransform_report.json")["function"] == {"kind": "sin", "params": [0.3]}

    @pytest.mark.parametrize("command,config", [
        ("ftransform", {"model": {"kind": "hydrogen", "n_max": 3},
                        "pipeline": {"kind": "ftransform", "function": {"kind": "sin", "params": [0.3]}}}),
        ("timeop", {"model": {"kind": "custom", "path": "{tmp}/spectrum.json"}}),
    ], ids=["ftransform-function", "custom-path"])
    def test_a_required_field_may_come_from_the_config_alone(self, tmp_path, command, config):
        (tmp_path / "spectrum.json").write_text(json.dumps(hydrogen_point_spectrum(1.0, 1.0, 3).to_json()))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config).replace("{tmp}", str(tmp_path)))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / f"{command}_report.json").exists()

    def test_oscspec(self, tmp_path):
        code = main(["oscspec", "--sizes", "50,100", "--jobs", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        report = _read(tmp_path / "oscspec_report.json")
        assert [row["size"] for row in report["rows"]] == [50, 100]
        assert report["monotone_nondecreasing"] is True
        csv_text = (tmp_path / "oscspec_lambda.csv").read_text().splitlines()
        assert csv_text[0] == "size,lambda_min,lambda_max"
        assert len(csv_text) == 3

    def test_oscspec_rows_are_the_certified_extremes(self):
        sizes = [4, 16, 64]
        report = run(RunConfig(model={}, pipeline={"kind": "oscspec", "omega": 2.0, "sizes": sizes}, tolerances={}))
        assert [row["size"] for row in report["rows"]] == sizes
        expected = [osc_timeop_extremes(2.0, n) for n in sizes]
        assert [(row["lambda_min"], row["lambda_max"], row["certificate_radius"], row["subspace_dimension"])
                for row in report["rows"]] == [e[:4] for e in expected]
        assert all(row["within_bound"] is True for row in report["rows"])
        assert report["certificate_failed_sizes"] == []
        assert report["monotone_nondecreasing"] is True and report["passed"] is True

    @staticmethod
    def _oscspec_with(monkeypatch, extremes, slack, radius=0.0):
        """The oscspec report at omega = 2 when sizes 2, 3, ... have the given (low, high) and radius."""
        monkeypatch.setattr(cli, "osc_timeop_extremes",
                            lambda omega, n: OscillatorExtremes(*extremes[n - 2], radius, 1, None))
        return run(RunConfig(model={}, pipeline={"kind": "oscspec", "omega": 2.0,
                                                   "sizes": list(range(2, 2 + len(extremes)))},
                             tolerances={"toeplitz_bound_slack": slack}))

    def test_oscspec_bound_is_pi_over_omega_plus_slack(self, monkeypatch):
        bound = math.pi / 2.0
        report = self._oscspec_with(monkeypatch, [(-1.0, bound + 1e-3), (-bound - 1e-3, 1.0), (-1.0, bound + 1e-3)], 2e-3)
        assert report["symbol_bound"] == bound
        assert [row["within_bound"] for row in report["rows"]] == [True, True, True]
        report = self._oscspec_with(monkeypatch, [(-1.0, bound + 1e-3), (-bound - 1e-3, 1.0), (-1.0, 1.0)], 0.0)
        assert [row["within_bound"] for row in report["rows"]] == [False, False, True]
        assert report["passed"] is False

    def test_oscspec_bound_holds_the_certified_ends(self, monkeypatch):
        # the values sit inside the bound, their radius reaches past it
        bound = math.pi / 2.0
        extremes = [(-bound + 1e-3, 1.0), (-1.0, bound - 1e-3)]
        assert self._oscspec_with(monkeypatch, extremes, 0.0, radius=5e-4)["passed"] is True
        report = self._oscspec_with(monkeypatch, extremes, 0.0, radius=2e-3)
        assert [row["within_bound"] for row in report["rows"]] == [False, False] and report["passed"] is False

    def test_oscspec_a_falling_maximum_is_not_monotone(self, monkeypatch):
        report = self._oscspec_with(monkeypatch, [(-1.0, 1.0), (-1.1, 1.1), (-1.05, 1.05)], 0.0)
        assert report["monotone_nondecreasing"] is False and report["passed"] is False
        report = self._oscspec_with(monkeypatch, [(-1.0, 1.0), (-1.0, 1.0)], 0.0)
        assert report["monotone_nondecreasing"] is True and report["passed"] is True

    def test_abweyl(self, tmp_path, monkeypatch):
        grids = []
        sweep = cli.weak_weyl_residuals
        monkeypatch.setattr(cli, "weak_weyl_residuals", lambda state, times: grids.append(state.size) or sweep(state, times))
        code = main(["abweyl", "--N", "512", "--steps", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        assert grids == [512]   # one sweep, on the N grid only
        report = _read(tmp_path / "abweyl_report.json")
        assert report["max_residual"] <= 1e-6
        csv_text = (tmp_path / "abweyl_sweep.csv").read_text().splitlines()
        assert csv_text[0] == "t,residual"
        assert len(csv_text) == 3

    def test_abweyl_rejects_bad_packet(self, tmp_path):
        code = main(["abweyl", "--sigma", "-1.0", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("steps", ["1", "2", "40"])
    def test_abweyl_refuses_a_wrapping_packet_whatever_the_steps(self, tmp_path, capsys, steps):
        # at t = 20 the default packet has crossed the periodic box: the sampled state at
        # t = 20 alone sits inside it, so only a gate over the whole interval refuses --steps 1
        code = main(["abweyl", "--tmax", "20", "--steps", steps, "--out", str(tmp_path)])
        assert code == 2
        assert "box boundary (|<x>| + 6 std = 143.267" in capsys.readouterr().err
        assert not list(tmp_path.glob("*"))

    # a negative size must not cancel the work of the others, and each size costs at least 128^2
    @pytest.mark.parametrize("sizes", ["4096,4096,4096", "-100000000,4096", ",".join(["2"] * 5000)],
                             ids=["three-at-the-cap", "a-negative-size", "5000-sizes-of-2"])
    def test_oscspec_work_beyond_the_cap_is_refused_before_any_solve(self, tmp_path, capsys, monkeypatch, sizes):
        def no_solve(omega, n):
            raise AssertionError("an over-cap size list reached the solver")

        monkeypatch.setattr(cli, "osc_timeop_extremes", no_solve)
        code = main(["oscspec", f"--sizes={sizes}", "--jobs", "2", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        work = sum(max(abs(int(n)), 128) ** 2 for n in sizes.split(","))
        assert code == 2
        assert err == f"error: sizes cost a summed max(n, 128)^2 = {work}, beyond the limit {cli.OSCSPEC_WORK_LIMIT}\n"
        assert not (tmp_path / "oscspec_report.json").exists()

    def test_oscspec_cap_admits_the_dense_benchmark_sizes(self, tmp_path, monkeypatch):
        assert main(["oscspec", "--sizes", "400,800,1600", "--out", str(tmp_path)]) == 0
        # "4096,4096" is admitted: it reaches the solver
        solved = []
        monkeypatch.setattr(cli, "osc_timeop_extremes", lambda omega, n: solved.append(n) or osc_timeop_extremes(omega, 2))
        main(["oscspec", "--sizes", "4096,4096", "--out", str(tmp_path)])
        assert solved == [4096, 4096]

    def test_s0check(self, tmp_path):
        code = main(["s0check", "--out", str(tmp_path)])
        assert code == 0
        report = _read(tmp_path / "s0check_report.json")
        assert report["strong_relation_all_exact"] is True
        assert report["strong_relation_pairs"] == len(contspec.S0_LATTICE) ** 2 <= 100
        assert report["symmetry_frequencies"] == 33
        assert 0.0 < report["symmetry_max_residual"] <= 1e-13
        assert not {"strong_relation_samples", "symmetry_pairs"} & set(report)

    def test_s0check_and_its_criterion_draw_no_random_numbers(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a random generator was made")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert main(["s0check", "--out", str(tmp_path)]) == 0
        assert acceptance.criterion_s0(DEFAULT_TOLERANCES, 7)[0] is True

    def test_no_model_is_a_usage_error(self, tmp_path):
        code = main(["timeop", "--out", str(tmp_path)])
        assert code == 2

    def test_bad_config_file_is_a_usage_error(self, tmp_path):
        bad = tmp_path / "config.json"
        bad.write_text("not json at all")
        code = main(["timeop", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("omega", ["inf", "nan", "1e-320"])
    def test_oscspec_rejects_non_finite_frequency(self, tmp_path, capsys, omega):
        code = main(["oscspec", "--omega", omega, "--sizes", "10", "--out", str(tmp_path)])
        assert code == 2
        assert "omega must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "oscspec_report.json").exists()

    @pytest.mark.parametrize("command", [
        ["oscspec", "--sizes", "10"],
        ["timeop", "--model", "hydrogen", "--n-max", "3"],
    ])
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, command, jobs):
        code = main([*command, "--jobs", jobs, "--out", str(tmp_path)])
        assert code == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not list(tmp_path.glob("*_report.json"))

    @pytest.mark.parametrize("command,config", [
        (["timeop"], {"model": {"kind": "hydrogen", "n_max": [3]}}),
        (["timeop"], {"model": {"kind": "oscillator", "omega": 2.0}}),
        (["timeop"], {"model": {"kind": "rabi", "g": "0.3"}}),
        (["timeop"], {"model": {"kind": "hydrogen", "n_max": 3}, "seed": [1]}),
        (["timeop"], {"model": {"kind": "hydrogen", "n_max": 3}, "tolerances": {"ccr_relative": [1]}}),
        (["timeop"], {"model": {"kind": "hydrogen", "n_max": 3.5}}),
        (["timeop"], {"model": {"kind": "hydrogen", "n_max": True}}),
        (["timeop"], {"model": 5}),
        (["timeop"], [1, 2]),
        (["uwform"], {"model": {"kind": "hydrogen", "n_max": 3},
                      "pipeline": {"kind": "uwform", "function": {"kind": "exp", "params": 3}}}),
        (["oscspec"], {"pipeline": {"kind": "oscspec", "sizes": 100}}),
        (["oscspec"], {"pipeline": {"kind": "oscspec", "sizes": []}}),
        (["abweyl"], {"pipeline": {"kind": "abweyl", "N": 512.0}}),
        (["selftest"], {"tolerances": {"uw_ccr": [1e-9]}}),
        (["selftest"], {"tolerances": {"uw_ccr": True}}),
        (["uwform"], {"model": {"kind": "hydrogen", "n_max": 3}, "tolerances": {"uw_ccr": math.inf}}),
        (["uwform"], {"model": {"kind": "hydrogen", "n_max": 3}, "tolerances": {"uw_ccr": math.nan}}),
        (["selftest"], {"seed": "7"}),
    ])
    def test_malformed_config_is_a_usage_error(self, tmp_path, capsys, command, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main([*command, "--config", str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*_report.json"))

    def test_config_file_drives_a_run(self, tmp_path):
        cfg = {
            "model": {"kind": "hydrogen", "n_max": 3},
            "pipeline": {"kind": "uwform", "p": 2.0},
            "seed": 3,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code = main(["uwform", "--config", str(path), "--out", str(tmp_path)])
        assert code == 0
        report = _read(tmp_path / "uwform_report.json")
        # the seed is checked but not part of a pipeline's config
        assert report["config"] == {"model": cfg["model"], "pipeline": cfg["pipeline"], "tolerances": {}}
        assert "vectors_per_channel" not in report

    @pytest.mark.parametrize("command,section,key", [
        ("uwform", {"model": {"kind": "hydrogen", "nmax": 40}}, "'nmax'"),       # a misspelt n_max
        ("timeop", {"model": {"kind": "rabi", "n_max": 4}}, "'n_max'"),           # another kind's field
        ("uwform", {"model": {"kind": "hydrogen"}, "pipeline": {"kind": "uwform", "vectors": 5}}, "'vectors'"),
        ("oscspec", {"pipeline": {"kind": "oscspec", "p": 2.0}}, "'p'"),
        # decompose reads p from a form pipeline's section, which is checked against its own kind
        ("decompose", {"model": {"kind": "hydrogen"}, "pipeline": {"kind": "uwform", "sizes": [4]}}, "'sizes'"),
    ])
    def test_an_unknown_config_key_is_a_usage_error(self, tmp_path, capsys, command, section, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(section))
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown ") and key in err and "Traceback" not in err
        assert not list(tmp_path.glob("*_report.json"))

    def test_decompose_reads_p_from_a_form_pipelines_section(self, tmp_path):
        # uwform's function is no field of decompose: the section lends only p
        cfg = {"model": {"kind": "hydrogen", "n_max": 3},
               "pipeline": {"kind": "uwform", "p": 3.0, "function": {"kind": "sin", "params": [0.3]}}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["decompose", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert _read(tmp_path / "decomposition.json")["p"] == 3.0

    @pytest.mark.parametrize("command", ["spectrum", "decompose", "timeop", "uwform"])
    def test_custom_model_without_a_path_names_the_flag_and_the_field(self, tmp_path, capsys, command):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": {"kind": "custom"}}))
        for source in (["--model", "custom"], ["--config", str(path)]):
            code = main([command, *source, "--out", str(tmp_path)])
            assert code == 2
            assert capsys.readouterr().err == "error: the custom model needs --input or model.path\n"
        assert not list(tmp_path.glob("*_report.json"))

    def test_ftransform_config_without_a_function_is_a_usage_error(self):
        config = RunConfig(model={"kind": "hydrogen", "n_max": 3}, pipeline={"kind": "ftransform"},
                           tolerances={})
        with pytest.raises(ValueError, match="the ftransform pipeline needs --function or pipeline.function"):
            run(config)

    @pytest.mark.parametrize("command,flags,fields", [
        ("abweyl",
         ["--L", "60", "--N", "2048", "--m", "2", "--x0", "1", "--k0", "6", "--sigma", "2.5",
          "--tmax", "0.5", "--steps", "3"],
         {"L": 60.0, "N": 2048, "m": 2.0, "x0": 1.0, "k0": 6.0, "sigma": 2.5, "tmax": 0.5, "steps": 3}),
        ("oscspec", ["--omega", "2", "--sizes", "64,32,48"], {"omega": 2.0, "sizes": [64, 32, 48]}),
    ])
    def test_flags_and_config_give_the_same_report(self, tmp_path, command, flags, fields):
        assert set(fields) == set(cli.PIPELINE_FIELDS[command])
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"pipeline": {"kind": command, **fields}}))
        outputs = []
        for name, source in (("flags", flags), ("config", ["--config", str(path)])):
            assert main([command, *source, "--out", str(tmp_path / name)]) == 0
            outputs.append({f.name: _strip_timings(_read(f)) if f.suffix == ".json" else f.read_bytes()
                            for f in (tmp_path / name).iterdir()})
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) == 2   # the report and its CSV


class TestEveryVerdictCanFail:
    """A perturbed kernel makes each of these runs exit 1, with a report that says FAIL."""

    @staticmethod
    def _run(tmp_path, command, *flags):
        code = main([command, *flags, "--out", str(tmp_path)])
        report = _read(tmp_path / f"{command}_report.json")
        assert code == 1 and report["passed"] is False
        return report

    @pytest.mark.parametrize("case", ["generator_entry", "eigenvalue", "nan_entry"])
    def test_timeop(self, tmp_path, monkeypatch, case):
        # one generator entry pair off by a relative 1e-9 or NaN, planted antisymmetrically at (7, 3) and
        # (3, 7) since the certificate reads one triangle, or one pairing eigenvalue off by a relative
        # 1e-9 with the generator built from the exact ones: that commutator row no longer cancels
        def perturbed(s, p):
            deco, op = assemble_time_operator(s, p)
            (g,) = op.groups
            if case == "eigenvalue":
                ev = g.eigenvalues.copy()
                ev[0, 7] *= 1.0 + 1e-9
                object.__setattr__(op, "groups", (replace(g, eigenvalues=ev),))

            def planted(e, a):
                a = generator(g.eigenvalues[0], op.kind)
                if case != "eigenvalue":
                    a[7, 3] = a[7, 3] * (1.0 + 1e-9) if case == "generator_entry" else math.nan
                    a[3, 7] = -a[7, 3]
                return a

            plant(monkeypatch, timeop, planted, target=op.groups[0].eigenvalues[0])
            return deco, op

        monkeypatch.setattr(cli, "assemble_time_operator", perturbed)
        report = self._run(tmp_path, "timeop", "--model", "oscillator", "--n-max", "20")
        assert not report["max_ccr_residual"] <= 1e-12
        assert math.isnan(report["max_ccr_residual"]) is (case == "nan_entry")
        assert not report["max_ccr_residual_over_allowed"] <= 1.0

    @pytest.mark.parametrize("poisoned", [0, 1], ids=["certificate", "scale"])
    def test_timeop_nan_gate_input(self, tmp_path, monkeypatch, poisoned):
        # a NaN certificate, or a NaN scale under a finite certificate, fails the gate
        certificates = cli.ccr_certificates

        def planted(op):
            out = certificates(op)
            out[poisoned][np.argmax(out[0])] = math.nan
            return out

        monkeypatch.setattr(cli, "ccr_certificates", planted)
        self._run(tmp_path, "timeop", "--model", "hydrogen", "--n-max", "4")

    def test_rabi_certificate_with_a_planted_pivot(self, tmp_path, monkeypatch):
        # every count one too high: the lower shift of the ground state fails at every block size
        counts = spectra._sturm_counts
        monkeypatch.setattr(spectra, "_sturm_counts", lambda *args: counts(*args) + 1)
        report = self._run(tmp_path, "timeop", "--model", "rabi", "--cutoff", "150", "--count", "10")
        assert report["certificate_failed_index"] == 0 and report["leading_block"] == 151
        assert report["all_bounds_true"] is True

    def test_rabi_certificate_without_slack(self, tmp_path, monkeypatch):
        # uncoupled, the Ritz values are exact; with no slack each shift sits on its eigenvalue
        monkeypatch.setattr(spectra, "CERTIFICATE_SLACK_ULPS", 0.0)
        report = self._run(tmp_path, "timeop", "--model", "rabi", "--g", "0", "--cutoff", "30", "--count", "5")
        assert report["certificate_failed_index"] == 0 and report["all_bounds_true"] is True

    @pytest.mark.parametrize("perturb,failing", [
        # every extreme 10 % wider: past the symbol bound pi/omega at the largest sizes
        (lambda e, n: e._replace(low=1.1 * e.low, high=1.1 * e.high), "within_bound"),
        # the largest size's maximum below the one before it
        (lambda e, n: e._replace(high=e.high - 0.1) if n == 800 else e, "monotone_nondecreasing"),
    ])
    def test_oscspec(self, tmp_path, monkeypatch, perturb, failing):
        extremes = cli.osc_timeop_extremes
        monkeypatch.setattr(cli, "osc_timeop_extremes", lambda omega, n: perturb(extremes(omega, n), n))
        report = self._run(tmp_path, "oscspec")
        assert report["certificate_failed_sizes"] == []
        if failing == "within_bound":
            assert not all(row["within_bound"] for row in report["rows"]) and report["monotone_nondecreasing"]
        else:
            assert all(row["within_bound"] for row in report["rows"]) and not report["monotone_nondecreasing"]

    def test_oscspec_certificate_with_a_planted_pivot(self, tmp_path, monkeypatch):
        # the last pivot of every pass at size 400 negated: uncertified even on the whole space
        pivots = timeop._schur_pivots

        def planted(row):
            out = pivots(row)
            if row.size == 400:
                out[-1] = -out[-1]
            return out

        monkeypatch.setattr(timeop, "_schur_pivots", planted)
        report = self._run(tmp_path, "oscspec")
        assert report["certificate_failed_sizes"] == [400]
        # 8 smooth columns and their Krylov block, but the whole space at the failing size
        assert [row["subspace_dimension"] for row in report["rows"]] == [16, 16, 200, 16]
        assert all(row["within_bound"] for row in report["rows"]) and report["monotone_nondecreasing"]

    def test_abweyl(self, tmp_path, monkeypatch):
        # a weak Weyl residual just over the 1e-6 gate at every time
        residuals = cli.weak_weyl_residuals
        monkeypatch.setattr(cli, "weak_weyl_residuals",
                            lambda state, times: [r + 2e-6 for r in residuals(state, times)])
        report = self._run(tmp_path, "abweyl")
        assert report["max_residual"] > report["tolerances"]["grid_residual"]

    def test_abweyl_nan_residual(self, tmp_path, monkeypatch):
        # a NaN at the second time, which Python's max would skip behind the finite first residual
        residuals = cli.weak_weyl_residuals
        monkeypatch.setattr(cli, "weak_weyl_residuals",
                            lambda state, times: [r if j != 1 else math.nan
                                                  for j, r in enumerate(residuals(state, times))])
        report = self._run(tmp_path, "abweyl")
        assert math.isnan(report["max_residual"]) and not math.isnan(report["sweep"][0][1])

    @pytest.mark.parametrize("case", ["s0_apply", "shifted_entry", "nan_entry"])
    def test_s0check(self, tmp_path, monkeypatch, case):
        if case == "s0_apply":
            # the coefficient map with a = -2sc in place of -sc: neither Y + t nor the symmetry comes out
            apply = contspec.s0_apply
            monkeypatch.setattr(contspec, "s0_apply", lambda f: tuple((2 * a, b, s) for a, b, s in apply(f)))
        else:
            # one entry of K, in the middle of the frequency set, off by 1e-8 or NaN
            matrix = contspec._s0_symmetry_matrix

            def planted(freqs):
                k = matrix(freqs)
                k[16, 17] = k[16, 17] + 1e-8 if case == "shifted_entry" else math.nan
                return k

            monkeypatch.setattr(contspec, "_s0_symmetry_matrix", planted)
        report = self._run(tmp_path, "s0check")
        assert report["strong_relation_all_exact"] is (case != "s0_apply")
        assert not report["symmetry_max_residual"] <= 1e-8
        assert math.isnan(report["symmetry_max_residual"]) is (case == "nan_entry")

    def test_uwform_nan_certificate(self, tmp_path, monkeypatch):
        # a NaN bound in one channel, which Python's max would skip behind the finite ones
        bounds = cli.uw_ccr_bounds

        def poisoned(form):
            out = bounds(form)
            out[2] = math.nan
            return out

        monkeypatch.setattr(cli, "uw_ccr_bounds", poisoned)
        code = main(["uwform", "--model", "hydrogen", "--n-max", "4", "--out", str(tmp_path)])
        report = _read(tmp_path / "uwform_report.json")
        assert code == 1 and report["passed"] is False
        assert math.isnan(report["max_uw_ccr_residual"]) and math.isnan(report["min_uncertainty_value"])


class TestFieldTable:
    """The model and pipeline tables are the one source of flags, checks and defaults."""

    @staticmethod
    def _subcommands():
        parser = cli._build_parser()
        (sub,) = [a for a in parser._actions if a.choices and "timeop" in a.choices]
        return sub.choices

    def test_two_runs_build_one_parser(self, tmp_path, capsys):
        cli._build_parser.cache_clear()
        for _ in range(2):
            assert main(["s0check", "--out", str(tmp_path)]) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("kind", cli.PIPELINE_KINDS)
    def test_pipeline_flags_are_exactly_its_fields(self, kind):
        common = {"help", "config", "out", "jobs", "seed"}
        model = {"model", "omega", "n_max", "mass", "gamma", "mu", "g", "cutoff", "count", "input"}
        takes_model = kind in ("timeop", "uwform", "ftransform")
        # --vectors is parsed and ignored, no field: the benchmark's command lines still pass it
        parse_only = {"vectors"} if takes_model else set()
        dests = {a.dest for a in self._subcommands()[kind]._actions}
        assert dests == common | (model | parse_only if takes_model else set()) | set(cli.PIPELINE_FIELDS[kind])
        assert not parse_only & set(cli.PIPELINE_FIELDS[kind])
        # a REQUIRED field may come from --config, so _resolve, not argparse, demands it
        assert not [a.dest for a in self._subcommands()[kind]._actions if a.required]

    @pytest.mark.parametrize("kind", cli.PIPELINE_KINDS)
    def test_an_empty_pipeline_section_reads_the_defaults(self, kind):
        fields = cli.PIPELINE_FIELDS[kind]
        section = {"kind": kind, "function": {"kind": "sin", "params": [0.3]}}
        values = cli._resolve("pipeline", section)
        assert set(values) == set(fields)
        for key, (ftype, default) in fields.items():
            if key != "function":
                assert values[key] == default and ftype.admits(values[key])

    @pytest.mark.parametrize("kind", cli.MODEL_KINDS)
    def test_model_defaults_are_admitted_by_their_types(self, kind):
        for ftype, default in cli.MODEL_FIELDS[kind].values():
            assert default is cli.REQUIRED or ftype.admits(default)

    @pytest.mark.parametrize("args,err", [
        (["oscspec", "--sizes", "4,x"], "--sizes takes a comma list of integers, not '4,x'"),
        (["oscspec", "--sizes", "4,5.5"], "--sizes takes a comma list of integers, not '4,5.5'"),
        (["uwform", "--model", "hydrogen", "--function", "sin:abc"],
         "--function takes inline JSON, kind:p1,p2 or a JSON file path, not 'sin:abc'"),
        (["ftransform", "--model", "hydrogen", "--function", "{sin"],
         "--function takes inline JSON, kind:p1,p2 or a JSON file path, not '{sin'"),
        # a bare kind reads as a file path, and a missing file is a usage error naming the flag
        (["ftransform", "--model", "hydrogen", "--function", "sin"],
         "--function takes inline JSON, kind:p1,p2 or a JSON file path, not 'sin'"),
        (["timeop", "--model", "rabi", "--omega", "x"], "--omega takes one number for the rabi model, not 'x'"),
        (["selftest", "--tolerance", "uw_ccr=abc"], "--tolerance takes name=value with a number value, not 'uw_ccr=abc'"),
        (["selftest", "--tolerance", "uw_ccr"], "--tolerance takes name=value with a number value, not 'uw_ccr'"),
    ])
    def test_a_flag_text_that_does_not_parse_names_the_flag(self, tmp_path, capsys, args, err):
        assert main([*args, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not list(tmp_path.glob("*"))

    @pytest.mark.parametrize("args", [["uwform"], ["timeop"], ["spectrum"], ["s0check"], ["selftest"]])
    @pytest.mark.parametrize("key", ["tolerance", "vectors", "Model"])
    def test_an_unknown_top_level_config_key_is_refused(self, tmp_path, capsys, args, key):
        # a misspelt section would otherwise be dropped, and the run pass on the defaults
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": {"kind": "hydrogen", "n_max": 4}, key: {"uw_ccr": 0}}))
        assert main([*args, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (f"error: unknown config key {key!r}; a config file holds "
                                           "'model', 'pipeline', 'tolerances' and 'seed'\n")
        assert not (tmp_path / "out").exists()


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
)
_ENTRIES = st.one_of(
    _JSON_SCALARS,
    st.lists(st.one_of(
        _JSON_SCALARS,
        st.lists(_JSON_SCALARS, max_size=3),
        st.tuples(st.floats(max_value=-1e-3), st.integers(0, 3)).map(list),
    ), max_size=4),
)
_SPECTRUM_DOCUMENTS = st.one_of(
    _JSON_SCALARS,
    st.lists(_JSON_SCALARS, max_size=3),
    st.fixed_dictionaries(
        {"entries": _ENTRIES},
        optional={
            "accumulation": st.one_of(st.sampled_from(["to_zero", "to_infinity"]), _JSON_SCALARS),
            "label": _JSON_SCALARS,
        },
    ),
)


class TestSpectrumDocumentFuzz:
    @settings(max_examples=150, deadline=timedelta(seconds=2))
    @given(doc=_SPECTRUM_DOCUMENTS)
    def test_any_document_exits_zero_or_two_without_a_traceback(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "custom.json"
            src.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["spectrum", "--input", str(src), "--out", tmp])
        assert code in (0, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ")
            assert not (Path(tmp) / "spectrum.json").exists()


class CaseTimeout(Exception):
    """A fuzz case outlived its time limit."""


@contextlib.contextmanager
def time_limit(seconds):
    """Raise CaseTimeout in the main thread once ``seconds`` have passed."""
    def stop(signum, frame):
        raise CaseTimeout(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


#: A time limit per fuzz case, far above what any small case needs.
FUZZ_CASE_SECONDS = 20

#: The spectrum a drawn custom model reads; ``{tmp}`` is the case's directory.
_SPECTRUM_PATH = "{tmp}/spectrum.json"

_WRONG_TYPES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2),
    st.fixed_dictionaries({"x": st.integers(0, 3)}),
)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
#: Finite but extreme: near the overflow threshold, and down to the smallest subnormal.
_EXTREME = st.sampled_from([1e308, -1e308, 1e-308, -1e-308, 1e300, -1e300, 1e-300, -1e-300,
                            1e200, -1e200, 1e-200, -1e-200, 5e-324, -5e-324])
_BEYOND_CAPS = [10 ** 7, 2 ** 31, 10 ** 12, 10 ** 30]

#: Per field type: small valid values, and hostile ones (wrong JSON types,
#: non-finite numbers, sizes below one or beyond every cap).
_VALID = {
    cli.NUMBER: st.floats(0.1, 10.0),
    cli.INTEGER: st.one_of(st.integers(1, 6), st.just(16)),   # 16: the smallest grid
    cli.STRING: st.just(_SPECTRUM_PATH),
    cli.NUMBERS: st.lists(st.floats(0.1, 10.0), min_size=1, max_size=3),
    cli.INTEGERS: st.lists(st.integers(1, 64), min_size=1, max_size=3),
    cli.FUNCTION: st.fixed_dictionaries({"kind": st.sampled_from(["exp", "sin", "poly"]),
                                         "params": st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=2)}),
}
_HOSTILE = {
    cli.NUMBER: st.one_of(_NON_FINITE, _EXTREME, _WRONG_TYPES),
    cli.INTEGER: st.sampled_from([*_BEYOND_CAPS, -2, 0, 3.0, math.nan, True, "3", [3], None]),
    cli.STRING: st.one_of(st.just("no-such-spectrum.json"), _WRONG_TYPES),
    cli.NUMBERS: st.one_of(st.lists(st.one_of(_NON_FINITE, _EXTREME, _WRONG_TYPES), min_size=1, max_size=2),
                           st.just([]), _WRONG_TYPES),
    cli.INTEGERS: st.one_of(st.lists(st.sampled_from([*_BEYOND_CAPS, -2, 0]), min_size=1, max_size=2),
                            st.just([]), _WRONG_TYPES),
    cli.FUNCTION: st.one_of(
        st.fixed_dictionaries({"kind": st.sampled_from(["exp", "sin", "poly", "bogus"]),
                               "params": st.lists(_NON_FINITE, min_size=1, max_size=2)}),
        _WRONG_TYPES,
    ),
}


@st.composite
def _invocations(draw):
    """A subcommand and a config whose sections draw valid fields, then spoil at most one each."""
    command = draw(st.sampled_from(["spectrum", "decompose", *cli.PIPELINE_KINDS]))
    sections = {
        "model": (cli.MODEL_FIELDS, draw(st.sampled_from(cli.MODEL_KINDS))),
        "pipeline": (cli.PIPELINE_FIELDS, command if command in cli.PIPELINE_KINDS else "timeop"),
    }
    doc = {}
    for name, (table, kind) in sections.items():
        fields = {key: _VALID[ftype] for key, (ftype, _) in table[kind].items()}
        doc[name] = draw(st.fixed_dictionaries({"kind": st.just(kind)}, optional=fields))
        spoiled = draw(st.sampled_from([None, *table[kind]]))
        if spoiled is not None:
            doc[name][spoiled] = draw(_HOSTILE[table[kind][spoiled][0]])
    flags = ["--function", "sin:0.3"] if command == "ftransform" else []
    return command, doc, flags


class TestConfigFuzz:
    """Config documents drawn from the field table, each run under a time limit."""

    @pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
    @settings(max_examples=500, deadline=None)
    @given(case=_invocations())
    # found by the fuzz: two frequencies whose sum overflows in math.fsum
    @example(case=("spectrum", {"model": {"kind": "oscillator", "omega": [1e308, 1e308]},
                                "pipeline": {"kind": "timeop"}}, []))
    def test_any_config_exits_zero_one_or_two_without_a_traceback(self, case):
        command, doc, flags = case
        with tempfile.TemporaryDirectory() as tmp:
            spectrum = hydrogen_point_spectrum(1.0, 1.0, 3).to_json()
            Path(_SPECTRUM_PATH.format(tmp=tmp)).write_text(json.dumps(spectrum))
            if doc["model"].get("path") == _SPECTRUM_PATH:
                doc["model"]["path"] = _SPECTRUM_PATH.format(tmp=tmp)
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                with time_limit(FUZZ_CASE_SECONDS):
                    code = main([command, "--config", str(path), *flags, "--out", str(Path(tmp) / "out")])
        event(f"{command} exit {code}")
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ") and len(err.getvalue().splitlines()) == 1


class TestSelftestCommand:
    def test_full_suite_passes(self, tmp_path, capsys):
        code = main(["selftest", "--out", str(tmp_path)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(1 for ln in lines if ln.startswith("PASS ")) >= 9
        report = _read(tmp_path / "selftest_report.json")
        assert report["passed"] is True
        assert len(report["criteria"]) == 9
        assert all(c["passed"] for c in report["criteria"])

    def test_zero_tolerance_forces_failure(self, tmp_path):
        code = main(["selftest", "--tolerance", "uw_ccr=0",
                     "--out", str(tmp_path)])
        assert code == 1
        report = _read(tmp_path / "selftest_report.json")
        assert report["passed"] is False
        assert report["tolerances"] == {**DEFAULT_TOLERANCES, "uw_ccr": 0.0}

    def test_malformed_override_is_a_usage_error(self, tmp_path):
        assert main(["selftest", "--tolerance", "uw_ccr",
                     "--out", str(tmp_path)]) == 2
        assert main(["selftest", "--tolerance", "bogus=1",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("override", [
        "uw_ccr=nan", "uw_ccr=inf", "uw_ccr=-inf", "grid_residual=inf", "difference_span=1e-10",
    ])
    def test_unusable_tolerance_is_a_usage_error(self, tmp_path, capsys, override):
        code = main(["selftest", "--tolerance", override, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert not (tmp_path / "selftest_report.json").exists()

    @pytest.mark.parametrize("args,config", [
        (["selftest", "--tolerance", "im_identity=0"], {}),
        (["uwform", "--model", "hydrogen"], {"tolerances": {"uncertainty_slack": 1e-10}}),
    ], ids=["im_identity", "uncertainty_slack"])
    def test_the_folded_tolerances_are_unknown(self, tmp_path, capsys, args, config):
        # both were gates on the one uw_ccr certificate, and folded into uw_ccr
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main([*args, "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "unknown tolerance" in capsys.readouterr().err
        assert not list(tmp_path.glob("*_report.json"))

    @pytest.mark.parametrize("args,config", [(["--seed", "-1"], {}), ([], {"seed": -3})])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, args, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(["selftest", *args, "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be nonnegative\n"
        assert not (tmp_path / "selftest_report.json").exists()

    def test_reports_are_byte_deterministic(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        assert main(["selftest", "--out", str(a_dir)]) == 0
        assert main(["selftest", "--out", str(b_dir)]) == 0
        a = _strip_timings(_read(a_dir / "selftest_report.json"))
        b = _strip_timings(_read(b_dir / "selftest_report.json"))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestEntryPoints:
    def test_package_exports_the_cli(self):
        assert timeops.run is cli.run
        assert timeops.RunConfig is cli.RunConfig

    @pytest.mark.parametrize("first,second", [("acceptance", "cli"), ("cli", "acceptance")])
    def test_cli_and_acceptance_import_in_either_order(self, first, second):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        code = (f"import timeops.{first}, timeops.{second}\n"
                "assert timeops.acceptance.run is timeops.cli.run\n"
                "assert timeops.cli.acceptance is timeops.acceptance")
        proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_module_runs_without_a_runtime_warning(self, tmp_path):
        # ``python -m timeops.cli`` still warns: the package imports the CLI
        proc = run_module("s0check", "--out", tmp_path, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert _read(tmp_path / "s0check_report.json")["passed"] is True


class TestSubprocessBoundaries:
    """Inputs that once hung or exhausted memory, run in a time-limited subprocess."""

    def test_spectrum_beyond_the_bucket_range_is_a_usage_error(self, tmp_path):
        doc = {"accumulation": "to_zero", "entries": [[-1e-200, 1], [-1e-300, 1]]}
        src = tmp_path / "wide.json"
        src.write_text(json.dumps(doc))
        assert_usage_error("timeop", "--input", src, "--out", tmp_path, match="dynamic range", timeout=30)
        assert not (tmp_path / "timeop_report.json").exists()

    @pytest.mark.parametrize("args,match", [
        (["abweyl", "--steps", 100_000_000], "steps must be at most 10000"),
        (["abweyl", "--steps", 100_000, "--tmax", 0.001], "steps must be at most 10000"),
        (["abweyl", "--N", 2 ** 30], "N must be at most 1048576"),
        (["abweyl", "--N", 2 ** 20, "--steps", 5], "exceeds the sweep limit"),
        (["timeop", "--model", "hydrogen", "--n-max", 100_000], "more than 1000000 states"),
        (["uwform", "--model", "hydrogen", "--n-max", 3000, "--vectors", 1], "more than 1000000 states"),
        (["timeop", "--model", "oscillator", "--omega", "1,1,1,1,1,1", "--n-max", 60],
         "n_max = 60 in 6 dimensions gives more than 1000000 states"),
        (["spectrum", "--model", "hydrogen", "--n-max", 100_000_000], "more than 1000000 states"),
        (["timeop", "--model", "custom"], "needs --input or model.path"),
        (["decompose", "--model", "oscillator", "--omega", "1e-308"], "reciprocal of value 5e-309 overflows"),
    ])
    def test_oversized_or_incomplete_runs_are_usage_errors(self, tmp_path, args, match):
        assert_usage_error(*args, "--out", tmp_path, match=match, timeout=30)
        assert not list(tmp_path.glob("*"))

    @pytest.mark.parametrize("flag,value,match", [
        ("--m", "1e308", "(m/2)/k overflows"),
        ("--m", "5e-324", "k^2/2m overflows"),
        ("--L", "1e308", "grid spacing 2L/N must be finite"),
        ("--k0", "1e308", "k0 x overflows"),
    ])
    def test_abweyl_values_that_overflow_on_the_grid_are_usage_errors(self, tmp_path, flag, value, match):
        assert_usage_error("abweyl", flag, value, "--out", tmp_path, match=match, timeout=30)
        assert not list(tmp_path.glob("*"))

    def test_a_document_beyond_the_state_cap_is_a_usage_error(self, tmp_path):
        src = tmp_path / "huge.json"
        src.write_text(json.dumps({"accumulation": "to_zero", "entries": [[-1, 10 ** 12]]}))
        assert_usage_error("decompose", "--input", src, "--out", tmp_path / "out",
                           match="spectrum has 1000000000000 states, beyond the limit 1000000", timeout=30)
        assert not (tmp_path / "out").exists()

    def test_huge_exponent_decomposes_without_overflow(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": {"kind": "oscillator"}, "pipeline": {"kind": "timeop", "p": 1e308}}))
        proc = run_module("decompose", "--config", config, "--out", tmp_path, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert _read(tmp_path / "decompose_report.json")["verification"]["ok"] is True

    def test_subnormal_transform_coefficient_is_a_usage_error(self, tmp_path):
        config = tmp_path / "config.json"
        function = {"kind": "poly", "params": [0.0, 2.225073858507203e-309]}
        config.write_text(json.dumps({"model": {"kind": "hydrogen"},
                                      "pipeline": {"kind": "uwform", "function": function}}))
        assert_usage_error("uwform", "--config", config, "--out", tmp_path / "out",
                           match="overflow to a non-finite value", timeout=30)
        assert not (tmp_path / "out").exists()

    def test_rabi_cutoff_beyond_the_dimension_limit_is_a_usage_error(self, tmp_path):
        assert_usage_error("timeop", "--model", "rabi", "--cutoff", 100000, "--out", tmp_path,
                           match="dense-solver limit 4096", timeout=30)
        assert not (tmp_path / "timeop_report.json").exists()
