import json

import numpy as np
import pytest

from timeops.cli import RunConfig, main, run
from timeops.spectra import hydrogen_point_spectrum


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {k: _strip_timings(v) for k, v in obj.items() if k != "timings"}
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


def _read(path):
    return json.loads(path.read_text())


class TestRunConfig:
    def test_roundtrip(self):
        cfg = RunConfig(
            model={"kind": "hydrogen", "n_max": 3},
            pipeline={"kind": "uwform"},
            tolerances={"uw_ccr": 1e-9},
            seed=11,
        )
        back = RunConfig.from_json(cfg.to_json())
        assert back == cfg

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

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            RunConfig(model={}, pipeline={"kind": "s0check"}, tolerances={}, seed=-1)


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
        assert report["min_uncertainty_value"] >= 0.5 - 1e-10
        assert report["im_identity_defect"] <= 1e-10
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

    def test_report_is_independent_of_job_count(self):
        cfg = RunConfig(
            model={"kind": "hydrogen", "n_max": 4},
            pipeline={"kind": "uwform"},
            tolerances={},
        )
        serial = _strip_timings(run(cfg, jobs=1))
        threaded = _strip_timings(run(cfg, jobs=4))
        assert serial == threaded


class TestSubcommands:
    def test_spectrum(self, tmp_path):
        code = main(["spectrum", "--model", "hydrogen", "--n-max", "3",
                     "--out", str(tmp_path)])
        assert code == 0
        doc = _read(tmp_path / "spectrum.json")
        assert doc["accumulation"] == "to_zero"
        assert len(doc["entries"]) == 3

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

    def test_decompose_reads_the_config_exponent(self, tmp_path):
        cfg = {
            "model": {"kind": "hydrogen", "n_max": 3},
            "pipeline": {"kind": "timeop", "p": 50.0},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["decompose", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert _read(tmp_path / "decomposition.json")["p"] == 50.0
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
        assert set(first) == {
            "channel_id", "dimension", "max_ccr_residual", "hermiticity_defect",
        }

    def test_timeop_custom_input(self, tmp_path):
        s = hydrogen_point_spectrum(1.0, 1.0, 3)
        src = tmp_path / "custom.json"
        src.write_text(json.dumps(s.to_json()))
        code = main(["timeop", "--input", str(src), "--out", str(tmp_path)])
        assert code == 0
        report = _read(tmp_path / "timeop_report.json")
        assert report["spectrum"]["entries"] == [list(e) for e in s.entries]

    @pytest.mark.parametrize("command", ["timeop", "uwform"])
    @pytest.mark.parametrize("vectors", ["0", "-3"])
    def test_sweep_over_no_vectors_is_a_usage_error(self, tmp_path, command, vectors):
        code = main([command, "--model", "hydrogen", "--n-max", "3",
                     "--vectors", vectors, "--out", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / f"{command}_report.json").exists()

    def test_timeop_rabi_rejects_infinite_coupling(self, tmp_path):
        with np.errstate(invalid="ignore"):
            code = main(["timeop", "--model", "rabi", "--g", "inf", "--out", str(tmp_path)])
        assert code == 2

    def test_timeop_rabi(self, tmp_path):
        code = main(["timeop", "--model", "rabi", "--cutoff", "120",
                     "--count", "12", "--out", str(tmp_path)])
        assert code == 0
        report = _read(tmp_path / "timeop_report.json")
        assert report["all_bounds_true"] is True
        assert len(report["bound_checks"]) == 12

    def test_uwform(self, tmp_path):
        code = main(["uwform", "--model", "hydrogen", "--n-max", "4",
                     "--out", str(tmp_path)])
        assert code == 0
        report = _read(tmp_path / "uwform_report.json")
        for key in ("admissible", "witnesses", "channels", "max_uw_ccr_residual",
                    "min_uncertainty_value", "im_identity_defect", "passed"):
            assert key in report
        assert report["max_uw_ccr_residual"] <= 1e-10

    def test_uwform_with_inline_function(self, tmp_path):
        code = main(["uwform", "--model", "hydrogen", "--n-max", "4",
                     "--function", '{"kind": "exp", "params": [1.0]}',
                     "--out", str(tmp_path)])
        assert code == 0
        report = _read(tmp_path / "uwform_report.json")
        assert report["function"] == {"kind": "exp", "params": [1.0]}

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

    def test_ftransform_requires_function(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["ftransform", "--model", "hydrogen", "--out", str(tmp_path)])
        assert err.value.code == 2

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

    def test_abweyl(self, tmp_path):
        code = main(["abweyl", "--N", "512", "--steps", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        report = _read(tmp_path / "abweyl_report.json")
        assert report["max_residual"] <= 1e-6
        assert "refinement_ratio" in report
        csv_text = (tmp_path / "abweyl_sweep.csv").read_text().splitlines()
        assert csv_text[0] == "t,residual"
        assert len(csv_text) == 3

    def test_abweyl_rejects_bad_packet(self, tmp_path):
        code = main(["abweyl", "--sigma", "-1.0", "--out", str(tmp_path)])
        assert code == 2

    def test_s0check(self, tmp_path):
        code = main(["s0check", "--out", str(tmp_path)])
        assert code == 0
        report = _read(tmp_path / "s0check_report.json")
        assert report["strong_relation_all_exact"] is True
        assert report["symmetry_max_residual"] <= 1e-9

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
                      "pipeline": {"kind": "uwform", "vectors": "5"}}),
        (["uwform"], {"model": {"kind": "hydrogen", "n_max": 3},
                      "pipeline": {"kind": "uwform", "function": {"kind": "exp", "params": 3}}}),
        (["oscspec"], {"pipeline": {"kind": "oscspec", "sizes": 100}}),
        (["oscspec"], {"pipeline": {"kind": "oscspec", "sizes": []}}),
        (["abweyl"], {"pipeline": {"kind": "abweyl", "N": 512.0}}),
        (["selftest"], {"tolerances": {"uw_ccr": [1e-9]}}),
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
            "pipeline": {"kind": "uwform", "vectors": 5},
            "seed": 3,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code = main(["uwform", "--config", str(path), "--out", str(tmp_path)])
        assert code == 0
        report = _read(tmp_path / "uwform_report.json")
        assert report["config"]["seed"] == 3
        assert report["vectors_per_channel"] == 5


class TestSelftestCommand:
    def test_full_suite_passes(self, tmp_path, capsys):
        code = main(["selftest", "--out", str(tmp_path)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(1 for ln in lines if ln.startswith("PASS ")) >= 10
        report = _read(tmp_path / "selftest_report.json")
        assert report["passed"] is True
        assert len(report["criteria"]) == 10
        assert all(c["passed"] for c in report["criteria"])

    def test_zero_tolerance_forces_failure(self, tmp_path):
        code = main(["selftest", "--tolerance", "uw_ccr=0",
                     "--out", str(tmp_path)])
        assert code == 1
        report = _read(tmp_path / "selftest_report.json")
        assert report["passed"] is False
        assert report["tolerances"]["uw_ccr"] == 0.0

    def test_malformed_override_is_a_usage_error(self, tmp_path):
        assert main(["selftest", "--tolerance", "uw_ccr",
                     "--out", str(tmp_path)]) == 2
        assert main(["selftest", "--tolerance", "bogus=1",
                     "--out", str(tmp_path)]) == 2

    def test_reports_are_byte_deterministic(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        assert main(["selftest", "--out", str(a_dir)]) == 0
        assert main(["selftest", "--out", str(b_dir)]) == 0
        a = _strip_timings(_read(a_dir / "selftest_report.json"))
        b = _strip_timings(_read(b_dir / "selftest_report.json"))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
