"""Command-line driver: model spectra in, JSON reports and CSV tables out.

Every subcommand assembles a RunConfig of model, pipeline and tolerances
(flags override an optional --config JSON file), executes one pipeline,
and writes a report that is a function of that config alone: no pipeline
draws a vector or reads a seed.  Wall-clock numbers are quarantined under
"timings" keys so two runs of the same configuration can be compared
byte-wise after dropping those.  ``--seed`` is read by ``selftest`` only,
and ``--jobs`` and the form subcommands' ``--vectors`` by nothing; they stay
parseable so that existing command lines keep working.

Model and pipeline fields, with their JSON types and defaults, live in
one table (MODEL_FIELDS, PIPELINE_FIELDS): the flags, the --config type
checks and the values each pipeline reads all derive from it.  The
tolerances live in one table too, DEFAULT_TOLERANCES, and every verdict
that a pipeline and the acceptance suite share is written here once:
a criterion runs its pipeline through ``run``.

Exit codes: 0 when every check in the report passed, 1 when a check
failed, 2 for configuration or input errors.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import numbers
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

# acceptance imports RunConfig and run from here, so selftest reaches run_all through the module
from . import acceptance
from .contspec import (
    S0_FREQUENCIES,
    S0_LATTICE,
    make_packet,
    s0_strong_relation_check,
    s0_symmetry_bound,
    weak_weyl_residuals,
)
from .decompose import decompose_spectrum, verify_decomposition
from .spectra import (
    CHANNEL_DIMENSION_LIMIT,
    DiscreteSpectrum,
    _is_integer,
    _is_number,
    harmonic_spectrum,
    hydrogen_point_spectrum,
    rabi_check,
)
from .timeop import assemble_time_operator, ccr_allowed, ccr_certificates, osc_timeop_extremes
from .uwform import (
    AdmissibilityError,
    FunctionSpec,
    assemble_uwform,
    describe_domains,
    f_transform_form,
    uw_ccr_bounds,
)

__all__ = ["RunConfig", "run", "main", "DEFAULT_TOLERANCES", "resolve_tolerances"]

#: Largest ``abweyl`` grid size N; its sweep holds several N-point complex arrays.
GRID_POINTS_LIMIT = 2 ** 20

#: Largest ``abweyl`` time count; each time costs a fixed number of FFTs.
TIME_STEPS_LIMIT = 10_000

#: Largest steps x N of one ``abweyl`` run: 4 times on the largest grid,
#: 4096 on the default 1024-point grid.
SWEEP_POINTS_LIMIT = 2 ** 22

#: Largest work of an ``oscspec`` size list: two certificates at the size
#: cap, about 0.2 s on one core.  A certificate costs O(n^2), its Schur
#: pass and products of B with a few dozen columns, plus about 0.1 ms
#: whatever its size, which is the n^2 work of n = 128; so each size is
#: charged max(n, 128)^2.
OSCSPEC_WORK_LIMIT = 2 * CHANNEL_DIMENSION_LIMIT ** 2


class FieldType(NamedTuple):
    """A JSON field type: how errors name it, what it admits, how it is read.

    ``text`` parses a flag's text for types that argparse cannot convert
    with ``read`` (lists and ``--function``); it is None for scalars.
    """

    name: str
    admits: Callable[[object], bool]
    read: Callable[[object], object]
    text: Callable[[str], object] | None = None


def _list_of(admits):
    return lambda x: isinstance(x, (list, tuple)) and all(map(admits, x))


def _function_payload(text: str):
    """Parse --function: inline JSON, shorthand kind:p1,p2, or a file path."""
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    if ":" in text:
        kind, _, params = text.partition(":")
        return {"kind": kind.strip(), "params": [float(x) for x in params.split(",")]}
    return json.loads(Path(text).read_text())


NUMBER = FieldType("a number", _is_number, float)
INTEGER = FieldType("an integer", _is_integer, int)
STRING = FieldType("a string", lambda x: isinstance(x, str), str)
NUMBERS = FieldType("a list of numbers", _list_of(_is_number), lambda x: [float(v) for v in x],
                    lambda text: [float(v) for v in text.split(",")])
INTEGERS = FieldType("a list of integers", _list_of(_is_integer), lambda x: [int(v) for v in x],
                     lambda text: [int(v) for v in text.split(",")])
FUNCTION = FieldType(
    "null or a {kind: string, params: [numbers]} object",
    lambda x: x is None or (isinstance(x, dict) and isinstance(x.get("kind"), str)
                            and _list_of(_is_number)(x.get("params"))),
    lambda x: x,
    _function_payload,
)

#: Default of a field that has none and must be given.
REQUIRED = object()

_FORM_FIELDS = {"p": (NUMBER, 2.0)}

#: Every field a model kind reads: name -> (type, default).  This table is
#: the one place a field's type and default live; flags, --config checks
#: and the values a run receives all derive from it.  A config key that
#: names no field of its section's kind is refused.
MODEL_FIELDS = {
    "oscillator": {"omega": (NUMBERS, [1.0]), "n_max": (INTEGER, 20)},
    "hydrogen": {"m": (NUMBER, 1.0), "gamma": (NUMBER, 1.0), "n_max": (INTEGER, 4)},
    "rabi": {"mu": (NUMBER, 0.5), "omega": (NUMBER, 1.0), "g": (NUMBER, 0.3),
             "cutoff": (INTEGER, 200), "count": (INTEGER, 20)},
    "custom": {"path": (STRING, REQUIRED)},
}

#: Every field a pipeline reads, as in MODEL_FIELDS; each one is a flag of
#: the pipeline's subcommand.
PIPELINE_FIELDS = {
    "timeop": _FORM_FIELDS,
    "uwform": {**_FORM_FIELDS, "function": (FUNCTION, None)},
    "ftransform": {**_FORM_FIELDS, "function": (FUNCTION, REQUIRED)},
    "oscspec": {"omega": (NUMBER, 1.0), "sizes": (INTEGERS, [100, 200, 400, 800])},
    "abweyl": {"L": (NUMBER, 50.0), "N": (INTEGER, 1024), "m": (NUMBER, 1.0), "x0": (NUMBER, 0.0),
               "k0": (NUMBER, 5.0), "sigma": (NUMBER, 2.0), "tmax": (NUMBER, 1.0),
               "steps": (INTEGER, 4)},
    "s0check": {},
}

MODEL_KINDS = tuple(MODEL_FIELDS)
PIPELINE_KINDS = tuple(PIPELINE_FIELDS)

#: Model flags whose name differs from their field.
_MODEL_FLAGS = {"m": "mass", "path": "input"}


def _check_fields(section: str, values: dict, fields: dict) -> None:
    """Refuse a key of a config section that its kind reads no field for, and a field of the wrong type."""
    for key in values:
        if key != "kind" and key not in fields:
            raise ValueError(f"unknown {section} field {key!r} for the {values.get('kind')} {section}; "
                             f"it reads {', '.join(map(repr, fields)) or 'no field'}")
    for key, (ftype, _) in fields.items():
        if key in values and not ftype.admits(values[key]):
            raise ValueError(f"{section} field {key!r} must be {ftype.name}, not {type(values[key]).__name__}")


def _check_seed(seed) -> None:
    """Refuse a seed that is not a nonnegative integer, on every subcommand, though only selftest reads it."""
    _check_fields("config", {"seed": seed}, {"seed": (INTEGER, None)})
    if seed < 0:
        raise ValueError("seed must be nonnegative")


def _resolve(section: str, values: dict) -> dict:
    """Every field of a checked model or pipeline section, read, with defaults filled in."""
    kind = values["kind"]
    table = MODEL_FIELDS if section == "model" else PIPELINE_FIELDS
    out = {}
    for key, (ftype, default) in table[kind].items():
        value = default if values.get(key) is None else values[key]
        if value is REQUIRED:
            flag = _MODEL_FLAGS.get(key, key) if section == "model" else key
            raise ValueError(f"the {kind} {section} needs --{flag} or {section}.{key}")
        out[key] = None if value is None else ftype.read(value)
    return out


#: Every threshold used anywhere in the toolkit, by name.  Reports echo the
#: values they actually used; overriding one here (or per run) moves the
#: goalposts everywhere at once.  ``resolve_tolerances`` is the one place
#: that applies and checks overrides.
DEFAULT_TOLERANCES = {
    "ccr_relative": 1e-12,
    "uw_ccr": 1e-10,
    "toeplitz_bound_slack": 1e-9,
    "rabi_stability": 1e-8,
    "grid_residual": 1e-6,
    "s0_symmetry": 1e-9,
    "scaling_entrywise": 1e-13,
}


def resolve_tolerances(overrides: dict | None = None) -> dict:
    """DEFAULT_TOLERANCES with ``overrides`` applied, every name and value checked.

    A value must be a finite, nonnegative real number (not a bool): an
    infinite tolerance would switch its check off, and the comparison is
    written so that NaN fails it too.
    """
    out = dict(DEFAULT_TOLERANCES)
    for name, value in (overrides or {}).items():
        if name not in out:
            raise ValueError(f"unknown tolerance {name!r}")
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"tolerance {name!r} must be a number, not {type(value).__name__}")
        if not 0.0 <= value < math.inf:
            raise ValueError(f"tolerance {name!r} must be finite and nonnegative, not {value!r}")
        out[name] = float(value)
    return out


@dataclass(frozen=True)
class RunConfig:
    """One pipeline run: model, pipeline, tolerances; its report is a function of these alone."""

    model: dict
    pipeline: dict
    tolerances: dict

    def __post_init__(self) -> None:
        model = dict(self.model or {})
        pipeline = dict(self.pipeline or {})
        if pipeline.get("kind") not in PIPELINE_KINDS:
            raise ValueError(f"pipeline kind must be one of {PIPELINE_KINDS}")
        if model and model.get("kind") not in MODEL_KINDS:
            raise ValueError(f"model kind must be one of {MODEL_KINDS}")
        _check_fields("model", model, MODEL_FIELDS.get(model.get("kind"), {}))
        _check_fields("pipeline", pipeline, PIPELINE_FIELDS[pipeline["kind"]])
        resolved = resolve_tolerances(self.tolerances)
        tolerances = {name: resolved[name] for name in self.tolerances or {}}
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "pipeline", pipeline)
        object.__setattr__(self, "tolerances", tolerances)

    def resolved_tolerances(self) -> dict:
        return resolve_tolerances(self.tolerances)

    def to_json(self) -> dict:
        return {
            "model": dict(self.model),
            "pipeline": dict(self.pipeline),
            "tolerances": dict(self.tolerances),
        }


def _jsonable(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, default=_jsonable)


def _spectrum_from_model(model: dict) -> DiscreteSpectrum:
    kind = model.get("kind")
    if kind not in ("oscillator", "hydrogen", "custom"):
        raise ValueError(f"model kind {kind!r} does not define a point spectrum")
    v = _resolve("model", model)
    if kind == "oscillator":
        return harmonic_spectrum(v["omega"], v["n_max"])
    if kind == "hydrogen":
        return hydrogen_point_spectrum(v["m"], v["gamma"], v["n_max"])
    return DiscreteSpectrum.from_json(json.loads(Path(v["path"]).read_text()))


# ---------------------------------------------------------------- pipelines


def _rabi_report(model: dict) -> dict:
    v = _resolve("model", model)
    spectrum, checks = rabi_check(v["mu"], v["omega"], v["g"], v["cutoff"], v["count"])
    return {
        "model_dimension": 2 * (v["cutoff"] + 1),
        "ground_energy": float(spectrum.values[0]),
        "bound_checks": checks,
        "all_bounds_true": all(checks),
        "leading_block": spectrum.leading_block,
        "certificate_radius": float(np.max(spectrum.radii)),
        "certificate_failed_index": spectrum.failed_index,
        "passed": spectrum.failed_index is None and all(checks),
    }


def _pipeline_timeop(config: RunConfig, pl: dict, tol: dict) -> dict:
    """The exact CCR, certified per channel by ``ccr_certificates`` and gated by ``ccr_allowed``.

    ``max_ccr_residual`` is the largest certificate, which bounds the
    residual of every unit difference-span vector of its channel, and
    ``max_ccr_residual_over_allowed`` the largest ratio of a certificate
    to its gate.
    """
    if config.model.get("kind") == "rabi":
        return _rabi_report(config.model)
    s = _spectrum_from_model(config.model)
    deco, op = assemble_time_operator(s, pl["p"])
    if not op.groups:
        raise ValueError("no channel has dimension 2 or more; the CCR certificate would check nothing")

    certificate, scale = ccr_certificates(op)
    allowed = ccr_allowed(op, scale, tol)
    # a zero certificate passes any gate; a NaN one gives a NaN ratio
    with np.errstate(divide="ignore"):
        ratio = np.divide(certificate, allowed, out=np.zeros_like(certificate), where=certificate != 0.0)
    channels = [{"channel_id": i, "dimension": ev.size, "max_ccr_residual": float(certificate[i])}
                for i, ev in enumerate(op.eigenvalues)]
    return {
        "spectrum": s.to_json(),
        "decomposition": deco.to_json(),
        "channel_reports": channels,
        # np.max, not max: a NaN certificate is the maximum
        "max_ccr_residual": float(np.max(certificate)),
        "max_ccr_residual_over_allowed": float(np.max(ratio)),
        "passed": bool(np.all(certificate <= allowed)),
    }


def _pipeline_uwform(config: RunConfig, pl: dict, tol: dict) -> dict:
    """The ultra-weak CCR, certified per channel by ``uw_ccr_bounds`` and gated once, on ``uw_ccr``.

    The uncertainty bound is the phi = psi case of the CCR: Im z =
    Im t[H psi, psi] for every pair of centers, so the largest bound w
    certifies |z| >= 1/2 - w/2, which the report states as
    ``min_uncertainty_value``.
    """
    s = _spectrum_from_model(config.model)
    payload = pl["function"]

    witnesses: list[dict] = []
    if payload is not None:
        try:
            check, deco, form = f_transform_form(FunctionSpec.from_json(payload), s, pl["p"])
        except AdmissibilityError as refused:
            return {
                "function": payload,
                "admissible": False,
                "witnesses": [dict(w) for w in refused.report.witnesses],
                "admissibility_details": dict(refused.report.details),
                "max_uw_ccr_residual": None,
                "min_uncertainty_value": None,
                "passed": False,
            }
        witnesses = [dict(w) for w in check.witnesses]
    else:
        deco, form = assemble_uwform(s, pl["p"])

    if not form.groups:
        raise ValueError("the commutation domain is trivial: no channel has dimension 2 or more")
    per_channel = uw_ccr_bounds(form)
    worst = float(np.max(per_channel))   # np.max, not max: a NaN bound fails the gate
    channels = [
        {**entry, "max_uw_ccr_residual": float(per_channel[entry["channel_id"]])}
        for entry in describe_domains(form)
    ]
    report = {
        "spectrum": s.to_json(),
        "admissible": True,
        "witnesses": witnesses,
        "channel_count": deco.channel_count,
        "channels": channels,
        "max_uw_ccr_residual": worst,
        "min_uncertainty_value": 0.5 - worst / 2.0,
        "passed": worst <= tol["uw_ccr"],
    }
    if payload is not None:
        report["function"] = payload
    return report


def _pipeline_oscspec(config: RunConfig, pl: dict, tol: dict) -> dict:
    """The certified extremes of each size, inside pi/omega + slack with their radii, and lambda_max nondecreasing.

    A size whose certificate failed even on the whole space is named in
    ``certificate_failed_sizes`` and fails the run.
    """
    omega = pl["omega"]
    sizes = sorted(pl["sizes"])
    if not sizes:
        raise ValueError("sizes must name at least one matrix size; an empty sweep checks nothing")
    # |n|: a negative size, refused later, must not cancel a large one here
    work = sum(max(abs(n), 128) ** 2 for n in sizes)
    if work > OSCSPEC_WORK_LIMIT:
        raise ValueError(f"sizes cost a summed max(n, 128)^2 = {work}, beyond the limit {OSCSPEC_WORK_LIMIT}")
    extremes = [osc_timeop_extremes(omega, n) for n in sizes]
    bound = math.pi / omega   # omega was validated by osc_timeop_extremes
    slack = tol["toeplitz_bound_slack"]
    rows = [{"size": n, "lambda_min": e.low, "lambda_max": e.high, "certificate_radius": e.radius,
             "subspace_dimension": e.subspace_dimension,
             "within_bound": bool(e.high + e.radius <= bound + slack and e.low - e.radius >= -bound - slack)}
            for n, e in zip(sizes, extremes)]
    failed = [e.failed_size for e in extremes if e.failed_size is not None]
    maxima = [e.high for e in extremes]
    monotone = all(b >= a for a, b in zip(maxima, maxima[1:]))
    return {
        "omega": omega,
        "symbol_bound": bound,
        "rows": rows,
        "monotone_nondecreasing": monotone,
        "certificate_failed_sizes": failed,
        "passed": monotone and not failed and all(row["within_bound"] for row in rows),
        "csv": {
            "name": "oscspec_lambda.csv",
            "header": ["size", "lambda_min", "lambda_max"],
            "rows": [[row["size"], row["lambda_min"], row["lambda_max"]] for row in rows],
        },
    }


def _pipeline_abweyl(config: RunConfig, pl: dict, tol: dict) -> dict:
    n, steps, t_max = pl["N"], pl["steps"], pl["tmax"]
    if steps < 1 or not 0.0 < t_max < math.inf:
        raise ValueError("need steps >= 1 and a finite tmax > 0")
    if n > GRID_POINTS_LIMIT:
        raise ValueError(f"N must be at most {GRID_POINTS_LIMIT}; the sweep holds several N-point complex arrays")
    if steps > TIME_STEPS_LIMIT:
        raise ValueError(f"steps must be at most {TIME_STEPS_LIMIT}")
    if steps * n > SWEEP_POINTS_LIMIT:
        raise ValueError(f"steps x N = {steps * n} exceeds the sweep limit {SWEEP_POINTS_LIMIT}")

    times = [t_max * j / steps for j in range(1, steps + 1)]
    state = make_packet(pl["L"], n, pl["m"], pl["x0"], pl["k0"], pl["sigma"])
    residuals = weak_weyl_residuals(state, times)
    rows = [[t, r] for t, r in zip(times, residuals)]
    # np.max, not max: a NaN residual anywhere is the maximum, and fails the gate
    max_residual = float(np.max(residuals))
    return {
        "grid": pl,
        "sweep": rows,
        "max_residual": max_residual,
        "passed": max_residual <= tol["grid_residual"],
        "csv": {
            "name": "abweyl_sweep.csv",
            "header": ["t", "residual"],
            "rows": rows,
        },
    }


def _pipeline_s0check(config: RunConfig, pl: dict, tol: dict) -> dict:
    """The S0 class: the exact strong relation on ``S0_LATTICE`` and the symmetry certificate on ``S0_FREQUENCIES``."""
    all_exact = all(s0_strong_relation_check(s, t) for s in S0_LATTICE for t in S0_LATTICE)
    bound = s0_symmetry_bound(S0_FREQUENCIES)
    return {
        "strong_relation_pairs": len(S0_LATTICE) ** 2,
        "strong_relation_all_exact": all_exact,
        "symmetry_frequencies": len(S0_FREQUENCIES),
        "symmetry_max_residual": bound,
        "passed": all_exact and bound <= tol["s0_symmetry"],
    }


_PIPELINES = {
    "timeop": _pipeline_timeop,
    "uwform": _pipeline_uwform,
    "ftransform": _pipeline_uwform,
    "oscspec": _pipeline_oscspec,
    "abweyl": _pipeline_abweyl,
    "s0check": _pipeline_s0check,
}


def run(config: RunConfig) -> dict:
    """Execute one pipeline and return its report document."""
    tol = config.resolved_tolerances()
    start = time.perf_counter()
    kind = config.pipeline["kind"]
    body = _PIPELINES[kind](config, _resolve("pipeline", config.pipeline), tol)
    report = {
        "config": config.to_json(),
        "tolerances": tol,
        "pipeline": kind,
    }
    report.update(body)
    report["timings"] = {"total_seconds": time.perf_counter() - start}
    return report


# ------------------------------------------------------------ CLI plumbing


def _load_config_file(args) -> dict:
    path = getattr(args, "config", None)
    if path is None:
        return {}
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError("a config file must hold a JSON object")
    for section in ("model", "pipeline", "tolerances"):
        if not isinstance(raw.get(section) or {}, dict):
            raise ValueError(f"config section {section!r} must be a JSON object")
    if "seed" in raw:
        _check_seed(raw["seed"])
    return raw


def _model_from_args(args, base: dict | None) -> dict | None:
    model = dict(base or {})
    kind = getattr(args, "model", None) or model.get("kind")
    if getattr(args, "input", None) is not None:
        kind = "custom"
    if kind is None:
        return None
    model["kind"] = kind
    for key, (ftype, _) in MODEL_FIELDS.get(kind, {}).items():
        value = getattr(args, _MODEL_FLAGS.get(key, key), None)
        if value is None:
            continue
        if key == "omega":   # one flag: the oscillator's comma list, the Rabi model's one number
            try:
                value = ftype.text(value) if ftype.text else float(value)
            except ValueError:
                takes = "a comma list of numbers" if ftype.text else "one number"
                raise ValueError(f"--omega takes {takes} for the {kind} model, not {value!r}") from None
        model[key] = value
    return model


def _make_config(args, kind: str, sections: tuple = ()) -> RunConfig:
    """Merge a pipeline kind's flags over the --config file; subcommands with model flags need a model.

    The file's pipeline section is read when its kind is ``kind`` or one of ``sections``.  A
    section of one of ``sections`` is checked against its own kind's fields, and lends ``kind``
    the fields that both read.
    """
    raw = _load_config_file(args)
    model = _model_from_args(args, raw.get("model"))
    if hasattr(args, "model") and not model:
        raise ValueError("no model given; pass --model/--input or a --config file")
    base_pipeline = raw.get("pipeline") or {}
    merged = {}
    if base_pipeline.get("kind") == kind:
        merged = dict(base_pipeline)
    elif base_pipeline.get("kind") in sections:
        _check_fields("pipeline", base_pipeline, PIPELINE_FIELDS[base_pipeline["kind"]])
        merged = {key: value for key, value in base_pipeline.items() if key in PIPELINE_FIELDS[kind]}
    merged["kind"] = kind
    for key, (ftype, _) in PIPELINE_FIELDS[kind].items():
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = ftype.text(value) if ftype.text else value
    return RunConfig(model=model or {}, pipeline=merged, tolerances=raw.get("tolerances") or {})


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(args, name: str, report: dict) -> int:
    out = _out_dir(args)
    csv_spec = report.pop("csv", None)
    path = out / f"{name}_report.json"
    path.write_text(_dumps(report) + "\n")
    if csv_spec is not None:
        with open(out / csv_spec["name"], "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(csv_spec["header"])
            writer.writerows(csv_spec["rows"])
    passed = bool(report.get("passed", True))
    print(f"{'PASS' if passed else 'FAIL'} {name}: {path}")
    return 0 if passed else 1


def cmd_pipeline(args) -> int:
    """Run the pipeline named by the subcommand and write its report."""
    report = run(_make_config(args, args.command))
    return _write_report(args, args.command, report)


def cmd_spectrum(args) -> int:
    config = _make_config(args, "timeop")
    if config.model.get("kind") == "rabi":
        raise ValueError("the Rabi model is a matrix, not a point spectrum; use the timeop subcommand")
    s = _spectrum_from_model(config.model)
    path = _out_dir(args) / "spectrum.json"
    path.write_text(_dumps(s.to_json()) + "\n")
    print(f"PASS spectrum: {s.label or 'custom'}, {s.total_states} states -> {path}")
    return 0


def cmd_decompose(args) -> int:
    # p comes from the config's pipeline section of any kind that has it
    config = _make_config(args, "timeop", tuple(kind for kind, fields in PIPELINE_FIELDS.items() if "p" in fields))
    s = _spectrum_from_model(config.model)
    deco = decompose_spectrum(s, _resolve("pipeline", config.pipeline)["p"])
    verification = verify_decomposition(deco)
    doc = _out_dir(args) / "decomposition.json"
    doc.write_text(_dumps(deco.to_json()) + "\n")
    report = {
        "spectrum": s.to_json(),
        "channel_count": deco.channel_count,
        "channel_sizes": np.diff(deco.offsets).tolist(),
        "verification": verification.to_json(),
        "passed": verification.ok,
    }
    code = _write_report(args, "decompose", report)
    print(f"decomposition document: {doc}")
    return code


def cmd_selftest(args) -> int:
    raw = _load_config_file(args)
    overrides = dict(raw.get("tolerances") or {})
    for item in args.tolerance or []:
        name, sep, value = item.partition("=")
        if not sep:
            raise ValueError("tolerance overrides look like name=value")
        overrides[name] = float(value)
    seed = args.seed if args.seed is not None else raw.get("seed", 7)   # both checked on entry
    tolerances = resolve_tolerances(overrides)
    results = acceptance.run_all(tolerances, seed)

    criteria = []
    timings = {}
    exit_ok = True
    for result in results:
        ok = result.passed and result.runtime_ok
        exit_ok = exit_ok and ok
        print(f"{'PASS' if ok else 'FAIL'} {result.name} "
              f"({result.runtime:.3f} s, limit {result.runtime_limit:g} s)")
        criteria.append(result.to_json())
        timings[result.name] = {
            "seconds": result.runtime,
            "limit": result.runtime_limit,
            "ok": result.runtime_ok,
        }
    report = {
        "criteria": criteria,
        "tolerances": tolerances,
        "seed": seed,
        "passed": all(result.passed for result in results),
        "timings": timings,
    }
    path = _out_dir(args) / "selftest_report.json"
    path.write_text(_dumps(report) + "\n")
    print(f"{'PASS' if exit_ok else 'FAIL'} selftest: {path}")
    return 0 if exit_ok else 1


def _describe(ftype: FieldType, default) -> str:
    return ftype.name + ("" if default in (None, REQUIRED) else f", default {default}")


def _add_field_flags(parser, fields: dict) -> None:
    """One flag per pipeline field: argparse reads numbers, ``FieldType.text`` the rest.

    No flag is argparse-required: a REQUIRED field may come from the
    config file instead, and ``_resolve`` refuses it when neither gives it.
    """
    for key, (ftype, default) in fields.items():
        parser.add_argument(f"--{key}", type=None if ftype.text else ftype.read, help=_describe(ftype, default))


def _add_model_flags(parser) -> None:
    """--model, then one flag per model field name; argparse reads it when every kind agrees on its type."""
    parser.add_argument("--model", choices=MODEL_KINDS)
    uses: dict[str, list] = {}
    for kind, fields in MODEL_FIELDS.items():
        for key, (ftype, default) in fields.items():
            uses.setdefault(key, []).append((kind, ftype, default))
    for key, specs in uses.items():
        ftypes = {ftype for _, ftype, _ in specs}
        (ftype,) = ftypes if len(ftypes) == 1 else (STRING,)
        dest = _MODEL_FLAGS.get(key, key)
        parser.add_argument(f"--{dest.replace('_', '-')}", dest=dest, type=None if ftype.text else ftype.read,
                            help="; ".join(f"{kind}: {_describe(t, d)}" for kind, t, d in specs))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: built on first use, and only read by ``parse_args``."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="RunConfig JSON file")
    common.add_argument("--out", type=Path, default=Path("."), help="report directory")
    common.add_argument("--jobs", type=int, default=1, help="ignored: every run is serial (N >= 1)")
    common.add_argument("--seed", type=int, default=None,
                        help="seed of selftest's partition sequences (N >= 0); ignored by every other subcommand")

    model_flags = argparse.ArgumentParser(add_help=False)
    _add_model_flags(model_flags)
    # parse-only: the form subcommands certify their identities and draw no vectors
    vectors_flag = argparse.ArgumentParser(add_help=False)
    vectors_flag.add_argument("--vectors", type=int, help="ignored")
    forms = [common, model_flags, vectors_flag]

    parser = argparse.ArgumentParser(
        prog="timeops",
        description="Time-operator constructions and identity checks for truncated spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", parents=[common, model_flags],
                        help="build a model spectrum and write spectrum.json")
    sp.set_defaults(handler=cmd_spectrum)

    dp = sub.add_parser("decompose", parents=[common, model_flags],
                        help="partition a spectrum into simple channels")
    _add_field_flags(dp, _FORM_FIELDS)
    dp.set_defaults(handler=cmd_decompose)

    for kind, parents, text in (
        ("timeop", forms, "build time operators and check the commutation identity"),
        ("uwform", forms, "build the ultra-weak form and check its identities"),
        ("ftransform", forms, "transform a spectrum through a function of the Hamiltonian"),
        ("oscspec", [common], "oscillator time-operator spectra across truncation sizes"),
        ("abweyl", [common], "weak Weyl residual sweep on the grid"),
        ("s0check", [common], "symbolic strong relation and quadrature symmetry checks"),
    ):
        pp = sub.add_parser(kind, parents=parents, help=text)
        _add_field_flags(pp, PIPELINE_FIELDS[kind])
        pp.set_defaults(handler=cmd_pipeline)

    st = sub.add_parser("selftest", parents=[common],
                        help="run the full acceptance suite")
    st.add_argument("--tolerance", action="append", metavar="NAME=VALUE",
                    help="override a tolerance (repeatable)")
    st.set_defaults(handler=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.jobs < 1:
            raise ValueError("--jobs must be at least 1")
        if args.seed is not None:
            _check_seed(args.seed)
        return args.handler(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
