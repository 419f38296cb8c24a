"""Command-line driver: model spectra in, JSON reports and CSV tables out.

Every subcommand assembles a RunConfig (flags override an optional
--config JSON file), executes one pipeline, and writes a report whose
numeric fields are reproducible bit for bit for a fixed seed.  Wall-clock
numbers are quarantined under "timings" keys so two runs of the same
configuration can be compared byte-wise after dropping those.

Exit codes: 0 when every check in the report passed, 1 when a check
failed, 2 for configuration or input errors.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import acceptance
from .acceptance import DEFAULT_TOLERANCES, run_all
from .contspec import make_packet, weak_weyl_residuals
from .decompose import decompose_spectrum, verify_decomposition
from .spectra import (
    DiscreteSpectrum,
    harmonic_spectrum,
    hydrogen_point_spectrum,
    rabi_bound_check,
    rabi_hamiltonian,
)
from .timeop import assemble_time_operator, ccr_residual, osc_timeop_spectrum, random_difference_vector
from .uwform import (
    FunctionSpec,
    assemble_uwform,
    describe_domains,
    f_condition_check,
    f_transform_form,
    random_domain_vector,
    uncertainty_check,
    uw_ccr_residual,
)

__all__ = ["RunConfig", "run", "main", "DEFAULT_TOLERANCES"]

MODEL_KINDS = ("oscillator", "hydrogen", "rabi", "custom")
PIPELINE_KINDS = ("timeop", "uwform", "ftransform", "oscspec", "abweyl", "s0check")


def _is_number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


#: What each type named in the field tables admits.
_FIELD_TYPES = {
    "a number": _is_number,
    "an integer": _is_integer,
    "a string": lambda x: isinstance(x, str),
    "a list of numbers": lambda x: isinstance(x, (list, tuple)) and all(map(_is_number, x)),
    "a list of integers": lambda x: isinstance(x, (list, tuple)) and all(map(_is_integer, x)),
    "null or a {kind: string, params: [numbers]} object": lambda x: x is None or (
        isinstance(x, dict) and isinstance(x.get("kind"), str)
        and isinstance(x.get("params"), list) and all(map(_is_number, x["params"]))
    ),
}

#: Type of every field a model kind reads; other fields are ignored.
_MODEL_FIELDS = {
    "oscillator": {"omega": "a list of numbers", "n_max": "an integer"},
    "hydrogen": {"m": "a number", "gamma": "a number", "n_max": "an integer"},
    "rabi": {"mu": "a number", "omega": "a number", "g": "a number",
             "cutoff": "an integer", "count": "an integer"},
    "custom": {"path": "a string"},
}

#: Type of every field a pipeline reads; other fields are ignored.
_PIPELINE_FIELDS = {
    "p": "a number", "vectors": "an integer", "omega": "a number", "sizes": "a list of integers",
    "function": "null or a {kind: string, params: [numbers]} object",
    "L": "a number", "N": "an integer", "m": "a number", "x0": "a number", "k0": "a number",
    "sigma": "a number", "tmax": "a number", "steps": "an integer",
}


def _check_fields(section: str, values: dict, expected: dict) -> None:
    for key, kind in expected.items():
        if key in values and not _FIELD_TYPES[kind](values[key]):
            raise ValueError(f"{section} field {key!r} must be {kind}, not {type(values[key]).__name__}")


def _check_tolerances_and_seed(tolerances: dict, seed) -> None:
    _check_fields("tolerances", tolerances, dict.fromkeys(tolerances, "a number"))
    _check_fields("config", {"seed": seed}, {"seed": "an integer"})


@dataclass(frozen=True)
class RunConfig:
    """One reproducible pipeline run: model, pipeline, tolerances, seed."""

    model: dict
    pipeline: dict
    tolerances: dict
    seed: int = 7

    def __post_init__(self) -> None:
        model = dict(self.model or {})
        pipeline = dict(self.pipeline or {})
        if pipeline.get("kind") not in PIPELINE_KINDS:
            raise ValueError(f"pipeline kind must be one of {PIPELINE_KINDS}")
        if model and model.get("kind") not in MODEL_KINDS:
            raise ValueError(f"model kind must be one of {MODEL_KINDS}")
        _check_fields("model", model, _MODEL_FIELDS.get(model.get("kind"), {}))
        _check_fields("pipeline", pipeline, _PIPELINE_FIELDS)
        _check_tolerances_and_seed(self.tolerances or {}, self.seed)
        tolerances = {}
        for name, value in (self.tolerances or {}).items():
            if name not in DEFAULT_TOLERANCES:
                raise ValueError(f"unknown tolerance {name!r}")
            value = float(value)
            if value < 0.0:
                raise ValueError(f"tolerance {name} must be nonnegative")
            tolerances[name] = value
        seed = int(self.seed)
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        if pipeline.get("vectors") is not None and int(pipeline["vectors"]) < 1:
            raise ValueError("vectors must be at least 1; a sweep over no vectors checks nothing")
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "pipeline", pipeline)
        object.__setattr__(self, "tolerances", tolerances)
        object.__setattr__(self, "seed", seed)

    def resolved_tolerances(self) -> dict:
        return {**DEFAULT_TOLERANCES, **self.tolerances}

    def to_json(self) -> dict:
        return {
            "model": dict(self.model),
            "pipeline": dict(self.pipeline),
            "tolerances": dict(self.tolerances),
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "RunConfig":
        return cls(
            model=payload.get("model") or {},
            pipeline=payload.get("pipeline") or {},
            tolerances=payload.get("tolerances") or {},
            seed=payload.get("seed", 7),
        )


def _jsonable(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=_jsonable)


def _parallel(fn, items, jobs: int) -> list:
    """Order-preserving map, threaded when jobs > 1.

    Each work item must carry its own seed; nothing here may depend on
    scheduling order, or reports stop being reproducible.
    """
    items = list(items)
    if jobs > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _spectrum_from_model(model: dict) -> DiscreteSpectrum:
    kind = model.get("kind")
    if kind == "oscillator":
        omega = model.get("omega", [1.0])
        return harmonic_spectrum(omega, int(model.get("n_max", 20)))
    if kind == "hydrogen":
        return hydrogen_point_spectrum(
            float(model.get("m", 1.0)),
            float(model.get("gamma", 1.0)),
            int(model.get("n_max", 4)),
        )
    if kind == "custom":
        payload = json.loads(Path(model["path"]).read_text())
        return DiscreteSpectrum.from_json(payload)
    raise ValueError(f"model kind {kind!r} does not define a point spectrum")


# ---------------------------------------------------------------- pipelines


def _rabi_report(model: dict, tol: dict) -> dict:
    mu = float(model.get("mu", 0.5))
    omega = float(model.get("omega", 1.0))
    g = float(model.get("g", 0.3))
    cutoff = int(model.get("cutoff", 200))
    count = int(model.get("count", 20))
    h = rabi_hamiltonian(mu, omega, g, cutoff)
    ev = h.eigenvalues()
    checks = [bool(b) for b in rabi_bound_check(ev, mu, omega, g, count)]
    return {
        "model_dimension": h.dimension,
        "ground_energy": float(ev[0]),
        "bound_checks": checks,
        "all_bounds_true": all(checks),
        "passed": all(checks),
    }


def _pipeline_timeop(config: RunConfig, tol: dict, jobs: int) -> dict:
    if config.model.get("kind") == "rabi":
        return _rabi_report(config.model, tol)
    s = _spectrum_from_model(config.model)
    p = float(config.pipeline.get("p", 2.0))
    vectors = int(config.pipeline.get("vectors", 20))
    deco, block = assemble_time_operator(s, p)

    def check_channel(i: int):
        t = block.blocks[i]
        worst = 0.0
        if t.dimension >= 2:
            rng = np.random.default_rng(config.seed + 10_000 + i)
            stack = [random_difference_vector(rng, t.dimension) for _ in range(vectors)]
            worst = ccr_residual(t.pairing_eigenvalues, t, stack)
        scale = float(np.max(np.abs(t.data))) if t.dimension > 1 else 0.0
        ok = worst <= tol["ccr_relative"] * scale if t.dimension > 1 else True
        entry = {
            "channel_id": i,
            "dimension": t.dimension,
            "max_ccr_residual": worst,
            "hermiticity_defect": t.hermiticity_defect(),
        }
        return entry, ok

    results = _parallel(check_channel, range(len(block.blocks)), jobs)
    channels = [entry for entry, _ in results]
    ok = all(flag for _, flag in results)
    return {
        "spectrum": s.to_json(),
        "decomposition": deco.to_json(),
        "channel_reports": channels,
        "vectors_per_channel": vectors,
        "max_ccr_residual": max((c["max_ccr_residual"] for c in channels), default=0.0),
        "passed": ok,
    }


def _pipeline_uwform(config: RunConfig, tol: dict, jobs: int, require_function: bool = False) -> dict:
    s = _spectrum_from_model(config.model)
    p = float(config.pipeline.get("p", 2.0))
    vectors = int(config.pipeline.get("vectors", 20))
    payload = config.pipeline.get("function")
    if require_function and payload is None:
        raise ValueError("this pipeline requires --function")

    witnesses: list[dict] = []
    if payload is not None:
        f = FunctionSpec.from_json(payload)
        check = f_condition_check(f, s)
        witnesses = [dict(w) for w in check.witnesses]
        if not check.admissible:
            return {
                "function": payload,
                "admissible": False,
                "witnesses": witnesses,
                "admissibility_details": dict(check.details),
                "max_uw_ccr_residual": None,
                "min_uncertainty_value": None,
                "im_identity_defect": None,
                "passed": False,
            }
        _, partition, form = f_transform_form(f, s, p)
        channel_count = len(partition.channels)
    else:
        deco, form = assemble_uwform(s, p)
        channel_count = deco.channel_count

    nontrivial = [i for i, ch in enumerate(form.blocks) if ch.dimension >= 2]

    def channel_sweep(i: int):
        sub = form.channel(i)
        rng = np.random.default_rng(config.seed + 20_000 + i)
        worst = 0.0
        for _ in range(vectors):
            phi = random_domain_vector(rng, sub)
            psi = random_domain_vector(rng, sub)
            worst = max(worst, uw_ccr_residual(sub, phi, psi))
        return i, worst

    per_channel = dict(_parallel(channel_sweep, nontrivial, jobs))
    worst = max(per_channel.values(), default=0.0)

    min_value = None
    im_defect = None
    if nontrivial:
        rng = np.random.default_rng(config.seed + 30_000)
        for _ in range(vectors):
            phi = random_domain_vector(rng, form)
            psi = random_domain_vector(rng, form)
            worst = max(worst, uw_ccr_residual(form, phi, psi))
        rng = np.random.default_rng(config.seed + 40_000)
        min_value = math.inf
        im_defect = 0.0
        for _ in range(vectors):
            a = float(rng.uniform(-2.0, 2.0))
            b = float(rng.uniform(-2.0, 2.0))
            psi = random_domain_vector(rng, form)
            res = uncertainty_check(form, psi, a, b)
            min_value = min(min_value, res.value)
            im_defect = max(im_defect, abs(res.imaginary_part + 0.5))

    residual_ok = worst <= tol["uw_ccr"]
    uncertainty_ok = (
        min_value is None
        or (min_value >= 0.5 - tol["uncertainty_slack"] and im_defect <= tol["im_identity"])
    )
    channels = []
    for entry in describe_domains(form):
        entry["max_uw_ccr_residual"] = per_channel.get(entry["channel_id"], 0.0)
        channels.append(entry)
    report = {
        "spectrum": s.to_json(),
        "admissible": True,
        "witnesses": witnesses,
        "channel_count": channel_count,
        "channels": channels,
        "vectors_per_channel": vectors,
        "max_uw_ccr_residual": worst,
        "min_uncertainty_value": min_value,
        "im_identity_defect": im_defect,
        "passed": residual_ok and uncertainty_ok,
    }
    if payload is not None:
        report["function"] = payload
    return report


def _pipeline_ftransform(config: RunConfig, tol: dict, jobs: int) -> dict:
    return _pipeline_uwform(config, tol, jobs, require_function=True)


def _pipeline_oscspec(config: RunConfig, tol: dict, jobs: int) -> dict:
    pl = config.pipeline
    omega = float(pl.get("omega", 1.0))
    sizes = sorted(int(n) for n in pl.get("sizes", (100, 200, 400, 800)))
    if not sizes:
        raise ValueError("sizes must name at least one matrix size; an empty sweep checks nothing")
    slack = tol["toeplitz_bound_slack"]
    extremes = _parallel(lambda n: osc_timeop_spectrum(omega, n)[1:], sizes, jobs)
    bound = math.pi / omega   # omega was validated by osc_timeop_spectrum
    rows = [
        {
            "size": n,
            "lambda_min": low,
            "lambda_max": high,
            "within_bound": bool(high <= bound + slack and low >= -bound - slack),
        }
        for n, (low, high) in zip(sizes, extremes)
    ]
    maxima = [row["lambda_max"] for row in rows]
    monotone = all(b >= a for a, b in zip(maxima, maxima[1:]))
    passed = monotone and all(row["within_bound"] for row in rows)
    return {
        "omega": omega,
        "symbol_bound": bound,
        "rows": rows,
        "monotone_nondecreasing": monotone,
        "passed": passed,
        "csv": {
            "name": "oscspec_lambda.csv",
            "header": ["size", "lambda_min", "lambda_max"],
            "rows": [[row["size"], row["lambda_min"], row["lambda_max"]] for row in rows],
        },
    }


def _pipeline_abweyl(config: RunConfig, tol: dict, jobs: int) -> dict:
    pl = config.pipeline
    box = float(pl.get("L", 50.0))
    n = int(pl.get("N", 1024))
    m = float(pl.get("m", 1.0))
    x0 = float(pl.get("x0", 0.0))
    k0 = float(pl.get("k0", 5.0))
    sigma = float(pl.get("sigma", 2.0))
    t_max = float(pl.get("tmax", 1.0))
    steps = int(pl.get("steps", 4))
    if steps < 1 or not 0.0 < t_max < math.inf:
        raise ValueError("need steps >= 1 and a finite tmax > 0")

    base = make_packet(box, n, m, x0, k0, sigma)
    fine = make_packet(box, 2 * n, m, x0, k0, sigma)
    times = [t_max * j / steps for j in range(1, steps + 1)]
    rows = [[t, r] for t, r in zip(times, weak_weyl_residuals(base, times))]
    max_residual = max(r for _, r in rows)
    max_fine = max(weak_weyl_residuals(fine, times))
    # ratio < 1 means refinement helped; near the round-off floor it
    # hovers around 1 and carries no information, so it is reported but
    # not gated on.
    ratio = max_fine / max_residual if max_residual > 0.0 else 0.0
    return {
        "grid": {"L": box, "N": n, "m": m, "x0": x0, "k0": k0, "sigma": sigma,
                 "tmax": t_max, "steps": steps},
        "sweep": rows,
        "max_residual": max_residual,
        "refinement_ratio": ratio,
        "passed": max_residual <= tol["grid_residual"],
        "csv": {
            "name": "abweyl_sweep.csv",
            "header": ["t", "residual"],
            "rows": rows,
        },
    }


def _pipeline_s0check(config: RunConfig, tol: dict, jobs: int) -> dict:
    result = acceptance.criterion_s0(tol, config.seed)
    details = result.details
    return {
        "strong_relation_samples": details["strong_relation_samples"],
        "strong_relation_all_exact": details["strong_relation_all_exact"],
        "symmetry_pairs": details["symmetry_pairs"],
        "symmetry_max_residual": details["symmetry_max_residual"],
        "passed": result.passed,
    }


_PIPELINES = {
    "timeop": _pipeline_timeop,
    "uwform": _pipeline_uwform,
    "ftransform": _pipeline_ftransform,
    "oscspec": _pipeline_oscspec,
    "abweyl": _pipeline_abweyl,
    "s0check": _pipeline_s0check,
}


def run(config: RunConfig, jobs: int = 1) -> dict:
    """Execute one pipeline and return its report document."""
    tol = config.resolved_tolerances()
    start = time.perf_counter()
    body = _PIPELINES[config.pipeline["kind"]](config, tol, jobs)
    report = {
        "config": config.to_json(),
        "tolerances": tol,
        "pipeline": config.pipeline["kind"],
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
    return raw


def _function_payload(raw: str | None):
    """Parse --function: inline JSON, shorthand kind:p1,p2, or a file path."""
    if raw is None:
        return None
    text = raw.strip()
    if text.startswith("{"):
        return json.loads(text)
    if ":" in text:
        kind, _, params = text.partition(":")
        return {"kind": kind.strip(), "params": [float(x) for x in params.split(",")]}
    return json.loads(Path(text).read_text())


def _model_from_args(args, base: dict | None) -> dict | None:
    model = dict(base or {})
    kind = getattr(args, "model", None) or model.get("kind")
    if getattr(args, "input", None) is not None:
        kind = "custom"
        model["path"] = str(args.input)
    if kind is None:
        return None
    model["kind"] = kind
    if kind == "oscillator":
        if getattr(args, "omega", None):
            model["omega"] = [float(w) for w in str(args.omega).split(",")]
        if getattr(args, "n_max", None) is not None:
            model["n_max"] = args.n_max
    elif kind == "hydrogen":
        if getattr(args, "mass", None) is not None:
            model["m"] = args.mass
        if getattr(args, "gamma", None) is not None:
            model["gamma"] = args.gamma
        if getattr(args, "n_max", None) is not None:
            model["n_max"] = args.n_max
    elif kind == "rabi":
        for flag, key in (("mu", "mu"), ("g", "g"), ("cutoff", "cutoff"), ("count", "count")):
            value = getattr(args, flag, None)
            if value is not None:
                model[key] = value
        if getattr(args, "omega", None):
            model["omega"] = float(str(args.omega).split(",")[0])
    return model


def _make_config(args, pipeline: dict, needs_model: bool) -> RunConfig:
    raw = _load_config_file(args)
    model = _model_from_args(args, raw.get("model"))
    if needs_model and not model:
        raise ValueError("no model given; pass --model/--input or a --config file")
    base_pipeline = raw.get("pipeline") or {}
    merged = dict(base_pipeline) if base_pipeline.get("kind") == pipeline["kind"] else {}
    merged.update({k: v for k, v in pipeline.items() if v is not None})
    seed = args.seed if args.seed is not None else raw.get("seed", 7)
    return RunConfig(
        model=model or {},
        pipeline=merged,
        tolerances=raw.get("tolerances") or {},
        seed=seed,
    )


def _write_report(args, name: str, report: dict) -> int:
    out = Path(getattr(args, "out", ".") or ".")
    out.mkdir(parents=True, exist_ok=True)
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


def _run_and_write(args, name: str, pipeline: dict, needs_model: bool = True) -> int:
    config = _make_config(args, pipeline, needs_model)
    report = run(config, jobs=args.jobs)
    return _write_report(args, name, report)


def cmd_spectrum(args) -> int:
    config = _make_config(args, {"kind": "timeop"}, needs_model=True)
    if config.model.get("kind") == "rabi":
        raise ValueError("the Rabi model is a matrix, not a point spectrum; use the timeop subcommand")
    s = _spectrum_from_model(config.model)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    path = out / "spectrum.json"
    path.write_text(_dumps(s.to_json()) + "\n")
    print(f"PASS spectrum: {s.label or 'custom'}, {s.total_states} states -> {path}")
    return 0


def cmd_decompose(args) -> int:
    config = _make_config(args, {"kind": "timeop", "p": args.p}, needs_model=True)
    s = _spectrum_from_model(config.model)
    deco = decompose_spectrum(s, float(config.pipeline.get("p", 2.0)))
    verification = verify_decomposition(deco)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    doc = out / "decomposition.json"
    doc.write_text(_dumps(deco.to_json()) + "\n")
    report = {
        "spectrum": s.to_json(),
        "channel_count": deco.channel_count,
        "channel_sizes": [len(ch) for ch in deco.channels],
        "verification": verification.to_json(),
        "passed": verification.ok,
    }
    code = _write_report(args, "decompose", report)
    print(f"decomposition document: {doc}")
    return code


def cmd_timeop(args) -> int:
    return _run_and_write(args, "timeop", {"kind": "timeop", "p": args.p, "vectors": args.vectors})


def cmd_uwform(args) -> int:
    return _run_and_write(args, "uwform", {
        "kind": "uwform",
        "p": args.p,
        "vectors": args.vectors,
        "function": _function_payload(args.function),
    })


def cmd_ftransform(args) -> int:
    return _run_and_write(args, "ftransform", {
        "kind": "ftransform",
        "p": args.p,
        "vectors": args.vectors,
        "function": _function_payload(args.function),
    })


def cmd_oscspec(args) -> int:
    sizes = None
    if args.sizes:
        sizes = [int(x) for x in str(args.sizes).split(",")]
    pipeline = {"kind": "oscspec", "omega": args.omega, "sizes": sizes}
    return _run_and_write(args, "oscspec", pipeline, needs_model=False)


def cmd_abweyl(args) -> int:
    pipeline = {"kind": "abweyl"}
    for flag in ("L", "N", "m", "x0", "k0", "sigma", "tmax", "steps"):
        value = getattr(args, flag)
        if value is not None:
            pipeline[flag] = value
    return _run_and_write(args, "abweyl", pipeline, needs_model=False)


def cmd_s0check(args) -> int:
    return _run_and_write(args, "s0check", {"kind": "s0check"}, needs_model=False)


def cmd_selftest(args) -> int:
    raw = _load_config_file(args)
    overrides = dict(raw.get("tolerances") or {})
    for item in args.tolerance or []:
        name, sep, value = item.partition("=")
        if not sep:
            raise ValueError("tolerance overrides look like name=value")
        overrides[name] = float(value)
    seed = args.seed if args.seed is not None else raw.get("seed", 7)
    _check_tolerances_and_seed(overrides, seed)
    results = run_all(overrides or None, int(seed))

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
        "tolerances": {**DEFAULT_TOLERANCES, **{k: float(v) for k, v in overrides.items()}},
        "seed": int(seed),
        "passed": all(result.passed for result in results),
        "timings": timings,
    }
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    path = out / "selftest_report.json"
    path.write_text(_dumps(report) + "\n")
    print(f"{'PASS' if exit_ok else 'FAIL'} selftest: {path}")
    return 0 if exit_ok else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="RunConfig JSON file")
    common.add_argument("--out", type=Path, default=Path("."), help="report directory")
    common.add_argument("--jobs", type=int, default=1, help="worker threads for independent sweeps")
    common.add_argument("--seed", type=int, default=None, help="seed for random test vectors")

    model_flags = argparse.ArgumentParser(add_help=False)
    model_flags.add_argument("--model", choices=MODEL_KINDS)
    model_flags.add_argument("--omega", help="frequency, or comma list for the oscillator")
    model_flags.add_argument("--n-max", dest="n_max", type=int)
    model_flags.add_argument("--mass", type=float, help="hydrogen mass parameter")
    model_flags.add_argument("--gamma", type=float, help="hydrogen coupling parameter")
    model_flags.add_argument("--mu", type=float, help="Rabi level splitting")
    model_flags.add_argument("--g", type=float, help="Rabi coupling")
    model_flags.add_argument("--cutoff", type=int, help="Rabi Fock cutoff")
    model_flags.add_argument("--count", type=int, help="Rabi bound-check count")
    model_flags.add_argument("--input", type=Path, help="custom spectrum JSON file")

    form_flags = argparse.ArgumentParser(add_help=False)
    form_flags.add_argument("--p", type=float, default=None, help="summability exponent")
    form_flags.add_argument("--vectors", type=int, default=None, help="random vectors per channel")

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
    dp.add_argument("--p", type=float, default=None)
    dp.set_defaults(handler=cmd_decompose)

    tp = sub.add_parser("timeop", parents=[common, model_flags, form_flags],
                        help="build time operators and check the commutation identity")
    tp.set_defaults(handler=cmd_timeop)

    up = sub.add_parser("uwform", parents=[common, model_flags, form_flags],
                        help="build the ultra-weak form and check its identities")
    up.add_argument("--function", help="optional transform: JSON, kind:params, or a file")
    up.set_defaults(handler=cmd_uwform)

    fp = sub.add_parser("ftransform", parents=[common, model_flags, form_flags],
                        help="transform a spectrum through a function of the Hamiltonian")
    fp.add_argument("--function", required=True, help="JSON, kind:params, or a file")
    fp.set_defaults(handler=cmd_ftransform)

    op = sub.add_parser("oscspec", parents=[common],
                        help="oscillator time-operator spectra across truncation sizes")
    op.add_argument("--omega", type=float, default=None)
    op.add_argument("--sizes", help="comma list of matrix sizes")
    op.set_defaults(handler=cmd_oscspec)

    ap = sub.add_parser("abweyl", parents=[common],
                        help="weak Weyl residual sweep on the grid")
    ap.add_argument("--L", type=float, default=None)
    ap.add_argument("--N", type=int, default=None)
    ap.add_argument("--m", type=float, default=None)
    ap.add_argument("--x0", type=float, default=None)
    ap.add_argument("--k0", type=float, default=None)
    ap.add_argument("--sigma", type=float, default=None)
    ap.add_argument("--tmax", type=float, default=None)
    ap.add_argument("--steps", type=int, default=None)
    ap.set_defaults(handler=cmd_abweyl)

    s0 = sub.add_parser("s0check", parents=[common],
                        help="symbolic strong relation and quadrature symmetry checks")
    s0.set_defaults(handler=cmd_s0check)

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
        return args.handler(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
