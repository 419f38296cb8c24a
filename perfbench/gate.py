"""Correctness gate, precision headroom and environment stamp.

An invocation fails when its exit code is not 0, when a report it wrote
does not say ``"passed": true``, or when its outputs, with each report's
``timings`` key dropped, differ byte for byte from the same invocation
in the first pass.
"""
from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import sys
from pathlib import Path

REPORT_SUFFIX = "_report.json"

#: Report keys holding a residual gated against an absolute tolerance.
ABSOLUTE_RESIDUALS = {
    "max_uw_ccr_residual": "uw_ccr",
    "im_identity_defect": "im_identity",
    "max_residual": "grid_residual",
    "symmetry_max_residual": "s0_symmetry",
}


def read_outputs(out: Path) -> tuple[dict[str, bytes], dict[str, dict], list[str]]:
    """Canonical bytes of every file in ``out``, parsed reports, and problems.

    A report is canonicalised by parsing it, dropping ``timings`` and
    dumping it with sorted keys; every other file is taken as written.
    """
    canonical: dict[str, bytes] = {}
    reports: dict[str, dict] = {}
    problems: list[str] = []
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name.endswith(REPORT_SUFFIX):
            try:
                report = json.loads(data)
            except json.JSONDecodeError as exc:
                problems.append(f"{path.name}: not JSON ({exc})")
                continue
            report.pop("timings", None)
            if report.get("passed") is not True:
                problems.append(f"{path.name}: passed is {report.get('passed')!r}")
            reports[path.name] = report
            data = json.dumps(report, sort_keys=True).encode()
        canonical[path.name] = data
    if not reports:
        problems.append("no report written")
    return canonical, reports, problems


def _channel_scale(eigenvalues: list[float], reciprocal: bool) -> float:
    """Largest |entry| of a channel's time-operator matrix.

    Entries are i/(h_n - h_m) over the pairing values h, which are the
    eigenvalues or, for spectra accumulating at zero, their reciprocals;
    the largest entry is one over the smallest gap.
    """
    h = sorted(1.0 / e for e in eigenvalues) if reciprocal else sorted(eigenvalues)
    return 1.0 / min(b - a for a, b in zip(h, h[1:]))


def _timeop_headrooms(report: dict) -> list[float]:
    """Per-channel CCR headroom; the gate there is relative to the matrix scale."""
    spectrum = report["spectrum"]
    slots = [value for value, mult in spectrum["entries"] for _ in range(int(mult))]
    reciprocal = spectrum["accumulation"] == "to_zero"
    tolerance = report["tolerances"]["ccr_relative"]
    out = []
    for channel, entry in zip(report["decomposition"]["channels"], report["channel_reports"]):
        residual = entry["max_ccr_residual"]
        if len(channel) >= 2 and residual > 0.0:
            scale = _channel_scale([slots[s] for s in channel], reciprocal)
            out.append(math.log10(tolerance * scale / residual))
    return out


def _walk(node, tolerances: dict, out: list[float]) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if key in ABSOLUTE_RESIDUALS and value > 0.0:
                    out.append(math.log10(tolerances[ABSOLUTE_RESIDUALS[key]] / value))
                elif key == "worst_residual_over_allowed" and value > 0.0:
                    out.append(-math.log10(value))
            else:
                _walk(value, tolerances, out)
    elif isinstance(node, list):
        for item in node:
            _walk(item, tolerances, out)


def headroom_decades(reports) -> float | None:
    """min log10(tolerance / residual) over every gated residual in ``reports``.

    Covers the absolute-tolerance residuals (ultra-weak CCR, the
    uncertainty identity, the grid weak Weyl relation, S0 symmetry and
    the selftest's worst residual over allowed) and the per-channel
    exact CCR residual, whose tolerance scales with the channel matrix.
    Zero residuals are skipped; ``None`` means nothing was gated.
    """
    values: list[float] = []
    for report in reports:
        _walk(report, report.get("tolerances", {}), values)
        if report.get("pipeline") == "timeop" and "channel_reports" in report:
            values.extend(_timeop_headrooms(report))
    return min(values) if values else None


def _git_revision(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        ref_file = root / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS loaded in this process, if any."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libraries = sorted({
        line.split()[-1] for line in maps.splitlines()
        if "openblas" in line.lower() and line.split()[-1].startswith("/")
    })
    for library in libraries:
        handle = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(root: Path, workload: str, seed: int, pinned_threads: str) -> dict:
    """Where and on what a result was measured."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads_pinned": pinned_threads,
            "threads_reported": openblas_threads(),
        },
        "git_revision": _git_revision(root),
        "workload": workload,
        "seed": seed,
        "argv": sys.argv[1:],
    }
