"""The benchmark's workloads: seeded inputs and one pass of CLI invocations.

Each workload is a fixed list of ``timeops`` command lines.  The runner
appends ``--out``, ``--seed`` and ``--jobs 1`` to every one, so the
program sees only generated inputs and flags.  Sizes live in ``SIZES``;
``prepare`` takes overrides, so the tests can run every workload tiny.

Why these four (README.md has the layer map).  ``BENCHMARK.json`` lists
only dense-spectra and weyl-grid: together they reach every layer, and
they spread less from run to run.  The Python-bound hydrogen-sweep and
spectrum-build spread further on a shared host; they stay runnable by
name for per-layer study.

* hydrogen-sweep: the paper's model; hundreds of tiny channels put most
  of the time in the per-channel ``uwform``/``timeop`` residual sweeps.
* spectrum-build: a seeded custom spectrum whose decomposition dominates;
  the same layers as hydrogen-sweep, build-heavy and sweep-light.
* dense-spectra: one or two large channels per invocation, so dense
  assembly and eigensolves dominate and per-channel overhead is nil.
* weyl-grid: the only workload reaching ``contspec``'s FFT evolution and
  the ``acceptance`` suite.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOAD_NAMES = ("hydrogen-sweep", "spectrum-build", "dense-spectra", "weyl-grid")

SIZES = {
    "hydrogen-sweep": {"n_max": 16, "vectors": 20},
    "spectrum-build": {"values": 2000, "max_multiplicity": 4},
    "dense-spectra": {"osc_sizes": "400,800,1600", "osc_n_max": 1500, "rabi_cutoff": 600, "rabi_count": 40},
    "weyl-grid": {"grid_points": 262144},
}


def spectrum_document(seed: int, values: int, max_multiplicity: int) -> dict:
    """A zero-accumulating spectrum: distinct values -U[1e-3, 1], multiplicities 1..max.

    Uses only :mod:`random`, whose sequence for a seed is fixed across
    platforms, so the same seed always gives the same document.
    """
    rng = random.Random(seed)
    magnitudes: set[float] = set()
    while len(magnitudes) < values:
        magnitudes.add(rng.uniform(1e-3, 1.0))
    entries = [[-m, rng.randint(1, max_multiplicity)] for m in sorted(magnitudes, reverse=True)]
    return {"label": f"perfbench(seed={seed}, values={values})", "accumulation": "to_zero", "entries": entries}


def write_spectrum(path: Path, seed: int, values: int, max_multiplicity: int) -> Path:
    path.write_text(json.dumps(spectrum_document(seed, values, max_multiplicity)) + "\n")
    return path


def prepare(name: str, inputs: Path, seed: int, sizes: dict | None = None) -> list[list[str]]:
    """Write the workload's input files under ``inputs``; return one pass of argv lists.

    The cheapest invocation comes first: set-up runs it once as a warm-up.
    """
    size = {**SIZES[name], **(sizes or {})}
    inputs.mkdir(parents=True, exist_ok=True)
    if name == "hydrogen-sweep":
        model = ["--model", "hydrogen", "--n-max", str(size["n_max"]), "--vectors", str(size["vectors"])]
        return [
            ["timeop", *model],
            ["uwform", *model],
            ["ftransform", *model, "--function", "sin:0.3"],
        ]
    if name == "spectrum-build":
        spectrum = write_spectrum(inputs / "spectrum.json", seed, size["values"], size["max_multiplicity"])
        return [
            ["decompose", "--input", str(spectrum)],
            ["uwform", "--input", str(spectrum), "--vectors", "1"],
        ]
    if name == "dense-spectra":
        return [
            ["timeop", "--model", "rabi", "--cutoff", str(size["rabi_cutoff"]), "--count", str(size["rabi_count"])],
            ["timeop", "--model", "oscillator", "--n-max", str(size["osc_n_max"])],
            ["oscspec", "--sizes", size["osc_sizes"]],
        ]
    if name == "weyl-grid":
        return [
            ["s0check"],
            ["abweyl", "--N", str(size["grid_points"])],
            ["selftest"],
        ]
    raise ValueError(f"unknown workload {name!r}")
