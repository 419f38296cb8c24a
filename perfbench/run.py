"""Benchmark for the timeops command line, end to end and layer by layer.

Drives ``timeops.cli.main([...])`` in-process, one invocation after the
other with ``--jobs 1`` (a closed loop with one client), over one
workload's fixed list of invocations, pass after pass, for ``--seconds``.

    python3 perfbench/run.py --workload hydrogen-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` first runs
untraced for half the time, then installs span wrappers at every layer
boundary for the other half and reports the per-layer metrics.  ``all``
runs each workload in its own process, so peak memory does not mix.

Every metric is printed by name and unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Run from a checkout: the package is imported from the
``src`` directory next to this one, and the run exits with code 2 if it
is missing.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import gate
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUTPUT_DIR = ".perfbench_out"

#: BLAS is pinned to one thread before numpy loads; the value is recorded.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-up is repeated and its median reported, so one slow repeat does not show.
SETUP_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("residual_headroom_dec", "decades"),
)

#: Sums of self time over the named functions.
GROUPS = {
    "uwform.sweep_s": ("uwform.random_domain_vector", "uwform.uw_ccr_residual", "uwform.uncertainty_check"),
    "uwform.assemble_s": ("uwform.assemble_uwform", "uwform.f_transform_form"),
    "uwform.admissibility_s": ("uwform.f_condition_check",),
    "timeop.sweep_s": ("timeop.random_difference_vector", "timeop.ccr_residual",
                       "timeop.commutator_defect_columns", "timeop.project_to_difference_span"),
    "timeop.assemble_s": ("timeop.galapon_matrix", "timeop.assemble_time_operator",
                          "timeop.channel_time_operator", "timeop.direct_sum"),
    "timeop.eigensolve_s": ("timeop.osc_timeop_spectrum",),
    "spectra.eigensolve_s": ("spectra.HermitianMatrix.eigenvalues",),
    "contspec.evolve_s": ("contspec.free_evolve",),
    "contspec.ab_apply_s": ("contspec.ab_apply",),
}

PER_LAYER = (
    *((f"{layer}.{kind}", unit) for layer in spans.LAYERS
      for kind, unit in (("self_s", "s"), ("calls", "count"), ("errors", "count"))),
    *((name, "s") for name in GROUPS),
    ("uwform.uw_pairs", "count"),
    ("uwform.sweep_us_per_pair", "us"),
    ("timeop.ccr_vectors", "count"),
    ("timeop.matrix_bytes", "bytes"),
    ("timeop.eigensolve_flops", "flop"),
    ("decompose.channels", "count"),
    ("decompose.bucket_calls_per_value", "ratio"),
    ("contspec.fft_points", "count"),
    ("cli.report_bytes", "bytes"),
    ("trace.spans", "count"),
    ("trace.coverage_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


def call_main(main, argv: list[str]) -> tuple[int | None, str]:
    """Run the CLI in-process; return its exit code (None if it raised) and stderr."""
    err = io.StringIO()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return code, err.getvalue()


class Runner:
    """Runs one workload's passes and gates every invocation's outputs."""

    def __init__(self, cli, workload: str, workdir: Path, seed: int, sizes: dict | None = None) -> None:
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.seed = seed
        self.sizes = sizes
        self.invocations: list[list[str]] = []
        self.reference: dict[int, dict[str, bytes]] = {}
        self.reference_reports: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.pass_bytes: dict[int, int] = {}
        self.passes = 0

    def _argv(self, argv: list[str], out: Path) -> list[str]:
        return [*argv, "--out", str(out), "--seed", str(self.seed), "--jobs", "1"]

    def setup(self) -> float:
        """Generate the inputs and make one warm-up invocation; return seconds."""
        started = perf_counter()
        self.invocations = workloads.prepare(self.workload, self.workdir / "inputs", self.seed, self.sizes)
        warmup = self.workdir / "warmup"
        shutil.rmtree(warmup, ignore_errors=True)
        warmup.mkdir(parents=True)
        call_main(self.cli.main, self._argv(self.invocations[0], warmup))
        return perf_counter() - started

    def run_pass(self, pass_id: int) -> float:
        """One pass over the invocations; returns the seconds spent inside the CLI."""
        elapsed = 0.0
        written = 0
        for index, argv in enumerate(self.invocations):
            out = self.workdir / "out" / str(index)
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            started = perf_counter()
            code, err = call_main(self.cli.main, self._argv(argv, out))
            elapsed += perf_counter() - started
            self.attempted += 1
            problems = [] if code == 0 else [f"exit code {code}: {err.strip()[-500:]}"]
            canonical, reports, found = gate.read_outputs(out)
            problems += found
            written += sum(path.stat().st_size for path in out.iterdir())
            if index not in self.reference:
                self.reference[index] = canonical
                self.reference_reports.extend(reports.values())
            elif canonical != self.reference[index]:
                problems.append("outputs differ from the first pass")
            if problems:
                self.failed += 1
                self.failures.append(f"pass {pass_id} {' '.join(argv)}: {'; '.join(problems)}")
        self.pass_bytes[pass_id] = written
        return elapsed

    def run_for(self, seconds: float, tracer: spans.Tracer | None = None) -> dict[int, float]:
        """Passes until ``seconds`` have gone by (at least one); pass id -> seconds."""
        times = {}
        deadline = perf_counter() + seconds
        while not times or perf_counter() < deadline:
            pass_id = self.passes
            self.passes += 1
            if tracer is not None:
                tracer.begin_pass(pass_id)
            times[pass_id] = self.run_pass(pass_id)
            if tracer is not None:
                tracer.end_pass()
        return times


def layer_metrics(tracer: spans.Tracer, traced: dict[int, float], untraced: dict[int, float],
                  pass_bytes: dict[int, int]) -> dict[str, float]:
    """Per-pass medians of every per-layer metric over the traced passes."""
    stats = spans.per_pass_self(tracer)
    rows = []
    for pass_id, seconds in traced.items():
        functions = stats.get(pass_id, {})
        counters = tracer.pass_counters.get(pass_id, {})
        row: dict[str, float] = {}
        for layer in spans.LAYERS:
            mine = [s for name, s in functions.items() if name.split(".", 1)[0] == layer]
            for kind in ("self_s", "calls", "errors"):
                row[f"{layer}.{kind}"] = sum(s[kind] for s in mine)
        for group, names in GROUPS.items():
            row[group] = sum(functions[n]["self_s"] for n in names if n in functions)

        def calls(name):
            return functions[name]["calls"] if name in functions else 0

        row["uwform.uw_pairs"] = calls("uwform.uw_ccr_residual")
        row["uwform.sweep_us_per_pair"] = (
            1e6 * row["uwform.sweep_s"] / row["uwform.uw_pairs"] if row["uwform.uw_pairs"] else 0.0
        )
        row["timeop.ccr_vectors"] = calls("timeop.ccr_residual")
        for name in ("timeop.matrix_bytes", "timeop.eigensolve_flops", "decompose.channels",
                     "contspec.fft_points"):
            row[name] = counters.get(name, 0.0)
        slots = counters.get("decompose.slots", 0.0)
        row["decompose.bucket_calls_per_value"] = (
            counters.get("decompose.bucket_calls", 0.0) / slots if slots else 0.0
        )
        row["cli.report_bytes"] = pass_bytes[pass_id]
        row["trace.spans"] = sum(s["calls"] for s in functions.values())
        row["trace.coverage_ratio"] = sum(s["self_s"] for s in functions.values()) / seconds
        rows.append(row)
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    out["trace.overhead_ratio"] = statistics.median(traced.values()) / statistics.median(untraced.values())
    return out


def _print_metrics(metrics: dict[str, float], units: dict[str, str], notes: dict[str, str]) -> None:
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {value:>16.6g} {units[name]}{note}")


def run_workload(args) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "timeops" / "cli.py").is_file():
        print(f"error: no timeops sources in {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = ROOT / OUTPUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    started = perf_counter()
    import timeops.cli as cli
    import_s = perf_counter() - started
    if Path(cli.__file__).resolve().parent != (src / "timeops").resolve():
        print(f"error: imported timeops from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    runner = Runner(cli, args.workload, workdir, args.seed)
    setup_s = import_s + statistics.median(runner.setup() for _ in range(SETUP_REPEATS))
    env = gate.environment(ROOT, args.workload, args.seed, BLAS_THREADS)

    if args.trace:
        untraced = runner.run_for(args.seconds / 2)
        tracer = spans.package_tracer()
        with tracer.installed():
            traced = runner.run_for(args.seconds / 2, tracer)
        tracer.write(workdir / "spans.jsonl")
        metrics = layer_metrics(tracer, traced, untraced, runner.pass_bytes)
        pass_seconds = {"untraced": list(untraced.values()), "traced": list(traced.values())}
        units = dict(PER_LAYER)
        notes = {"trace.overhead_ratio": f"{len(traced)} traced / {len(untraced)} untraced passes"}
    else:
        times = runner.run_for(args.seconds)
        headroom = gate.headroom_decades(runner.reference_reports)
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(times.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "residual_headroom_dec": 0.0 if headroom is None else headroom,
        }
        pass_seconds = {"untraced": list(times.values())}
        units = dict(END_TO_END)
        notes = {"wall_s": f"median of {len(times)} passes of {len(runner.invocations)} invocations"}

    fail_ratio = runner.failed / runner.attempted
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    _print_metrics(metrics, units, notes)
    print(f"  {'fail_ratio':34s} {fail_ratio:>16.6g} ratio  ({runner.failed} of {runner.attempted} invocations)")
    for failure in runner.failures[:5]:
        print(f"  FAILED {failure}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (workdir / "result.json").write_text(json.dumps(
        {**result, "env": env, "pass_seconds": pass_seconds, "failures": runner.failures}, indent=2))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    for name in workloads.WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(command, check=False).returncode)
    return worst


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
