"""Measurement loops, the result tables and the machine-readable summary.

Tracing off (``--trace 0``) a run repeats rounds until ``--seconds`` have
passed. One round is one ``setup`` repeat, one gated ``emacprof profile``
call over the whole dataset (in-process, through ``emacprof.cli.main``), and
one ``run_inference`` call per sample. Interleaving the three spreads host
speed drift evenly over all of them. ``peak_mem_mb`` comes from further,
untimed ``profile`` calls under ``tracemalloc``.

Tracing on (``--trace 1``) a run alternates untraced and traced ``profile``
calls (see ``tracing.py``) and reports the per-layer split from the traced
ones; ``trace.overhead_frac`` compares the two.

Every time is reported at nominal host speed: each operation is scaled by a
reference kernel timed around it (see ``reference.py``), because this kind of
host drifts by 20-50 % over seconds to minutes. The table also prints the
host value of each time next to it.

The load comes from this one process and thread: one caller, closed loop.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import statistics
import tempfile
import threading
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from emacprof import (
    EmacProfError,
    EncodingMode,
    cli,
    encode,
    load_input_tensor,
    parse_network,
    run_inference,
)
from gate import GOLDEN, RECORDED_SEEDS, check, energies_agree, load_golden, read_reports
from reference import Reference
from tracing import ROOT_SPAN, STEP_SPAN, TIME_METRICS, Tracer, installed, self_times
from workloads import WORKLOADS, Workload, generate, profile_argv

__all__ = ["main"]

ROOT = Path(__file__).resolve().parent.parent
#: generated inputs, reports, spans and per-run results (ignored by git)
WORK = ROOT / ".bench_run"
#: enough single-sample calls that at least ten lie beyond the 90th percentile
MIN_SAMPLE_CALLS = 100
MIN_TRACED_CALLS = 3
MEMORY_PASSES = 3
#: seed whose recorded results gate runs on a seed ``golden.json`` lacks
REFERENCE_SEED = 0


@dataclass
class Run:
    """One generated workload instance and the gate applied to every call."""

    workload: Workload
    seed: int
    work_dir: Path
    expected: dict | None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.gen = generate(self.workload, self.seed, self.work_dir / "data")
        self.out = self.work_dir / "out"
        self.argv = profile_argv(self.workload, self.gen, self.seed, self.out)
        self.net = None
        self.samples: list = []

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def setup(self) -> float:
        """Parse the network and load and encode every input; returns seconds."""
        start = perf_counter()
        net = parse_network(self.gen.network.read_bytes(), self.gen.weights.read_bytes())
        mode = EncodingMode(self.workload.encoding)
        samples = [
            encode(load_input_tensor(path, net.input_shape), mode, (self.seed + k) % (1 << 64))
            for k, path in enumerate(self.gen.samples)
        ]
        wall = perf_counter() - start
        self.net, self.samples = net, samples
        return wall

    def profile(self, call: Callable[[list[str]], int] = cli.main) -> float:
        """One gated ``emacprof profile`` call; returns its wall seconds."""
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            code = call(self.argv)
            wall = perf_counter() - start
        self.attempted += 1
        if code != 0:
            self._fail(f"profile exited with code {code}")
            return wall
        obs = read_reports(self.out)
        if self.expected is None:
            # no recorded values for this seed: later calls must repeat the first
            self.expected = obs.recorded()
        problems = check(
            obs, self.expected, exact_equals_analytic=self.workload.exact_equals_analytic
        )
        if problems:
            self._fail("; ".join(problems))
        return wall

    def infer(self, index: int) -> float:
        """One gated ``run_inference`` call on sample ``index``; returns seconds."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = run_inference(self.net, self.samples[index])
        except EmacProfError as exc:
            self._fail(f"run_inference on sample {index}: {exc}")
            return perf_counter() - start
        wall = perf_counter() - start
        if self.expected is None:
            return wall  # every profile call so far failed, and counts as failed
        want = self.expected["T_used"][index]
        if result.trace.T_used != want:
            self._fail(f"run_inference on sample {index}: T_used {result.trace.T_used} != {want}")
        elif self.workload.exact_equals_analytic and not energies_agree(
            result.energy.E_tot, result.energy_analytic.E_tot
        ):
            self._fail(f"run_inference on sample {index}: exact and analytic E_tot differ")
        return wall


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]]
    notes: dict[str, str]
    table: list[str]


def _peak_memory(run: Run) -> int:
    """Smallest ``tracemalloc`` peak of :data:`MEMORY_PASSES` untimed profile calls.

    Now and then about 0.9 MiB is allocated, and kept, inside numpy's
    ``as_strided`` while it copies ``__array_interface__``. It lands in the
    peak of a random pass, so the smallest peak is the one the simulation
    itself needs.
    """
    peaks = []

    def measured(argv: list[str]) -> int:
        tracemalloc.start()
        try:
            return cli.main(argv)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    for _ in range(MEMORY_PASSES):
        run.profile(measured)
    return min(peaks)


def measure_untraced(run: Run, seconds: float) -> Outcome:
    ref = Reference()
    setup, profile, sample = [], [], []
    deadline = perf_counter() + seconds
    while True:
        setup.append(ref.measure(run.setup))
        profile.append(ref.measure(run.profile))
        for index in range(len(run.samples)):
            sample.append(ref.measure(run.infer, index))
        if perf_counter() >= deadline and len(sample) >= MIN_SAMPLE_CALLS:
            break
    peak = _peak_memory(run)
    n = run.workload.n_samples
    sample_ms = np.asarray(sample) * 1e3
    p50, p90 = (float(v) for v in np.percentile(sample_ms[:, 0], [50, 90]))
    host_p50, host_p90 = np.percentile(sample_ms[:, 1], [50, 90])
    profile_s = np.median(profile, axis=0)
    setup_s = np.median(setup, axis=0)
    return Outcome(
        metrics={
            "samples_per_s": (n / float(profile_s[0]), "samples/s"),
            "sample_ms_p50": (p50, "ms"),
            "sample_ms_p90": (p90, "ms"),
            "setup_s": (float(setup_s[0]), "s"),
            "peak_mem_mb": (peak / 2**20, "MiB"),
        },
        notes={
            "samples_per_s": f"host {n / profile_s[1]:.4g}; median of {len(profile)} "
                             f"profile calls of {n} samples",
            "sample_ms_p50": f"host {host_p50:.4g}; {len(sample_ms)} run_inference calls",
            "sample_ms_p90": f"host {host_p90:.4g}; "
                             f"{int((sample_ms[:, 0] > p90).sum())} calls beyond",
            "setup_s": f"host {setup_s[1]:.4g}; median of {len(setup)} repeats",
            "peak_mem_mb": f"smallest tracemalloc peak of {MEMORY_PASSES} more profile calls",
        },
        table=[],
    )


def measure_traced(run: Run, seconds: float, spans_path: Path) -> Outcome:
    ref = Reference()
    tracer = Tracer()
    traced_call = functools.partial(tracer.trace, cli.main)
    plain, traced, scales = [], [], []
    deadline = perf_counter() + seconds
    while True:
        # alternate which goes first so drift does not favour either side
        for with_trace in (False, True) if len(plain) % 2 == 0 else (True, False):
            if with_trace:
                with installed(tracer):
                    nominal, host = ref.measure(run.profile, traced_call)
                traced.append(nominal)
                scales.append(nominal / host)
            else:
                plain.append(ref.measure(run.profile)[0])
        if perf_counter() >= deadline and len(traced) >= MIN_TRACED_CALLS:
            break
    tracer.write(spans_path)

    spans = [s for s in tracer.spans if s is not None]
    nominal: dict[str, float] = {}
    for (trace_id, name), secs in self_times(spans).items():
        nominal[name] = nominal.get(name, 0.0) + secs * scales[trace_id]
    calls = Counter(s.name for s in spans)
    profiles = len(traced)
    per_sample = 1e3 / (profiles * run.workload.n_samples)
    c = tracer.counts
    metrics = {
        metric: (nominal.get(name, 0.0) * per_sample, "ms")
        for name, metric in TIME_METRICS.items()
    }
    metrics.update(
        {
            "engine.steps": (c["steps"] // profiles, "count"),
            "engine.step_budget_frac": (c["steps"] / c["step_budget"], "ratio"),
            "engine.syn_events": (c["syn_events"] // profiles, "count"),
            "engine.spike_density": (c["spikes"] / c["neuron_steps"], "ratio"),
            "codec.poisson_slice_calls": (calls["codec.poisson_slice"] // profiles, "count"),
            "codec.input_density": (c["input_spikes"] / c["input_steps"], "ratio"),
            "neuron.step_calls": (calls[STEP_SPAN] // profiles, "count"),
            "emac.calls": (calls["emac.price"] // profiles, "count"),
            "trace.overhead_frac": (
                statistics.median(t / p for t, p in zip(traced, plain)) - 1, "ratio"),
        }
    )
    wall = sum((s.end - s.start) * scales[s.trace_id] for s in spans if s.name == ROOT_SPAN)
    notes = {
        metric: f"{nominal.get(name, 0.0) / wall:6.1%} of traced wall"
        for name, metric in TIME_METRICS.items()
    }
    notes["trace.overhead_frac"] = f"median over {profiles} adjacent untraced/traced pairs"
    table = [
        f"  per sample: self times + children {sum(nominal.values()) * per_sample:.4f} ms "
        f"of {wall * per_sample:.4f} ms traced profile wall; "
        f"{len(spans)} spans in {spans_path.name}"
    ]
    return Outcome(metrics=metrics, notes=notes, table=table)


def run_environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next(
            (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
            cpu,
        )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu,
        "threads": threading.active_count(),
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: int,
                 tmp: Path, golden: dict) -> tuple[Outcome, list[Run]]:
    """Measure one workload; the returned runs hold every gated operation."""
    recorded = golden.get(workload.name, {})
    run = Run(workload, seed, tmp / f"{workload.name}-{trace}", recorded.get(str(seed)))
    gates = [run]
    if run.expected is None:
        reference = Run(workload, REFERENCE_SEED, tmp / f"{workload.name}-{trace}-ref",
                        recorded.get(str(REFERENCE_SEED)))
        if reference.expected is None:
            reference._fail(f"golden.json holds no results for {workload.name}")
        else:
            reference.profile()
        gates.append(reference)
    if trace:
        outcome = measure_traced(run, seconds, WORK / f"{workload.name}-spans.csv")
    else:
        outcome = measure_untraced(run, seconds)
    return outcome, gates


def _print_outcome(workload: Workload, seed: int, trace: int, outcome: Outcome,
                   gates: list[Run]) -> None:
    print(f"{workload.name}  seed {seed}  trace {trace}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<26} {value:>14.6g} {unit:<10} {outcome.notes.get(name, '')}")
    for line in outcome.table:
        print(line)
    attempted = sum(run.attempted for run in gates)
    failed = sum(run.failed for run in gates)
    print(f"  {'error_rate':<26} {failed / attempted:>14.6g} {'ratio':<10} "
          f"{failed} failed of {attempted} gated operations")
    for run in gates:
        for problem in run.problems:
            print(f"  GATE FAILED (seed {run.seed}): {problem}")


def record_golden() -> int:
    """Record the gate's reference values for every workload and recorded seed."""
    WORK.mkdir(exist_ok=True)
    lines = []
    for name, workload in WORKLOADS.items():
        entries = []
        for seed in RECORDED_SEEDS:
            with tempfile.TemporaryDirectory(dir=WORK) as tmp:
                run = Run(workload, seed, Path(tmp), None)
                run.profile()
            if run.failed:
                print(f"{name} seed {seed}: {run.problems}")
                return 1
            entries.append(f'  "{seed}": {json.dumps(run.expected, sort_keys=True)}')
        lines.append(f'"{name}": {{\n' + ",\n".join(entries) + "\n}")
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
    return 0


def _parser() -> argparse.ArgumentParser:
    def seed(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("the seed must be >= 0")
        return value

    p = argparse.ArgumentParser(description="Reference benchmark of emacprof profile.")
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=seed, default=0, help="seed of the generated dataset")
    p.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    p.add_argument("--trace", choices=["0", "1", "both"], default="both",
                   help="0: end-to-end metrics, 1: per-layer metrics from a traced run")
    p.add_argument("--record-golden", action="store_true",
                   help="record the correctness gate's reference values and exit")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.record_golden:
        return record_golden()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.trace == "both" else (int(args.trace),)
    golden = load_golden()
    env = run_environment()
    WORK.mkdir(exist_ok=True)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for name in names:
            workload = WORKLOADS[name]
            for trace in modes:
                outcome, gates = run_workload(
                    workload, args.seed, args.seconds, trace, Path(tmp), golden)
                _print_outcome(workload, args.seed, trace, outcome, gates)
                run_attempted = sum(g.attempted for g in gates)
                run_failed = sum(g.failed for g in gates)
                attempted += run_attempted
                failed += run_failed
                prefix = "" if len(names) == 1 else f"{name}."
                for metric, (value, unit) in outcome.metrics.items():
                    metrics[prefix + metric] = {"value": value, "unit": unit}
                result = {
                    "workload": name, "seed": args.seed, "trace": trace,
                    "seconds": args.seconds, "environment": env,
                    "metrics": {m: {"value": v, "unit": u}
                                for m, (v, u) in outcome.metrics.items()},
                    "attempted": run_attempted, "failed": run_failed,
                    "notes": outcome.notes,
                    "problems": [p for g in gates for p in g.problems],
                }
                (WORK / f"{name}-seed{args.seed}-trace{trace}.json").write_text(
                    json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print("environment " + json.dumps(env, sort_keys=True))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1
