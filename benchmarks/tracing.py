"""Traced run: spans around the calls into each module, recorded from outside.

:func:`installed` replaces module attributes such as ``cli.run_dataset``,
``engine.poisson_slice`` and ``emac.emac_exact`` with timing wrappers and puts
the originals back on exit. The program itself is not edited. Each span has a
trace id (one per ``profile`` call), its own id, its parent's id, a name, and
start and end times; spans stay in memory until :meth:`Tracer.write`.

A span's self time is its duration minus the durations of its direct
children, so the self times of one trace add up to its root's wall time.
"""

from __future__ import annotations

import csv
import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, NamedTuple

from emacprof import cli, emac, engine
from emacprof.netspec import WEIGHTED_KINDS

__all__ = ["PATCHES", "ROOT_SPAN", "TIME_METRICS", "Span", "Tracer", "installed", "self_times"]

#: the benchmark's own span around one ``cli.main`` profile call
ROOT_SPAN = "cli.profile"

#: (module, attribute, span name) for each call into a layer that is timed
PATCHES = (
    (cli, "parse_network", "netspec.parse"),
    (cli, "load_input_tensor", "codec.load"),
    (cli, "encode", "codec.load"),
    (cli, "run_dataset", "engine.run_dataset"),
    (engine, "weight_tensor", "netspec.compile"),
    (engine, "recurrent_weight_tensor", "netspec.compile"),
    (engine, "fanout_map", "netspec.compile"),
    (engine, "poisson_slice", "codec.poisson_slice"),
    (engine, "ann_activation", "neuron.ann_activation"),
    (engine, "decode_roc", "codec.decode"),
    (engine, "decode_max_membrane", "codec.decode"),
    (emac, "emac_exact", "emac.price"),
    (emac, "emac_analytic", "emac.price"),
    (emac, "rates_from_trace", "emac.price"),
)
#: ``engine.step_fn`` is wrapped too: the step function it returns is timed
STEP_SPAN = "neuron.step"

#: per-layer metric fed by each span name's self time
TIME_METRICS = {
    ROOT_SPAN: "cli.self_ms",
    "engine.run_dataset": "engine.self_ms",
    "codec.poisson_slice": "codec.poisson_slice_ms",
    "codec.decode": "codec.decode_ms",
    "codec.load": "codec.load_ms",
    STEP_SPAN: "neuron.step_ms",
    "neuron.ann_activation": "neuron.ann_activation_ms",
    "emac.price": "emac.price_ms",
    "netspec.parse": "netspec.parse_ms",
    "netspec.compile": "netspec.compile_ms",
}


class Span(NamedTuple):
    trace_id: int
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float


class Tracer:
    """Keeps spans and event counts of traced ``profile`` calls in memory."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter[str] = Counter()
        self.trace_id = -1
        self._open: list[int] = []

    def trace(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` as the root span of a new trace."""
        self.trace_id += 1
        return self.span(ROOT_SPAN, fn, *args, **kwargs)

    def span(self, name: str, fn: Callable, *args, **kwargs):
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[span_id] = Span(self.trace_id, span_id, parent, name, start, end)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return timed

    def count_sample(self, net, trace) -> None:
        """Event counts of one simulated sample, taken where it is priced."""
        spiking = [
            index
            for index, layer in enumerate(net.layers)
            if layer.kind in WEIGHTED_KINDS and layer.neuron_model.kind.spiking
        ]
        c = self.counts
        c["samples"] += 1
        c["steps"] += trace.T_used
        c["step_budget"] += net.max_timesteps
        c["syn_events"] += int(trace.feedforward_events.sum() + trace.recurrent_events.sum())
        c["spikes"] += int(trace.counts[spiking].sum())
        c["neuron_steps"] += sum(trace.layer_neurons[i] for i in spiking) * trace.T_used
        if trace.input_counts is not None:
            c["input_spikes"] += int(trace.input_counts.sum())
        c["input_steps"] += trace.n_inputs * trace.T_used

    def write(self, path: Path) -> None:
        """Write every span as CSV, times in microseconds from the first span."""
        spans = [s for s in self.spans if s is not None]
        origin = min((s.start for s in spans), default=0.0)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["trace_id", "span_id", "parent", "name", "start_us", "end_us"])
            for s in spans:
                writer.writerow(
                    [
                        s.trace_id,
                        s.span_id,
                        "" if s.parent is None else s.parent,
                        s.name,
                        f"{(s.start - origin) * 1e6:.1f}",
                        f"{(s.end - origin) * 1e6:.1f}",
                    ]
                )


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every attribute in :data:`PATCHES` (and ``engine.step_fn``) for the block."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in PATCHES]
    originals.append((engine, "step_fn", engine.step_fn))
    try:
        for module, attr, name in PATCHES:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
        timed_exact = emac.emac_exact
        step_fn = engine.step_fn

        def counted_exact(net, trace):
            tracer.count_sample(net, trace)
            return timed_exact(net, trace)

        emac.emac_exact = counted_exact
        engine.step_fn = lambda kind: tracer.wrap(STEP_SPAN, step_fn(kind))
        yield
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[tuple[int, str], float]:
    """Self seconds per (trace id, span name)."""
    children: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.end - s.start
    seconds: dict[tuple[int, str], float] = defaultdict(float)
    for s in spans:
        seconds[s.trace_id, s.name] += (s.end - s.start) - children[s.span_id]
    return dict(seconds)
