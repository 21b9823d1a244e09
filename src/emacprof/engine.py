"""Time-stepped inference over a validated network.

Propagation is feedforward within a step: layer ``l`` consumes the spikes
layer ``l-1`` emitted at the same step, so one sweep over the stack
completes a step. Recurrent layers are the exception; they see their own
spikes from the previous step. Under rank-order coding the run stops at
the end of the first step in which the output layer spikes.

Stateless rectifier layers (and any pooling or flattening around them)
form a static preprocessing stage: with an analog input their values do
not change over time, so they are evaluated once and the first spiking
layer reuses the resulting drive every step. Stochastic spike inputs are
incompatible with that stage and are rejected.

Alongside the dynamics the engine keeps exact integer event counters:

* ``feedforward_events[l]``: for every presynaptic spike, the number of
  layer-``l`` neurons it actually reaches (border positions of a
  convolution reach fewer than interior ones);
* ``recurrent_events[l]``: each spike a recurrent layer emits books its
  all-to-all recurrent fan-out at emission time;
* ``analog_events[l]``: statically evaluated weighted sums, counted once
  per inference, or once per executed step when the encoder is priced
  per step.

These counters, the per-step spike counts, and the step budget actually
used are what the energy accounting consumes.

Over a dataset, :func:`run_dataset` keeps each sample's outcome (step
count and decision) and the per-sample scalars its statistics need, not
the full results, and reduces every statistic once at the end.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from math import prod
from typing import Callable, Iterator, Sequence

import numpy as np

from . import emac as _emac
from .codec import (
    Decision,
    EncodedInput,
    EncodingMode,
    decode_max_membrane,
    decode_roc,
    poisson_slice,
)
from .errors import EmptyDataset, NonFiniteState, SchemaError, ShapeMismatch
from .netspec import (
    Coding,
    LayerKind,
    LayerSpec,
    NetworkSpec,
    WEIGHTED_KINDS,
    fanout_map,
    layer_counts,
    recurrent_weight_tensor,
    static_split,
    weight_tensor,
)
from .neuron import (
    NeuronKind,
    ann_activation,
    state_zeros,
    step_fn,
)

__all__ = [
    "SpikeTrace",
    "InferenceResult",
    "Stat",
    "MethodStats",
    "SampleOutcome",
    "AggregateStats",
    "run_inference",
    "run_dataset",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SpikeTrace:
    """Event record of one inference.

    ``counts[l, t]`` is the number of spikes layer ``l`` emitted at step
    ``t + 1`` (flatten layers re-emit their input, so their rows mirror the
    upstream layer). ``input_counts`` holds the encoder's spikes per step
    for stochastic inputs and is ``None`` for analog runs.
    """

    counts: np.ndarray
    input_counts: np.ndarray | None
    feedforward_events: np.ndarray
    recurrent_events: np.ndarray
    analog_events: np.ndarray
    T_used: int
    layer_neurons: tuple[int, ...]
    n_inputs: int


@dataclass
class InferenceResult:
    """Decision, event trace, and both energy views of one sample."""

    decision: Decision
    trace: SpikeTrace
    energy: "_emac.EnergyReport"
    energy_analytic: "_emac.EnergyReport"
    output_spikes: np.ndarray
    output_voltages: np.ndarray
    rasters: list[np.ndarray] | None = None


# ---------------------------------------------------------------------------
# compiled per-layer runtime


@dataclass
class _LayerRT:
    spec: LayerSpec
    index: int
    neurons: int
    fanin: int
    recurrent_fanin: int
    weighted: bool
    spiking: bool
    weights: np.ndarray | None = None
    rec_weights: np.ndarray | None = None
    fanout: np.ndarray | None = None
    step: Callable | None = None


def _compile(net: NetworkSpec) -> list[_LayerRT]:
    out = []
    for index, layer in enumerate(net.layers):
        counts = layer_counts(layer)
        rt = _LayerRT(
            spec=layer,
            index=index,
            neurons=counts.neurons,
            fanin=counts.fanin,
            recurrent_fanin=counts.recurrent_fanin,
            weighted=layer.kind in WEIGHTED_KINDS,
            spiking=(
                layer.kind in WEIGHTED_KINDS and layer.neuron_model.kind.spiking
            ),
        )
        if rt.weighted:
            rt.weights = weight_tensor(net, index)
            if layer.kind is LayerKind.RECURRENT_DENSE:
                rt.rec_weights = recurrent_weight_tensor(net, index)
            if rt.spiking:
                rt.step = step_fn(layer.neuron_model.kind)
        if layer.kind is not LayerKind.FLATTEN:
            rt.fanout = fanout_map(layer)
        out.append(rt)
    return out


def _window_view(x: np.ndarray, kernel, stride) -> np.ndarray:
    kh, kw = kernel
    sh, sw = stride
    view = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    return view[:, ::sh, ::sw]


def _weighted_drive(rt: _LayerRT, x: np.ndarray) -> np.ndarray:
    """Flat synaptic drive of a weighted layer for input tensor ``x``."""
    layer = rt.spec
    if layer.kind is LayerKind.CONV2D:
        if layer.padding:
            p = layer.padding
            x = np.pad(x, ((0, 0), (p, p), (p, p)))
        view = _window_view(x, layer.kernel, layer.stride)
        drive = np.tensordot(rt.weights, view, axes=([1, 2, 3], [0, 3, 4]))
        return drive.reshape(-1)
    return rt.weights @ x.reshape(-1)


def _pool(x: np.ndarray, layer: LayerSpec) -> np.ndarray:
    # max over boolean windows is a logical OR of the pooled spikes
    return _window_view(x, layer.kernel, layer.stride).max(axis=(-2, -1))


def _check_finite(state, index: int, t: int) -> None:
    if not (np.isfinite(state.i).all() and np.isfinite(state.v).all()):
        raise NonFiniteState(
            f"layer {index} left the finite range at step {t}; check the "
            "weights and the integration step"
        )


def _apply_static(rt: _LayerRT, x: np.ndarray) -> np.ndarray:
    layer = rt.spec
    if layer.kind is LayerKind.FLATTEN:
        return x.reshape(-1)
    if layer.kind is LayerKind.MAX_POOL2D:
        return _pool(x, layer)
    act = ann_activation(_weighted_drive(rt, x), layer.neuron_model)
    return act.reshape(layer.output_shape)


def run_inference(
    net: NetworkSpec,
    encoded: EncodedInput,
    *,
    t_max: int | None = None,
    coding: Coding | str | None = None,
    record_raster: bool = False,
    encoder_per_step: bool = False,
) -> InferenceResult:
    """Simulate one sample and account for every event it generates."""
    rt = _compile(net)
    return _run_compiled(
        net,
        rt,
        encoded,
        t_max=t_max,
        coding=coding,
        record_raster=record_raster,
        encoder_per_step=encoder_per_step,
    )


def _run_compiled(
    net: NetworkSpec,
    rt: list[_LayerRT],
    encoded: EncodedInput,
    *,
    t_max: int | None,
    coding: Coding | str | None,
    record_raster: bool,
    encoder_per_step: bool,
) -> InferenceResult:
    coding = Coding(coding) if coding is not None else net.coding
    T_max = int(t_max) if t_max is not None else net.max_timesteps
    if T_max < 1:
        raise SchemaError(f"the step budget must be >= 1, got {T_max}")
    if tuple(encoded.values.shape) != net.input_shape:
        raise ShapeMismatch(
            f"input tensor shape {tuple(encoded.values.shape)} does not match "
            f"the network input {net.input_shape}"
        )
    has_ann = any(
        r.weighted and not r.spiking for r in rt
    )
    if has_ann and encoded.mode is EncodingMode.POISSON:
        raise SchemaError(
            "ann_relu layers consume static values; use analog encoding"
        )

    L = len(net.layers)
    last = L - 1
    ff_events = np.zeros(L, dtype=np.int64)
    rec_events = np.zeros(L, dtype=np.int64)
    analog_base = np.zeros(L, dtype=np.int64)

    static_ids, start = static_split(net, encoded.mode)
    x = encoded.values
    for idx in static_ids:
        if rt[idx].spec.kind is not LayerKind.FLATTEN:
            analog_base[idx] = rt[idx].fanin * rt[idx].neurons
        x = _apply_static(rt[idx], x)
        if not np.isfinite(x).all():
            raise NonFiniteState(
                f"layer {idx} produced non-finite values in the static stage"
            )

    if start is None:
        # Conventional network: one pass, the decision is the top activation.
        acts = x.reshape(-1)
        T_used = 1
        counts = np.zeros((L, 1), dtype=np.int64)
        out_spikes = np.zeros((rt[last].neurons, 1), dtype=bool)
        out_volt = acts.reshape(-1, 1).astype(np.float64)
        decision = decode_max_membrane(out_volt)
        rasters = [np.zeros((r.neurons, 1), dtype=bool) for r in rt] if record_raster else None
        input_counts = None
    else:
        drive0 = None
        if encoded.mode is EncodingMode.ANALOG:
            drive0 = _weighted_drive(rt[start], x)
            analog_base[start] = rt[start].fanin * rt[start].neurons

        states = {r.index: state_zeros(r.neurons) for r in rt if r.spiking}
        prev_own = {
            r.index: np.zeros(r.neurons, dtype=np.float64)
            for r in rt
            if r.rec_weights is not None
        }
        count_rows: list[np.ndarray] = []
        in_counts: list[int] = []
        spike_cols: list[np.ndarray] = []
        volt_cols: list[np.ndarray] = []
        raster_cols: list[list[np.ndarray]] | None = (
            [[] for _ in range(L)] if record_raster else None
        )

        T_used = T_max
        for t in range(1, T_max + 1):
            row = np.zeros(L, dtype=np.int64)
            if encoded.mode is EncodingMode.POISSON:
                cur = poisson_slice(encoded, t)
                in_counts.append(int(cur.sum()))
            else:
                cur = None
            for r in rt[start:]:
                idx = r.index
                if r.weighted:
                    if idx == start and drive0 is not None:
                        drive = drive0
                    else:
                        ff_events[idx] += int((cur * r.fanout).sum())
                        drive = _weighted_drive(r, cur.astype(np.float64))
                    if r.rec_weights is not None:
                        drive = drive + r.rec_weights @ prev_own[idx]
                    state, spikes = r.step(states[idx], drive, r.spec.neuron_model)
                    _check_finite(state, idx, t)
                    states[idx] = state
                    if r.rec_weights is not None:
                        rec_events[idx] += r.recurrent_fanin * int(spikes.sum())
                        prev_own[idx] = spikes.astype(np.float64)
                    row[idx] = int(spikes.sum())
                    out = spikes.reshape(r.spec.output_shape)
                elif r.spec.kind is LayerKind.MAX_POOL2D:
                    ff_events[idx] += int((cur * r.fanout).sum())
                    out = _pool(cur, r.spec)
                    row[idx] = int(out.sum())
                else:  # flatten: reshape and re-emit
                    out = cur.reshape(-1)
                    row[idx] = int(np.count_nonzero(out))
                if raster_cols is not None:
                    raster_cols[idx].append(np.asarray(out, dtype=bool).reshape(-1))
                cur = out
            count_rows.append(row)
            spike_cols.append(np.asarray(cur, dtype=bool).reshape(-1))
            volt_cols.append(np.asarray(states[last].v_peak, dtype=np.float64).copy())
            if coding is Coding.ROC and row[last] > 0:
                T_used = t
                break

        counts = np.stack(count_rows, axis=1)
        input_counts = (
            np.asarray(in_counts, dtype=np.int64)
            if encoded.mode is EncodingMode.POISSON
            else None
        )
        out_spikes = np.stack(spike_cols, axis=1)
        out_volt = np.stack(volt_cols, axis=1)
        rasters = None
        if raster_cols is not None:  # the static prefix records no steps
            rasters = [
                np.stack(cols, axis=1) if cols else np.zeros((r.neurons, T_used), bool)
                for r, cols in zip(rt, raster_cols)
            ]

        if coding is Coding.ROC:
            decision = decode_roc(out_spikes, out_volt)
        else:
            decision = decode_max_membrane(out_volt)

    analog_events = analog_base * (T_used if encoder_per_step else 1)
    trace = SpikeTrace(
        counts=counts,
        input_counts=input_counts,
        feedforward_events=ff_events,
        recurrent_events=rec_events,
        analog_events=analog_events,
        T_used=T_used,
        layer_neurons=tuple(r.neurons for r in rt),
        n_inputs=prod(net.input_shape),
    )
    energy = _emac.emac_exact(net, trace)
    energy_analytic = _emac.emac_analytic(
        net,
        _emac.rates_from_trace(trace),
        T_used,
        input_mode=encoded.mode,
        encoder_per_step=encoder_per_step,
    )
    return InferenceResult(
        decision=decision,
        trace=trace,
        energy=energy,
        energy_analytic=energy_analytic,
        output_spikes=out_spikes,
        output_voltages=out_volt,
        rasters=rasters,
    )


# ---------------------------------------------------------------------------
# datasets


@dataclass(frozen=True)
class Stat:
    """Population mean and standard deviation (N in the denominator)."""

    mean: float
    std: float


def _stat(values: np.ndarray) -> Stat:
    if values.size == 0:
        return Stat(mean=float("nan"), std=float("nan"))
    return Stat(mean=float(np.mean(values)), std=float(np.std(values)))


#: energy components reduced for every method, network total and per layer
COMPONENTS = ("E_syn", "E_upd", "E_rec", "E_tot")


@dataclass(frozen=True)
class MethodStats:
    """Dataset statistics of one energy view, keyed by component."""

    total: dict[str, Stat]
    per_layer: list[dict[str, Stat]]
    approx_padding: bool


@dataclass(frozen=True)
class SampleOutcome:
    """What a dataset run keeps of one successful sample."""

    T_used: int
    decision: Decision


@dataclass
class AggregateStats:
    """Dataset-level statistics plus each sample's outcome.

    ``outcomes`` is in sample order, with ``None`` for a failed sample.
    ``methods`` maps each energy method name to its statistics.
    ``mean_synaptic_events`` and ``mean_update_count`` are the calibration
    regressors: realized synaptic events and neuron updates per inference,
    each expressed in units of the first spiking layer's kind so that mixed
    stacks still fit a single pair of hardware parameters.
    """

    n_samples: int
    n_ok: int
    failures: list[tuple[int, str]]
    outcomes: list[SampleOutcome | None]
    methods: dict[str, MethodStats]
    per_layer_spikes: list[Stat]
    total_spikes: Stat
    latency: Stat
    mean_synaptic_events: float
    mean_update_count: float
    reference_kind: str | None

    @property
    def emac_exact(self) -> Stat:
        return self.methods[_emac.METHOD_EXACT].total["E_tot"]

    @property
    def emac_analytic(self) -> Stat:
        return self.methods[_emac.METHOD_ANALYTIC].total["E_tot"]


def _reference_params(net: NetworkSpec) -> tuple[str | None, float, float]:
    _, start = static_split(net, EncodingMode.ANALOG)  # first spiking layer
    if start is None:
        return None, 1.0, 1.0
    model = net.layers[start].neuron_model
    return model.kind.value, model.energy.e_syn, model.energy.e_upd


def _sample_scalars(
    result: InferenceResult, counted: np.ndarray, e_syn_ref: float, e_upd_ref: float
) -> Iterator[tuple[object, float]]:
    """``(key, value)`` for every per-sample number a dataset statistic needs."""
    for report in (result.energy, result.energy_analytic):
        yield (report.method, "approx_padding"), report.approx_padding
        for c in COMPONENTS:
            yield (report.method, None, c), getattr(report, c)
            for index, le in enumerate(report.per_layer):
                yield (report.method, index, c), getattr(le, c)
    spikes = result.trace.counts.sum(axis=1)
    for index, count in enumerate(spikes):
        yield ("spikes", index), count
    # flatten rows re-emit upstream spikes; keep them out of the network total
    yield ("spikes", None), spikes[counted].sum()
    yield "T_used", result.trace.T_used
    energy = result.energy
    yield "S", (energy.E_syn + energy.E_rec) / e_syn_ref
    yield "U", energy.E_upd / e_upd_ref


def run_dataset(
    net: NetworkSpec,
    samples: Sequence[EncodedInput],
    *,
    jobs: int = 1,
    t_max: int | None = None,
    coding: Coding | str | None = None,
    encoder_per_step: bool = False,
) -> AggregateStats:
    """Run every sample and aggregate; numeric blow-ups are reported, not hidden.

    Samples are independent, so they may run on a bounded worker pool;
    results are folded in sample order either way, keeping only the
    per-sample scalars behind each statistic. Each statistic is reduced
    once, over a 1-D array in sample order: a running sum or a 2-D
    reduction would change the last bits of the reported moments.
    """
    if len(samples) == 0:
        raise EmptyDataset("the dataset holds no samples")
    one = partial(
        _run_compiled,
        net,
        _compile(net),
        t_max=t_max,
        coding=coding,
        record_raster=False,
        encoder_per_step=encoder_per_step,
    )
    L = len(net.layers)
    counted = np.array([layer.kind is not LayerKind.FLATTEN for layer in net.layers])
    ref_kind, e_syn_ref, e_upd_ref = _reference_params(net)
    columns: dict[object, list] = {}
    outcomes: list[SampleOutcome | None] = []
    failures: list[tuple[int, str]] = []
    with ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        # one call per sample that returns its result, in sample order
        runs = [pool.submit(one, s).result if pool else partial(one, s) for s in samples]
        for index, run in enumerate(runs):
            try:
                result = run()
            except NonFiniteState as exc:
                failures.append((index, str(exc)))
                outcomes.append(None)
                continue
            outcomes.append(SampleOutcome(result.trace.T_used, result.decision))
            for key, value in _sample_scalars(result, counted, e_syn_ref, e_upd_ref):
                columns.setdefault(key, []).append(value)
    if failures:
        logger.warning("%d of %d samples aborted", len(failures), len(samples))

    def stat(key) -> Stat:
        return _stat(np.array(columns.get(key, ()), dtype=np.float64))

    methods = {
        method: MethodStats(
            total={c: stat((method, None, c)) for c in COMPONENTS},
            per_layer=[{c: stat((method, i, c)) for c in COMPONENTS} for i in range(L)],
            approx_padding=any(columns.get((method, "approx_padding"), ())),
        )
        for method in (_emac.METHOD_ANALYTIC, _emac.METHOD_EXACT)
    }
    return AggregateStats(
        n_samples=len(samples),
        n_ok=len(samples) - len(failures),
        failures=failures,
        outcomes=outcomes,
        methods=methods,
        per_layer_spikes=[stat(("spikes", i)) for i in range(L)],
        total_spikes=stat(("spikes", None)),
        latency=stat("T_used"),
        mean_synaptic_events=stat("S").mean,
        mean_update_count=stat("U").mean,
        reference_kind=ref_kind,
    )
