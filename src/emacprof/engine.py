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
incompatible with that stage and are rejected. A network with no spiking
layer is a run of one step, whose output voltages are its head activation.

Alongside the dynamics the engine keeps exact integer event counters:

* ``feedforward_events[l]``: for every presynaptic spike, the number of
  layer-``l`` neurons it actually reaches (border positions of a
  convolution reach fewer than interior ones; where every input reaches
  the same number, as in a dense layer, that number times the upstream
  spike count);
* ``recurrent_events[l]``: each spike a recurrent layer emits books its
  all-to-all recurrent fan-out at emission time;
* ``analog_events[l]``: statically evaluated weighted sums, counted once
  per inference, or once per executed step when the encoder is priced
  per step.

These counters, the per-step spike counts, and the step budget actually
used are what the energy accounting consumes.

Before it runs, each group of samples builds a step plan: one forward
map per layer, with whatever it needs allocated once, which every sample
of the group calls in turn. A convolution writes its input into the
interior of a zero-padded buffer and multiplies the kernel rows with a
fixed window view of that buffer (the im2col product);
a pool takes the elementwise maximum of precomputed strided slices, one
per window tap. A dense-like layer (dense, locally connected, and the
recurrent term of a recurrent layer) is driven by events: for a boolean
spike input it adds up the weight rows of the inputs that spiked, in
blocks of at most 64 rows, so the cost follows the spike count and the
temporary stays at 64 rows whatever the spike rate; a step with no input
spikes yields +0.0. A float input (the static stage, or an analog first
layer) takes the full matrix-vector product, and so does any input to a
matrix of at most 16384 weights, where the product costs about what one
gather's fixed overhead does. Both read the one float64 copy of the
weights, stored input-major (see :func:`~emacprof.netspec.weight_tensor`).
The static stage and the step loop use the same plans, so results do not
depend on which of them evaluates a layer. The event sums add in another
order than a dense product, so with arbitrary weights voltages may differ
from one in the last bit; with sums that are exact (weights that are
multiples of a power of two, say) they are equal.

Samples run in lockstep groups. :func:`run_inference` runs a group of
one, and :func:`run_dataset` runs consecutive groups of samples that share
an encoding mode, in sample order. Within a group, neuron state, spike
counts, the finiteness check and the recurrent spike memory are
``(samples, neurons)`` arrays, and each neuron step advances them in
place, so one numpy call serves every sample: on a narrow layer the time
goes to dispatching calls, not to arithmetic. The weighted drives stay one
call per sample, through the group's step plan. One product over the
group would add the sums in another order, and a last-bit change at
``v == v_th`` flips a spike; kept per sample, every result is bit-identical
whatever the group size. Under rank-order coding a sample that has decided
leaves the group with its counters frozen, and a sample whose state leaves
the finite range fails alone. A group's histories (spike counts, output
spikes and voltages, rasters when recorded) are allocated once at the step
budget, a row per sample; each step writes its live rows, and one loop at
the end decodes, traces and prices every sample. A group holds as many
samples as a budget of step state and history allows
(``_GROUP_STATE_BYTES``, 256 KiB). Wide convolutional networks get one
sample per group: their state would raise the memory peak, and their wide
steps gain little from batching.

Over a dataset, :func:`run_dataset` keeps each sample's outcome (step
count and decision) and the per-sample scalars its statistics need, not
the full results, and reduces every statistic once at the end.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial
from itertools import chain
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
    NeuronState,
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
    recurrent_fanin: int
    weighted: bool
    spiking: bool
    #: 2-D: (neurons, inputs), column-major, or (C_out, C_in * kh * kw) for
    #: a convolution
    weights: np.ndarray | None = None
    #: (neurons, neurons), column-major
    rec_weights: np.ndarray | None = None
    #: flat, in input order
    fanout: np.ndarray | None = None
    #: the fan-out every input shares, or 0 where inputs differ
    even_fanout: int = 0
    #: pooling: one strided slice of the input per window tap
    pool_taps: tuple[tuple[slice, ...], ...] = ()
    step: Callable | None = None


def _window_taps(layer: LayerSpec) -> tuple[tuple[slice, ...], ...]:
    (kh, kw), (sh, sw) = layer.kernel, layer.stride
    _, oh, ow = layer.output_shape
    return tuple(
        (
            Ellipsis,  # any leading (sample, channel) axes
            slice(dy, dy + sh * (oh - 1) + 1, sh),
            slice(dx, dx + sw * (ow - 1) + 1, sw),
        )
        for dy in range(kh)
        for dx in range(kw)
    )


def _compile(net: NetworkSpec) -> list[_LayerRT]:
    out = []
    for index, layer in enumerate(net.layers):
        counts = layer_counts(layer)
        rt = _LayerRT(
            spec=layer,
            index=index,
            neurons=counts.neurons,
            recurrent_fanin=counts.recurrent_fanin,
            weighted=layer.kind in WEIGHTED_KINDS,
            spiking=(
                layer.kind in WEIGHTED_KINDS and layer.neuron_model.kind.spiking
            ),
        )
        if rt.weighted:
            weights = weight_tensor(net, index)
            rt.weights = weights.reshape(weights.shape[0], -1)
            if layer.kind is LayerKind.RECURRENT_DENSE:
                rt.rec_weights = recurrent_weight_tensor(net, index)
            if rt.spiking:
                rt.step = step_fn(layer.neuron_model.kind)
        if layer.kind is LayerKind.MAX_POOL2D:
            rt.pool_taps = _window_taps(layer)
        if layer.kind is not LayerKind.FLATTEN:
            rt.fanout = fanout_map(layer).reshape(-1)
            if (rt.fanout == rt.fanout[0]).all():
                rt.even_fanout = int(rt.fanout[0])
        out.append(rt)
    return out


def _max_pool(x: np.ndarray, taps: tuple[tuple[slice, ...], ...]) -> np.ndarray:
    # the elementwise max of the window taps; on spikes it is a logical OR
    out = x[taps[0]].copy()
    for tap in taps[1:]:
        np.maximum(out, x[tap], out=out)
    return out


def _step_plan(rt: _LayerRT) -> Callable[[np.ndarray], np.ndarray] | None:
    """One group's forward map of a layer, with its buffers built once.

    A weighted layer maps its input to its flat synaptic drive, a pool to
    the pooled tensor; flatten needs no plan. The samples of a group call
    it one after another. The buffers belong to one :func:`_run_group`
    call, not to ``rt``, so compiled layers stay read-only and one compiled
    network can serve any number of calls.
    """
    layer = rt.spec
    if layer.kind is LayerKind.MAX_POOL2D:
        return partial(_max_pool, taps=rt.pool_taps)
    if not rt.weighted:
        return None
    weights = rt.weights
    if layer.kind is LayerKind.CONV2D:
        c, h, w = layer.input_shape
        p = layer.padding
        padded = np.zeros((c, h + 2 * p, w + 2 * p))
        interior = padded[:, p : p + h, p : p + w]
        (kh, kw), (sh, sw) = layer.kernel, layer.stride
        view = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(1, 2))
        # (C, kh, kw, oh, ow): reshaped, the (taps, positions) im2col matrix
        columns = view[:, ::sh, ::sw].transpose(0, 3, 4, 1, 2)
        taps = weights.shape[1]

        def conv_drive(x: np.ndarray) -> np.ndarray:
            interior[...] = x
            return np.dot(weights, columns.reshape(taps, -1)).reshape(-1)

        return conv_drive
    return _event_drive(weights)


#: most weight rows one event-driven product gathers
_EVENT_BLOCK = 64
#: a matrix of at most this many weights takes the full product even for
#: spikes: that costs about what one gather's fixed overhead does
_EVENT_MIN_WEIGHTS = 1 << 14


def _event_drive(weights: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Drive of a column-major ``(neurons, inputs)`` matrix.

    A boolean input sums the rows of ``weights.T`` (one per input, each
    contiguous) picked by its spikes; a float input, or any input to a
    matrix of at most ``_EVENT_MIN_WEIGHTS`` weights, takes ``weights @ x``.
    """
    rows = weights.T
    ones = np.ones(_EVENT_BLOCK)
    small = weights.size <= _EVENT_MIN_WEIGHTS

    def drive(x: np.ndarray) -> np.ndarray:
        # np.dot and x.reshape(-1).nonzero() dispatch faster than @ and
        # np.flatnonzero, which a narrow layer notices at every step
        if small or x.dtype != bool:
            return np.dot(weights, x.reshape(-1))
        idx = x.reshape(-1).nonzero()[0]
        first = idx[:_EVENT_BLOCK]  # empty without spikes: the product is +0.0
        total = np.dot(ones[: first.size], rows.take(first, axis=0))
        for k in range(_EVENT_BLOCK, idx.size, _EVENT_BLOCK):
            block = idx[k : k + _EVENT_BLOCK]
            total += np.dot(ones[: block.size], rows.take(block, axis=0))
        return total

    return drive


def _synaptic_events(rt: _LayerRT, spikes: np.ndarray) -> np.ndarray:
    """Realized connections the spikes entering layer ``rt`` reach, per sample."""
    return np.dot(spikes.reshape(-1, rt.fanout.size), rt.fanout)


def _spike_counts(x: np.ndarray) -> np.ndarray | int:
    """Spikes in each row of a boolean ``(samples, ...)`` array.

    One row gives a plain count, which broadcasts the same way.
    """
    if len(x) == 1:  # count_nonzero along an axis costs several times more
        return np.count_nonzero(x)
    return np.add.reduce(x.reshape(len(x), -1), axis=1)


def _stacked(rows: list[np.ndarray]) -> np.ndarray:
    """Equally shaped per-sample arrays as one ``(samples, ...)`` array."""
    return rows[0][np.newaxis] if len(rows) == 1 else np.array(rows)


def _per_row(fn: Callable, x: np.ndarray) -> np.ndarray:
    """``fn`` of each row of ``x``, as one ``(rows, ...)`` array.

    Rows are taken by index: running a numpy array's iterator to its end
    raises and discards an IndexError, about a microsecond that a group of
    one would pay at every layer and step.
    """
    return _stacked([fn(x[p]) for p in range(len(x))])


def _static_stage(
    rt: list[_LayerRT], plans: list, static_ids: list[int], x: np.ndarray
) -> np.ndarray:
    for idx in static_ids:
        layer = rt[idx].spec
        if layer.kind is LayerKind.FLATTEN:
            x = x.reshape(-1)
        elif layer.kind is LayerKind.MAX_POOL2D:
            x = plans[idx](x)
        else:
            x = ann_activation(plans[idx](x), layer.neuron_model)
            x = x.reshape(layer.output_shape)
        if not np.isfinite(x).all():
            raise NonFiniteState(
                f"layer {idx} produced non-finite values in the static stage"
            )
    return x


#: the most bytes of step state one lockstep group holds, over all its samples
_GROUP_STATE_BYTES = 1 << 18
#: one spiking neuron's share of a sample's step state: current, voltage and
#: half-step voltage (float64), its fired flag, and drive temporaries
_NEURON_STATE_BYTES = 32


def _group_size(rt: list[_LayerRT], t_max: int) -> int:
    """How many samples one lockstep group steps together.

    As many as :data:`_GROUP_STATE_BYTES` holds of each sample's neuron
    state and step history, and at least one. The history term is exact,
    since a group allocates its histories at the step budget (one step
    without spiking layers); rasters, which only :func:`run_inference`
    records, are not counted. Wide convolutional networks get one: their
    wide steps gain little from batching, and their state would raise the
    memory peak.
    """
    neurons = sum(r.neurons for r in rt if r.spiking)
    # each step keeps the input's and every layer's spike count, and the
    # output layer's voltages and spikes
    history = (t_max if neurons else 1) * (8 * (len(rt) + 1) + 9 * rt[-1].neurons)
    return max(1, _GROUP_STATE_BYTES // (_NEURON_STATE_BYTES * neurons + history))


def _settings(
    net: NetworkSpec, t_max: int | None, coding: Coding | str | None
) -> tuple[Coding, int]:
    coding = Coding(coding) if coding is not None else net.coding
    T_max = int(t_max) if t_max is not None else net.max_timesteps
    if T_max < 1:
        raise SchemaError(f"the step budget must be >= 1, got {T_max}")
    return coding, T_max


def run_inference(
    net: NetworkSpec,
    encoded: EncodedInput,
    *,
    t_max: int | None = None,
    coding: Coding | str | None = None,
    record_raster: bool = False,
    encoder_per_step: bool = False,
) -> InferenceResult:
    """Simulate one sample and account for every event it generates.

    With ``record_raster``, every layer's ``(neurons, T_used)`` spike raster
    is kept; like the other histories it is allocated at the step budget.
    """
    rt = _compile(net)
    coding, T_max = _settings(net, t_max, coding)
    (result,) = _run_group(
        net,
        rt,
        [encoded],
        T_max=T_max,
        coding=coding,
        record_raster=record_raster,
        encoder_per_step=encoder_per_step,
    )
    if isinstance(result, NonFiniteState):
        raise result
    return result


def _run_group(
    net: NetworkSpec,
    rt: list[_LayerRT],
    samples: Sequence[EncodedInput],
    *,
    T_max: int,
    coding: Coding,
    record_raster: bool,
    encoder_per_step: bool,
) -> Iterator[InferenceResult | NonFiniteState]:
    """Step samples of one encoding mode in lockstep; yield each one's result.

    Results come in sample order; a sample whose state leaves the finite
    range yields its :class:`NonFiniteState` instead. Any other error is
    raised for the first sample that causes it.
    """
    mode = samples[0].mode
    B = len(samples)
    L = len(rt)
    static_ids, start = static_split(net, mode)
    analog_base = np.array(_emac.static_macs(net, mode), dtype=np.int64)
    rec_fanin = np.array([r.recurrent_fanin for r in rt], dtype=np.int64)
    even_fanout = np.array([r.even_fanout for r in rt], dtype=np.int64)

    # one plan per layer, which every row of the group calls in turn
    plans = [_step_plan(r) for r in rt]
    recurrent = {
        r.index: _event_drive(r.rec_weights) for r in rt if r.rec_weights is not None
    }
    # Histories, allocated at the step budget: sample k's steps are
    # [:T_used[k], k]. A static-only network runs one step, whose output
    # voltages are its head activation.
    steps = T_max if start is not None else 1
    count_hist = np.zeros((steps, B, L + 1), dtype=np.int64)  # [..., 0]: the input
    spike_hist = np.zeros((steps, B, rt[-1].neurons), dtype=bool)
    volt_hist = np.zeros((steps, B, rt[-1].neurons))
    raster_hist = [np.zeros((steps, B, r.neurons), bool) for r in rt if record_raster]
    ff_events = np.zeros((L, B), dtype=np.int64)  # layers of uneven fan-out
    T_used = [1] * B
    failed: dict[int, NonFiniteState] = {}
    live: list[int] = []  # group rows still stepping, in order
    firsts: list[np.ndarray] = []  # per live row: the static result, or drive0
    for k, encoded in enumerate(samples):
        if tuple(encoded.values.shape) != net.input_shape:
            raise ShapeMismatch(
                f"input tensor shape {tuple(encoded.values.shape)} does not match "
                f"the network input {net.input_shape}"
            )
        try:
            x = _static_stage(rt, plans, static_ids, encoded.values)
        except NonFiniteState as exc:
            failed[k] = exc
            continue
        if start is None:
            volt_hist[0, k] = x.reshape(-1)
            continue
        if mode is EncodingMode.ANALOG:
            x = plans[start](x)
        live.append(k)
        firsts.append(x)

    # Below, arrays hold one row per live sample, in group order, and
    # ``rows`` picks their group rows: a plain slice while none has left,
    # since a fancy index costs several times more per write. Each
    # sample's drive is its own call, so its sums add up in the same order
    # whatever the group size; the neuron step, the counters and the checks
    # serve all rows at once.
    n = len(live)
    rows = slice(None) if n == B else np.array(live, dtype=np.intp)
    poisson = mode is EncodingMode.POISSON
    drive0 = None if poisson else np.array(firsts)
    del firsts
    states = {r.index: state_zeros((n, r.neurons)) for r in rt if r.spiking}
    prev_own = {idx: np.zeros((n, rt[idx].neurons), dtype=bool) for idx in recurrent}

    for t in range(1, T_max + 1):
        if not live:
            break
        counts = np.zeros((L + 1, n), dtype=np.int64)  # row 0: the input
        if poisson:
            cur = _stacked([poisson_slice(samples[k], t) for k in live])
            counts[0] = _spike_counts(cur)
        else:
            cur = None
        bad: dict[int, NonFiniteState] = {}  # by live position
        for r in rt[start:]:
            idx = r.index
            if r.weighted:
                if cur is None:  # the analog-fed first spiking layer
                    drive = drive0
                else:
                    if not r.even_fanout:
                        ff_events[idx, rows] += _synaptic_events(r, cur)
                    drive = _per_row(plans[idx], cur)
                if idx in recurrent:
                    drive = drive + _per_row(recurrent[idx], prev_own[idx])
                state, spikes = r.step(
                    states[idx], drive, r.spec.neuron_model, out=states[idx]
                )
                # a non-finite current makes the half-step voltage non-finite,
                # and the reset only subtracts a finite threshold
                if not np.isfinite(state.v_peak).all():
                    bad_rows = ~np.isfinite(state.v_peak).all(axis=1)
                    for p in np.flatnonzero(bad_rows).tolist():
                        bad.setdefault(p, NonFiniteState(
                            f"layer {idx} left the finite range at step {t}; "
                            "check the weights and the integration step"
                        ))
                if idx in recurrent:
                    prev_own[idx] = spikes
                out = spikes.reshape(n, *r.spec.output_shape)
            elif r.spec.kind is LayerKind.MAX_POOL2D:
                if not r.even_fanout:
                    ff_events[idx, rows] += _synaptic_events(r, cur)
                out = _max_pool(cur, r.pool_taps)
            else:  # flatten: reshape and re-emit
                out = cur.reshape(n, -1)
            counts[idx + 1] = _spike_counts(out)
            if record_raster:
                raster_hist[idx][t - 1, rows] = out.reshape(n, -1)
            cur = out
        count_hist[t - 1, rows] = counts.T
        spike_hist[t - 1, rows] = cur.reshape(n, -1)
        volt_hist[t - 1, rows] = states[L - 1].v_peak

        leaving = set(bad)
        if t == T_max:
            leaving.update(range(n))
        elif coding is Coding.ROC:
            leaving.update(np.flatnonzero(counts[L]).tolist())
        if not leaving:
            continue
        for p in leaving:
            if p in bad:
                failed[live[p]] = bad[p]
            else:
                T_used[live[p]] = t
        keep = [p for p in range(n) if p not in leaving]
        n = len(keep)
        live = [live[p] for p in keep]
        rows = np.array(live, dtype=np.intp)
        if drive0 is not None:
            drive0 = drive0[keep]
        for index, st in states.items():
            states[index] = NeuronState(
                i=st.i[keep], v=st.v[keep], has_spiked=st.has_spiked[keep],
                v_peak=st.v_peak[keep],
            )
        for index in prev_own:
            prev_own[index] = prev_own[index][keep]

    # a generator keeps its locals until it ends: drop the step state
    del states, prev_own, plans, recurrent, drive0
    for k in range(B):
        if k in failed:
            yield failed[k]
            continue
        T = T_used[k]
        counts = count_hist[:T, k].T  # (layers + 1, steps)
        out_spikes = spike_hist[:T, k].T.copy()
        out_volt = volt_hist[:T, k].T.copy()
        if start is not None and coding is Coding.ROC:
            decision = decode_roc(out_spikes, out_volt)
        else:
            decision = decode_max_membrane(out_volt)
        trace = SpikeTrace(
            counts=counts[1:].copy(),
            input_counts=counts[0].copy() if poisson else None,
            # an input of a layer whose inputs all reach the same number of
            # neurons books that many events per spike
            feedforward_events=ff_events[:, k] + even_fanout * counts[:-1].sum(axis=1),
            # each spike books its layer's recurrent fan-out
            recurrent_events=rec_fanin * counts[1:].sum(axis=1),
            analog_events=analog_base * (T if encoder_per_step else 1),
            T_used=T,
            layer_neurons=tuple(r.neurons for r in rt),
            n_inputs=prod(net.input_shape),
        )
        yield InferenceResult(
            decision=decision,
            trace=trace,
            energy=_emac.emac_exact(net, trace),
            energy_analytic=_emac.emac_analytic(
                net,
                _emac.rates_from_trace(trace),
                T,
                input_mode=mode,
                encoder_per_step=encoder_per_step,
            ),
            output_spikes=out_spikes,
            output_voltages=out_volt,
            rasters=[h[:T, k].T.copy() for h in raster_hist] if record_raster else None,
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


def _groups(
    samples: Sequence[EncodedInput], size: int
) -> Iterator[list[EncodedInput]]:
    """Consecutive runs of at most ``size`` samples that share an encoding mode."""
    group: list[EncodedInput] = []
    for sample in samples:
        if group and (len(group) == size or sample.mode is not group[0].mode):
            yield group
            group = []
        group.append(sample)
    yield group


def run_dataset(
    net: NetworkSpec,
    samples: Sequence[EncodedInput],
    *,
    t_max: int | None = None,
    coding: Coding | str | None = None,
    encoder_per_step: bool = False,
) -> AggregateStats:
    """Run every sample and aggregate; numeric blow-ups are reported, not hidden.

    The network is compiled once and the samples run in lockstep groups,
    keeping only the per-sample scalars behind each statistic. Each
    statistic is reduced once, over a 1-D array in sample order: a running
    sum or a 2-D reduction would change the last bits of the reported
    moments.
    """
    if len(samples) == 0:
        raise EmptyDataset("the dataset holds no samples")
    rt = _compile(net)
    coding, T_max = _settings(net, t_max, coding)
    size = _group_size(rt, T_max)
    L = len(net.layers)
    counted = np.array([layer.kind is not LayerKind.FLATTEN for layer in net.layers])
    ref_kind, e_syn_ref, e_upd_ref = _reference_params(net)
    columns: dict[object, list] = {}
    outcomes: list[SampleOutcome | None] = []
    failures: list[tuple[int, str]] = []
    results = chain.from_iterable(
        _run_group(
            net,
            rt,
            group,
            T_max=T_max,
            coding=coding,
            record_raster=False,
            encoder_per_step=encoder_per_step,
        )
        for group in _groups(samples, size)
    )
    for index, result in enumerate(results):
        if isinstance(result, NonFiniteState):
            failures.append((index, str(result)))
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
