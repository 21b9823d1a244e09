"""Time-stepped inference over a validated network.

Propagation is feedforward within a step: layer ``l`` consumes the spikes
layer ``l-1`` emitted at the same step. Recurrent layers are the
exception; they see their own spikes from the previous step. Under
rank-order coding the run stops at the end of the first step in which the
output layer spikes.

The engine runs those steps as a pipeline of ticks. At tick ``tau`` the
``k``-th spiking layer (counted from the first one that steps) takes its
step ``tau - k``, whose input the layer before it made at the previous
tick, so no layer waits for another within a tick: every active layer's
drive is computed first, and then consecutive spiking layers with one
neuron model (a block) take their steps in one call of the compiled step
function, followed by one finiteness check. A pool or flatten layer runs
in the tick of the spiking layer that feeds it, and one before the first
spiking layer runs in the encoder's. Each neuron still sees the same
operations on the same operands in the same order as in a layer-by-layer
sweep, so the results are bit-identical to one; with ``K`` spiking layers,
a run takes ``K - 1`` more ticks than steps. Every counter, history and
raster is written at the row of its own step. Under rank-order coding the
output layer decides step ``t`` at tick ``t + K - 1``, by which time the
layers before it have run up to ``K - 1`` steps past it: those steps
are never counted. A sample whose state leaves the finite range fails at
its lowest (step, layer), which is known once the output layer has taken
that step; a decision at an earlier step still wins.

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

Compilation happens once per network: on its first run the engine
converts the weight blocks to float64, checks that they are finite and
builds the fan-out maps, and it keeps the result for as long as the
:class:`~emacprof.netspec.NetworkSpec` lives, which cannot change once
built. :func:`run_inference` and :func:`run_dataset`, and through them
every caller, reuse it. The cost is memory: the float64 copy stays next to
the spec's float32 blocks between runs too.

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
spikes yields +0.0, which the step loop writes without a call when the
input's spike count is zero. A float input (the static stage, or an
analog first layer) takes the full matrix-vector product, and so does any
input to a matrix of at most 16384 weights, where the product costs about
what one gather's fixed overhead does; the step loop casts such a layer's
spikes to float64 once for all samples of a group. Both read the one
float64 copy of the weights, stored input-major (see
:func:`~emacprof.netspec.weight_tensor`).
The static stage and the step loop use the same plans, so results do not
depend on which of them evaluates a layer. The event sums add in another
order than a dense product, so with arbitrary weights voltages may differ
from one in the last bit; with sums that are exact (weights that are
multiples of a power of two, say) they are equal.

Samples run in lockstep groups. :func:`run_inference` runs a group of
one, and :func:`run_dataset` runs consecutive groups of samples that share
an encoding mode, in sample order. Within a group, a block's neuron state
and drive buffer hold every sample's row of every layer of the block, flat
and layer by layer, so that the layers active at a tick are one contiguous
range; each neuron step advances that range in place, so one numpy call
serves every sample and layer of the block: on narrow layers the time goes
to dispatching calls, not to arithmetic. The weighted drives stay one call
per sample, through the group's step plan, each written into its row of
the block's drive buffer. One product over the group would add the sums in
another order, and a last-bit change at ``v == v_th`` flips a spike; kept
per sample, every result is bit-identical whatever the group size. Under
rank-order coding a sample that has decided leaves the group with its
counters frozen, and a sample whose state leaves the finite range fails
alone. Every sample keeps its row for the whole run: a sample that leaves
only stops getting drives, decisions and finiteness checks, and nothing
reads its row again, whatever the steps after it write there. A group's
histories (spike counts, the events reaching layers of uneven fan-out,
output spikes and voltages, rasters when recorded) are allocated once at
the step budget, a row per sample; each tick writes every row, and one
loop at the end decodes, traces and prices each sample from its own steps.
A group holds as many samples as a budget of step state and history
allows: the larger of ``_GROUP_STATE_BYTES`` (256 KiB) and the compiled
float64 weights over ``_WEIGHT_BUDGET_SHARE`` (16), since the resident
weights dominate the memory peak. A 784-512-512-256-256-10 stack gets 6
samples a group. Wide convolutional networks get one: batching would make
their steps faster, but their state, next to small weights, would double
the memory peak.

Over a dataset, :func:`run_dataset` keeps each sample's outcome (step
count and decision) and a column of per-layer energies and spike totals,
not the full results, and reduces every statistic once at the end.
"""

from __future__ import annotations

import logging
import weakref
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, groupby
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
    NeuronModelSpec,
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
    #: the fan-out every input shares, or 0 where inputs differ
    even_fanout: int = 0
    #: where inputs differ, each input's fan-out: flat, in input order, and
    #: as narrow as every step's event count allows
    fanout: np.ndarray | None = None
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
            fanout = fanout_map(layer).reshape(-1)
            if (fanout == fanout[0]).all():
                rt.even_fanout = int(fanout[0])
            else:  # int32 where it holds the most events a step can reach
                rt.fanout = fanout.astype(np.int32 if fanout.sum() < 2**31 else np.int64)
        out.append(rt)
    return out


#: each network's compiled layers, kept for as long as the network lives
_COMPILED: weakref.WeakKeyDictionary[NetworkSpec, list[_LayerRT]] = (
    weakref.WeakKeyDictionary()
)


def _compiled(net: NetworkSpec) -> list[_LayerRT]:
    """``net``'s compiled layers: compiled on its first run, then reused.

    Sound because a spec cannot change once validated, and nothing writes
    to compiled layers. Two threads whose first runs race compile twice and
    keep either result; both are the same.
    """
    rt = _COMPILED.get(net)
    if rt is None:
        rt = _COMPILED[net] = _compile(net)
    return rt


def _max_pool(x: np.ndarray, taps: tuple[tuple[slice, ...], ...]) -> np.ndarray:
    # the elementwise max of the window taps; on spikes it is a logical OR
    out = x[taps[0]].copy()
    for tap in taps[1:]:
        np.maximum(out, x[tap], out=out)
    return out


def _step_plan(rt: _LayerRT) -> Callable | None:
    """One group's forward map of a layer, with its buffers built once.

    A weighted layer maps its input to its flat synaptic drive, a pool to
    the pooled tensor; flatten needs no plan. The samples of a group call
    it one after another. A weighted layer's plan takes an optional ``out``,
    a contiguous float64 row that receives the drive (by the same BLAS call
    as without it, so the two are bitwise equal); without ``out`` it
    returns a new array. The buffers belong to one :func:`_step_group`
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

        def conv_drive(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            interior[...] = x
            if out is None:
                return np.dot(weights, columns.reshape(taps, -1)).reshape(-1)
            np.dot(weights, columns.reshape(taps, -1), out=out.reshape(len(weights), -1))
            return out

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
    ``out`` works as in :func:`_step_plan`.
    """
    rows = weights.T
    ones = np.ones(_EVENT_BLOCK)
    small = weights.size <= _EVENT_MIN_WEIGHTS

    def drive(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # np.dot and x.reshape(-1).nonzero() dispatch faster than @ and
        # np.flatnonzero, which a narrow layer notices at every step
        if small or x.dtype != bool:
            return np.dot(weights, x.reshape(-1), out=out)
        idx = x.reshape(-1).nonzero()[0]
        first = idx[:_EVENT_BLOCK]  # empty without spikes: the product is +0.0
        total = np.dot(ones[: first.size], rows.take(first, axis=0), out=out)
        for k in range(_EVENT_BLOCK, idx.size, _EVENT_BLOCK):
            block = idx[k : k + _EVENT_BLOCK]
            total += np.dot(ones[: block.size], rows.take(block, axis=0))
        return total

    return drive


def _each_row(plan: Callable, weights: np.ndarray | None = None) -> Callable:
    """``plan`` applied to rows of a group, as ``drives(x, out, counts, live)``.

    Each row in ``live`` gets its drive by ``x`` written into its row of
    ``out``, one call per row; other rows of ``out`` keep what they hold.
    ``weights`` is a dense-like plan's matrix. Where it sums weight rows for
    spikes (see :func:`_event_drive`), a row whose input has no spikes
    (``counts``) is not summed: its drive is the +0.0 an empty sum gives.
    Where it takes the full product, a boolean input is cast once for all
    rows, to the float64 operand the product casts each row to. Anything else
    (a convolution's plan) gets ``x`` as it is.
    """

    def each(x: np.ndarray, out: np.ndarray, counts: np.ndarray, live: list[int]) -> None:
        for p in live:
            plan(x[p], out=out[p])

    def events(x: np.ndarray, out: np.ndarray, counts: np.ndarray, live: list[int]) -> None:
        counts = counts.tolist()
        for p in live:
            if counts[p]:
                plan(x[p], out=out[p])
            else:
                out[p] = 0.0

    if weights is None:
        return each
    if weights.size > _EVENT_MIN_WEIGHTS:
        return events
    return lambda x, out, counts, live: each(x.astype(np.float64), out, counts, live)


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


@dataclass
class _Block:
    """Consecutive spiking layers of one neuron model, stepped by one call.

    The state arrays and the drive buffer are flat and layer-major: the
    block's ``j``-th layer keeps its ``(rows, neurons)`` values from
    ``rows * cols[j]`` on, a row per sample of the group. The layers of any
    span are then one contiguous range, which one numpy call steps without
    the buffers numpy allocates to iterate a strided 2-D view. ``first`` and
    ``stop`` delimit the layers' positions among the spiking layers.
    """

    first: int
    stop: int
    cols: list[int]
    rows: int
    step: Callable
    model: NeuronModelSpec
    state: NeuronState
    drive: np.ndarray

    def span(self, k: int, stop: int | None = None) -> slice:
        """Where the layers at positions ``k`` to ``stop`` lie (the layer at
        ``k`` alone by default)."""
        stop = k + 1 if stop is None else stop
        lo, hi = self.cols[k - self.first], self.cols[stop - self.first]
        return slice(self.rows * lo, self.rows * hi)


def _blocks(spiking: list[_LayerRT], samples: int) -> list[_Block]:
    """Consecutive spiking layers that share a neuron model, as blocks."""
    blocks = []
    for model, members in groupby(enumerate(spiking), key=lambda m: m[1].spec.neuron_model):
        members = list(members)
        cols = [0, *accumulate(r.neurons for _, r in members)]
        blocks.append(
            _Block(
                first=members[0][0],
                stop=members[-1][0] + 1,
                cols=cols,
                rows=samples,
                step=members[0][1].step,
                model=model,
                state=state_zeros(samples * cols[-1]),
                drive=np.empty(samples * cols[-1]),
            )
        )
    return blocks


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


#: the least budget of step state one lockstep group holds, over all its samples
_GROUP_STATE_BYTES = 1 << 18
#: a network's group budget is at least its compiled weight bytes over this:
#: the weights dominate the memory peak, so a group may grow in proportion
_WEIGHT_BUDGET_SHARE = 16
#: one spiking neuron's share of a sample's step state, as :func:`_blocks`
#: allocates it: current, voltage, half-step voltage, fired flag and drive
_NEURON_STATE_BYTES = sum(a.nbytes for a in (*vars(state_zeros(1)).values(), np.empty(1)))


def _group_size(rt: list[_LayerRT], t_max: int) -> int:
    """How many samples one lockstep group steps together.

    As many as the group budget holds of each sample's neuron state and
    step history, and at least one. The budget is the larger of
    :data:`_GROUP_STATE_BYTES` (256 KiB) and the compiled float64 weights
    over :data:`_WEIGHT_BUDGET_SHARE` (16): the weights stay resident for
    the whole run, so a group of that size raises the memory peak by a few
    percent at most. The history term is exact, since a group allocates its
    histories at the step budget (one step without spiking layers), except
    that a pool of uneven fan-out before the first spiking layer is counted
    as if it stepped; rasters, which only :func:`run_inference` records,
    are not counted. The
    reference workloads get 6 samples a group on ``dense_poisson_roc``
    (784-512-512-256-256-10), 14 on ``mixed_analog_recurrent`` and 1 on
    ``conv_poisson_rate``: a wide convolutional network has small weights
    and much state, and more samples a group, though faster per sample,
    would double its memory peak.
    """
    neurons = sum(r.neurons for r in rt if r.spiking)
    # each step keeps the input's and every layer's spike count, the events
    # reaching each layer of uneven fan-out (but a rectifier, which never
    # steps), and the output layer's voltages and spikes
    uneven = sum(r.fanout is not None for r in rt if r.spiking or not r.weighted)
    counters = len(rt) + 1 + uneven
    history = (t_max if neurons else 1) * (8 * counters + 9 * rt[-1].neurons)
    weight_bytes = sum(
        w.nbytes for r in rt for w in (r.weights, r.rec_weights) if w is not None
    )
    budget = max(_GROUP_STATE_BYTES, weight_bytes // _WEIGHT_BUDGET_SHARE)
    return max(1, budget // (_NEURON_STATE_BYTES * neurons + history))


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
    rt = _compiled(net)
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
    static_ids, start = static_split(net, mode)
    run = _step_group(
        net, rt, samples, static_ids, start,
        T_max=T_max, coding=coding, record_raster=record_raster,
    )
    analog_base = np.array(_emac.static_macs(net, mode), dtype=np.int64)
    rec_fanin = np.array([r.recurrent_fanin for r in rt], dtype=np.int64)
    even_fanout = np.array([r.even_fanout for r in rt], dtype=np.int64)
    for k in range(len(samples)):
        if k in run.failed:
            yield run.failed[k]
            continue
        T = run.T_used[k]
        counts = run.counts[:T, k].T  # (layers + 1, steps)
        out_spikes = run.spikes[:T, k].T.copy()
        out_volt = run.volts[:T, k].T.copy()
        if start is not None and coding is Coding.ROC:
            decision = decode_roc(out_spikes, out_volt)
        else:
            decision = decode_max_membrane(out_volt)
        # an input of a layer whose inputs all reach the same number of
        # neurons books that many events per spike
        ff_events = even_fanout * counts[:-1].sum(axis=1)
        ff_events[run.uneven] += run.events[:T, k].sum(axis=0)
        trace = SpikeTrace(
            counts=counts[1:].copy(),
            input_counts=counts[0].copy() if mode is EncodingMode.POISSON else None,
            feedforward_events=ff_events,
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
            rasters=[h[:T, k].T.copy() for h in run.rasters] if record_raster else None,
        )


@dataclass
class _Histories:
    """What stepping one group leaves: a row per sample, at the step budget.

    Sample ``k``'s steps are ``[:T_used[k], k]``, unless it is in ``failed``.
    ``counts[..., 0]`` are the input's spikes and ``counts[..., l + 1]``
    layer ``l``'s; ``spikes`` and ``volts`` are the output layer's.
    ``events[..., j]`` counts the events that reach layer ``uneven[j]``, one
    whose inputs reach differing numbers of neurons.
    """

    T_used: list[int]
    failed: dict[int, NonFiniteState]
    counts: np.ndarray
    spikes: np.ndarray
    volts: np.ndarray
    rasters: list[np.ndarray]
    events: np.ndarray
    uneven: list[int]


def _step_group(
    net: NetworkSpec,
    rt: list[_LayerRT],
    samples: Sequence[EncodedInput],
    static_ids: list[int],
    start: int | None,
    *,
    T_max: int,
    coding: Coding,
    record_raster: bool,
) -> _Histories:
    """Run the static stage and the time steps of one group (see :func:`_run_group`)."""
    mode = samples[0].mode
    B = len(samples)
    L = len(rt)

    # The stepped layers: the spiking ones, in order, and the stateless layers
    # each feeds; tails[0] are those the encoder feeds, tails[k + 1] those
    # after spiking layer k. Spiking layer k reads its input from tails[k].
    stepped = rt[start:] if start is not None else []
    spiking = [r for r in stepped if r.spiking]
    K = len(spiking)
    tails: list[list[_LayerRT]] = [[]]
    for r in stepped:
        if r.spiking:
            tails.append([])
        else:
            tails[-1].append(r)
    # one plan per layer, which every row of the group calls in turn, and by
    # position among the spiking layers, the drive of every row
    plans = [_step_plan(r) for r in rt]
    ff_drives = [
        _each_row(plans[r.index], None if r.spec.kind is LayerKind.CONV2D else r.weights)
        for r in spiking
    ]
    rec_drives = {
        k: _each_row(_event_drive(r.rec_weights), r.rec_weights)
        for k, r in enumerate(spiking)
        if r.rec_weights is not None
    }
    # Histories, allocated at the step budget: sample k's steps are
    # [:T_used[k], k]. A static-only network runs one step, whose output
    # voltages are its head activation.
    steps = T_max if start is not None else 1
    count_hist = np.zeros((steps, B, L + 1), dtype=np.int64)  # [..., 0]: the input
    spike_hist = np.zeros((steps, B, rt[-1].neurons), dtype=bool)
    volt_hist = np.zeros((steps, B, rt[-1].neurons))
    raster_hist = [np.zeros((steps, B, r.neurons), bool) for r in rt if record_raster]
    # the events that reach layers of uneven fan-out, one column each
    uneven = [r.index for r in stepped if r.fanout is not None]
    ff_hist = np.zeros((steps, B, len(uneven)), dtype=np.int64)
    ff_col = {index: j for j, index in enumerate(uneven)}
    T_used = [1] * B
    failed: dict[int, NonFiniteState] = {}
    live: list[int] = []  # group rows still stepping, in order
    poisson = mode is EncodingMode.POISSON
    # the analog-fed first layer's drive, the same at every step
    drive0 = np.zeros((B, rt[start].neurons)) if start is not None and not poisson else None
    # Overflow is expected where a sample leaves the finite range, and the
    # checks below report it per sample, so numpy stays quiet.
    with np.errstate(over="ignore", invalid="ignore"):
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
            if drive0 is not None:
                plans[start](x, out=drive0[k])
            live.append(k)

        # Below, arrays hold a row per sample of the group, which keeps its
        # place for the whole run: a sample that decides or fails leaves
        # ``live``, and nothing reads its row again, so past its last step
        # the row's state, drives and histories may hold anything. Each live
        # sample's drive is its own call, so its sums add up in the same order
        # whatever the group size; the neuron steps, the counters and the
        # history writes serve all rows at once.
        x_in = np.zeros((B, *net.input_shape), dtype=bool) if poisson else None
        blocks = _blocks(spiking, B)
        block_of = [b for b in blocks for _ in range(b.first, b.stop)]
        drives = [
            b.drive[b.span(k)].reshape(B, spiking[k].neurons) for k, b in enumerate(block_of)
        ]
        # one buffer serves every recurrent term, each added as soon as made
        rec_buf = np.empty(B * max((spiking[k].neurons for k in rec_drives), default=0))
        recs = {
            k: rec_buf[: B * spiking[k].neurons].reshape(B, spiking[k].neurons)
            for k in rec_drives
        }
        out_volt = block_of[-1].state.v_peak[block_of[-1].span(K - 1)].reshape(
            B, rt[-1].neurons
        ) if K else None
        no_counts = np.zeros(B, dtype=np.int64)
        spans: dict[tuple[int, int, int], tuple] = {}  # per active span of a block
        # feed[k]: spiking layer k's input for its next step; own[k]: a
        # recurrent layer's spikes of its latest step
        feed: list[np.ndarray | None] = [None] * K
        own = {k: np.zeros((B, spiking[k].neurons), dtype=bool) for k in rec_drives}
        # a live row's lowest non-finite (step, layer) so far
        pending: dict[int, tuple[int, int]] = {}

        def emit(j: int, x: np.ndarray, count, s: int) -> np.ndarray:
            """Run the stateless layers ``tails[j]`` on a step-``s`` output."""
            for r in tails[j]:
                if r.spec.kind is LayerKind.MAX_POOL2D:
                    if r.fanout is not None:
                        ff_hist[s - 1, :, ff_col[r.index]] = _synaptic_events(r, x)
                    x = _max_pool(x, r.pool_taps)
                    count = _spike_counts(x)
                else:  # flatten: reshape and re-emit
                    x = x.reshape(B, -1)
                count_hist[s - 1, :, r.index + 1] = count
                if record_raster:
                    raster_hist[r.index][s - 1] = x.reshape(B, -1)
            return x

        # Tick tau advances spiking layer k by step tau - k: every drive reads
        # outputs of the previous tick (the first layer's, the encoder's of
        # this one), so each block steps all its active layers at once.
        for tau in range(1, T_max + K):
            if not live:
                break
            lo, hi = max(0, tau - T_max), min(K, tau)  # the active positions
            # this tick's spikes; the last tick's live on in feed and own only
            out: list[np.ndarray | None] = [None] * K
            x = spikes = None
            if poisson and tau <= T_max:
                for k in live:
                    x_in[k] = poisson_slice(samples[k], tau)
                count = _spike_counts(x_in)
                count_hist[tau - 1, :, 0] = count
                feed[0] = emit(0, x_in, count, tau)
            for k in range(lo, hi):
                r, s, drive = spiking[k], tau - k, drives[k]
                if k == 0 and drive0 is not None:
                    base = drive0
                else:
                    x = feed[k]
                    if r.fanout is not None:
                        ff_hist[s - 1, :, ff_col[r.index]] = _synaptic_events(r, x)
                    ff_drives[k](x, drive, count_hist[s - 1, :, r.index], live)
                    base = drive
                if k in rec_drives:
                    rec_drives[k](
                        own[k], recs[k],
                        count_hist[s - 2, :, r.index + 1] if s > 1 else no_counts, live,
                    )
                    np.add(base, recs[k], out=drive)
                elif base is not drive:
                    np.copyto(drive, base)
            for j, b in enumerate(blocks):
                first, stop = max(lo, b.first), min(hi, b.stop)
                if first >= stop:
                    continue
                view = spans.get((j, first, stop))
                if view is None:
                    span = b.span(first, stop)
                    st = b.state
                    view = spans[j, first, stop] = (
                        NeuronState(
                            i=st.i[span], v=st.v[span],
                            has_spiked=st.has_spiked[span], v_peak=st.v_peak[span],
                        ),
                        b.drive[span],
                        [  # each layer's part of the span
                            slice(b.span(k).start - span.start, b.span(k).stop - span.start)
                            for k in range(first, stop)
                        ],
                    )
                state, drive, parts = view
                spikes = b.step(state, drive, b.model)
                # a non-finite current makes the half-step voltage non-finite,
                # and the reset only subtracts a finite threshold
                if not np.isfinite(state.v_peak).all():
                    for k, part in enumerate(parts, first):
                        v_peak = state.v_peak[part].reshape(B, -1)[live]
                        bad_rows = ~np.isfinite(v_peak).all(axis=1)
                        for p in np.flatnonzero(bad_rows).tolist():
                            found = (tau - k, spiking[k].index)
                            pending[live[p]] = min(pending.get(live[p], found), found)
                for k, part in enumerate(parts, first):
                    out[k] = spikes[part].reshape(B, -1)
            for k in range(lo, hi):
                r, s, x = spiking[k], tau - k, out[k]
                count = _spike_counts(x)
                count_hist[s - 1, :, r.index + 1] = count
                if record_raster:
                    raster_hist[r.index][s - 1] = x
                if k in own:
                    own[k] = x
                if k + 1 < K:
                    feed[k + 1] = emit(k + 1, x.reshape(B, *r.spec.output_shape), count, s)
            t = tau - K + 1  # the output layer's step
            if t < 1:
                continue
            spike_hist[t - 1] = out[-1]
            volt_hist[t - 1] = out_volt

            # A sample fails at its lowest non-finite (step, layer), known once
            # the output layer has taken that step, unless it decided earlier.
            leaving = {k for k, (step, _) in pending.items() if step <= t}
            if t == T_max:
                leaving.update(live)
            elif coding is Coding.ROC:  # the rows whose output layer spiked
                spiked = count_hist[t - 1, :, L].tolist()
                leaving.update(k for k in live if spiked[k])
            if not leaving:
                continue
            for k in leaving:
                if k in pending and pending[k][0] <= t:
                    step, index = pending[k]
                    failed[k] = NonFiniteState(
                        f"layer {index} left the finite range at step {step}; "
                        "check the weights and the integration step"
                    )
                else:
                    T_used[k] = t
                pending.pop(k, None)
            live = [k for k in live if k not in leaving]

    return _Histories(
        T_used, failed, count_hist, spike_hist, volt_hist, raster_hist, ff_hist, uneven
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

    Compilation happens once per network (see :func:`_compiled`), and the
    samples run in lockstep groups. Each success keeps its outcome and one
    column of ``kept``; each method's columns make one energy report, whose
    own totals add them as a report adds one sample's values. Each statistic
    is reduced once, over a 1-D array in sample order: a running sum or a 2-D
    reduction would change the last bits of the reported moments.
    """
    if len(samples) == 0:
        raise EmptyDataset("the dataset holds no samples")
    rt = _compiled(net)
    coding, T_max = _settings(net, t_max, coding)
    size = _group_size(rt, T_max)
    # flatten rows re-emit upstream spikes; keep them out of the network total
    counted = np.array([layer.kind is not LayerKind.FLATTEN for layer in net.layers])
    ref_kind, e_syn_ref, e_upd_ref = _reference_params(net)
    # kept[l, :, k]: sample k's layer l: exact, analytic (E_syn, E_upd, E_rec), spikes
    kept = np.empty((len(net.layers), 7, len(samples)))
    reports: tuple[_emac.EnergyReport, ...] = ()  # the last success's
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
        reports = (result.energy, result.energy_analytic)
        kept[:, :, index] = [
            (e.E_syn, e.E_upd, e.E_rec, a.E_syn, a.E_upd, a.E_rec, s) for e, a, s in
            zip(*(r.per_layer for r in reports), result.trace.counts.sum(axis=1))
        ]
    if failures:
        logger.warning("%d of %d samples aborted", len(failures), len(samples))

    kept = kept[..., [o is not None for o in outcomes]]
    T_used = np.array([o.T_used for o in outcomes if o is not None], dtype=np.float64)
    analytic, exact = (
        _emac.EnergyReport(
            method=method,
            T_used=T_used,
            per_layer=tuple(
                _emac.LayerEnergy(net.layer_name(i), layer.kind.value, *kept[i, j : j + 3])
                for i, layer in enumerate(net.layers)
            ),
            approx_padding=any(r.approx_padding for r in reports if r.method == method),
        )
        for method, j in ((_emac.METHOD_ANALYTIC, 3), (_emac.METHOD_EXACT, 0))
    )
    methods = {
        report.method: MethodStats(
            total={c: _stat(getattr(report, c)) for c in COMPONENTS},
            per_layer=[
                {c: _stat(getattr(le, c)) for c in COMPONENTS} for le in report.per_layer
            ],
            approx_padding=report.approx_padding,
        )
        for report in (analytic, exact)
    }
    return AggregateStats(
        n_samples=len(samples),
        n_ok=len(samples) - len(failures),
        failures=failures,
        outcomes=outcomes,
        methods=methods,
        per_layer_spikes=[_stat(spikes) for spikes in kept[:, 6]],
        total_spikes=_stat(kept[counted, 6].sum(axis=0)),
        latency=_stat(exact.T_used),
        mean_synaptic_events=_stat(exact.E_syn_plus_rec / e_syn_ref).mean,
        mean_update_count=_stat(exact.E_upd / e_upd_ref).mean,
        reference_kind=ref_kind,
    )
