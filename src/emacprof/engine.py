"""Time-stepped inference over a validated network.

Propagation is feedforward within a step: layer ``l`` consumes the spikes
layer ``l-1`` fired at the same step. Recurrent layers are the
exception; they see their own spikes from the previous step. Under
rank-order coding the run stops at the end of the first step in which the
output layer spikes.

The engine runs those steps as a pipeline of ticks. At tick ``tau`` the
``k``-th spiking layer (counted from the first one that steps) takes its
step ``tau - k``, whose input the layer before it made at the previous
tick, so no layer waits for another within a tick: every active layer's
drive is computed first, and then consecutive spiking layers with one
neuron model (a block) take their steps in one call of the compiled step
function, followed by one finiteness check: one sum of the block's
half-step voltages, which a NaN or an infinity always reaches, and which
sends the tick to a per-row scan only when it is not finite (finite
voltages whose sum overflows do too, and the scan finds no row there). A
pool or flatten layer runs in the tick of the spiking layer before it, and
one before the first spiking layer runs in the encoder's. Each neuron still
sees the same operations on the same operands in the same order as in a
layer-by-layer sweep, so the results are bit-identical to one; with ``K``
spiking layers, a run takes ``K - 1`` more ticks than steps. Every counter,
history and raster is written at the row of its own step. Under rank-order
coding the output layer decides step ``t`` at tick ``t + K - 1``, by which
time the layers before it have run up to ``K - 1`` steps past it: those
steps are never counted. A sample whose state leaves the finite range fails
at its lowest (step, layer), which is known once the output layer has taken
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

Before it runs, each group of samples builds a step plan per weighted
layer: its forward map, with whatever it needs allocated once, which every
sample of the group calls in turn. A convolution writes its input into the
interior of a zero-padded buffer and multiplies the kernel rows with a
fixed window view of that buffer (the im2col product). A dense-like layer
(dense, locally connected, and the recurrent term of a recurrent layer) is
driven by events: for a boolean spike input it adds up the weight rows of
the inputs that spiked, in blocks of at most 64 rows, so the cost follows
the spike count and the temporary stays at 64 rows whatever the spike
rate. A float input (the static stage, or an analog first layer) takes the
full matrix-vector product. Both read the one float64 copy of the weights,
stored input-major (see :func:`~emacprof.netspec.weight_tensor`). A pool
takes the elementwise maximum over each window's columns and then over its
rows, of precomputed strided slices (``kw - 1 + kh - 1`` calls, where a
pass over each tap would make ``kh * kw - 1``), and keeps the same one of
equal values or NaNs as that pass. The static stage and the step loop use
the same plans and pools, so results do not depend on which of them
evaluates a layer. The event sums add in another order than a dense
product, so with arbitrary weights voltages may differ from one in the last
bit; with sums that are exact (weights that are multiples of a power of
two, say) they are equal.

Samples run in lockstep groups. :func:`run_inference` runs a group of one,
and :func:`run_dataset` runs consecutive groups of samples that share an
encoding mode, in sample order, as many a group as :func:`_group_size`
allows. Within a group, a block's neuron state, drive buffer and spike
buffer hold every sample's row of every layer of the block, flat and layer
by layer, so that the layers active at a tick are one contiguous range;
each neuron step advances that range in place and writes its spikes into
the range of the spike buffer, so one numpy call serves every sample and
layer of the block: on narrow layers the time goes to dispatching calls,
not to arithmetic. One walk over the stepped layers binds every view and
buffer a tick touches before the first tick (see :func:`_step_group`), so a
tick spends its time in the numpy calls its layers need: the Poisson
encoder draws into the group's input buffer, and the ufuncs take their
outputs positionally, which dispatches faster than the keyword, but for
``np.maximum``, whose positional output numpy 2.4 deprecates. A tick emits
the encoder and each active spiking layer by one path, which counts and
records their spikes, runs the pools and flattens after them, and counts
the events reaching each layer of uneven fan-out where that layer's input
is made. Each live sample's drive adds its sums in a lone run's order (see
:func:`_bind_drive`), so every result is bit-identical whatever the group
size. Under rank-order coding a sample that has decided leaves the group
with its counters frozen, and a sample whose state leaves the finite range
fails alone. Every sample keeps its row for the whole run: a sample that
leaves only stops getting decisions, finiteness checks and drives, and
nothing reads its row again, whatever the steps after it write there. A
group's histories (spike counts, the events reaching layers of uneven
fan-out, output spikes and voltages, rasters when recorded) are allocated
once at the step budget, a row per sample; each tick writes every row, and
one loop at the end decodes, traces and prices each sample from its own
steps.

Over a dataset, :func:`run_dataset` keeps each sample's outcome (step
count and decision) and a column of per-layer energies and spike totals,
not the full results, and reduces every statistic once at the end.
"""

from __future__ import annotations

import logging
import weakref
from dataclasses import dataclass, replace
from functools import partial
from itertools import accumulate, chain, groupby
from math import isfinite
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
    step_count,
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

    ``counts[l, t]`` is the number of spikes layer ``l`` fired at step
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
    #: float, so that a step's count is one BLAS dot whose partial sums are
    #: integers of at most the layer's total fan-out: float32 holds them
    #: exactly below 2**24, float64 below 2**53 (a layer that reaches more
    #: makes more multiply-adds than that in each step's forward map)
    fanout: np.ndarray | None = None
    #: pooling: a slice of the input per window column, and of their
    #: maximum per window row (see :func:`_window_taps`)
    pool_taps: tuple = ()
    step: Callable | None = None


def _window_taps(layer: LayerSpec) -> tuple[tuple[tuple, ...], tuple[tuple, ...]]:
    """A pool's column taps of its input and row taps of their maximum.

    Column tap ``dx`` is the strided slice of window column ``dx`` over
    every input row a window covers; row tap ``dy`` picks window row ``dy``
    of the ``(..., rows, ow)`` maximum of the column taps. Any leading
    (sample, channel) axes pass through.
    """
    (kh, kw), (sh, sw) = layer.kernel, layer.stride
    _, oh, ow = layer.output_shape
    covered = slice(0, sh * (oh - 1) + kh)
    columns = tuple(
        (Ellipsis, covered, slice(dx, dx + sw * (ow - 1) + 1, sw)) for dx in range(kw)
    )
    rows = tuple(
        (Ellipsis, slice(dy, dy + sh * (oh - 1) + 1, sh), slice(None)) for dy in range(kh)
    )
    return columns, rows


def _compile(net: NetworkSpec) -> list[_LayerRT]:
    out = []
    for index, layer in enumerate(net.layers):
        rt = _LayerRT(
            spec=layer,
            index=index,
            neurons=layer_counts(layer).neurons,
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
            else:
                rt.fanout = fanout.astype(np.float32 if fanout.sum() < 2**24 else np.float64)
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


def _fold_max(x: np.ndarray, taps: tuple[tuple, ...], out: np.ndarray | None) -> np.ndarray:
    # the elementwise max of x's taps, taken in order, into ``out`` if given
    if len(taps) == 1:
        if out is None:
            return x[taps[0]].copy()
        np.copyto(out, x[taps[0]])
        return out
    out = np.maximum(x[taps[0]], x[taps[1]], out=out)
    for tap in taps[2:]:
        np.maximum(out, x[tap], out=out)
    return out


def _max_pool(
    x: np.ndarray,
    taps: tuple[tuple[tuple, ...], tuple[tuple, ...]],
    out: np.ndarray | None = None,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """The max of each pool window of ``x``, into ``out`` if given; on spikes, an OR.

    ``taps`` are :func:`_window_taps`: the max over a window's columns goes
    into ``rows`` (a new array if not given), then the max over its rows
    into ``out``, ``kw - 1 + kh - 1`` maximum calls in all. ``np.maximum``
    keeps its first operand of two equal ones (+0.0 and -0.0) and the first
    NaN, so this keeps what a row-major fold over the taps one at a time
    keeps; rows first would not.
    """
    columns, row_taps = taps
    return _fold_max(_fold_max(x, columns, rows), row_taps, out)


def _step_plan(rt: _LayerRT) -> Callable | None:
    """One group's forward map of a weighted layer, with its buffers built once.

    The plan maps the layer's input to its flat synaptic drive; a pool or
    flatten layer has none. The samples of a group call it one after
    another. It takes an optional ``out``, a contiguous float64 row that
    receives the drive (by the same BLAS call as without it, so the two are
    bitwise equal); without ``out`` it returns a new array. A convolution's
    padded buffer and window view are built here, once per group and layer.
    The buffers belong to one :func:`_step_group` call, not to ``rt``, so
    compiled layers stay read-only and one compiled network can serve any
    number of calls; in the step loop, :func:`_bind_drive` binds each plan
    to the group's input and drive buffers.
    """
    if not rt.weighted:
        return None
    layer = rt.spec
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
    contiguous) picked by its spikes; a float input takes ``weights @ x``.
    The spikes a matrix of at most ``_EVENT_MIN_WEIGHTS`` weights receives
    never reach this plan: :func:`_bind_drive` takes their full product. ``out``
    works as in :func:`_step_plan`.
    """
    rows = weights.T
    ones = np.ones(_EVENT_BLOCK)

    def drive(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # np.dot and x.reshape(-1).nonzero() dispatch faster than @ and
        # np.flatnonzero, which a narrow layer notices at every step
        if x.dtype != bool:
            return np.dot(weights, x.reshape(-1), out=out)
        idx = x.reshape(-1).nonzero()[0]
        first = idx[:_EVENT_BLOCK]  # empty without spikes: the product is +0.0
        total = np.dot(ones[: first.size], rows.take(first, axis=0), out=out)
        for k in range(_EVENT_BLOCK, idx.size, _EVENT_BLOCK):
            block = idx[k : k + _EVENT_BLOCK]
            total += np.dot(ones[: block.size], rows.take(block, axis=0))
        return total

    return drive


def _bind_drive(
    plan: Callable, weights: np.ndarray | None, x: np.ndarray, out: np.ndarray
) -> Callable[[np.ndarray, list[int]], None]:
    """``plan`` bound to a group's spike input ``x`` and drive ``out``, as ``drive(counts, live)``.

    ``x`` and ``out`` are contiguous ``(rows, ...)`` buffers that the group
    keeps for its whole run, so the binder is built once per drive and group
    and holds every view a tick needs. Each call writes, into its row of
    ``out``, the drive of every row in ``live`` from what ``x`` holds.
    ``weights`` is a dense-like plan's matrix, or ``None`` for a
    convolution's. A matrix of at most ``_EVENT_MIN_WEIGHTS`` weights takes
    the full product of every row, live or not, in one stacked ``np.matmul``
    of ``x`` copied to float64, which numpy runs as one BLAS matrix-vector
    call per row, the call ``np.dot`` makes for one row alone, so each row
    adds its sum in a lone run's order (but for a 1x1 matrix, whose silent
    product is +0.0 where ``np.dot`` gives the weight times 0.0). Nothing
    reads a row that has left, and its spikes through finite weights keep
    its drive finite for the group's one-call finiteness check. Any other
    plan is called once per live row whose input has spikes (``counts``); a
    silent row is not summed, and its drive is the +0.0 an empty sum gives,
    whatever sign of zero the plan's own product would have; a neuron step
    adds either zero alike.
    """
    rows = len(out)
    if weights is not None and weights.size <= _EVENT_MIN_WEIGHTS:
        operand = x.reshape(rows, -1, 1)
        cast = np.empty(operand.shape)
        product = out.reshape(rows, -1, 1)

        def stacked(counts: np.ndarray, live: list[int]) -> None:
            np.copyto(cast, operand)
            np.matmul(weights, cast, product)

        return stacked
    pairs = [(x[p], out[p]) for p in range(rows)]

    def events(counts: np.ndarray, live: list[int]) -> None:
        counts = counts.tolist()
        for p in live:
            if counts[p]:
                plan(*pairs[p])
            else:
                pairs[p][1].fill(0.0)

    return events


def _synaptic_events(rt: _LayerRT, spikes: np.ndarray) -> np.ndarray:
    """Realized connections the spikes entering layer ``rt`` reach, per sample.

    A float of ``rt.fanout``'s dtype, whose value is the exact integer count.
    """
    return np.dot(spikes.reshape(-1, rt.fanout.size), rt.fanout)


def _non_finite_rows(values: np.ndarray, live: list[int]) -> list[int]:
    """The rows in ``live`` of a ``(rows, neurons)`` array that hold a non-finite value."""
    bad = ~np.isfinite(values[live]).all(axis=1)
    return [live[p] for p in np.flatnonzero(bad).tolist()]


@dataclass
class _Block:
    """Consecutive spiking layers of one neuron model, stepped by one call.

    The state arrays, the drive buffer and the spike buffer are flat and
    layer-major: the block's ``j``-th layer keeps its ``(rows, neurons)``
    values from ``rows * cols[j]`` on, a row per sample of the group. The
    layers of any span are then one contiguous range, which one numpy call
    steps without the buffers numpy allocates to iterate a strided 2-D view.
    ``spikes`` holds each layer's spikes of its latest step, which the step
    writes in place. ``first`` and ``stop`` delimit the layers' positions
    among the spiking layers.
    """

    first: int
    stop: int
    cols: list[int]
    rows: int
    step: Callable
    model: NeuronModelSpec
    state: NeuronState
    drive: np.ndarray
    spikes: np.ndarray

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
                spikes=np.zeros(samples * cols[-1], dtype=bool),
            )
        )
    return blocks


def _static_stage(static: list[_LayerRT], plans: list, x: np.ndarray) -> np.ndarray:
    for r in static:
        layer = r.spec
        if layer.kind is LayerKind.FLATTEN:
            x = x.reshape(-1)
        elif layer.kind is LayerKind.MAX_POOL2D:
            x = _max_pool(x, r.pool_taps)
        else:
            x = ann_activation(plans[r.index](x), layer.neuron_model)
            x = x.reshape(layer.output_shape)
        if not np.isfinite(x).all():
            raise NonFiniteState(
                f"layer {r.index} produced non-finite values in the static stage"
            )
    return x


#: the least budget of step state one lockstep group holds, over all its samples
_GROUP_STATE_BYTES = 1 << 18
#: a network's group budget is at least its compiled weight bytes over this:
#: the weights dominate the memory peak, so a group may grow in proportion
_WEIGHT_BUDGET_SHARE = 16
#: one spiking neuron's share of a sample's step state, as :func:`_blocks`
#: allocates it: current, voltage, half-step voltage, fired flag, drive and spike
_NEURON_STATE_BYTES = sum(
    a.nbytes for a in (*vars(state_zeros(1)).values(), np.empty(1), np.empty(1, bool))
)


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
    # the spec's own budget was checked when it was built
    return coding, net.max_timesteps if t_max is None else step_count(t_max, "t_max")


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
    The result holds copies of the steps it used, so it does not keep those
    budget-sized histories alive.
    """
    rt = _compiled(net)
    coding, T_max = _settings(net, t_max, coding)
    ((result, _),) = _run_group(
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
    trace = result.trace
    inputs = trace.input_counts
    result.trace = replace(
        trace,
        counts=trace.counts.copy(order="K"),
        input_counts=None if inputs is None else inputs.copy(order="K"),
    )
    result.output_spikes = result.output_spikes.copy(order="K")
    result.output_voltages = result.output_voltages.copy(order="K")
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
) -> Iterator[tuple[InferenceResult, np.ndarray] | tuple[NonFiniteState, None]]:
    """Step samples of one encoding mode in lockstep; yield each one's result.

    Results come in sample order, each with its layers' spike totals; a
    sample whose state leaves the finite range yields its
    :class:`NonFiniteState` instead. Any other error is raised for the first
    sample that causes it. A result's arrays view the group's histories,
    which belong to this call alone (:func:`run_inference` copies them).
    """
    mode = samples[0].mode
    start = static_split(net, mode)[1]
    run = _step_group(
        net, rt, samples, start,
        T_max=T_max, coding=coding, record_raster=record_raster,
    )
    table = _emac.price_table(net)
    analog_base = np.array(_emac.static_macs(net, mode), dtype=np.int64)
    neurons = np.array(table.neurons, dtype=np.float64)
    rec_fanin = np.array([lp.recurrent_fanin for lp in table.layers], dtype=np.int64)
    even_fanout = np.array([r.even_fanout for r in rt], dtype=np.int64)
    poisson = mode is EncodingMode.POISSON
    for k in range(len(samples)):
        if k in run.failed:
            yield run.failed[k], None
            continue
        T = run.T_used[k]
        counts = run.counts[:T, k]  # (steps, layers + 1)
        totals = counts.sum(axis=0)  # [0]: the input's spikes
        spikes = totals[1:]
        out_spikes = run.spikes[:T, k].T
        out_volt = run.volts[:T, k].T
        if start is not None and coding is Coding.ROC:
            decision = decode_roc(out_spikes, out_volt)
        else:
            decision = decode_max_membrane(out_volt)
        # an input of a layer whose inputs all reach the same number of
        # neurons books that many events per spike
        ff_events = even_fanout * totals[:-1]
        if run.uneven:
            ff_events[run.uneven] += run.events[:T, k].sum(axis=0)
        trace = SpikeTrace(
            counts=counts[:, 1:].T,
            input_counts=counts[:, 0] if poisson else None,
            feedforward_events=ff_events,
            # each spike books its layer's recurrent fan-out
            recurrent_events=rec_fanin * spikes,
            analog_events=analog_base * (T if encoder_per_step else 1),
            T_used=T,
            layer_neurons=table.neurons,
            n_inputs=table.n_inputs,
        )
        # the rates of :func:`emac.rates_from_trace`, from the totals above
        rates = _emac.LayerRates(
            input_rate=float(totals[0] / table.n_inputs) if poisson else None,
            per_layer=spikes / neurons,
        )
        yield InferenceResult(
            decision=decision,
            trace=trace,
            energy=_emac.emac_exact(net, trace),
            energy_analytic=_emac.emac_analytic(
                net, rates, T, input_mode=mode, encoder_per_step=encoder_per_step
            ),
            output_spikes=out_spikes,
            output_voltages=out_volt,
            rasters=[h[:T, k].T.copy() for h in run.rasters] if record_raster else None,
        ), spikes


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
    start: int | None,
    *,
    T_max: int,
    coding: Coding,
    record_raster: bool,
) -> _Histories:
    """Run the static stage ``rt[:start]`` and the time steps of one group (see
    :func:`_run_group`).

    Every view and buffer a tick touches is bound once, before the first
    tick, in one walk over the stepped layers. Source 0 is the Poisson
    encoder and source ``k + 1`` spiking layer ``k``. Each source gets its
    count column, its ``(rows, neurons)`` output view, the buffers of the
    pools and the views of the flattens after it, and the event columns of
    the layers of uneven fan-out its spikes reach, the next spiking layer
    included, each with the input whose spikes it counts. Each spiking
    layer gets its drive view, its input binder and its recurrent binder
    (:func:`_bind_drive`). A tick then emits the encoder and every active
    spiking layer through one
    ``emit(source, step)``, the one place where spikes are counted and
    recorded, pools run, and the events reaching a layer of uneven fan-out
    are counted: where its input is made, at the step that input belongs
    to, which the layer reads unchanged when it takes that step. The state
    views of the span of layers a block steps are made when the active
    layers change, which only the ramps up and down do.
    """
    mode = samples[0].mode
    B = len(samples)
    L = len(rt)

    stepped = rt[start:] if start is not None else []
    spiking = [r for r in stepped if r.spiking]
    K = len(spiking)
    # one plan per weighted layer, which the rows of the group call in turn
    # (but the stacked product of a small matrix)
    plans = [_step_plan(r) for r in rt]
    # Histories, allocated at the step budget: sample k's steps are
    # [:T_used[k], k]. A static-only network runs one step, whose output
    # voltages are its head activation.
    steps = T_max if start is not None else 1
    # the events that reach layers of uneven fan-out, one column each
    uneven = [r.index for r in stepped if r.fanout is not None]
    # per step and sample: the counts ([..., 0]: the input), the output
    # spikes and voltages, the uneven events and the rasters
    layout = [(L + 1, np.int64), (rt[-1].neurons, bool), (rt[-1].neurons, np.float64),
              (len(uneven), np.int64)] + [(r.neurons, bool) for r in rt if record_raster]
    try:
        count_hist, spike_hist, volt_hist, ff_hist, *raster_hist = [
            np.zeros((steps, B, n), dtype) for n, dtype in layout
        ]
    except (MemoryError, ValueError):  # numpy's own message names neither
        need = steps * B * sum(n * np.dtype(dtype).itemsize for n, dtype in layout)
        raise SchemaError(
            f"a step budget of {T_max} needs {need} bytes of step history for "
            f"{B} sample(s), more than can be allocated"
        ) from None
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
                x = _static_stage(rt[:start], plans, encoded.values)
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
        # sample's drive sums in a lone run's order (see _bind_drive),
        # whatever the group size; the neuron steps, the counters and the
        # history writes serve all rows at once.
        draw = poisson_slice  # looked up per group: a traced run wraps it
        # spikes per row: one row takes a plain count, which broadcasts alike
        # and costs several times less than a count along an axis
        count_rows = np.count_nonzero if B == 1 else partial(np.add.reduce, axis=1)
        # counts[l][s - 1]: step s's row of history column l
        counts = [count_hist[:, :, l] for l in range(L + 1)]
        events = {index: ff_hist[:, :, j] for j, index in enumerate(uneven)}
        blocks = _blocks(spiking, B)
        block_of = [b for b in blocks for _ in range(b.first, b.stop)]
        x_in = np.zeros((B, *net.input_shape), dtype=bool) if poisson else None
        # one buffer serves every recurrent term, each added as soon as made
        rec_buf = np.empty(
            B * max((r.neurons for r in spiking if r.rec_weights is not None), default=0)
        )
        terms = []
        # sources[j]: source j's stages, each as (count column, rows view,
        # pool operands or None, raster column or None), and the events it
        # carries, as (event column, layer, input); layers[k]: spiking layer
        # k's drive view, input binder (None for the analog-fed first layer,
        # whose drive is drive0), input and own count columns, and recurrent
        # binder with its term. x is what the next layer reads. Source 0 runs
        # only under Poisson inputs, so an analog-fed first layer of uneven
        # fan-out counts nothing.
        stages = [(counts[0], x_in.reshape(B, -1), None, None)] if poisson else []
        carried: list[tuple] = []
        sources = [(stages, carried)]
        layers = []
        x = x_in
        for r in stepped:
            raster = raster_hist[r.index] if record_raster else None
            if r.fanout is not None:
                carried.append((events[r.index], r, x))
            if r.spec.kind is LayerKind.MAX_POOL2D:
                y = np.zeros((B, *r.spec.output_shape), dtype=bool)
                rows = np.empty(x[r.pool_taps[0][0]].shape, dtype=bool)  # the column max
                pool = (x, r.pool_taps, y, rows)
                stages.append((counts[r.index + 1], y.reshape(B, -1), pool, raster))
                x = y
            elif r.spec.kind is LayerKind.FLATTEN:  # a view that re-emits its input
                x = x.reshape(B, -1)
                stages.append((counts[r.index + 1], x, None, raster))
            else:
                k = len(layers)
                b = block_of[k]
                drive = b.drive[b.span(k)].reshape(B, r.neurons)
                out = b.spikes[b.span(k)].reshape(B, r.neurons)
                ff = rec = None
                if x is not None:
                    weights = None if r.spec.kind is LayerKind.CONV2D else r.weights
                    ff = _bind_drive(plans[r.index], weights, x, drive)
                if r.rec_weights is not None:
                    term = rec_buf[: B * r.neurons].reshape(B, r.neurons)
                    rec = _bind_drive(_event_drive(r.rec_weights), r.rec_weights, out, term), term
                    terms.append(term)
                layers.append((drive, ff, counts[r.index], counts[r.index + 1], rec))
                x = out.reshape(B, *r.spec.output_shape)
                stages, carried = [(counts[r.index + 1], out, None, raster)], []
                sources.append((stages, carried))
        out_volt = block_of[-1].state.v_peak[block_of[-1].span(K - 1)].reshape(
            B, rt[-1].neurons
        ) if K else None
        no_counts = np.zeros(B, dtype=np.int64)
        # the active positions (lo, hi) of the last tick, and its block steps
        active, calls = None, []
        # a live row's lowest non-finite (step, layer) so far
        pending: dict[int, tuple[int, int]] = {}

        def block_steps(lo: int, hi: int) -> list[tuple]:
            """Each block's step of the layers at positions ``lo`` to ``hi``:
            its function, state, drive, model, spikes and layer parts."""
            made = []
            for b in blocks:
                first, stop = max(lo, b.first), min(hi, b.stop)
                if first >= stop:
                    continue
                span = b.span(first, stop)
                st = b.state
                state = NeuronState(
                    i=st.i[span], v=st.v[span],
                    has_spiked=st.has_spiked[span], v_peak=st.v_peak[span],
                )
                parts = [  # each layer's part of the span
                    (k, slice(b.span(k).start - span.start, b.span(k).stop - span.start))
                    for k in range(first, stop)
                ]
                made.append((b.step, state, b.drive[span], b.model, b.spikes[span], parts))
            return made

        def reset(p: int) -> None:
            """Zero the state and drives of row ``p``, which leaves non-finite.

            Nothing reads the row again, but it keeps stepping with the
            group; zeroed, it stays finite and no longer fails the one-call
            finiteness check of each later tick.
            """
            for b in blocks:
                for k in range(b.first, b.stop):
                    span = b.span(k)
                    for a in (*vars(b.state).values(), b.drive):
                        a[span].reshape(B, -1)[p] = 0
            for term in terms:
                term[p] = 0.0
            if drive0 is not None:
                drive0[p] = 0.0

        def emit(source: int, s: int) -> None:
            """Count and record the step-``s`` output of ``source`` and of the pools
            and flattens after it, and the events it carries to uneven fan-outs."""
            stages, carried = sources[source]
            count = None
            for column, rows, pool, raster in stages:
                if pool is not None:
                    _max_pool(*pool)
                if count is None or pool is not None:  # a flatten keeps its input's
                    count = count_rows(rows)
                column[s - 1] = count
                if raster is not None:
                    raster[s - 1] = rows
            for column, r, spikes in carried:
                column[s - 1] = _synaptic_events(r, spikes)

        # Tick tau advances spiking layer k by step tau - k: every drive reads
        # outputs of the previous tick (the first layer's, the encoder's of
        # this one), so each block steps all its active layers at once.
        for tau in range(1, T_max + K):
            if not live:
                break
            lo, hi = max(0, tau - T_max), min(K, tau)  # the active positions
            if poisson and tau <= T_max:
                for k in live:
                    draw(samples[k], tau, x_in[k])
                emit(0, tau)
            for k in range(lo, hi):
                drive, ff, in_counts, own_counts, rec = layers[k]
                s = tau - k
                if ff is None:
                    base = drive0
                else:
                    ff(in_counts[s - 1], live)
                    base = drive
                if rec is not None:
                    rec_drive, term = rec
                    rec_drive(own_counts[s - 2] if s > 1 else no_counts, live)
                    np.add(base, term, drive)
                elif base is not drive:
                    np.copyto(drive, base)
            if (lo, hi) != active:  # the ramp's ticks and the first full one
                active, calls = (lo, hi), block_steps(lo, hi)
            for step, state, drive, model, spikes, parts in calls:
                step(state, drive, model, spikes=spikes)
                # a non-finite current makes the half-step voltage non-finite,
                # and the reset only subtracts a finite threshold; a NaN or an
                # infinity always reaches the sum (an overflowing sum of finite
                # voltages sends the tick to the scan, which finds no row)
                if not isfinite(np.add.reduce(state.v_peak)):
                    for k, part in parts:
                        found = (tau - k, spiking[k].index)
                        for p in _non_finite_rows(state.v_peak[part].reshape(B, -1), live):
                            pending[p] = min(pending.get(p, found), found)
            for k in range(lo, hi):
                emit(k + 1, tau - k)
            t = tau - K + 1  # the output layer's step
            if t < 1:
                continue
            spike_hist[t - 1] = out
            volt_hist[t - 1] = out_volt

            # A sample fails at its lowest non-finite (step, layer), known once
            # the output layer has taken that step, unless it decided earlier.
            if t == T_max:
                leaving = set(live)
            elif coding is Coding.ROC:  # the rows whose output layer spiked
                spiked = counts[L][t - 1].tolist()
                leaving = {k for k in live if spiked[k]}
            else:
                leaving = set()
            if pending:
                leaving.update(k for k, (step, _) in pending.items() if step <= t)
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
                if pending.pop(k, None) is not None:
                    reset(k)
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
    """``np.mean`` and ``np.std`` of a 1-D array, by the operations they perform.

    A sum, a division by the count, then the same for the squared deviations
    and a square root: the results are bitwise theirs, without the Python
    overhead of each call, which a dataset pays some 60 times.
    """
    n = values.size
    if n == 0:
        return Stat(mean=float("nan"), std=float("nan"))
    mean = np.add.reduce(values) / n
    deviations = values - mean
    return Stat(
        mean=float(mean), std=float(np.sqrt(np.add.reduce(deviations * deviations) / n))
    )


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
    """The first spiking layer's neuron kind, event price and update price."""
    for lp in _emac.price_table(net).layers:
        if lp.neuron is not None and lp.neuron.spiking:
            return lp.neuron.value, lp.event, lp.update
    return None, 1.0, 1.0


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
    row of per-layer values; joined, they make one column of ``kept`` per
    quantity. Each method's columns make one energy report, whose own
    totals add them as a report adds one sample's values. Each statistic
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
    # rows[k][l]: success k's layer l: exact, analytic (E_syn, E_upd, E_rec), spikes
    rows: list[list[tuple]] = []
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
    for result, spikes in results:
        if isinstance(result, NonFiniteState):
            failures.append((len(outcomes), str(result)))
            outcomes.append(None)
            continue
        outcomes.append(SampleOutcome(result.trace.T_used, result.decision))
        rows.append([
            (e.E_syn, e.E_upd, e.E_rec, a.E_syn, a.E_upd, a.E_rec, s) for e, a, s in
            zip(result.energy.per_layer, result.energy_analytic.per_layer, spikes.tolist())
        ])
        # a result views its group's histories: held here, a group's last
        # one would keep them alive while the next group steps
        del result
    if failures:
        logger.warning("%d of %d samples aborted", len(failures), len(samples))

    table = _emac.price_table(net)
    # kept[l, :, k]: one contiguous column over the successes per quantity
    L = len(table.layers)
    kept = np.array(rows, dtype=np.float64).reshape(-1, L, 7).transpose(1, 2, 0).copy()
    T_used = np.array([o.T_used for o in outcomes if o is not None], dtype=np.float64)
    analytic, exact = (
        _emac.EnergyReport(
            method=method,
            T_used=T_used,
            per_layer=tuple(
                _emac.LayerEnergy(lp.name, lp.kind, *kept[i, j : j + 3])
                for i, lp in enumerate(table.layers)
            ),
            approx_padding=table.approx_padding and bool(rows),
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
