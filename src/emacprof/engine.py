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
drive is computed first, then consecutive spiking layers with one neuron
model (a block) take their steps in one call of the compiled step function,
and then one finiteness check covers every active layer: one sum of the
squares of their half-step voltages (a dot product of them with
themselves), which a NaN or an infinity always reaches, and which sends
the tick to a per-row scan only when it is not finite. Finite voltages
whose squares sum past the float range do too (one of magnitude above
1.3e154, the square root of the largest float, is enough), and the scan
finds no row there. A pool or flatten layer runs in the tick of the spiking
layer before it, and one before the first spiking layer runs in the
encoder's. Each neuron still sees the same operations on the same operands
in the same order as in a layer-by-layer sweep, so the results are
bit-identical to one; with ``K`` spiking layers, a run takes ``K - 1`` more
ticks than steps. Every counter, history and raster is written at the row
of its own step. Under rank-order coding the output layer decides step
``t`` at tick ``t + K - 1``, by which time the layers before it have run up
to ``K - 1`` steps past it: those steps are never counted. A sample whose
state leaves the finite range fails at its lowest (step, layer), which is
known once the output layer has taken that step; a decision at an earlier
step still wins.

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

Compilation happens once per network: on its first run the engine takes
each weight block as float64 from :func:`~emacprof.netspec.weight_tensor`,
which checks that it is finite, and builds the fan-out maps, and
:func:`~emacprof.netspec.derived` keeps the result for as long as the
:class:`~emacprof.netspec.NetworkSpec` lives, which cannot change once
built. :func:`run_inference` and :func:`run_dataset`, and through them
every caller, reuse it. The float64 weights are the spec's own: it keeps
them in place of its float32 blocks, so a network that has run holds each
weight once, in 8 bytes, between runs too. The first spiking layer's
dense-like weights are only checked then: their form depends on the input,
input-major under spikes and in row blocks under an analog input, so a run
takes them from the spec in the form its input reads (see
:func:`_first_weights`), and a spec holds only the forms its runs read.

Before it runs, each group of samples builds a step plan for each weighted
layer of its static stage and for each convolution: the layer's forward
map, with whatever it needs allocated once, which every sample of the group
calls in turn. A convolution writes its input into the interior of a
zero-padded buffer and multiplies the kernel rows with a fixed window view
of that buffer (the im2col product). A dense-like layer (dense, locally
connected, and the recurrent term of a recurrent layer) is driven by events
in the step loop: its binder (see :func:`_bind_drive`), the one event-sum
path, adds up the weight rows of the inputs that spiked, in blocks of at
most 64 rows, so the cost follows the spike count and the temporary stays
at 64 rows whatever the spike rate. In a group of several rows, a matrix
whose sums are exact (see :func:`_exact_sums`, asked once per spec and
matrix) drives the live rows by one GEMM instead, at a tick whose live rows
spiked more than half its inputs, and at every tick for a small matrix:
exact sums give the same bits in any order. A first spiking layer that the
Poisson encoder feeds directly (or through flattens) has a drive that
depends on the draws alone, never on the network's state, and the encoder's
counter-based streams draw any step in isolation; so where such a layer is
dense-like and its weights sum exactly, a group of any size, one row
included, drives it a block of steps ahead (see :func:`_bind_block_drive`):
at the block's first tick it draws every live row's spikes of each of the
block's steps, writes their counts into the ledger at once, and takes one
GEMM over the block's (step, row) pairs, of 64 pairs or more and at most
16 steps where the group budget holds them (16 steps for one row, 4 for
dense's 16 rows); each tick then copies its step's drive. A block of a
larger matrix whose pairs spiked fewer than one in 16 of their inputs keeps
the event sums, step by step. Convolutions, a
pool before the layer, an analog input, later layers (whose inputs depend
on the state) and weights that fail the check keep the per-tick drive. A
dense-like plan only serves the float inputs of the static stage, with the
full matrix-vector product. All read the one float64 copy of the weights,
stored input-major (see
:func:`~emacprof.netspec.weight_tensor`). An analog-fed first layer takes
its drive once, before the first tick, for the whole group (see
:func:`_bind_static_drive`): the static stage writes each sample's output
into a row of one buffer, and then, for each block of 128 output rows of the
weights, every sample takes one matrix-vector product, so the block stays
in the cache across the group and each weight is read from memory once per
group, not once per sample; each row keeps the product a lone run makes.
A convolution there is one block, its plan. A pool of the static stage
takes the elementwise maximum of its floats over each window's columns and
then over its rows, of precomputed strided slices (``kw - 1 + kh - 1``
calls, where a pass over each tap would make ``kh * kw - 1``), and keeps
the same one of equal values or NaNs as that pass. A pool in the step loop
takes spikes, whose maximum is their OR, with no signed zero or NaN whose
order could matter, so it ORs each window's rows over whole contiguous
input rows first, and then its columns, a two-column window at stride 2 as
the two bytes of one uint16 (see :func:`_bind_spike_pool`). The static
stage and the step loop use the same plans, and both pools give the window
maximum, so results do not depend on which of them evaluates a layer. The
static stage writes each layer's output into buffers allocated once per
group and released before the first tick, and checks each layer as a tick
does, by one sum of the squares of its values, scanning them only when that
sum is not finite; a weighted layer is checked after its bias add and
before its rectification, which would turn a drive that overflowed to -inf
into 0.0.
The event sums add in another order than a dense product, so with arbitrary
weights voltages may differ from one in the last bit; with sums that are
exact (float32 weights of a narrow enough range, say) they are equal.

Samples run in lockstep groups. :func:`run_inference` runs a group of one,
and :func:`run_dataset` runs consecutive groups of samples that share an
encoding mode, in sample order, of near-equal size, at most what
:func:`_group_size` allows (see :func:`_groups`). Within a group, one
neuron state, drive buffer and spike buffer hold every sample's row of
every spiking layer, flat and layer by layer, so that the layers active at
a tick are one contiguous range, and a block's among them are one range of
it; each block's neuron step advances its range in place and writes its
spikes into the same range of the spike buffer, so one numpy call serves
every sample and layer of the block: on narrow layers the time goes to
dispatching calls, not to arithmetic. One walk over the stepped layers
binds every view and buffer a tick touches before the first tick (see
:func:`_step_group`), so a tick spends its time in the numpy calls its
layers need: the Poisson encoder draws into the group's input buffer, and
the ufuncs take their outputs positionally, which dispatches faster than
the keyword, but for ``np.maximum``, whose positional output numpy 2.4
deprecates. A tick emits the encoder and each active spiking layer by one
path, which counts and records their spikes (a group of several rows sums
each row's spike bytes into uint16), runs the pools and flattens after
them, and counts the events reaching each layer of uneven fan-out where
that layer's input is made. Each live sample's drive adds its sums in
a lone run's order, or sums exactly (see :func:`_bind_drive`), so every
result is bit-identical whatever the group size. Under rank-order coding a
sample that has decided leaves the group with its counters frozen, and a
sample whose state leaves the finite range fails alone. Every sample keeps
its row for the whole run: a sample that leaves only stops getting decisions,
finiteness checks and drives, and nothing reads its row again, whatever the
steps after it write there. A group's histories (one int64 ledger of every
per-step count, output spikes and voltages, rasters when recorded) are
allocated once at the step budget, a row per sample; each tick writes every
row, and one loop at the end decodes, traces and prices each sample from
one sum over its own steps of the ledger.

Over a dataset, :func:`run_dataset` reads the samples one group at a time
and keeps each sample's outcome (step count and decision) and a row of
per-layer energies and spike totals in one array, not the full results,
and reduces every statistic once at the end.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import partial
from itertools import accumulate, chain, groupby
from math import frexp, isfinite, ldexp, prod
from typing import Callable, Iterable, Iterator, Sequence

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
    check_weights,
    derived,
    fanout_map,
    layer_counts,
    recurrent_weight_tensor,
    static_split,
    step_count,
    weight_shape,
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
    #: a convolution; None for the first spiking layer's dense-like weights,
    #: whose form its input decides (see :func:`_first_weights`)
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
    out: list[_LayerRT] = []
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
            first = rt.spiking and not any(r.spiking for r in out)
            if layer.kind is LayerKind.CONV2D or not first:
                weights = weight_tensor(net, index)
                rt.weights = weights.reshape(weights.shape[0], -1)
            else:  # its form waits for its input (see _first_weights), its check does not
                check_weights(net, index)
            if layer.kind is LayerKind.RECURRENT_DENSE:
                rt.rec_weights = recurrent_weight_tensor(net, index)
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


def _fold_max(x: np.ndarray, taps: tuple[tuple, ...], out: np.ndarray) -> np.ndarray:
    # the elementwise max of x's taps, taken in order, into ``out``
    if len(taps) == 1:
        np.copyto(out, x[taps[0]])
        return out
    out = np.maximum(x[taps[0]], x[taps[1]], out=out)
    for tap in taps[2:]:
        np.maximum(out, x[tap], out=out)
    return out


def _max_pool(
    x: np.ndarray, taps: tuple[tuple[tuple, ...], tuple[tuple, ...]],
    out: np.ndarray, rows: np.ndarray,
) -> np.ndarray:
    """The max of each pool window of ``x``, floats of the static stage, into ``out``.

    ``taps`` are :func:`_window_taps`: the max over a window's columns goes
    into ``rows``, then the max over its rows into ``out``, in
    ``kw - 1 + kh - 1`` maximum calls. ``np.maximum`` keeps its first
    operand of two equal ones (+0.0 and -0.0) and the first NaN, so this
    keeps what a row-major fold over the taps one at a time keeps; rows
    first would not. Spikes, which have neither, take
    :func:`_bind_spike_pool`.
    """
    columns, row_taps = taps
    return _fold_max(_fold_max(x, columns, rows), row_taps, out)


def _bind_spike_pool(layer: LayerSpec, x: np.ndarray, out: np.ndarray) -> Callable[[], None]:
    """A pool of spikes, bound to a group's boolean input ``x``, ``(rows, C,
    H, W)``, and output ``out``, ``(rows, C, oh, ow)``, as ``pool()``.

    The maximum of booleans is their OR, which has no signed zero or NaN
    whose order could matter, so the pool takes rows first: one
    ``np.logical_or`` per window row ORs whole contiguous input rows into
    the ``kh`` rows of each output row's band, ``(rows, C, oh, width)``
    with ``width = sw * (ow - 1) + kw`` the columns the windows cover, and
    then the band's ``kw`` columns go into ``out``. Where ``kw == sw == 2``,
    a window's two columns are two adjacent bytes of the band, one uint16,
    nonzero exactly where either spiked, so one ``np.not_equal`` of the band
    viewed as uint16 writes ``out``; otherwise strided ORs over the band
    do. Each call is a one-type loop over bytes, where ``np.maximum`` over
    strided column taps steps a byte at a time.
    """
    (kh, kw), (sh, sw) = layer.kernel, layer.stride
    _, oh, ow = layer.output_shape
    width = sw * (ow - 1) + kw
    band = np.empty((*x.shape[:-2], oh, width), dtype=bool)
    window_rows = [x[..., dy : dy + sh * (oh - 1) + 1 : sh, :width] for dy in range(kh)]
    if kw == sw == 2:
        pairs = band.view(np.uint16)
        columns = partial(np.not_equal, pairs, 0, out)
    else:
        taps = [band[..., dx : dx + sw * (ow - 1) + 1 : sw] for dx in range(kw)]
        columns = partial(_fold_or, taps, out)

    def pool() -> None:
        _fold_or(window_rows, band)
        columns()

    return pool


def _bind_counts(spikes: np.ndarray) -> Callable[[], np.ndarray]:
    """Each row's spike count of a ``(..., n)`` boolean buffer ``spikes``,
    along its last axis, bound as ``count()``.

    It sums the spike bytes: ``np.add.reduce`` of the buffer's uint8 view
    into uint16, which holds every count of a row of fewer than 65,536
    spikes (uint32 a wider row's), a one-type loop where a boolean sum casts
    every byte to int64.
    """
    wide = np.uint16 if spikes.shape[-1] < 1 << 16 else np.uint32
    return partial(np.add.reduce, spikes.view(np.uint8), -1, wide)


def _fold_or(taps: list[np.ndarray], out: np.ndarray) -> None:
    # the OR of the boolean taps, into ``out``
    if len(taps) == 1:
        np.copyto(out, taps[0])
        return
    np.logical_or(taps[0], taps[1], out)
    for tap in taps[2:]:
        np.logical_or(out, tap, out)


def _step_plan(rt: _LayerRT) -> Callable:
    """One group's forward map of a weighted layer, with its buffers built once.

    The plan, ``plan(x, out)``, writes the layer's flat synaptic drive from
    input ``x`` into ``out``, a contiguous float64 row, and returns ``out``.
    The samples of a group call it one after another. A convolution's
    plan takes spikes or floats; its padded buffer and window view are built
    here, once per group and layer. A dense-like plan is the full product
    ``weights @ x`` of a float input: spikes reach a dense-like matrix only
    through :func:`_bind_drive`, which sums them itself. The buffers belong
    to one :func:`_step_group` call, not to ``rt``, so compiled layers stay
    read-only and one compiled network can serve any number of calls.
    """
    layer = rt.spec
    weights = rt.weights
    if layer.kind is LayerKind.CONV2D:
        c, h, w = layer.input_shape
        p = layer.padding
        padded = np.zeros((c, h + 2 * p, w + 2 * p))
        interior = padded[:, p : p + h, p : p + w]
        columns = _conv_windows(padded, layer)
        taps = weights.shape[1]

        def conv_drive(x: np.ndarray, out: np.ndarray) -> np.ndarray:
            interior[...] = x
            np.dot(weights, columns.reshape(taps, -1), out=out.reshape(len(weights), -1))
            return out

        return conv_drive

    def dense_drive(x: np.ndarray, out: np.ndarray) -> np.ndarray:
        return np.dot(weights, x.reshape(-1), out)

    return dense_drive


def _conv_windows(padded: np.ndarray, layer: LayerSpec) -> np.ndarray:
    """The ``(C, kh, kw, oh, ow)`` window view of a convolution's padded input,
    which reshaped is the ``(taps, positions)`` im2col matrix.

    Entry ``[c, i, j, y, x]`` is ``padded[c, y * sh + i, x * sw + j]``. One
    constructor call makes the view from ``padded``'s strides, in 0.8 µs on
    a 2-core Xeon VM, where the same view taken as a strided slice of
    ``sliding_window_view`` takes 12.5 µs, once per convolution and call.
    """
    (kh, kw), (sh, sw) = layer.kernel, layer.stride
    sc, sy, sx = padded.strides
    return np.ndarray(
        (padded.shape[0], kh, kw, *layer.output_shape[1:]), padded.dtype, padded,
        strides=(sc, sy, sx, sy * sh, sx * sw),
    )


#: most weight rows one event-driven product gathers
_EVENT_BLOCK = 64
#: a matrix of at most this many weights takes the full product even for
#: spikes: that costs about what one gather's fixed overhead does
_EVENT_MIN_WEIGHTS = 1 << 14
#: the ones an event-driven product sums the gathered rows with, shared by
#: every binder and never written
_ONES = np.ones(_EVENT_BLOCK)
_ONES.flags.writeable = False
#: a float64's bits without its sign, and its mantissa bits below a float32's
_MAGNITUDE = (1 << 63) - 1
_BELOW_FLOAT32 = (1 << 29) - 1


def _exact_sums(weights: np.ndarray) -> bool:
    """Whether spikes through ``weights``, a ``(neurons, inputs)`` float64
    matrix, sum exactly, and so to the same bits in any order.

    A spike multiplies a weight by exactly 1 or 0, so a neuron's drive is a
    sum of some of its weights. Where every weight is a float32 value, each
    is a multiple of ``q = 2**(floor(log2(min |w|)) - 23)`` over the nonzero
    weights, the lowest bit any of them can set, and so is every sum of
    them. With ``S`` the largest sum of a neuron's ``|w|``, every such sum
    of magnitude below ``2**53 * q`` is a float64, so ``S < 2**53 * q``
    makes every partial sum exact: per-row blocks of 64, one GEMM and a
    threaded GEMM all give the same bits. ``S`` is summed in float64, and
    can still be trusted: its terms are nonnegative multiples of ``q``, so
    its partial sums are exact while below ``2**53 * q``, and rounding never
    takes a sum at or above it back below. A weight that is no float32 value
    (its float64 mantissa sets a bit below a float32's) fails the matrix,
    and a matrix of zeros passes. The weights are read 64 inputs at a time,
    so no temporary is the matrix's size.
    """
    columns = weights.T  # (inputs, neurons)
    sums = np.zeros(len(weights))
    below = 0  # every bit any weight's magnitude sets
    least = _MAGNITUDE  # the least nonzero magnitude's bits, less one
    for k in range(0, len(columns), _EVENT_BLOCK):
        bits = np.bitwise_and(columns[k : k + _EVENT_BLOCK].view(np.uint64), _MAGNITUDE)
        below |= int(np.bitwise_or.reduce(bits, axis=None))
        sums += np.add.reduce(bits.view(np.float64), axis=0)
        least = min(least, int(np.subtract(bits, 1, out=bits).min()))  # zeros wrap round
    if below & _BELOW_FLOAT32:
        return False
    if least == _MAGNITUDE:  # no weight but zeros
        return True
    # min |w| = f * 2**e with 0.5 <= f < 1, so q = 2**(e - 24); capped in range
    e = frexp(float(np.uint64(least + 1).view(np.float64)))[1]
    return bool(sums.max() < ldexp(1.0, min(e + 29, 1023)))


def _layer_sums_exact(net: NetworkSpec, index: int, recurrent: bool) -> bool:
    """:func:`_exact_sums` of layer ``index``'s spike-fed weights, or its
    recurrent ones; kept per spec by :func:`~emacprof.netspec.derived`."""
    weights = recurrent_weight_tensor(net, index) if recurrent else weight_tensor(net, index)
    return _exact_sums(weights)


def _event_sums(
    weights: np.ndarray, flat: np.ndarray, out: np.ndarray
) -> Callable[[np.ndarray, list[int]], None]:
    """The one event-sum path: the drive of ``flat``'s spike rows through
    ``weights`` into ``out``'s rows, as ``drive(counts, live)``.

    ``flat`` is a ``(rows, inputs)`` boolean buffer, ``out`` its ``(rows,
    neurons)`` drives, and ``counts`` each row's spikes. For each row in
    ``live`` with spikes it gathers the rows of ``weights.T`` (one per
    input, each contiguous) of the inputs that spiked, in blocks of at most
    ``_EVENT_BLOCK``, sums each block by one ``np.dot`` with ones and adds
    the blocks left to right, so a row's sum is a lone run's whatever the
    group size (see :func:`_bind_drive`); a silent row gets +0.0.
    """
    # per row: its flat input's nonzero (x.reshape(-1).nonzero() dispatches
    # faster than np.flatnonzero, which a narrow layer notices at every
    # step) and its drive row
    rows_of = [(row.nonzero, total) for row, total in zip(flat, out)]
    take, dot, ones = weights.T.take, np.dot, _ONES

    def events(counts: np.ndarray, live: list[int]) -> None:
        counts = counts.tolist()
        for p in live:
            spiked, total = rows_of[p]
            if not counts[p]:
                total.fill(0.0)
                continue
            idx = spiked()[0]
            if idx.size <= _EVENT_BLOCK:  # one block: idx takes no slicing
                dot(ones[: idx.size], take(idx, 0), total)
                continue
            dot(ones, take(idx[:_EVENT_BLOCK], 0), total)
            for k in range(_EVENT_BLOCK, idx.size, _EVENT_BLOCK):
                block = idx[k : k + _EVENT_BLOCK]
                total += dot(ones[: block.size], take(block, 0))

    return events


def _bind_drive(
    plan: Callable | None,
    weights: np.ndarray | None,
    x: np.ndarray,
    out: np.ndarray,
    exact: Callable[[], bool] | None = None,
) -> Callable[[np.ndarray, list[int]], None]:
    """A drive bound to a group's spike input ``x`` and drive ``out``, as ``drive(counts, live)``.

    ``x`` and ``out`` are contiguous ``(rows, ...)`` buffers that the group
    keeps for its whole run, so the binder is built once per drive and group
    and holds every view a tick needs. Each call writes, into its row of
    ``out``, the drive of every row in ``live`` from what ``x`` holds, and
    ``counts`` holds each row's spikes. ``plan`` is the layer's plan (see
    :func:`_step_plan`), which only a convolution's binder calls, and
    ``weights`` a dense-like layer's column-major ``(neurons, inputs)``
    matrix, or ``None`` for a convolution. ``exact`` answers
    :func:`_exact_sums` for ``weights`` (the engine passes the spec's memo,
    and by default the binder asks itself); a group of more than one row
    asks it once, the first time a tick would take the product.

    In a group of more than one row, a matrix whose sums are exact drives
    the live rows by one product, ``np.matmul`` of their spikes copied to
    float64 by ``weights.T``, one GEMM: a matrix of at most
    ``_EVENT_MIN_WEIGHTS`` weights at every tick, a larger one at a tick
    whose live rows spiked more than half its inputs in all. Its sums are
    exact, so each row's is a lone run's, at any OpenBLAS thread count; a
    silent row gets +0.0, and a row that has left keeps its bytes.

    Otherwise, and in a group of one, a small matrix takes the full product
    of every row, live or not, in one stacked ``np.matmul``, which numpy
    runs as one BLAS matrix-vector call per row, the call ``np.dot`` makes
    for one row alone, so each row adds its sum in a lone run's order (but
    for a 1x1 matrix, whose silent product is +0.0 where ``np.dot`` gives
    the weight times 0.0). Nothing reads a row that has left, and its spikes
    through finite weights keep its drive finite for the group's one-call
    finiteness check.

    A larger matrix there takes the one event-sum path (see
    :func:`_event_sums`), which sums each live row's spiking inputs alone,
    so a row's sum is a lone run's whatever the group size. A convolution's
    plan is called once per live row with spikes. A silent row is not
    summed, and its drive is the +0.0 an empty sum gives, whatever sign of
    zero a product would have; a neuron step adds either zero alike.

    A Poisson-fed first layer whose sums are exact takes none of these,
    but :func:`_bind_block_drive`, a block of steps ahead.
    """
    rows = len(out)
    if weights is None:
        pairs = [(x[p], out[p]) for p in range(rows)]

        def planned(counts: np.ndarray, live: list[int]) -> None:
            counts = counts.tolist()
            for p in live:
                if counts[p]:
                    plan(*pairs[p])
                else:
                    pairs[p][1].fill(0.0)

        return planned
    flat = x.reshape(rows, -1)
    small = weights.size <= _EVENT_MIN_WEIGHTS
    cast = np.empty(flat.shape) if small or rows > 1 else None  # the float64 operand
    if small:
        source, operand = x.reshape(rows, -1, 1), cast.reshape(rows, -1, 1)
        product = out.reshape(rows, -1, 1)

        def stacked(counts: np.ndarray, live: list[int]) -> None:
            np.copyto(operand, source)
            np.matmul(weights, operand, product)

        fallback = stacked
    else:
        fallback = _event_sums(weights, flat, out)
    if rows == 1:
        return fallback
    if exact is None:
        exact = partial(_exact_sums, weights)
    half, by_inputs = flat.shape[1] // 2, weights.T
    verdict: list[bool] = []  # the check's answer, once asked

    def grouped(counts: np.ndarray, live: list[int]) -> None:
        # more spikes than half the inputs: 2 * spikes > inputs
        if small or sum(counts[live].tolist()) > half:
            if not verdict:
                verdict.append(exact())
            if verdict[0]:
                if len(live) == rows:
                    np.copyto(cast, flat)
                    np.matmul(cast, by_inputs, out)
                else:
                    part = cast[: len(live)]
                    np.copyto(part, flat[live])
                    out[live] = np.matmul(part, by_inputs)
                return
        fallback(counts, live)

    return grouped


#: a first layer driven ahead takes blocks of the fewest steps that make at
#: least this many (step, row) pairs of its group, ...
_AHEAD_PAIRS = 64
#: ... of at most this many steps
_AHEAD_STEPS = 16
#: a block of a matrix above ``_EVENT_MIN_WEIGHTS`` weights whose pairs
#: spiked fewer than 1 in this many of their inputs keeps the event sums
_AHEAD_SPARSE = 16


def _ahead_layer(rt: list[_LayerRT]) -> _LayerRT | None:
    """The first spiking layer, where spike inputs would drive it a block of
    steps ahead: a dense-like layer (dense, locally connected or recurrent)
    with nothing but flattens before it, whose feedforward drive depends on
    the input spikes alone, never on the network's state; else ``None``."""
    for r in rt:
        if r.spiking:
            return None if r.spec.kind is LayerKind.CONV2D else r
        if r.spec.kind is not LayerKind.FLATTEN:
            return None
    return None


def _block_steps(rows: int, t_max: int) -> int:
    """The most steps of each block of a first layer driven ahead in a group
    of ``rows``: the fewest that make ``_AHEAD_PAIRS`` (step, row) pairs, at
    most ``_AHEAD_STEPS`` and at most the step budget: 16 for one row, 4
    for 16 rows. A block takes fewer where the group budget holds fewer
    (see :func:`_ahead_steps`)."""
    return min(_AHEAD_STEPS, t_max, -(-_AHEAD_PAIRS // rows))


def _bind_block_drive(
    weights: np.ndarray, x: np.ndarray, out: np.ndarray
) -> Callable[[np.ndarray, list[int]], None]:
    """A first layer's drive a block of steps ahead, bound to a group's spike
    block ``x`` and drive block ``out``, as ``drive(counts, live)``.

    ``x`` is a ``(steps, rows, ...)`` boolean buffer of the input spikes of
    up to ``steps`` steps, and ``out`` their ``(steps, rows, neurons)``
    drives, both kept for the group's whole run. ``weights`` is the layer's
    column-major ``(neurons, inputs)`` matrix, whose sums the caller has
    checked exact (see :func:`_exact_sums`). ``counts`` holds the spikes of
    each row at each of the block's first ``n = len(counts)`` steps, and
    each call writes those steps' drives of every row in ``live``.

    The block takes one product, ``np.matmul`` of its live (step, row)
    pairs' spikes copied to float64 by ``weights.T``, one GEMM. Its sums are
    exact, so each pair's drive has the bits a lone run's event sums give
    at that step, in any order and at any OpenBLAS thread count; a silent
    pair gets +0.0. A matrix of more than ``_EVENT_MIN_WEIGHTS`` weights
    whose pairs spiked fewer than one in ``_AHEAD_SPARSE`` of their inputs
    keeps the event sums instead (see :func:`_event_sums`), step by step
    into the block, where the gathers cost less than the product. A row
    not in ``live`` keeps its bytes.
    """
    steps, rows = out.shape[:2]
    flat = x.reshape(steps, rows, -1)
    inputs = flat.shape[2]
    cast = np.empty(flat.shape)  # the float64 operand
    by_inputs = weights.T
    events = None
    if weights.size > _EVENT_MIN_WEIGHTS:
        events = [_event_sums(weights, *pair) for pair in zip(flat, out)]

    def drive(counts: np.ndarray, live: list[int]) -> None:
        n = len(counts)
        if events is not None:
            if _AHEAD_SPARSE * int(counts[:, live].sum()) < n * len(live) * inputs:
                for j in range(n):
                    events[j](counts[j], live)
                return
        if len(live) == rows:
            operand = cast[:n].reshape(n * rows, inputs)
            np.copyto(operand, flat[:n].reshape(n * rows, inputs))
            np.matmul(operand, by_inputs, out[:n].reshape(n * rows, -1))
        else:
            operand = cast.reshape(-1)[: n * len(live) * inputs].reshape(n, len(live), inputs)
            np.copyto(operand, flat[:n, live])
            product = np.matmul(operand.reshape(-1, inputs), by_inputs)
            out[:n, live] = product.reshape(n, len(live), -1)

    return drive


#: the output rows of each block of an analog-fed dense-like layer's product
_ROW_BLOCK = 128


def _row_block(neurons: int) -> int | None:
    """The rows of each block of an analog-fed dense-like layer of ``neurons``,
    or ``None`` for one block: :data:`_ROW_BLOCK` where it divides a larger
    ``neurons``.

    Only equal blocks: with OpenBLAS 0.3.31 at 1 to 3 threads, blocks of 128
    rows give every row's sum bitwise as the product of the whole matrix
    does, at every multiple of 128 rows up to 1,024 (see the engine tests),
    where a shorter last block often does not (65 rows in blocks of 64, or
    129 and 513 in blocks of 64 or 128, at 100 to 3,000 inputs).
    """
    return _ROW_BLOCK if neurons > _ROW_BLOCK and neurons % _ROW_BLOCK == 0 else None


def _bind_static_drive(
    plan: Callable | None, weights: np.ndarray | None, x: np.ndarray, out: np.ndarray
) -> Callable[[list[int]], None]:
    """The analog-fed first layer's drive, bound to a group's static outputs ``x``
    and drives ``out``, as ``drive(live)``.

    Each call writes, into its row of ``out``, the drive of every row in
    ``live`` from its row of ``x``, a ``(rows, *input_shape)`` float64 buffer.
    ``plan`` is a convolution's plan (see :func:`_step_plan`), which takes
    each row in one call. ``weights`` are a dense-like layer's: its
    column-major ``(neurons, inputs)`` matrix, one block, or ``(blocks, rows,
    inputs)`` row blocks (see :func:`_row_block`), each F-contiguous; and
    ``None`` for a convolution. For each block in turn, every live row takes
    one ``np.dot`` of it into that block's columns of ``out``: the BLAS
    matrix-vector call ``np.dot`` makes on the whole matrix, so each row
    adds its sums in a lone run's order, while the block, 1.4 MB at 128 rows
    of 1,352 inputs, stays in the cache from one row to the next: the group
    reads each weight from memory once, where a product of the whole matrix
    per row reads it once per row.
    """
    if plan is not None:
        products = [(plan, x, out)]
    else:
        blocks = weights if weights.ndim == 3 else weights[None]
        flat, dot = x.reshape(len(x), -1), np.dot
        products = [
            (partial(dot, block), flat, part)
            for block, part in zip(blocks, np.split(out, len(blocks), axis=1))
        ]

    def drive(live: list[int]) -> None:
        for product, inputs, outputs in products:
            for k in live:
                product(inputs[k], outputs[k])

    return drive


def _synaptic_events(rt: _LayerRT, spikes: np.ndarray) -> np.ndarray:
    """Realized connections the spikes entering layer ``rt`` reach, per sample.

    A float of ``rt.fanout``'s dtype, whose value is the exact integer count.
    """
    return np.dot(spikes.reshape(-1, rt.fanout.size), rt.fanout)


def _non_finite_rows(values: np.ndarray, live: list[int]) -> list[int]:
    """The rows in ``live`` of a ``(rows, neurons)`` array that hold a non-finite value."""
    bad = ~np.isfinite(values[live]).all(axis=1)
    return [live[p] for p in np.flatnonzero(bad).tolist()]


def _blocks(spiking: list[_LayerRT]) -> list[tuple[int, int, NeuronModelSpec]]:
    """Consecutive spiking layers that share a neuron model, as blocks: each
    ``(first, stop, model)``, the range of its layers' positions in ``spiking``."""
    blocks, first = [], 0
    for model, members in groupby(spiking, key=lambda r: r.spec.neuron_model):
        stop = first + len(list(members))
        blocks.append((first, stop, model))
        first = stop
    return blocks


def _check_static(index: int, values: np.ndarray) -> None:
    """Raise :class:`NonFiniteState` unless static layer ``index``'s flat ``values`` are finite.

    A NaN or an infinity always reaches the sum of the squares of the
    values, and only a sum that is not finite (as that of finite values
    above 1.3e154 can be) sends them to the scan that decides, as a tick's
    check does.
    """
    if not isfinite(np.dot(values, values)) and not np.isfinite(values).all():
        raise NonFiniteState(f"layer {index} produced non-finite values in the static stage")


def _static_stage(static: list[_LayerRT]) -> Callable[[np.ndarray], np.ndarray]:
    """The static stage ``static`` of one group, as a map of a sample's input to its output.

    Every layer writes into buffers allocated here, once per group: a
    weighted layer's plan writes its drive into one, which its activation
    then biases and rectifies in place, and a pool writes its column
    maximum and its output into two. The output of one call views them, so
    it is read before the next call. Each weighted layer and pool is
    checked by :func:`_check_static`: a weighted layer after its bias add
    and before the maximum, which would rectify a drive that overflowed to
    -inf into 0.0, and a pool after it runs. A flatten only reshapes values
    its input layer checked (or the analog input, which is finite), so it
    is not checked again.
    """
    stages = []
    for r in static:
        layer = r.spec
        if layer.kind is LayerKind.FLATTEN:
            stages.append((r, None, None, None, None, None))
            continue
        values = np.empty(r.neurons)
        shaped = values.reshape(layer.output_shape)
        check = partial(_check_static, r.index)
        if layer.kind is LayerKind.MAX_POOL2D:
            # the column maximum's shape, read off a view that allocates nothing
            columns = np.broadcast_to(0.0, layer.input_shape)[r.pool_taps[0][0]].shape
            stages.append((r, None, (r.pool_taps, np.empty(columns)), values, shaped, check))
        else:
            stages.append((r, _step_plan(r), None, values, shaped, check))

    def run(x: np.ndarray) -> np.ndarray:
        for r, plan, pool, values, shaped, check in stages:
            if values is None:  # a flatten
                x = x.reshape(-1)
                continue
            if pool is None:
                ann_activation(plan(x, values), r.spec.neuron_model, values, check=check)
            else:
                _max_pool(x, pool[0], shaped, pool[1])
                check(values)
            x = shaped
        return x

    return run


def _first_weights(
    net: NetworkSpec, rt: list[_LayerRT], mode: EncodingMode
) -> np.ndarray | None:
    """The first spiking layer's dense-like weights, which the compile leaves
    to the input, in the form an input of ``mode`` reads: input-major for
    spikes, row blocks for an analog input (see :func:`_bind_static_drive`).

    The spec builds the form on its first call and keeps it (see
    :func:`~emacprof.netspec.weight_tensor`). ``None`` where the compiled
    weights serve every input (a convolution), or nothing spikes.
    """
    first = next((r for r in rt if r.spiking), None)
    if first is None or first.weights is not None:
        return None
    rows = None if mode is EncodingMode.POISSON else _row_block(first.neurons)
    return weight_tensor(net, first.index, rows=rows)


#: the least budget of step state one lockstep group holds, over all its samples
_GROUP_STATE_BYTES = 1 << 18
#: one spiking neuron's share of a sample's step state, as :func:`_step_group`
#: allocates it in the group's one layer-major buffer set: current, voltage,
#: half-step voltage, fired flag, drive and spike
_NEURON_STATE_BYTES = sum(
    a.nbytes for a in (*vars(state_zeros(1)).values(), np.empty(1), np.empty(1, bool))
)


def _group_budget(rt: list[_LayerRT], t_max: int) -> tuple[int, Callable[[int], int]]:
    """A lockstep group's budget of bytes, and ``cost(steps)``, what one row of
    the group holds where a block ahead takes ``steps``.

    The budget is the larger of :data:`_GROUP_STATE_BYTES` (256 KiB) and the
    float32 bytes a run releases, half the float64 weight bytes: a spec
    that has run keeps each weight once, as float64 (see
    :class:`~emacprof.netspec.NetworkSpec`), and the float32 blocks, which
    the memory peak held while the float64 forms were built, are what a
    group may spend without raising it.

    A row holds the neuron state of every spiking layer, its step history,
    its encoded float64 input, a recurrent term, and the float64 operand of
    the product of each spike-fed dense-like matrix (see :func:`_bind_drive`)
    but the first spiking layer's; and, whichever is larger, that layer's
    analog drive with the float64 static output it is taken from (see
    :func:`_bind_static_drive`), or the Poisson input spikes with that
    layer's operand, and where that layer could be driven a block of steps
    ahead (see :func:`_ahead_layer`), its drive too, at each step of a
    block (see :func:`_bind_block_drive`). Every size is read off the
    layers' shapes, so a block is counted whether or not the weights sum
    exactly, and the first spiking layer's weights, which the compile leaves
    to the input, count as one float64 form. The history is counted as a
    group allocates it, at the step budget (one step without spiking
    layers), except that a pool of uneven fan-out before the first spiking
    layer is counted as if it stepped. Not counted: rasters, which only
    :func:`run_inference` records, and the one-byte outputs and row bands
    of the pools that step (see :func:`_bind_spike_pool`).
    """
    spiking = [r for r in rt if r.spiking]
    neurons = sum(r.neurons for r in spiking)
    ahead = _ahead_layer(rt) is not None
    # each step keeps a ledger row (the input's and every layer's spike
    # counts, the events reaching each layer of uneven fan-out but a
    # rectifier, which never steps) and the output layer's voltages and spikes
    uneven = sum(r.fanout is not None for r in rt if r.spiking or not r.weighted)
    counters = len(rt) + 1 + uneven
    history = (t_max if neurons else 1) * (8 * counters + 9 * rt[-1].neurons)
    inputs = prod(rt[0].spec.input_shape)
    row = _NEURON_STATE_BYTES * neurons + history + 8 * inputs
    if spiking:
        # each spike-fed matrix's inputs: none for a convolution, which takes no product
        operands = [
            8 * n_in
            for r in spiking
            for n_in in (
                0 if r.spec.kind is LayerKind.CONV2D else prod(r.spec.input_shape),
                0 if r.rec_weights is None else r.neurons,
            )
        ]
        first = operands.pop(0)  # only spikes feed the first layer's binder
        term = max((r.neurons for r in spiking if r.rec_weights is not None), default=0)
        analog = 8 * (spiking[0].neurons + prod(spiking[0].spec.input_shape))
        row += sum(operands) + 8 * term
        # a step's input spikes and the first layer's operand, and ahead, at
        # each step of a block, that layer's drive
        step = inputs + first + (8 * spiking[0].neurons if ahead else 0)
    weight_bytes = sum(
        8 * prod(weight_shape(r.spec)) + (0 if r.rec_weights is None else r.rec_weights.nbytes)
        for r in rt if r.weighted
    )

    def cost(steps: int) -> int:
        return row + max(analog, steps * step) if spiking else row

    return max(_GROUP_STATE_BYTES, weight_bytes // 2), cost


def _group_size(rt: list[_LayerRT], t_max: int) -> int:
    """How many samples one lockstep group steps together.

    As many as the group budget holds of what each sample's row of a group
    holds with a block ahead of one step, and at least one (see
    :func:`_group_budget`); a block ahead then takes the steps that the
    rest of the budget holds (see :func:`_ahead_steps`). The reference
    workloads get 34 samples a group on ``dense_poisson_roc``
    (784-512-512-256-256-10), so one group of 16, in blocks of 4 steps, 38
    on ``mixed_analog_recurrent``, so groups of 32 and 32, and 1 on
    ``conv_poisson_rate``: a wide convolutional network has small weights
    and much state, and more samples a group, though faster per sample,
    would double its memory peak.
    """
    budget, cost = _group_budget(rt, t_max)
    return max(1, budget // cost(1))


def _ahead_steps(rt: list[_LayerRT], rows: int, t_max: int) -> int:
    """The steps of each block ahead in a group of ``rows``: the most, up to
    :func:`_block_steps`, whose rows fit the group budget, and at least one,
    which every group that :func:`_group_size` allows fits."""
    budget, cost = _group_budget(rt, t_max)
    steps = _block_steps(rows, t_max)
    while steps > 1 and rows * cost(steps) > budget:
        steps -= 1
    return steps


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
    rt = derived(net, _compile)
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
    rec_fanin = np.array([lp.recurrent_fanin for lp in table.layers], dtype=np.int64)
    even_fanout = np.array([r.even_fanout for r in rt], dtype=np.int64)
    poisson = mode is EncodingMode.POISSON
    L = len(rt)
    for k in range(len(samples)):
        if k in run.failed:
            yield run.failed[k], None
            continue
        T = run.T_used[k]
        ledger = run.ledger[:T, k]
        totals = ledger.sum(axis=0)  # [0]: the input's spikes
        spikes = totals[1 : L + 1]
        out_spikes = run.spikes[:T, k].T
        out_volt = run.volts[:T, k].T
        if start is not None and coding is Coding.ROC:
            decision = decode_roc(out_spikes, out_volt)
        else:
            decision = decode_max_membrane(out_volt)
        # an input of a layer whose inputs all reach the same number of
        # neurons books that many events per spike
        ff_events = even_fanout * totals[:L]
        if run.uneven:
            ff_events[run.uneven] += totals[L + 1 :]
        trace = SpikeTrace(
            counts=ledger[:, 1 : L + 1].T,
            input_counts=ledger[:, 0] if poisson else None,
            feedforward_events=ff_events,
            # each spike books its layer's recurrent fan-out
            recurrent_events=rec_fanin * spikes,
            analog_events=analog_base * (T if encoder_per_step else 1),
            T_used=T,
            layer_neurons=table.neurons,
            n_inputs=table.n_inputs,
        )
        rates = _emac._rates(
            table.neurons, table.n_inputs, spikes, totals[0] if poisson else None
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
    The ledger holds every count of a step, for ``L`` layers:
    ``ledger[..., 0]`` are the input's spikes, ``ledger[..., l + 1]`` layer
    ``l``'s, and ``ledger[..., L + 1 + j]`` the events that reach layer
    ``uneven[j]``, one whose inputs reach differing numbers of neurons.
    ``spikes`` and ``volts`` are the output layer's.
    """

    T_used: list[int]
    failed: dict[int, NonFiniteState]
    ledger: np.ndarray
    spikes: np.ndarray
    volts: np.ndarray
    rasters: list[np.ndarray]
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
    ledger column, its ``(rows, neurons)`` output view, the buffers of the
    pools and the views of the flattens after it, and the ledger columns of
    the events its spikes bring to layers of uneven fan-out, the next spiking
    layer included, each with the input whose spikes it counts. Each spiking
    layer gets its drive view, its input binder and its recurrent binder
    (:func:`_bind_drive`). A tick then emits the encoder and every active
    spiking layer through one
    ``emit(source, step)``, the one place where spikes are counted and
    recorded, pools run, and the events reaching a layer of uneven fan-out
    are counted: where its input is made, at the step that input belongs
    to, which the layer reads unchanged when it takes that step. A first
    layer driven a block of steps ahead gets :func:`_bind_block_drive`
    instead of an input binder, and the encoder's output, the flattens
    after it and its events are bound with a leading step axis, drawn and
    emitted by ``emit_ahead`` once per block, at its first tick. One
    layer-major buffer set holds every spiking layer's state, drive and
    spikes, and a block is a range of its layers. The views each block steps
    of the active span, and that span's half-step voltages, which one dot
    product with themselves checks for finiteness each tick, are made when
    the active layers change, which only the ramps up and down do.
    """
    mode = samples[0].mode
    B = len(samples)
    L = len(rt)

    stepped = rt[start:] if start is not None else []
    spiking = [r for r in stepped if r.spiking]
    K = len(spiking)
    poisson = mode is EncodingMode.POISSON
    first = spiking[0] if spiking else None
    weights0 = _first_weights(net, rt, mode)
    # Histories, allocated at the step budget: sample k's steps are
    # [:T_used[k], k]. A static-only network runs one step, whose output
    # voltages are its head activation.
    steps = T_max if start is not None else 1
    # the events that reach layers of uneven fan-out, one column each
    uneven = [r.index for r in stepped if r.fanout is not None]
    # per step and sample: the ledger (see _Histories), the output spikes and
    # voltages, and the rasters
    layout = [(L + 1 + len(uneven), np.int64), (rt[-1].neurons, bool),
              (rt[-1].neurons, np.float64)] + [(r.neurons, bool) for r in rt if record_raster]
    try:
        ledger, spike_hist, volt_hist, *raster_hist = [
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
    # A Poisson-fed first layer whose sums are exact is driven a block of
    # steps ahead (see _bind_block_drive), asked of the spec's memo.
    ahead = (
        poisson and first is not None and _ahead_layer(rt) is first
        and derived(net, _layer_sums_exact, first.index, False)
    )
    # held[(s - 1) % len(held)]: the first layer's drive at step s, made
    # before its tick: the analog drive, the same at every step, or the
    # drives of a block ahead; the static outputs the analog one is taken
    # from live until the first tick
    held = static_out = static_drive = None
    if first is not None and not poisson:
        held = np.zeros((1, B, first.neurons))
        static_out = np.empty((B, *first.spec.input_shape))
        plan = _step_plan(first) if weights0 is None else None
        static_drive = _bind_static_drive(plan, weights0, static_out, held[0])
    elif ahead:
        held = np.zeros((_ahead_steps(rt, B, T_max), B, first.neurons))
    # Overflow is expected where a sample leaves the finite range, and the
    # checks below report it per sample, so numpy stays quiet.
    with np.errstate(over="ignore", invalid="ignore"):
        static_stage = _static_stage(rt[:start])
        for k, encoded in enumerate(samples):
            if tuple(encoded.values.shape) != net.input_shape:
                raise ShapeMismatch(
                    f"input tensor shape {tuple(encoded.values.shape)} does not match "
                    f"the network input {net.input_shape}"
                )
            try:
                x = static_stage(encoded.values)
            except NonFiniteState as exc:
                failed[k] = exc
                continue
            if start is None:
                volt_hist[0, k] = x.reshape(-1)
                continue
            if static_out is not None:
                static_out[k] = x
            live.append(k)
        if static_drive is not None:
            static_drive(live)
        del static_stage, static_drive, static_out  # their buffers, before the first tick

        # Below, arrays hold a row per sample of the group, which keeps its
        # place for the whole run: a sample that decides or fails leaves
        # ``live``, and nothing reads its row again, so past its last step
        # the row's state, drives and histories may hold anything. Each live
        # sample's drive sums in a lone run's order, or exactly (see
        # _bind_drive), whatever the group size; the neuron steps, the
        # counters and the history writes serve all rows at once.
        draw = poisson_slice  # looked up per group: a traced run wraps it
        # spikes per row, bound to a stage's rows: one row takes a plain
        # count, which broadcasts alike and costs several times less than a
        # count along an axis, and several rows sum their bytes
        bind_count = (lambda rows: partial(np.count_nonzero, rows)) if B == 1 else _bind_counts
        # counts[c][s - 1]: step s's row of ledger column c (see _Histories)
        counts = [ledger[:, :, c] for c in range(ledger.shape[2])]
        events = dict(zip(uneven, counts[L + 1 :]))
        # every spiking layer's state, drive and spikes, flat and layer-major:
        # spiking layer k keeps its (B, neurons) values from B * cols[k] on, so
        # any span of layers is one contiguous range, which one numpy call steps
        cols = [0, *accumulate(r.neurons for r in spiking)]
        state = state_zeros(B * cols[-1])
        drives = np.empty(B * cols[-1])
        fired = np.zeros(B * cols[-1], dtype=bool)

        def span(k: int, stop: int | None = None) -> slice:
            """Where spiking layers ``k`` to ``stop`` lie (layer ``k`` alone by default)."""
            return slice(B * cols[k], B * cols[k + 1 if stop is None else stop])

        # looked up per group: a traced run wraps step_fn
        blocks = [(first, stop, step_fn(m.kind), m) for first, stop, m in _blocks(spiking)]
        # the input spikes of a step, or of a block ahead, at each of its steps
        lead = (len(held), B) if ahead else (B,)  # the leading axes of x below
        x_in = np.zeros((*lead, *net.input_shape), dtype=bool) if poisson else None
        # one buffer serves every recurrent term, each added as soon as made
        rec_buf = np.empty(
            B * max((r.neurons for r in spiking if r.rec_weights is not None), default=0)
        )
        terms = []
        # sources[j]: source j's stages, each as (count column, rows view,
        # its counter or None for a flatten, which keeps its input's count,
        # bound pool or None, raster column or None), and the events it
        # carries, as (event column, layer, input); layers[k]: spiking layer
        # k's drive view, input binder (None for a first layer whose drives
        # are held), input and own count columns, and recurrent binder with
        # its term. x is what the next layer reads. Source 0 runs only under
        # Poisson inputs, so an analog-fed first layer of uneven fan-out
        # counts nothing; ahead, its views and x have a leading step axis
        # until the first spiking layer, and only flattens come before it.
        if poisson:  # ahead, one call counts every (step, row) pair of a block
            spikes_in = x_in.reshape(*lead, -1)
            count_in = _bind_counts(spikes_in) if ahead else bind_count(spikes_in)
            stages = [(counts[0], spikes_in, count_in, None, None)]
        else:
            stages = []
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
                pool = _bind_spike_pool(r.spec, x, y)
                rows = y.reshape(B, -1)
                stages.append((counts[r.index + 1], rows, bind_count(rows), pool, raster))
                x = y
            elif r.spec.kind is LayerKind.FLATTEN:  # a view that re-emits its input
                x = x.reshape(*lead, -1)
                stages.append((counts[r.index + 1], x, None, None, raster))
            else:
                k = len(layers)
                drive = drives[span(k)].reshape(B, r.neurons)
                out = fired[span(k)].reshape(B, r.neurons)
                ff = rec = None
                # whether a matrix's sums are exact, asked of the spec's memo
                exact = partial(derived, net, _layer_sums_exact, r.index)
                if ahead and k == 0:
                    block_drive = _bind_block_drive(weights0, x, held)
                elif x is not None:  # spikes feed it
                    if r.spec.kind is LayerKind.CONV2D:
                        ff = _bind_drive(_step_plan(r), None, x, drive)
                    else:
                        weights = weights0 if k == 0 else r.weights
                        ff = _bind_drive(None, weights, x, drive, partial(exact, False))
                if r.rec_weights is not None:
                    term = rec_buf[: B * r.neurons].reshape(B, r.neurons)
                    rec = _bind_drive(None, r.rec_weights, out, term, partial(exact, True)), term
                    terms.append(term)
                layers.append((drive, ff, counts[r.index], counts[r.index + 1], rec))
                x, lead = out.reshape(B, *r.spec.output_shape), (B,)
                stages, carried = [(counts[r.index + 1], out, bind_count(out), None, raster)], []
                sources.append((stages, carried))
        out_spikes = fired[span(K - 1)].reshape(B, rt[-1].neurons) if K else None
        out_volt = state.v_peak[span(K - 1)].reshape(B, rt[-1].neurons) if K else None
        no_counts = np.zeros(B, dtype=np.int64)
        # the active positions (lo, hi) of the last tick, its block steps and
        # its span's half-step voltages
        active, calls, v_peak = None, [], None
        # a live row's lowest non-finite (step, layer) so far
        pending: dict[int, tuple[int, int]] = {}

        def block_steps(lo: int, hi: int) -> list[tuple]:
            """Each block's step of the layers at positions ``lo`` to ``hi``:
            its function, state, drive, model and spikes."""
            made = []
            for first, stop, step, model in blocks:
                first, stop = max(lo, first), min(hi, stop)
                if first < stop:
                    part = span(first, stop)
                    views = NeuronState(**{name: a[part] for name, a in vars(state).items()})
                    made.append((step, views, drives[part], model, fired[part]))
            return made

        def reset(p: int) -> None:
            """Zero the state and drives of row ``p``, which leaves non-finite.

            Nothing reads the row again, but it keeps stepping with the
            group; zeroed, it stays finite and no longer fails the one-call
            finiteness check of each later tick.
            """
            for k in range(K):
                for a in (*vars(state).values(), drives):
                    a[span(k)].reshape(B, -1)[p] = 0
            for term in terms:
                term[p] = 0.0
            if held is not None:
                held[:, p] = 0.0

        def emit(source: int, s: int) -> None:
            """Count and record the step-``s`` output of ``source`` and of the pools
            and flattens after it, and the events it carries to uneven fan-outs."""
            stages, carried = sources[source]
            for column, rows, counter, pool, raster in stages:
                if pool is not None:
                    pool()
                if counter is not None:  # a flatten keeps its input's count
                    count = counter()
                column[s - 1] = count
                if raster is not None:
                    raster[s - 1] = rows
            for column, r, spikes in carried:
                column[s - 1] = _synaptic_events(r, spikes)

        def emit_ahead(s: int, n: int) -> np.ndarray:
            """:func:`emit` of the encoder's block of ``n`` steps from step ``s``:
            one count of every (step, row) pair, which it returns, and one dot
            for each layer of uneven fan-out, whose integer sums are exact in
            any order."""
            stages, carried = sources[0]
            block = slice(s - 1, s - 1 + n)
            count = stages[0][2]()[:n]  # the whole block's, of which n steps are drawn
            for column, rows, _, _, raster in stages:  # the input and flattens
                column[block] = count
                if raster is not None:
                    raster[block] = rows[:n]
            for column, r, spikes in carried:
                column[block] = _synaptic_events(r, spikes[:n]).reshape(n, B)
            return count

        # Tick tau advances spiking layer k by step tau - k: every drive reads
        # outputs of the previous tick (the first layer's, the encoder's of
        # this one), so each block steps all its active layers at once.
        for tau in range(1, T_max + K):
            if not live:
                break
            lo, hi = max(0, tau - T_max), min(K, tau)  # the active positions
            if poisson and tau <= T_max:
                if not ahead:
                    for k in live:
                        draw(samples[k], tau, x_in[k])
                    emit(0, tau)
                elif (tau - 1) % len(held) == 0:  # a block's first step
                    n = min(len(held), T_max + 1 - tau)
                    for j in range(n):
                        for k in live:
                            draw(samples[k], tau + j, x_in[j, k])
                    block_drive(emit_ahead(tau, n), live)
            for k in range(lo, hi):
                drive, ff, in_counts, own_counts, rec = layers[k]
                s = tau - k
                if ff is None:
                    base = held[(s - 1) % len(held)]
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
                v_peak = state.v_peak[span(lo, hi)]
            for step, views, drive, model, spikes in calls:
                step(views, drive, model, spikes=spikes)
            # a non-finite current makes the half-step voltage non-finite, and
            # the reset only subtracts a finite threshold; a NaN or an infinity
            # always reaches the sum of squares (finite voltages whose squares
            # sum past the float range, as one |v| above 1.3e154 does, send
            # the tick to the scan, which finds no row)
            if not isfinite(np.dot(v_peak, v_peak)):
                for k in range(lo, hi):
                    found = (tau - k, spiking[k].index)
                    for p in _non_finite_rows(state.v_peak[span(k)].reshape(B, -1), live):
                        pending[p] = min(pending.get(p, found), found)
            for k in range(lo, hi):
                emit(k + 1, tau - k)
            t = tau - K + 1  # the output layer's step
            if t < 1:
                continue
            spike_hist[t - 1] = out_spikes
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

    return _Histories(T_used, failed, ledger, spike_hist, volt_hist, raster_hist, uneven)


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


def _groups(samples: Iterable[EncodedInput], n: int, size: int) -> Iterator[list[EncodedInput]]:
    """Consecutive runs of at most ``size`` of ``n`` samples that share an encoding mode.

    They make ``ceil(n / size)`` groups of near-equal size, the
    larger ones first (150 samples at most 54 a group: 50, 50, 50),
    so the largest group, which sets the memory peak, is as small as the
    group count allows; a change of encoding mode also ends a group. Each
    group is yielded as soon as it is full, before the sample that starts
    the next one is read.
    """
    count = -(-n // size)
    group: list[EncodedInput] = []
    boundary = 1  # the next even boundary: after ceil(boundary * n / count) samples
    k = 0  # samples read; enumerate would hold the last one while it reads on
    for sample in samples:
        if group and sample.mode is not group[0].mode:
            yield group
            group = []
        group.append(sample)
        del sample  # named, it would outlive its group while the next one is read
        k += 1
        if k == -(-boundary * n // count):
            yield group
            group, boundary = [], boundary + 1


def run_dataset(
    net: NetworkSpec,
    samples: Sequence[EncodedInput],
    *,
    t_max: int | None = None,
    coding: Coding | str | None = None,
    encoder_per_step: bool = False,
) -> AggregateStats:
    """Run every sample and aggregate; numeric blow-ups are reported, not hidden.

    Compilation happens once per network (see :func:`_compile`), and the
    samples run in lockstep groups (see :func:`_groups`). ``samples`` is
    read once, by index and in order, one group at a time, so it may load
    each sample when indexed (as the command line does), and a run then
    holds one group's inputs, while it reads the next group too. Each
    success keeps its outcome and one row of per-layer values in one array,
    which, sliced to the successes, makes one column of ``kept`` per
    quantity. Each method's columns make one energy report,
    whose own totals add them as a report adds one sample's values. Each
    statistic is reduced once, over a 1-D array in sample order: a running
    sum or a 2-D reduction would change the last bits of the reported
    moments.
    """
    n = len(samples)
    if n == 0:
        raise EmptyDataset("the dataset holds no samples")
    rt = derived(net, _compile)
    coding, T_max = _settings(net, t_max, coding)
    size = _group_size(rt, T_max)
    # flatten rows re-emit upstream spikes; keep them out of the network total
    counted = np.array([layer.kind is not LayerKind.FLATTEN for layer in net.layers])
    ref_kind, e_syn_ref, e_upd_ref = _reference_params(net)
    # rows[k, l]: success k's layer l: exact, analytic (E_syn, E_upd, E_rec), spikes
    rows = np.empty((n, len(net.layers), 7))
    ok = 0
    outcomes: list[SampleOutcome | None] = []
    failures: list[tuple[int, str]] = []
    # the first spiking layer's form is built as soon as the first input is
    # read: a parsed spec's float32 container lives until then, so the memory
    # peak holds one input, not a group of them
    # read by index: a Sequence's own iterator holds each item while it reads
    # the next one
    inputs = (samples[k] for k in range(n))
    first = next(inputs)
    _first_weights(net, rt, first.mode)
    inputs = chain(iter([first]), inputs)  # an exhausted iterator drops its list,
    del first  # and then only the first group holds the first input
    for group in _groups(inputs, n, size):
        results = _run_group(
            net,
            rt,
            group,
            T_max=T_max,
            coding=coding,
            record_raster=False,
            encoder_per_step=encoder_per_step,
        )
        del group  # held here, it would live on while the splitter reads the next group
        for result, spikes in results:
            if isinstance(result, NonFiniteState):
                failures.append((len(outcomes), str(result)))
                outcomes.append(None)
                continue
            outcomes.append(SampleOutcome(result.trace.T_used, result.decision))
            rows[ok] = [
                (e.E_syn, e.E_upd, e.E_rec, a.E_syn, a.E_upd, a.E_rec, s) for e, a, s in
                zip(result.energy.per_layer, result.energy_analytic.per_layer, spikes.tolist())
            ]
            ok += 1
            # a result views its group's histories: held here, a group's last
            # one would keep them alive while the next group steps
            del result
    if failures:
        logger.warning("%d of %d samples aborted", len(failures), n)

    table = _emac.price_table(net)
    # kept[l, :, k]: one contiguous column over the successes per quantity
    kept = rows[:ok].transpose(1, 2, 0).copy()
    T_used = np.array([o.T_used for o in outcomes if o is not None], dtype=np.float64)
    analytic, exact = (
        _emac.EnergyReport(
            method=method,
            T_used=T_used,
            per_layer=tuple(
                _emac.LayerEnergy(lp.name, lp.kind, *kept[i, j : j + 3])
                for i, lp in enumerate(table.layers)
            ),
            approx_padding=table.approx_padding and ok > 0,
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
        n_samples=n,
        n_ok=ok,
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
