"""Network descriptions: layer specs, structural counts, and file formats.

A network is described by two artifacts:

* a UTF-8 JSON manifest naming the layer stack, the decode scheme
  (``"rate"`` or ``"roc"``), and the time budget;
* a little-endian binary weights container holding named blocks of IEEE-754
  binary32 values in row-major order.

Manifest schema (all enum values lowercase)::

    {
      "version": 1,
      "coding": "rate" | "roc",
      "max_timesteps": <int >= 1>,
      "layers": [
        {
          "kind": "dense" | "conv2d" | "locally_connected" |
                  "recurrent_dense" | "max_pool2d" | "flatten",
          "input_shape": [...], "output_shape": [...],
          "kernel": [kh, kw], "stride": [sh, sw],      # spatial kinds
          "padding": "valid" | <int p >= 0>,           # conv2d only
          "neuron_model": {"kind": "lif" | "ifl" | "ann_relu",
                           "dt": ..., "tau_syn": ..., "tau_mem": ...,
                           "v_th": ..., "bias": ..., "spike_once": ...},
          "weights_ref": "<block name>",
          "recurrent_weights_ref": "<block name>"      # recurrent_dense only
        }, ...
      ]
    }

Weights container layout (little-endian)::

    magic "EMWT" | u32 version | u32 entry count
    per entry: u32 name length | name bytes (UTF-8) | u64 byte offset
               | u64 element count
    payload: float32 blocks, each starting at its entry's absolute offset

Weight tensor layouts: dense-like blocks are (n_n, fan-in) row-major,
convolutions are (C_out, C_in, kh, kw). Locally connected layers store the
full (n_n, n_inputs) matrix and must be exactly zero outside each neuron's
receptive field; the fan-in used for energy accounting is the receptive
field size, which the valid-padding geometry keeps constant per neuron.

Structural counts per layer: ``neurons`` is the product of the output
shape; ``fanin`` is the number of presynaptic connections per neuron
(kernel taps times input channels for spatial kinds, pool area for
pooling, zero for flatten); ``recurrent_fanin`` is the all-to-all fan-in
``neurons`` for recurrent layers and zero otherwise.
"""

from __future__ import annotations

import io
import json
import logging
import struct
import weakref
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from enum import Enum
from math import prod

import numpy as np

from .codec import EncodingMode
from .errors import MaskViolation, SchemaError, ShapeMismatch, UnknownRef
from .neuron import NeuronKind, NeuronModelSpec

__all__ = [
    "Coding",
    "LayerKind",
    "LayerSpec",
    "LayerCounts",
    "NetworkSpec",
    "derived",
    "conv_output_hw",
    "fanout_map",
    "realized_connections",
    "layer_counts",
    "static_split",
    "step_count",
    "weight_shape",
    "weight_tensor",
    "recurrent_weight_tensor",
    "lcl_mask",
    "read_weights_container",
    "write_weights_container",
    "parse_manifest",
    "serialize_manifest",
    "parse_network",
    "serialize_network",
    "networks_equal",
]

logger = logging.getLogger(__name__)

WEIGHTS_MAGIC = b"EMWT"
WEIGHTS_VERSION = 1
MANIFEST_VERSION = 1


class Coding(str, Enum):
    RATE = "rate"
    ROC = "roc"


class LayerKind(str, Enum):
    DENSE = "dense"
    CONV2D = "conv2d"
    LOCALLY_CONNECTED = "locally_connected"
    RECURRENT_DENSE = "recurrent_dense"
    MAX_POOL2D = "max_pool2d"
    FLATTEN = "flatten"


WEIGHTED_KINDS = frozenset(
    {
        LayerKind.DENSE,
        LayerKind.CONV2D,
        LayerKind.LOCALLY_CONNECTED,
        LayerKind.RECURRENT_DENSE,
    }
)
SPATIAL_KINDS = frozenset(
    {LayerKind.CONV2D, LayerKind.LOCALLY_CONNECTED, LayerKind.MAX_POOL2D}
)


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the stack. ``padding`` is the zero-padding width; 0 means
    valid (no padding). Only conv2d accepts nonzero padding.

    Every kernel, stride and shape value is an integer of at least 1 and the
    padding one of at least 0, by :func:`_integer`: a float or bool raises
    :class:`SchemaError` rather than being truncated, and numpy integers are
    stored as ``int``. A kernel and a stride hold two values each.
    """

    kind: LayerKind
    input_shape: tuple[int, ...]
    output_shape: tuple[int, ...]
    kernel: tuple[int, int] | None = None
    stride: tuple[int, int] | None = None
    padding: int = 0
    neuron_model: NeuronModelSpec | None = None
    weights_ref: str | None = None
    recurrent_weights_ref: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", LayerKind(self.kind))
        what = self.kind.value
        for name in ("kernel", "stride", "input_shape", "output_shape"):
            values = getattr(self, name)
            if values is not None:
                label = f"{what}: every {name} value"
                values = tuple([_integer(d, label) for d in values])
                if name in ("kernel", "stride") and len(values) != 2:
                    raise SchemaError(f"{what}: {name} must hold two values, got {values}")
                object.__setattr__(self, name, values)
        object.__setattr__(self, "padding", _integer(self.padding, f"{what}: padding", 0))


@dataclass(frozen=True)
class LayerCounts:
    neurons: int
    fanin: int
    recurrent_fanin: int


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """A validated layer stack plus its weight blocks (flat float32).

    A spec cannot change once constructed, so what is built from it, such
    as the engine's compiled layers, holds for as long as it lives, and
    :func:`derived` keeps it that long.
    ``weights`` is a read-only mapping of blocks backed by immutable
    ``bytes``, so no holder can make one writable again: a block whose memory
    is a ``bytes`` object is kept as it is, any other is copied into one.

    The spec holds each block once. The first :func:`weight_tensor` or
    :func:`recurrent_weight_tensor` call for a block builds its float64
    form, which the spec keeps in place of the float32 block: ``weights``
    then serves the block converted back to float32, which is exact, as a
    new read-only array over ``bytes``. Once every block of a parsed spec
    has its float64 form, nothing views the parsed container any more and
    it is freed, so a spec that has run holds 8 bytes a weight, not 4 + 8.
    A block that no layer references keeps its float32 form, and so keeps
    the container it views alive. A block read in two forms keeps both: the
    first spiking layer's takes row blocks under an analog input and its
    input-major form under spikes (see :func:`weight_tensor`), so a spec
    that the API runs both ways holds 16 bytes a weight of that layer (the
    command line parses a fresh spec for each call, which runs one way).
    """

    layers: tuple[LayerSpec, ...]
    weights: Mapping[str, np.ndarray]
    coding: Coding
    max_timesteps: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "coding", Coding(self.coding))
        t_max = step_count(self.max_timesteps, "max_timesteps")
        object.__setattr__(self, "max_timesteps", t_max)
        blocks = {name: _frozen(block) for name, block in self.weights.items()}
        object.__setattr__(self, "weights", _Blocks(blocks))
        validate_network(self)

    def __reduce__(self):
        # rebuild the spec from a plain dict of its float32 blocks
        weights = dict(self.weights)
        return NetworkSpec, (self.layers, weights, self.coding, self.max_timesteps)

    @property
    def input_shape(self) -> tuple[int, ...]:
        return self.layers[0].input_shape

    def layer_name(self, index: int) -> str:
        return f"{index}:{self.layers[index].kind.value}"


#: per network, what :func:`derived` built from it, by build and arguments
_DERIVED: weakref.WeakKeyDictionary[NetworkSpec, dict] = weakref.WeakKeyDictionary()


def derived(net: NetworkSpec, build: Callable, *args):
    """``build(net, *args)``, built on the first call for these arguments and
    kept for as long as ``net`` lives.

    Sound because a spec cannot change once constructed and nothing writes
    to what is kept. A build that raises keeps nothing, so each call raises
    anew; two threads whose first calls race build twice and keep either of
    two equal results. A pickled or deep-copied spec is another key.
    """
    key = (build, *args)
    try:
        return _DERIVED[net][key]
    except KeyError:
        pass
    value = build(net, *args)
    _DERIVED.setdefault(net, {})[key] = value
    return value


def _frozen(block) -> np.ndarray:
    """``block`` if its memory is a ``bytes`` object, else a copy backed by one.

    numpy refuses ``setflags(write=True)`` on an array over an immutable
    buffer, while a read-only array that owns its memory can be made
    writable by anyone who holds it.
    """
    base = block
    while isinstance(base, np.ndarray):
        base = base.base
    if isinstance(base, bytes):
        return block
    block = np.asarray(block)
    if block.dtype.hasobject:  # no buffer to view; validation rejects it
        return block
    return np.frombuffer(block.tobytes(), dtype=block.dtype).reshape(block.shape)


class _Blocks(Mapping):
    """A spec's weight blocks by name, each held once: flat float32 as given,
    or the float64 forms :meth:`float64` built, by shape.

    Read, a block is flat float32 either way (see :class:`NetworkSpec`). A
    float64 form is stored before its float32 block is dropped, so a
    reader finds one or the other whatever another thread does.
    """

    __slots__ = ("_names", "_float32", "_float64")

    def __init__(self, blocks: dict[str, np.ndarray]) -> None:
        self._names = dict.fromkeys(blocks)
        self._float32 = blocks
        self._float64: dict[str, dict[tuple[int, ...], np.ndarray]] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._float32[name]
        except KeyError:
            pass
        # KeyError for a name that is no block; any form holds the same values
        form = next(iter(self._float64[name].values()))
        return _frozen(np.ascontiguousarray(form, dtype=np.float32).reshape(-1))

    def __contains__(self, name) -> bool:
        return name in self._names

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def float64(self, name: str, shape: tuple[int, ...], what: str) -> np.ndarray:
        """Block ``name`` as float64 in ``shape``, built and kept on the first call.

        A 4-D shape (a convolution's) is C-contiguous; any other form is
        column-major in its last two axes: each ``[..., :, :]`` matrix is
        F-contiguous. A block holding NaN or an infinity raises
        :class:`SchemaError` naming ``what`` and the block (see
        :meth:`check`), and nothing is stored. Two first calls
        that race build twice and keep one form. The form is a view of a
        read-only array only the spec holds, so the view cannot be made
        writable.
        """
        forms = self._float64.get(name)
        form = None if forms is None else forms.get(shape)
        if form is None:
            self.check(name, what)
            block = self[name]
            if len(shape) == 4:  # a convolution keeps its C order
                owner = block.astype(np.float64)
                owner.flags.writeable = False
                form = owner.reshape(shape)
            else:
                # float32 straight to a transposed float64 copy, in one pass: a
                # float64 conversion followed by a transposed copy costs
                # several times more
                owner = block.reshape(shape).swapaxes(-1, -2).astype(np.float64, order="C")
                owner.flags.writeable = False
                form = owner.swapaxes(-1, -2)
            form = self._float64.setdefault(name, {}).setdefault(shape, form)
            self._float32.pop(name, None)
        return form.view()

    def check(self, name: str, what: str) -> None:
        """Raise :class:`SchemaError` naming ``what`` and block ``name`` if it
        holds NaN or an infinity; a block with a float64 form passed already."""
        if name not in self._float64 and not np.isfinite(self[name]).all():
            raise SchemaError(f"{what}: weight block {name!r} holds non-finite values")


# ---------------------------------------------------------------------------
# geometry


def conv_output_hw(
    in_hw: tuple[int, int],
    kernel: tuple[int, int],
    stride: tuple[int, int],
    padding: int,
) -> tuple[int, int]:
    """Spatial output size: floor((in + 2p - k) / s) + 1 per axis.

    Each value must pass :func:`_integer`, at least 1 (0 for the padding).
    """
    padding = _integer(padding, "padding", 0)
    out = []
    for size, k, s in zip(in_hw, kernel, stride):
        size = _integer(size, "every input extent")
        k = _integer(k, "every kernel value")
        s = _integer(s, "every stride value")
        o = (size + 2 * padding - k) // s + 1
        if o < 1:
            raise ShapeMismatch(
                f"kernel {k} with stride {s} and padding {padding} does not fit "
                f"an input extent of {size}"
            )
        out.append(o)
    return out[0], out[1]


def _axis_coverage(in_size: int, k: int, s: int, p: int, out_size: int) -> np.ndarray:
    """How many kernel placements cover each input position along one axis.

    Placement ``o`` reads positions ``o*s - p .. o*s - p + k - 1``; positions
    past the last placement (stride overhang) are covered zero times.
    """
    y = np.arange(in_size)
    lo = np.ceil((y + p - k + 1) / s).astype(np.int64)
    hi = np.floor((y + p) / s).astype(np.int64)
    lo = np.maximum(lo, 0)
    hi = np.minimum(hi, out_size - 1)
    return np.maximum(hi - lo + 1, 0)


def fanout_map(layer: LayerSpec) -> np.ndarray:
    """Realized connections leaving each input position, shaped like the input.

    Summed against a spike tensor this gives the exact synaptic event count
    those spikes generate in this layer.
    """
    counts = layer_counts(layer)
    if layer.kind in (LayerKind.DENSE, LayerKind.RECURRENT_DENSE):
        return np.full(layer.input_shape, counts.neurons, dtype=np.int64)
    if layer.kind is LayerKind.FLATTEN:
        return np.zeros(layer.input_shape, dtype=np.int64)
    c_in, h, w = layer.input_shape
    kh, kw = layer.kernel
    sh, sw = layer.stride
    oh, ow = layer.output_shape[-2:]
    cov = np.outer(
        _axis_coverage(h, kh, sh, layer.padding, oh),
        _axis_coverage(w, kw, sw, layer.padding, ow),
    )
    if layer.kind is LayerKind.MAX_POOL2D:
        per_channel = cov  # pooling windows stay within one channel
    else:
        per_channel = cov * layer.output_shape[0]
    return np.broadcast_to(per_channel, (c_in, h, w)).astype(np.int64)


def realized_connections(layer: LayerSpec) -> int:
    """Exact number of (real input, output) connection pairs.

    Equals ``neurons * fanin`` when no kernel tap ever lands on padding and
    no input position is skipped; zero padding makes it strictly smaller.
    """
    return int(fanout_map(layer).sum())


# ---------------------------------------------------------------------------
# structural counts


def layer_counts(layer: LayerSpec) -> LayerCounts:
    n_n = prod(layer.output_shape)
    kind = layer.kind
    if kind in (LayerKind.DENSE, LayerKind.RECURRENT_DENSE):
        fanin = prod(layer.input_shape)
    elif kind in (LayerKind.CONV2D, LayerKind.LOCALLY_CONNECTED):
        fanin = layer.kernel[0] * layer.kernel[1] * layer.input_shape[0]
    elif kind is LayerKind.MAX_POOL2D:
        fanin = layer.kernel[0] * layer.kernel[1]
    else:  # flatten
        fanin = 0
    rec = n_n if kind is LayerKind.RECURRENT_DENSE else 0
    return LayerCounts(neurons=n_n, fanin=fanin, recurrent_fanin=rec)


def static_split(
    net: NetworkSpec, mode: EncodingMode
) -> tuple[list[int], int | None]:
    """Indices evaluated statically, and the first spiking layer (or None).

    The first spiking layer is not part of the static stage, but with an
    analog input its drive is static too and is priced the same way. A
    stochastic spike input cannot feed rectifier layers, so it is rejected
    on a network that has any.
    """
    if mode is EncodingMode.POISSON:
        if any(
            layer.kind in WEIGHTED_KINDS and not layer.neuron_model.kind.spiking
            for layer in net.layers
        ):
            raise SchemaError(
                "ann_relu layers consume static values; use analog encoding"
            )
        return [], 0
    for index, layer in enumerate(net.layers):
        if layer.kind in WEIGHTED_KINDS and layer.neuron_model.kind.spiking:
            return list(range(index)), index
    return list(range(len(net.layers))), None


# ---------------------------------------------------------------------------
# weight resolution


def _block(net: NetworkSpec, ref: str, index: int) -> np.ndarray:
    try:
        return net.weights[ref]
    except KeyError:
        raise UnknownRef(
            f"layer {index} references weight block {ref!r} which the "
            "container does not hold"
        ) from None


def _integer(value, what: str, least: int = 1) -> int:
    """``value``, a Python or numpy integer (not bool) of at least ``least``, as an
    ``int``; anything else raises :class:`SchemaError` naming ``what``.

    The one rule for every count a spec holds: step budgets, and the shape,
    kernel, stride and padding values of each layer.
    """
    if type(value) is int and value >= least:  # the common case, decided at once
        return value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise SchemaError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def step_count(value, field: str) -> int:
    """A step budget, by :func:`_integer`, with ``field`` naming it."""
    return _integer(value, f"{field}: the step budget")


def weight_shape(layer: LayerSpec, recurrent: bool = False) -> tuple[int, ...]:
    """Natural shape of a weighted layer's block, or with ``recurrent`` of a
    recurrent layer's all-to-all ``(n_n, n_n)`` block (see the module docstring)."""
    if recurrent:
        return (prod(layer.output_shape),) * 2
    if layer.kind is LayerKind.CONV2D:
        return (layer.output_shape[0], layer.input_shape[0], *layer.kernel)
    return (prod(layer.output_shape), prod(layer.input_shape))


def weight_tensor(net: NetworkSpec, index: int, rows: int | None = None) -> np.ndarray:
    """Layer weights as float64 in their natural shape, a read-only view of
    the form the spec keeps in place of the float32 block (see
    :class:`NetworkSpec`), built on the block's first call.

    Dense-like blocks, ``(n_n, fan-in)``, come back column-major: each
    input's outgoing weights are contiguous, so ``.T`` is a C-contiguous
    ``(fan-in, n_n)`` array whose rows an event-driven drive gathers.
    With ``rows``, which must divide ``n_n``, a dense-like block comes back
    as ``(n_n // rows, rows, fan-in)`` row blocks instead, each an
    F-contiguous ``(rows, fan-in)`` matrix, in a form of its own.
    Convolutions are C-contiguous ``(C_out, C_in, kh, kw)``. A block holding
    NaN or an infinity raises :class:`SchemaError` naming the layer and the
    block, whatever the layer kind, on every call, and keeps its float32
    form. Layers that share a block in one shape share its form; one that
    reads it in another shape gets a form of its own.
    """
    layer = net.layers[index]
    shape = weight_shape(layer)
    if rows is not None:
        shape = (shape[0] // rows, rows, shape[1])
    return net.weights.float64(layer.weights_ref, shape, _what(net, index))


def check_weights(net: NetworkSpec, index: int) -> None:
    """Raise the :class:`SchemaError` :func:`weight_tensor` would for a
    non-finite block of layer ``index``, without building a float64 form."""
    net.weights.check(net.layers[index].weights_ref, _what(net, index))


def recurrent_weight_tensor(net: NetworkSpec, index: int) -> np.ndarray:
    """Recurrent ``(n_n, n_n)`` weights, laid out, checked and kept like a dense block."""
    layer = net.layers[index]
    shape = weight_shape(layer, True)
    return net.weights.float64(layer.recurrent_weights_ref, shape, _what(net, index))


def _what(net: NetworkSpec, index: int) -> str:
    """How a weight error names layer ``index``."""
    return f"layer {index} ({net.layers[index].kind.value})"


def lcl_mask(layer: LayerSpec) -> np.ndarray:
    """Boolean (neurons, inputs) matrix of allowed locally connected weights."""
    c_in, h, w = layer.input_shape
    c_out, oh, ow = layer.output_shape
    kh, kw = layer.kernel
    sh, sw = layer.stride
    mask = np.zeros((c_out, oh, ow, c_in, h, w), dtype=bool)
    for oy in range(oh):
        for ox in range(ow):
            mask[:, oy, ox, :, oy * sh : oy * sh + kh, ox * sw : ox * sw + kw] = True
    return mask.reshape(c_out * oh * ow, c_in * h * w)


# ---------------------------------------------------------------------------
# validation


def _expect_rank(layer: LayerSpec, index: int, rank: int, which: str) -> None:
    shape = layer.input_shape if which == "input" else layer.output_shape
    if len(shape) != rank:
        raise ShapeMismatch(
            f"layer {index} ({layer.kind.value}): {which} shape {shape} "
            f"must have rank {rank}"
        )


def _validate_layer_geometry(layer: LayerSpec, index: int) -> None:
    kind = layer.kind
    name = f"layer {index} ({kind.value})"
    if kind in SPATIAL_KINDS:
        if layer.kernel is None:
            raise SchemaError(f"{name}: kernel is required")
        if layer.stride is None:
            raise SchemaError(f"{name}: stride is required")
        _expect_rank(layer, index, 3, "input")
        if kind is not LayerKind.MAX_POOL2D:
            _expect_rank(layer, index, 3, "output")
        oh, ow = conv_output_hw(
            layer.input_shape[-2:], layer.kernel, layer.stride, layer.padding
        )
        if kind is LayerKind.MAX_POOL2D:
            _expect_rank(layer, index, 3, "output")
            expected = (layer.input_shape[0], oh, ow)
        else:
            expected = (layer.output_shape[0], oh, ow)
        if layer.output_shape != expected:
            raise ShapeMismatch(
                f"{name}: declared output shape {layer.output_shape} does not "
                f"match the computed {expected}"
            )
    elif layer.kernel is not None or layer.stride is not None:
        raise SchemaError(f"{name}: kernel/stride apply to spatial kinds only")
    if kind is not LayerKind.CONV2D and layer.padding != 0:
        raise SchemaError(f"{name}: padding applies to conv2d only")
    if kind is LayerKind.FLATTEN:
        if layer.output_shape != (prod(layer.input_shape),):
            raise ShapeMismatch(
                f"{name}: flatten output must be ({prod(layer.input_shape)},), "
                f"got {layer.output_shape}"
            )
    if kind in (LayerKind.DENSE, LayerKind.RECURRENT_DENSE):
        _expect_rank(layer, index, 1, "output")
    if kind in WEIGHTED_KINDS:
        if layer.neuron_model is None:
            raise SchemaError(f"{name}: neuron_model is required")
        if layer.weights_ref is None:
            raise SchemaError(f"{name}: weights_ref is required")
    else:
        if layer.neuron_model is not None:
            raise SchemaError(f"{name}: {kind.value} takes no neuron_model")
        if layer.weights_ref is not None:
            raise SchemaError(f"{name}: {kind.value} takes no weights")
    if kind is LayerKind.RECURRENT_DENSE:
        if layer.recurrent_weights_ref is None:
            raise SchemaError(f"{name}: recurrent_weights_ref is required")
        if not layer.neuron_model.kind.spiking:  # the static stage runs it once
            raise SchemaError(f"{name}: a rectifier would ignore the recurrent weights")
    elif layer.recurrent_weights_ref is not None:
        raise SchemaError(f"{name}: only recurrent_dense takes recurrent weights")


def _validate_weights(net: NetworkSpec, index: int) -> None:
    layer = net.layers[index]
    name = f"layer {index} ({layer.kind.value})"
    for ref, recurrent in (layer.weights_ref, False), (layer.recurrent_weights_ref, True):
        if ref is None:
            continue
        block = _block(net, ref, index)
        if block.ndim != 1 or block.dtype != np.float32:
            raise SchemaError(f"{name}: weight blocks must be flat float32")
        expected = prod(weight_shape(layer, recurrent))
        if block.size != expected:
            raise ShapeMismatch(
                f"{name}: weight block {ref!r} holds {block.size} values, "
                f"expected {expected}"
            )
    if layer.kind is LayerKind.LOCALLY_CONNECTED:
        outside = block.reshape(weight_shape(layer))[~lcl_mask(layer)]  # its only block
        if outside.size and np.any(outside != 0.0):
            bad = int(np.count_nonzero(outside))
            raise MaskViolation(
                f"{name}: {bad} weight(s) are nonzero outside the receptive field"
            )


def validate_network(net: NetworkSpec) -> None:
    if not net.layers:
        raise SchemaError("a network needs at least one layer")
    for index, layer in enumerate(net.layers):
        _validate_layer_geometry(layer, index)
        if index > 0 and layer.input_shape != net.layers[index - 1].output_shape:
            raise ShapeMismatch(
                f"layer {index} ({layer.kind.value}): input shape "
                f"{layer.input_shape} does not match the previous output "
                f"{net.layers[index - 1].output_shape}"
            )
        if layer.kind in WEIGHTED_KINDS:
            _validate_weights(net, index)
    last = net.layers[-1]
    if last.kind not in WEIGHTED_KINDS:
        raise SchemaError(
            f"the final layer must carry neurons to decode from, got {last.kind.value}"
        )
    # Stateless rectifier layers act as a static preprocessing stage; once
    # spiking starts, every later weighted layer must be spiking too.
    seen_spiking = False
    for index, layer in enumerate(net.layers):
        if layer.kind not in WEIGHTED_KINDS:
            continue
        if layer.neuron_model.kind.spiking:
            seen_spiking = True
        elif seen_spiking:
            raise SchemaError(
                f"layer {index} ({layer.kind.value}): ann_relu layers may only "
                "appear before the first spiking layer"
            )


# ---------------------------------------------------------------------------
# weights container


def write_weights_container(blocks: Mapping[str, np.ndarray]) -> bytes:
    """Serialize named float32 blocks; entries are written in sorted order."""
    names = sorted(blocks)
    arrays = {}
    for name in names:
        arr = np.ascontiguousarray(blocks[name], dtype=np.float32).reshape(-1)
        arrays[name] = arr
    encoded = [name.encode("utf-8") for name in names]
    table_size = 12 + sum(4 + len(e) + 16 for e in encoded)
    out = io.BytesIO()
    out.write(WEIGHTS_MAGIC)
    out.write(struct.pack("<II", WEIGHTS_VERSION, len(names)))
    offset = table_size
    for name, enc in zip(names, encoded):
        out.write(struct.pack("<I", len(enc)))
        out.write(enc)
        out.write(struct.pack("<QQ", offset, arrays[name].size))
        offset += arrays[name].size * 4
    for name in names:
        out.write(arrays[name].astype("<f4").tobytes())
    return out.getvalue()


def read_weights_container(data: bytes) -> dict[str, np.ndarray]:
    """Parse a weights container into flat float32 arrays keyed by name.

    The arrays are read-only views of ``data``; a buffer other than
    ``bytes``, such as a ``bytearray``, is copied into ``bytes`` once first.
    """
    if not isinstance(data, bytes):
        data = bytes(data)
    if len(data) < 12 or data[:4] != WEIGHTS_MAGIC:
        raise SchemaError("not a weights container (bad magic)")
    version, count = struct.unpack_from("<II", data, 4)
    if version != WEIGHTS_VERSION:
        raise SchemaError(f"unsupported weights container version {version}")
    pos = 12
    entries = []
    for _ in range(count):
        if pos + 4 > len(data):
            raise SchemaError("weights container truncated in entry table")
        (name_len,) = struct.unpack_from("<I", data, pos)
        pos += 4
        if pos + name_len + 16 > len(data):
            raise SchemaError("weights container truncated in entry table")
        try:
            name = data[pos : pos + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"weight block name is not valid UTF-8: {exc}") from exc
        pos += name_len
        offset, size = struct.unpack_from("<QQ", data, pos)
        pos += 16
        entries.append((name, offset, size))
    blocks: dict[str, np.ndarray] = {}
    for name, offset, size in entries:
        end = offset + size * 4
        if offset < pos or end > len(data):
            raise SchemaError(
                f"weight block {name!r} points outside the container "
                f"(offset {offset}, {size} elements)"
            )
        if name in blocks:
            raise SchemaError(f"duplicate weight block name {name!r}")
        blocks[name] = np.frombuffer(data, dtype="<f4", count=size, offset=offset)
    return blocks


# ---------------------------------------------------------------------------
# manifest


_LAYER_FIELDS = {
    "kind",
    "input_shape",
    "output_shape",
    "kernel",
    "stride",
    "padding",
    "neuron_model",
    "weights_ref",
    "recurrent_weights_ref",
}
_MODEL_FIELDS = {"kind", "dt", "tau_syn", "tau_mem", "v_th", "bias", "spike_once"}


def _shape(value, name: str) -> tuple:
    """A non-empty JSON list as a tuple; :class:`LayerSpec` checks its values."""
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{name} must be a non-empty list of integers, got {value!r}")
    return tuple(value)


def _parse_model(obj, index: int) -> NeuronModelSpec:
    if not isinstance(obj, dict):
        raise SchemaError(f"layer {index}: neuron_model must be an object")
    unknown = set(obj) - _MODEL_FIELDS
    if unknown:
        raise SchemaError(f"layer {index}: unknown neuron_model fields {sorted(unknown)}")
    if "kind" not in obj:
        raise SchemaError(f"layer {index}: neuron_model needs a kind")
    try:
        kind = NeuronKind(obj["kind"])
    except ValueError:
        raise SchemaError(
            f"layer {index}: unknown neuron kind {obj['kind']!r}"
        ) from None
    kwargs = {}
    for key in ("dt", "tau_syn", "tau_mem", "v_th", "bias"):
        if key in obj:
            value = obj[key]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise SchemaError(f"layer {index}: {key} must be numeric")
            try:
                kwargs[key] = float(value)
            except OverflowError:  # an integer literal past the float range
                raise SchemaError(
                    f"layer {index}: {key} is out of the float range"
                ) from None
    if "spike_once" in obj:
        if not isinstance(obj["spike_once"], bool):
            raise SchemaError(f"layer {index}: spike_once must be boolean")
        kwargs["spike_once"] = obj["spike_once"]
    return NeuronModelSpec(kind=kind, **kwargs)


def _parse_layer(obj, index: int) -> LayerSpec:
    if not isinstance(obj, dict):
        raise SchemaError(f"layer {index} must be an object")
    unknown = set(obj) - _LAYER_FIELDS
    if unknown:
        raise SchemaError(f"layer {index}: unknown fields {sorted(unknown)}")
    for required in ("kind", "input_shape", "output_shape"):
        if required not in obj:
            raise SchemaError(f"layer {index}: missing field {required!r}")
    try:
        kind = LayerKind(obj["kind"])
    except ValueError:
        raise SchemaError(f"layer {index}: unknown layer kind {obj['kind']!r}") from None

    kernel = stride = None
    if "kernel" in obj:
        kernel = _shape(obj["kernel"], f"layer {index}: kernel")
    if "stride" in obj:
        stride = _shape(obj["stride"], f"layer {index}: stride")
    if kind in SPATIAL_KINDS and kernel is not None and stride is None:
        # Pools default to non-overlapping windows; convolutions to unit step.
        stride = kernel if kind is LayerKind.MAX_POOL2D else (1, 1)

    padding = obj.get("padding", 0)
    if padding == "valid":
        padding = 0

    model = None
    if obj.get("neuron_model") is not None:
        model = _parse_model(obj["neuron_model"], index)

    def _ref(key: str) -> str | None:
        value = obj.get(key)
        if value is None:
            return None
        if not isinstance(value, str) or not value:
            raise SchemaError(f"layer {index}: {key} must be a non-empty string")
        return value

    input_shape = _shape(obj["input_shape"], f"layer {index}: input_shape")
    output_shape = _shape(obj["output_shape"], f"layer {index}: output_shape")
    weights_ref, recurrent_weights_ref = _ref("weights_ref"), _ref("recurrent_weights_ref")
    try:
        return LayerSpec(
            kind=kind,
            input_shape=input_shape,
            output_shape=output_shape,
            kernel=kernel,
            stride=stride,
            padding=padding,
            neuron_model=model,
            weights_ref=weights_ref,
            recurrent_weights_ref=recurrent_weights_ref,
        )
    except SchemaError as exc:  # a geometry value that is not a whole count
        raise SchemaError(f"layer {index}: {exc}") from None


def parse_manifest(data: bytes | str) -> tuple[list[LayerSpec], Coding, int]:
    """Parse and structurally validate a manifest; returns layers, coding, T."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"manifest is not UTF-8: {exc}") from exc
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("manifest root must be an object")
    unknown = set(obj) - {"version", "coding", "max_timesteps", "layers"}
    if unknown:
        raise SchemaError(f"manifest has unknown fields {sorted(unknown)}")
    if obj.get("version") != MANIFEST_VERSION:
        raise SchemaError(f"manifest version must be {MANIFEST_VERSION}")
    try:
        coding = Coding(obj.get("coding"))
    except ValueError:
        raise SchemaError(f"coding must be one of {[c.value for c in Coding]}") from None
    t_max = step_count(obj.get("max_timesteps"), "max_timesteps")
    raw_layers = obj.get("layers")
    if not isinstance(raw_layers, list) or not raw_layers:
        raise SchemaError("layers must be a non-empty list")
    layers = [_parse_layer(entry, index) for index, entry in enumerate(raw_layers)]
    return layers, coding, t_max


def _model_dict(model: NeuronModelSpec) -> dict:
    return {
        "kind": model.kind.value,
        "dt": model.dt,
        "tau_syn": model.tau_syn,
        "tau_mem": model.tau_mem,
        "v_th": model.v_th,
        "bias": model.bias,
        "spike_once": model.spike_once,
    }


def _layer_dict(layer: LayerSpec) -> dict:
    out: dict = {
        "kind": layer.kind.value,
        "input_shape": list(layer.input_shape),
        "output_shape": list(layer.output_shape),
    }
    if layer.kernel is not None:
        out["kernel"] = list(layer.kernel)
    if layer.stride is not None:
        out["stride"] = list(layer.stride)
    if layer.kind is LayerKind.CONV2D:
        out["padding"] = "valid" if layer.padding == 0 else layer.padding
    if layer.neuron_model is not None:
        out["neuron_model"] = _model_dict(layer.neuron_model)
    if layer.weights_ref is not None:
        out["weights_ref"] = layer.weights_ref
    if layer.recurrent_weights_ref is not None:
        out["recurrent_weights_ref"] = layer.recurrent_weights_ref
    return out


def serialize_manifest(net: NetworkSpec) -> bytes:
    obj = {
        "version": MANIFEST_VERSION,
        "coding": net.coding.value,
        "max_timesteps": net.max_timesteps,
        "layers": [_layer_dict(layer) for layer in net.layers],
    }
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def parse_network(manifest: bytes | str, weights: bytes) -> NetworkSpec:
    """Build a validated network from its two serialized artifacts."""
    layers, coding, t_max = parse_manifest(manifest)
    net = NetworkSpec(
        layers=tuple(layers),
        weights=read_weights_container(weights),
        coding=coding,
        max_timesteps=t_max,
    )
    logger.debug(
        "parsed network: %d layers, coding=%s, T=%d", len(layers), coding.value, t_max
    )
    return net


def serialize_network(net: NetworkSpec) -> tuple[bytes, bytes]:
    """Inverse of :func:`parse_network`; produces canonical bytes."""
    return serialize_manifest(net), write_weights_container(net.weights)


def networks_equal(a: NetworkSpec, b: NetworkSpec) -> bool:
    """Structural equality with bit-exact weight comparison."""
    if (
        a.layers != b.layers
        or a.coding != b.coding
        or a.max_timesteps != b.max_timesteps
        or set(a.weights) != set(b.weights)
    ):
        return False
    return all(
        a.weights[k].tobytes() == b.weights[k].tobytes() for k in a.weights
    )
