"""Input encoding and output decoding.

Encoding turns an input tensor into what the first layer consumes. The
analog mode passes values through unchanged; they drive the first weighted
layer's sums directly, and since the input is static those sums are
computed once and reused every step. The Poisson mode draws one Bernoulli
sample per value per time step, with the value (in [0, 1]) as the spike
probability. Draws come from a counter-based generator keyed by
``(seed, step)``, with a fixed value ordering inside each step, so any
step's slice can be regenerated independently and a given seed always
yields the same raster, bit for bit.

Decoding maps the output layer's activity to a :class:`Decision`. Under
rank-order coding the class is the output neuron that spikes first (ties
go to the lowest index) and the latency is that step. A silent output
window falls back to the membrane-voltage rule and flags the decision.
Under rate coding the class is the neuron whose membrane voltage peaks
highest over the whole window.

Input tensors load from two on-disk forms: a ``.bin`` file holding one
ASCII header line ``shape=C,H,W`` followed by raw little-endian float32
values, or a ``.csv`` of flattened values reshaped against the network's
input shape.
"""

from __future__ import annotations

import logging
import threading
import warnings
from dataclasses import dataclass
from enum import Enum
from math import prod
from pathlib import Path

import numpy as np

from .errors import (
    EmptyHistory,
    EmptyRaster,
    NonFiniteState,
    RateOutOfRange,
    SchemaError,
    ShapeMismatch,
)

__all__ = [
    "EncodingMode",
    "EncodedInput",
    "Decision",
    "encode",
    "poisson_slice",
    "decode_roc",
    "decode_max_membrane",
    "load_input_tensor",
    "save_input_tensor",
]

logger = logging.getLogger(__name__)

#: input tensor file suffixes, matched case-insensitively
INPUT_SUFFIXES = (".bin", ".csv")


class EncodingMode(str, Enum):
    ANALOG = "analog"
    POISSON = "poisson"


@dataclass(frozen=True)
class EncodedInput:
    """An input tensor plus how the simulator should present it over time.

    Construction keeps the values as a float64 array, as :func:`encode`
    builds them (a list is converted), and validates the input however it is
    built: the values must form a numeric array, not strings or ragged
    lists (:class:`SchemaError`), Poisson values must lie in [0, 1] (NaN is
    out of range, :class:`RateOutOfRange`), analog values must be finite
    (:class:`NonFiniteState`), and the seed keys a 64-bit stream, so it must
    lie in [0, 2**64) (:class:`SchemaError`).
    """

    mode: EncodingMode
    values: np.ndarray
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", EncodingMode(self.mode))
        if not 0 <= self.seed < 1 << 64:
            raise SchemaError(f"the seed must be in [0, 2**64), got {self.seed}")
        try:
            arr = np.asarray(self.values, dtype=np.float64)
        except (TypeError, ValueError) as exc:  # strings, ragged nesting
            raise SchemaError(
                f"{self.mode.value} input values must form a numeric array: {exc}"
            ) from None
        if self.mode is EncodingMode.POISSON:
            if not ((arr >= 0.0) & (arr <= 1.0)).all():
                raise RateOutOfRange(
                    f"poisson encoding needs values in [0, 1], got range "
                    f"[{arr.min()}, {arr.max()}]"
                )
        elif not np.isfinite(arr).all():
            raise NonFiniteState("analog input contains non-finite values")
        object.__setattr__(self, "values", arr)


def encode(
    values: np.ndarray, mode: EncodingMode = EncodingMode.ANALOG, seed: int = 0
) -> EncodedInput:
    """Wrap an input tensor as float64 for simulation.

    A value of 1.0 spikes on every step under Poisson encoding and 0.0
    never does; :class:`EncodedInput` lists what each mode accepts.
    """
    return EncodedInput(mode=mode, values=values, seed=int(seed))


class _Stream(threading.local):
    """One Philox generator per thread, re-keyed for every slice.

    Building a generator reads OS entropy for a seed sequence, which would
    cost more than the draws of a slice; setting the state is cheap.
    """

    def __init__(self) -> None:
        self.bits = np.random.Generator(np.random.Philox(key=0))
        # the state of a fresh generator; only counter[3] and key[0] change
        self.state = self.bits.bit_generator.state


_STREAM = _Stream()


def poisson_slice(
    encoded: EncodedInput, t: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Boolean spike tensor for step ``t`` (1-based), regenerable at random.

    Each step keys its own counter-based stream, Philox with counter
    ``[0, 0, 0, t]`` and key ``[seed, 0]``, so slices are independent of
    how many other steps were drawn and reproducible in isolation. The
    spikes are written into ``out``, a boolean array shaped like the
    values, when one is given (bitwise what a new array would hold), else
    into a new array.
    """
    if encoded.mode is not EncodingMode.POISSON:
        raise SchemaError("spike slices are only defined for poisson encoding")
    stream = _STREAM
    stream.state["state"]["counter"][3] = t
    stream.state["state"]["key"][0] = encoded.seed
    stream.bits.bit_generator.state = stream.state
    u = stream.bits.random(encoded.values.shape)
    return np.less(u, encoded.values, out)


@dataclass(frozen=True)
class Decision:
    """Predicted class, the step that settled it, and whether the silent
    fallback rule was used."""

    class_index: int
    latency_T: int
    fallback_used: bool = False


def decode_roc(output_spikes: np.ndarray, output_voltages: np.ndarray) -> Decision:
    """First-spike decoding over an (neurons, steps) boolean raster.

    The winner is the earliest spike; among simultaneous firsts the lowest
    neuron index wins. Anything after the first spike step cannot change
    the outcome. If no output neuron spiked, falls back to
    :func:`decode_max_membrane` over ``output_voltages``, the same window's
    (neurons, steps) voltage history (flagged, with the latency charged as
    the full window). An empty or non-2-D raster is an :class:`EmptyRaster`.
    """
    raster = np.asarray(output_spikes, dtype=bool)
    if raster.ndim != 2 or raster.size == 0:
        raise EmptyRaster(f"expected a non-empty (neurons, steps) raster, "
                          f"got shape {raster.shape}")
    spiked = raster.any(axis=1)
    if not spiked.any():
        inner = decode_max_membrane(output_voltages)
        return Decision(
            class_index=inner.class_index,
            latency_T=raster.shape[1],
            fallback_used=True,
        )
    first_t = np.where(spiked, raster.argmax(axis=1), raster.shape[1])
    winner = int(np.argmin(first_t))  # argmin takes the lowest index on ties
    return Decision(class_index=winner, latency_T=int(first_t[winner]) + 1)


def decode_max_membrane(output_voltages: np.ndarray) -> Decision:
    """Highest membrane-voltage peak over an (neurons, steps) history."""
    hist = np.asarray(output_voltages, dtype=np.float64)
    if hist.ndim != 2 or hist.size == 0:
        raise EmptyHistory(f"expected a non-empty (neurons, steps) history, "
                           f"got shape {hist.shape}")
    peaks = hist.max(axis=1)
    return Decision(class_index=int(np.argmax(peaks)), latency_T=hist.shape[1])


# ---------------------------------------------------------------------------
# input tensor files


def load_input_tensor(path: str | Path, expected_shape: tuple[int, ...]) -> np.ndarray:
    """Read a ``.bin`` (self-describing) or ``.csv`` (flat) input tensor.

    ``expected_shape``, the network's input shape, is checked against a
    ``.bin`` header and used to reshape ``.csv`` data, which carries no
    shape of its own; a mismatch is a :class:`ShapeMismatch`.
    """
    path = Path(path)
    expected_shape = tuple(expected_shape)
    suffix = path.suffix.lower()
    if suffix == ".bin":
        raw = path.read_bytes()
        newline = raw.find(b"\n")
        if newline < 0 or not raw[:newline].startswith(b"shape="):
            raise SchemaError(f"{path.name}: missing 'shape=' header line")
        try:
            shape = tuple(
                int(d) for d in raw[6:newline].decode("ascii").split(",")
            )
        except ValueError:
            raise SchemaError(f"{path.name}: malformed shape header") from None
        body = raw[newline + 1 :]
        if len(body) != prod(shape) * 4:
            raise ShapeMismatch(
                f"{path.name}: header says {prod(shape)} float32 values but the "
                f"payload holds {len(body) // 4}"
            )
        if shape != expected_shape:
            raise ShapeMismatch(
                f"{path.name}: tensor shape {shape} does not match the network "
                f"input {expected_shape}"
            )
        return np.frombuffer(body, dtype="<f4").astype(np.float64).reshape(shape)
    if suffix == ".csv":
        try:
            with warnings.catch_warnings():
                # an empty file is reported below, as holding no values
                warnings.simplefilter("ignore", UserWarning)
                flat = np.loadtxt(path, delimiter=",", dtype=np.float64).reshape(-1)
        except ValueError as exc:
            raise SchemaError(f"{path.name}: {exc}") from exc
        if flat.size != prod(expected_shape):
            raise ShapeMismatch(
                f"{path.name}: {flat.size} values cannot fill the network input "
                f"{expected_shape}"
            )
        return flat.reshape(expected_shape)
    raise SchemaError(f"{path.name}: input tensors must be .bin or .csv")


def save_input_tensor(path: str | Path, values: np.ndarray) -> None:
    """Write the ``.bin`` form of :func:`load_input_tensor`."""
    path = Path(path)
    arr = np.asarray(values)
    header = "shape=" + ",".join(str(d) for d in arr.shape) + "\n"
    path.write_bytes(header.encode("ascii") + arr.astype("<f4").tobytes())
