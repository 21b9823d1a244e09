"""Programmatic network construction.

`NetworkBuilder` tracks the running activation shape so layers chain
without repeating geometry, fills in weight names, and hands zeros to any
layer whose weights are left unset (structural and analytic queries need
shapes, not values). `build()` returns a fully validated `NetworkSpec`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SchemaError, ShapeMismatch
from .netspec import (
    Coding,
    LayerKind,
    LayerSpec,
    NetworkSpec,
    conv_output_hw,
)
from .neuron import NeuronModelSpec

__all__ = ["NetworkBuilder"]


def _flat32(values, size: int, what: str) -> np.ndarray:
    """A float32 copy of ``values`` backed by ``bytes``, which every built spec keeps.

    The caller's array stays theirs to change; the copy is what was validated,
    and the spec keeps it without copying it again.
    """
    arr = np.asarray(values, dtype=np.float32)
    if arr.size != size:
        raise ShapeMismatch(f"{what}: expected {size} weights, got {arr.size}")
    return np.frombuffer(arr.tobytes(), dtype=np.float32)


class NetworkBuilder:
    """Chainable constructor for layered networks.

    >>> net = (
    ...     NetworkBuilder((1, 28, 28), coding=Coding.ROC, max_timesteps=64)
    ...     .conv2d(8, (3, 3), model)
    ...     .max_pool((2, 2))
    ...     .flatten()
    ...     .dense(10, model)
    ...     .build()
    ... )
    """

    def __init__(
        self,
        input_shape: tuple[int, ...],
        *,
        coding: Coding = Coding.RATE,
        max_timesteps: int = 32,
    ):
        self._shape = tuple(int(v) for v in input_shape)
        self._coding = Coding(coding)
        self._max_timesteps = int(max_timesteps)
        self._layers: list[LayerSpec] = []
        self._weights: dict[str, np.ndarray] = {}

    # -- weighted layers ----------------------------------------------------

    def dense(self, units: int, model: NeuronModelSpec, *, weights=None):
        in_shape = self._shape
        out_shape = (int(units),)
        n_in = math.prod(in_shape)
        ref = self._store(weights, units * n_in, "dense weights")
        self._layers.append(
            LayerSpec(
                kind=LayerKind.DENSE,
                input_shape=in_shape,
                output_shape=out_shape,
                neuron_model=model,
                weights_ref=ref,
            )
        )
        self._shape = out_shape
        return self

    def recurrent_dense(
        self,
        units: int,
        model: NeuronModelSpec,
        *,
        weights=None,
        recurrent_weights=None,
    ):
        in_shape = self._shape
        out_shape = (int(units),)
        n_in = math.prod(in_shape)
        ref = self._store(weights, units * n_in, "recurrent layer feedforward weights")
        rref = self._store(
            recurrent_weights, units * units, "recurrent weights", suffix="_rw"
        )
        self._layers.append(
            LayerSpec(
                kind=LayerKind.RECURRENT_DENSE,
                input_shape=in_shape,
                output_shape=out_shape,
                neuron_model=model,
                weights_ref=ref,
                recurrent_weights_ref=rref,
            )
        )
        self._shape = out_shape
        return self

    def conv2d(
        self,
        filters: int,
        kernel: tuple[int, int],
        model: NeuronModelSpec,
        *,
        stride: tuple[int, int] = (1, 1),
        padding: int = 0,
        weights=None,
    ):
        in_shape = self._require_spatial("conv2d")
        kh, kw = (int(kernel[0]), int(kernel[1]))
        out_hw = conv_output_hw(in_shape[1:], (kh, kw), tuple(stride), int(padding))
        out_shape = (int(filters), *out_hw)
        size = filters * in_shape[0] * kh * kw
        ref = self._store(weights, size, "conv2d weights")
        self._layers.append(
            LayerSpec(
                kind=LayerKind.CONV2D,
                input_shape=in_shape,
                output_shape=out_shape,
                kernel=(kh, kw),
                stride=tuple(int(v) for v in stride),
                padding=int(padding),
                neuron_model=model,
                weights_ref=ref,
            )
        )
        self._shape = out_shape
        return self

    def locally_connected(
        self,
        filters: int,
        kernel: tuple[int, int],
        model: NeuronModelSpec,
        *,
        stride: tuple[int, int] = (1, 1),
        weights=None,
    ):
        in_shape = self._require_spatial("locally_connected")
        kh, kw = (int(kernel[0]), int(kernel[1]))
        out_hw = conv_output_hw(in_shape[1:], (kh, kw), tuple(stride), 0)
        out_shape = (int(filters), *out_hw)
        n_n = math.prod(out_shape)
        n_in = math.prod(in_shape)
        ref = self._store(weights, n_n * n_in, "locally connected weights")
        self._layers.append(
            LayerSpec(
                kind=LayerKind.LOCALLY_CONNECTED,
                input_shape=in_shape,
                output_shape=out_shape,
                kernel=(kh, kw),
                stride=tuple(int(v) for v in stride),
                neuron_model=model,
                weights_ref=ref,
            )
        )
        self._shape = out_shape
        return self

    # -- unweighted layers --------------------------------------------------

    def max_pool(self, pool: tuple[int, int], *, stride: tuple[int, int] | None = None):
        in_shape = self._require_spatial("max_pool")
        ph, pw = (int(pool[0]), int(pool[1]))
        st = (ph, pw) if stride is None else tuple(int(v) for v in stride)
        out_hw = conv_output_hw(in_shape[1:], (ph, pw), st, 0)
        out_shape = (in_shape[0], *out_hw)
        self._layers.append(
            LayerSpec(
                kind=LayerKind.MAX_POOL2D,
                input_shape=in_shape,
                output_shape=out_shape,
                kernel=(ph, pw),
                stride=st,
            )
        )
        self._shape = out_shape
        return self

    def flatten(self):
        in_shape = self._shape
        out_shape = (math.prod(in_shape),)
        self._layers.append(
            LayerSpec(
                kind=LayerKind.FLATTEN,
                input_shape=in_shape,
                output_shape=out_shape,
            )
        )
        self._shape = out_shape
        return self

    # -- assembly -----------------------------------------------------------

    def build(self) -> NetworkSpec:
        if not self._layers:
            raise SchemaError("network has no layers")
        return NetworkSpec(
            layers=tuple(self._layers),
            weights=dict(self._weights),
            coding=self._coding,
            max_timesteps=self._max_timesteps,
        )

    def _require_spatial(self, what: str) -> tuple[int, int, int]:
        if len(self._shape) != 3:
            raise ShapeMismatch(
                f"{what} needs a (C, H, W) input, current shape is {self._shape}"
            )
        return self._shape  # type: ignore[return-value]

    def _store(self, values, size: int, what: str, *, suffix: str = "_w") -> str:
        ref = f"l{len(self._layers)}{suffix}"
        if values is None:
            self._weights[ref] = np.zeros(size, dtype=np.float32)
        else:
            self._weights[ref] = _flat32(values, size, what)
        return ref
