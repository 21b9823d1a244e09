"""Programmatic network construction.

`NetworkBuilder` tracks the running activation shape so layers chain
without repeating geometry, fills in weight names, and hands zeros to any
layer whose weights are left unset (structural and analytic queries need
shapes, not values). It keeps no rule of its own: blocks are sized by
`netspec.weight_shape`, each layer's geometry is checked by `LayerSpec`
(a float or bool size, kernel, stride or padding raises `SchemaError`,
never truncated), and `build()` returns a `NetworkSpec`, which validates
everything else, the step budget included.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeMismatch
from .netspec import (
    WEIGHTED_KINDS,
    Coding,
    LayerKind,
    LayerSpec,
    NetworkSpec,
    conv_output_hw,
    weight_shape,
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
        self._shape = tuple(input_shape)
        self._coding = Coding(coding)
        self._max_timesteps = max_timesteps
        self._layers: list[LayerSpec] = []
        self._weights: dict[str, np.ndarray] = {}

    # -- weighted layers ----------------------------------------------------

    def dense(self, units: int, model: NeuronModelSpec, *, weights=None):
        return self._add(LayerKind.DENSE, (units,), model=model, weights=weights)

    def recurrent_dense(
        self,
        units: int,
        model: NeuronModelSpec,
        *,
        weights=None,
        recurrent_weights=None,
    ):
        return self._add(
            LayerKind.RECURRENT_DENSE,
            (units,),
            model=model,
            weights=weights,
            recurrent_weights=recurrent_weights,
        )

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
        return self._spatial(
            LayerKind.CONV2D, filters, kernel, stride, model=model, weights=weights,
            padding=padding,
        )

    def locally_connected(
        self,
        filters: int,
        kernel: tuple[int, int],
        model: NeuronModelSpec,
        *,
        stride: tuple[int, int] = (1, 1),
        weights=None,
    ):
        return self._spatial(
            LayerKind.LOCALLY_CONNECTED, filters, kernel, stride, model=model,
            weights=weights,
        )

    # -- unweighted layers --------------------------------------------------

    def max_pool(self, pool: tuple[int, int], *, stride: tuple[int, int] | None = None):
        return self._spatial(
            LayerKind.MAX_POOL2D, None, pool, pool if stride is None else stride
        )

    def flatten(self):
        return self._add(LayerKind.FLATTEN, (math.prod(self._shape),))

    # -- assembly -----------------------------------------------------------

    def build(self) -> NetworkSpec:
        return NetworkSpec(
            layers=tuple(self._layers),
            weights=dict(self._weights),
            coding=self._coding,
            max_timesteps=self._max_timesteps,
        )

    def _spatial(self, kind, channels, kernel, stride, *, padding=0, **rest):
        """Append a windowed layer of ``channels`` output maps (the input's
        own for ``None``); ``rest`` goes to :meth:`_add`."""
        if len(self._shape) != 3:
            raise ShapeMismatch(
                f"{kind.value} needs a (C, H, W) input, current shape is {self._shape}"
            )
        kernel, stride = tuple(kernel), tuple(stride)
        out_hw = conv_output_hw(self._shape[1:], kernel, stride, padding)
        if channels is None:
            channels = self._shape[0]
        return self._add(
            kind, (channels, *out_hw), kernel=kernel, stride=stride, padding=padding,
            **rest,
        )

    def _add(self, kind, out_shape, *, model=None, weights=None, recurrent_weights=None,
             **geometry):
        """Append a layer on the current shape and advance it.

        Each block the layer's kind takes, ``l{i}_w`` and a recurrent layer's
        ``l{i}_rw``, holds the size :func:`weight_shape` gives: zeros, or a
        float32 copy of the caller's values (see :func:`_flat32`).
        """
        index = len(self._layers)
        layer = LayerSpec(
            kind=kind,
            input_shape=self._shape,
            output_shape=out_shape,
            neuron_model=model,
            weights_ref=f"l{index}_w" if kind in WEIGHTED_KINDS else None,
            recurrent_weights_ref=(
                f"l{index}_rw" if kind is LayerKind.RECURRENT_DENSE else None
            ),
            **geometry,
        )
        for ref, values, recurrent in (
            (layer.weights_ref, weights, False),
            (layer.recurrent_weights_ref, recurrent_weights, True),
        ):
            if ref is None:
                continue
            size = math.prod(weight_shape(layer, recurrent))
            if values is None:
                self._weights[ref] = np.zeros(size, dtype=np.float32)
            else:
                self._weights[ref] = _flat32(values, size, f"layer {index} block {ref!r}")
        self._layers.append(layer)
        self._shape = layer.output_shape
        return self
