"""Dimensionless energy accounting in EMAC units.

Total inference cost splits into synaptic work and neuron-update work,

    E_tot = E_syn + E_upd (+ E_rec),

where recurrent synaptic work is kept in its own column (it is synaptic
work; ``E_syn + E_rec`` is the single synaptic term of the two-term cost
model). Two views of the same run are provided:

* :func:`emac_exact` prices the engine's realized event counters;
* :func:`emac_analytic` prices the structural estimate

      sum_l (fanin_l * neurons_l * f_(l-1) + rec_fanin_l * neurons_l * f_l)
            * e_syn_l
      + T * sum_l neurons_l * e_upd_l

  where ``f`` is the measured (or assumed) number of spikes per neuron per
  inference of the upstream layer. The step count cancels out of the
  synaptic term, which is why per-inference rates suffice.

Special cases: a layer whose drive comes from a static analog stage is
priced as full multiply-accumulate work counted once per inference (or
once per step under per-step encoder pricing); stateless rectifier layers
take ``f = 1`` with zero update cost, which makes a conventional network's
total equal its classical MAC count; pooling layers do no weighted
arithmetic, but each realized pool input spike is charged one accumulate,
reported in the pool column so it can be excluded from comparisons that
ignore pooling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .codec import EncodingMode
from .errors import MissingRates, TraceNetMismatch
from .netspec import (
    LayerKind,
    LayerSpec,
    NetworkSpec,
    WEIGHTED_KINDS,
    layer_counts,
    static_split,
)
from .neuron import AC_EMAC, MAC_EMAC

if TYPE_CHECKING:  # pragma: no cover
    from .engine import SpikeTrace

__all__ = [
    "LayerEnergy",
    "EnergyReport",
    "LayerRates",
    "rates_from_trace",
    "emac_analytic",
    "emac_exact",
    "ann_mac_count",
    "METHOD_ANALYTIC",
    "METHOD_EXACT",
]

METHOD_ANALYTIC = "analytic"
METHOD_EXACT = "exact_events"


@dataclass(frozen=True)
class LayerEnergy:
    """One layer's EMAC breakdown."""

    name: str
    kind: str
    E_syn: float
    E_upd: float
    E_rec: float

    @property
    def E_tot(self) -> float:
        return self.E_syn + self.E_upd + self.E_rec


@dataclass(frozen=True)
class EnergyReport:
    """Per-layer and total EMAC for one inference.

    ``E_pool`` is the part of ``E_syn`` charged to pooling layers, kept
    visible so it can be subtracted by consumers that do not price pooling.
    ``approx_padding`` flags zero-padded convolutions, whose structural
    fan-in overcounts the real connections at the borders.
    """

    method: str
    T_used: int
    per_layer: tuple[LayerEnergy, ...]
    approx_padding: bool = False

    @property
    def E_syn(self) -> float:
        return sum(le.E_syn for le in self.per_layer)

    @property
    def E_upd(self) -> float:
        return sum(le.E_upd for le in self.per_layer)

    @property
    def E_rec(self) -> float:
        return sum(le.E_rec for le in self.per_layer)

    @property
    def E_tot(self) -> float:
        return self.E_syn + self.E_upd + self.E_rec

    @property
    def E_syn_plus_rec(self) -> float:
        return self.E_syn + self.E_rec

    @property
    def E_pool(self) -> float:
        return sum(
            le.E_syn for le in self.per_layer if le.kind == LayerKind.MAX_POOL2D.value
        )

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "T_used": self.T_used,
            "E_syn": self.E_syn,
            "E_upd": self.E_upd,
            "E_rec": self.E_rec,
            "E_tot": self.E_tot,
            "E_syn_plus_rec": self.E_syn_plus_rec,
            "E_pool": self.E_pool,
            "approx_padding": self.approx_padding,
            "per_layer": [
                {
                    "name": le.name,
                    "kind": le.kind,
                    "E_syn": le.E_syn,
                    "E_upd": le.E_upd,
                    "E_rec": le.E_rec,
                    "E_tot": le.E_tot,
                }
                for le in self.per_layer
            ],
        }


@dataclass(frozen=True)
class LayerRates:
    """Spikes per neuron per inference, for the encoder and every layer."""

    input_rate: float | None
    per_layer: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "per_layer", np.asarray(self.per_layer, dtype=np.float64)
        )


def rates_from_trace(trace: "SpikeTrace") -> LayerRates:
    """Measured per-inference spiking rates of a recorded run."""
    neurons = np.asarray(trace.layer_neurons, dtype=np.float64)
    per_layer = trace.counts.sum(axis=1) / neurons
    input_rate = None
    if trace.input_counts is not None:
        input_rate = float(trace.input_counts.sum() / trace.n_inputs)
    return LayerRates(input_rate=input_rate, per_layer=per_layer)


def _has_padding(net: NetworkSpec) -> bool:
    return any(layer.padding > 0 for layer in net.layers)


def _static_ids(net: NetworkSpec, input_mode: EncodingMode) -> set[int]:
    """Layers whose synaptic work is static analog arithmetic."""
    prefix, start = static_split(net, EncodingMode(input_mode))
    ids = set(prefix)
    if start is not None and EncodingMode(input_mode) is EncodingMode.ANALOG:
        ids.add(start)
    return ids


def emac_analytic(
    net: NetworkSpec,
    rates: LayerRates | None,
    T_used: int,
    *,
    input_mode: EncodingMode | str = EncodingMode.ANALOG,
    encoder_per_step: bool = False,
) -> EnergyReport:
    """Structural energy estimate from per-layer spiking rates.

    ``rates`` may be ``None`` only when no layer needs one (a fully static
    network). A spike-consuming first layer needs ``rates.input_rate``.
    """
    input_mode = EncodingMode(input_mode)
    if rates is not None and len(rates.per_layer) != len(net.layers):
        raise MissingRates(
            f"got rates for {len(rates.per_layer)} layers, network has "
            f"{len(net.layers)}"
        )
    static = _static_ids(net, input_mode)
    static_steps = T_used if encoder_per_step else 1
    per_layer = []
    for idx, layer in enumerate(net.layers):
        counts = layer_counts(layer)
        name = net.layer_name(idx)
        e_syn_l = e_upd_l = e_rec_l = 0.0
        if layer.kind is not LayerKind.FLATTEN:
            if idx in static:
                e_syn_l = counts.fanin * counts.neurons * MAC_EMAC * static_steps
            else:
                if rates is None:
                    raise MissingRates(
                        f"layer {idx} consumes spikes but no rates were given"
                    )
                if idx == 0:
                    if rates.input_rate is None:
                        raise MissingRates(
                            "layer 0 consumes encoder spikes but no input rate "
                            "was given"
                        )
                    f_prev = rates.input_rate
                else:
                    f_prev = float(rates.per_layer[idx - 1])
                if layer.kind is LayerKind.MAX_POOL2D:
                    per_event = AC_EMAC
                else:
                    per_event = layer.neuron_model.energy.e_syn
                e_syn_l = counts.fanin * counts.neurons * f_prev * per_event
            if layer.kind in WEIGHTED_KINDS:
                model = layer.neuron_model
                if model.kind.spiking:
                    e_upd_l = T_used * counts.neurons * model.energy.e_upd
                if counts.recurrent_fanin:
                    f_self = float(rates.per_layer[idx])
                    e_rec_l = (
                        counts.recurrent_fanin
                        * counts.neurons
                        * f_self
                        * model.energy.e_syn
                    )
        per_layer.append(
            LayerEnergy(
                name=name,
                kind=layer.kind.value,
                E_syn=float(e_syn_l),
                E_upd=float(e_upd_l),
                E_rec=float(e_rec_l),
            )
        )
    return EnergyReport(
        method=METHOD_ANALYTIC,
        T_used=T_used,
        per_layer=tuple(per_layer),
        approx_padding=_has_padding(net),
    )


def emac_exact(net: NetworkSpec, trace: "SpikeTrace") -> EnergyReport:
    """Price the realized event counters of a recorded run."""
    L = len(net.layers)
    if (
        trace.counts.shape[0] != L
        or len(trace.layer_neurons) != L
        or trace.layer_neurons != tuple(layer_counts(l).neurons for l in net.layers)
    ):
        raise TraceNetMismatch(
            "the trace does not describe this network (layer count or sizes differ)"
        )
    per_layer = []
    for idx, layer in enumerate(net.layers):
        counts = layer_counts(layer)
        e_syn_l = float(trace.analog_events[idx]) * MAC_EMAC
        e_upd_l = e_rec_l = 0.0
        if layer.kind is LayerKind.MAX_POOL2D:
            e_syn_l += float(trace.feedforward_events[idx]) * AC_EMAC
        elif layer.kind in WEIGHTED_KINDS:
            model = layer.neuron_model
            e_syn_l += float(trace.feedforward_events[idx]) * model.energy.e_syn
            e_rec_l = float(trace.recurrent_events[idx]) * model.energy.e_syn
            if model.kind.spiking:
                e_upd_l = trace.T_used * counts.neurons * model.energy.e_upd
        per_layer.append(
            LayerEnergy(
                name=net.layer_name(idx),
                kind=layer.kind.value,
                E_syn=e_syn_l,
                E_upd=e_upd_l,
                E_rec=e_rec_l,
            )
        )
    return EnergyReport(
        method=METHOD_EXACT,
        T_used=trace.T_used,
        per_layer=tuple(per_layer),
        approx_padding=_has_padding(net),
    )


def ann_mac_count(net: NetworkSpec | Iterable[LayerSpec]) -> int:
    """Classical multiply-accumulate count: sum of fanin * neurons per layer.

    Accepts a bare layer iterable too, since a validated network is never
    empty but the count of zero layers is still well defined (zero).
    """
    layers = net.layers if isinstance(net, NetworkSpec) else tuple(net)
    total = 0
    for layer in layers:
        counts = layer_counts(layer)
        total += counts.fanin * counts.neurons
    return total
