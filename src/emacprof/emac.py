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

Both views fill the same three counts per layer, static analog MACs,
synaptic events and recurrent events, and one function prices them:

    E_syn = static * MAC_EMAC + syn * event_price(layer)
    E_rec = rec * event_price(layer)
    E_upd = T * neurons * e_upd          (spiking layers only)

so a layer's exact-vs-analytic gap is the difference of its two count
vectors at one price.

Special cases: a layer whose drive comes from a static analog stage is
priced as full multiply-accumulate work counted once per inference (or
once per step under per-step encoder pricing); stateless rectifier layers
take ``f = 1`` with zero update cost, which makes a conventional network's
total equal its classical MAC count; pooling layers do no weighted
arithmetic, but each realized pool input spike is charged one accumulate,
reported in the pool column so it can be excluded from comparisons that
ignore pooling.

A ``max_pool2d`` in the analog static prefix is charged ``fanin * neurons``
MACs, ``kh * kw`` per output, like every other static layer. The static
stage reads each window's ``kh * kw`` analog values whatever they are, so
there are no events to count, and :func:`ann_mac_count` counts pool
windows the same way: priced so, a fully static network's total stays its
classical MAC count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .codec import EncodingMode
from .errors import MissingRates, RateOutOfRange, TraceNetMismatch
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
    """Spikes per neuron per inference, for the encoder and every layer.

    A rate may exceed 1 (a neuron can spike at several steps), but a NaN,
    infinite or negative one is a :class:`RateOutOfRange`.
    """

    input_rate: float | None
    per_layer: np.ndarray

    def __post_init__(self) -> None:
        per_layer = np.asarray(self.per_layer, dtype=np.float64)
        rates = per_layer if self.input_rate is None else np.append(per_layer, self.input_rate)
        if not ((rates >= 0.0) & (rates < np.inf)).all():
            raise RateOutOfRange(
                f"rates must be finite and >= 0, got input {self.input_rate} "
                f"and per layer {per_layer.tolist()}"
            )
        object.__setattr__(self, "per_layer", per_layer)


def rates_from_trace(trace: "SpikeTrace") -> LayerRates:
    """Measured per-inference spiking rates of a recorded run."""
    neurons = np.asarray(trace.layer_neurons, dtype=np.float64)
    per_layer = trace.counts.sum(axis=1) / neurons
    input_rate = None
    if trace.input_counts is not None:
        input_rate = float(trace.input_counts.sum() / trace.n_inputs)
    return LayerRates(input_rate=input_rate, per_layer=per_layer)


def event_price(layer: LayerSpec) -> float:
    """EMAC of one synaptic event into ``layer``.

    A weighted layer's neuron model sets the price; a pool charges one
    accumulate per input spike; flatten does no work.
    """
    if layer.kind is LayerKind.MAX_POOL2D:
        return AC_EMAC
    if layer.kind in WEIGHTED_KINDS:
        return layer.neuron_model.energy.e_syn
    return 0.0


def update_price(layer: LayerSpec) -> float:
    """EMAC of one neuron update of ``layer``; only spiking layers update."""
    model = layer.neuron_model
    if model is None or not model.kind.spiking:
        return 0.0
    return model.energy.e_upd


def static_macs(net: NetworkSpec, input_mode: EncodingMode) -> list[int]:
    """Per layer, the multiply-accumulates of one static analog evaluation.

    ``fanin * neurons`` for every layer of the static prefix, and for the
    first spiking layer when an analog input makes its drive static too;
    zero for every other layer (and for flatten, which has no fan-in).
    """
    prefix, start = static_split(net, input_mode)
    if start is not None and input_mode is EncodingMode.ANALOG:
        prefix = [*prefix, start]
    macs = [0] * len(net.layers)
    for idx in prefix:
        counts = layer_counts(net.layers[idx])
        macs[idx] = counts.fanin * counts.neurons
    return macs


def _report(method: str, net: NetworkSpec, T_used: int, counts) -> EnergyReport:
    """Price each layer's ``(static MACs, synaptic events, recurrent events)``.

    Both views go through here, so they differ only in their counts.
    """
    per_layer = []
    for idx, (layer, (static, syn, rec)) in enumerate(zip(net.layers, counts)):
        price = event_price(layer)
        neurons = layer_counts(layer).neurons
        per_layer.append(LayerEnergy(
            name=net.layer_name(idx),
            kind=layer.kind.value,
            E_syn=float(static) * MAC_EMAC + float(syn) * price,
            E_upd=float(T_used * neurons * update_price(layer)),
            E_rec=float(rec) * price,
        ))
    return EnergyReport(
        method=method,
        T_used=T_used,
        per_layer=tuple(per_layer),
        approx_padding=any(layer.padding > 0 for layer in net.layers),
    )


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

    def rate(idx: int, of: int) -> float:
        """The rate of layer ``of`` (-1: the encoder), which layer ``idx`` consumes."""
        if rates is None:
            raise MissingRates(f"layer {idx} consumes spikes but no rates were given")
        if of >= 0:
            return float(rates.per_layer[of])
        if rates.input_rate is None:
            raise MissingRates(
                "layer 0 consumes encoder spikes but no input rate was given"
            )
        return rates.input_rate

    static = static_macs(net, input_mode)
    static_steps = T_used if encoder_per_step else 1
    counts = []
    for idx, layer in enumerate(net.layers):
        c = layer_counts(layer)
        syn = rec = 0
        # a static layer costs MACs, not events; flatten has no fan-in
        if not static[idx] and c.fanin:
            syn = c.fanin * c.neurons * rate(idx, idx - 1)
        if c.recurrent_fanin:
            rec = c.recurrent_fanin * c.neurons * rate(idx, idx)
        counts.append((static[idx] * static_steps, syn, rec))
    return _report(METHOD_ANALYTIC, net, T_used, counts)


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
    counts = zip(trace.analog_events, trace.feedforward_events, trace.recurrent_events)
    return _report(METHOD_EXACT, net, trace.T_used, counts)


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
