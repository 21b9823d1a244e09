"""Discrete-time neuron models and their per-operation energy parameters.

Two spiking models are implemented. ``lif`` is a current-based leaky
integrate-and-fire neuron discretized with an explicit Euler step:

    i[k+1]   = i[k] - i[k] * dt / tau_syn + drive + b
    v[k+1/2] = v[k] + (i[k+1] - v[k]) * dt / tau_mem
    v[k+1]   = v[k+1/2] - v_th * S[k+1]

``ifl`` is its non-leaky linear counterpart whose state variables absorb
the step size, so no time constants appear:

    i[k+1]   = i[k] + drive + b
    v[k+1/2] = v[k] + i[k+1]
    v[k+1]   = v[k+1/2] - v_th * S[k+1]

In both cases a neuron spikes when the half-step voltage reaches the
threshold (``v >= v_th``), and the reset subtracts the threshold rather
than clamping to zero. :func:`lif_step` and :func:`ifl_step` advance the
state in place, overwriting its arrays, and return the spikes, written
into a given ``spikes`` buffer or a new array.
``ann_relu`` is the stateless rectifier used for conventional layers.

Energy parameters are not tuned constants. Each model's update rule is
classified operation by operation into multiply-accumulate (MAC) and
accumulate (AC) work, and the published weighting MAC = 1 EMAC,
AC = 2/3 EMAC turns that classification into ``(e_syn, e_upd)``. The
classification is the source of truth; ``energy_params`` is its dot
product with the weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Callable

import numpy as np

from .errors import SchemaError

__all__ = [
    "NeuronKind",
    "OpKind",
    "OpCount",
    "EnergyParams",
    "NeuronModelSpec",
    "NeuronState",
    "MAC_EMAC",
    "AC_EMAC",
    "OP_WEIGHTS",
    "classify_update_ops",
    "classify_synaptic_ops",
    "energy_params",
    "state_zeros",
    "lif_step",
    "ifl_step",
    "ann_activation",
]


class NeuronKind(str, Enum):
    LIF = "lif"
    IFL = "ifl"
    ANN_RELU = "ann_relu"

    @property
    def spiking(self) -> bool:
        return self is not NeuronKind.ANN_RELU


class OpKind(str, Enum):
    MAC = "mac"
    AC = "ac"


#: Dimensionless energy of one multiply-accumulate.
MAC_EMAC = 1.0
#: An accumulate moves two operands instead of three, hence the 2/3 weight.
AC_EMAC = 2.0 / 3.0

OP_WEIGHTS = {OpKind.MAC: MAC_EMAC, OpKind.AC: AC_EMAC}


@dataclass(frozen=True)
class OpCount:
    """A number of elementary arithmetic operations of one kind."""

    op: OpKind
    count: int


@dataclass(frozen=True)
class EnergyParams:
    """Per-event synaptic cost and per-neuron per-step update cost, in EMAC."""

    e_syn: float
    e_upd: float


def classify_update_ops(kind: NeuronKind) -> tuple[OpCount, ...]:
    """Arithmetic performed by one neuron in one time step, excluding synapses.

    The leaky model spends one MAC on the current decay, one AC on the bias,
    one AC forming the voltage error, and one MAC applying the membrane gain.
    The linear model keeps only the two accumulates. The rectifier has no
    per-step state work at all.
    """
    kind = NeuronKind(kind)
    if kind is NeuronKind.LIF:
        return (OpCount(OpKind.MAC, 2), OpCount(OpKind.AC, 2))
    if kind is NeuronKind.IFL:
        return (OpCount(OpKind.AC, 2),)
    return ()


def classify_synaptic_ops(kind: NeuronKind) -> tuple[OpCount, ...]:
    """Arithmetic performed per synaptic event reaching a neuron of ``kind``.

    A binary spike turns the weighted sum term into a plain accumulate of the
    weight. A real-valued activation needs the full multiply-accumulate.
    """
    kind = NeuronKind(kind)
    if kind.spiking:
        return (OpCount(OpKind.AC, 1),)
    return (OpCount(OpKind.MAC, 1),)


def _weigh(ops: tuple[OpCount, ...]) -> float:
    return float(sum(OP_WEIGHTS[oc.op] * oc.count for oc in ops))


@cache  # every priced layer asks; the answer depends on the kind alone
def energy_params(kind: NeuronKind) -> EnergyParams:
    """Energy parameters derived from the operation classification.

    lif gives (2/3, 10/3), ifl gives (2/3, 4/3), ann_relu gives (1, 0).
    """
    kind = NeuronKind(kind)
    return EnergyParams(
        e_syn=_weigh(classify_synaptic_ops(kind)),
        e_upd=_weigh(classify_update_ops(kind)),
    )


@dataclass(frozen=True)
class NeuronModelSpec:
    """Immutable description of one layer's neuron model.

    ``tau_syn``, ``tau_mem`` are only meaningful for the leaky model, where
    the explicit Euler step is stable only for ``dt`` strictly below both.
    ``v_th`` must be positive for the spiking kinds and is ignored by the
    rectifier, as are the time constants. ``bias`` is a constant input
    current added on every step (for the linear model it is the step-scaled
    quantity, like the weights). ``spike_once`` freezes a neuron after its
    first spike for the remainder of the inference.
    """

    kind: NeuronKind
    dt: float = 1e-3
    tau_syn: float = 0.0
    tau_mem: float = 0.0
    v_th: float = 1.0
    bias: float = 0.0
    spike_once: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", NeuronKind(self.kind))
        for name in ("dt", "tau_syn", "tau_mem", "v_th", "bias"):
            if not np.isfinite(getattr(self, name)):
                raise SchemaError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.dt > 0:
            raise SchemaError(f"dt must be positive, got {self.dt}")
        if self.kind is NeuronKind.LIF:
            if not (self.tau_syn > 0 and self.tau_mem > 0):
                raise SchemaError(
                    "lif requires positive tau_syn and tau_mem, got "
                    f"({self.tau_syn}, {self.tau_mem})"
                )
            if not (self.dt < self.tau_syn and self.dt < self.tau_mem):
                raise SchemaError(
                    f"explicit Euler step dt={self.dt} must stay below "
                    f"tau_syn={self.tau_syn} and tau_mem={self.tau_mem}"
                )
        if self.kind.spiking and not self.v_th > 0:
            raise SchemaError(f"spiking models need v_th > 0, got {self.v_th}")
        if self.spike_once and not self.kind.spiking:
            raise SchemaError("spike_once makes no sense for ann_relu")

    @property
    def energy(self) -> EnergyParams:
        return energy_params(self.kind)


@dataclass
class NeuronState:
    """State carried between steps: synaptic current, membrane voltage,
    and the fired-before mask used by ``spike_once``, as equally shaped
    arrays that each step overwrites.

    ``v_peak`` records the pre-reset half-step voltage of the latest step;
    it is what membrane-voltage decoding reads, since the post-reset ``v``
    has already had the threshold subtracted on spiking steps.
    """

    i: np.ndarray
    v: np.ndarray
    has_spiked: np.ndarray
    v_peak: np.ndarray


def state_zeros(n: int | tuple[int, ...]) -> NeuronState:
    """Fresh state for ``n`` neurons: zero current, zero voltage, no spikes.

    ``n`` may be a shape, such as ``(samples, neurons)``.
    """
    return NeuronState(
        i=np.zeros(n, dtype=np.float64),
        v=np.zeros(n, dtype=np.float64),
        has_spiked=np.zeros(n, dtype=bool),
        v_peak=np.zeros(n, dtype=np.float64),
    )


def _spike_and_reset(
    state: NeuronState, model: NeuronModelSpec, spikes: np.ndarray | None
) -> np.ndarray:
    """Spike where the half-step voltage in ``state.v_peak`` reaches the
    threshold, and reset by subtraction, into ``spikes`` if given.

    Each ufunc takes its output positionally, which dispatches faster than
    the keyword. Under ``spike_once`` the mask is one call with no
    temporary: on booleans, ``spike > has_spiked`` is ``spike & ~has_spiked``.
    The reset copies the spikes into ``v`` as +0.0 and 1.0 (nothing there is
    live once the half-step voltage is made), scales them by the threshold
    unless it is 1.0, where ``spike * 1.0`` is the copy itself, and
    subtracts float64 from float64: bitwise ``v_peak - spike * v_th``, by
    one-type loops, where a ufunc of a boolean and a float64 operand runs
    numpy's buffered casting loop.
    """
    spike = np.greater_equal(state.v_peak, model.v_th, spikes)
    if model.spike_once:
        np.greater(spike, state.has_spiked, spike)
    np.copyto(state.v, spike)
    if model.v_th != 1.0:
        np.multiply(state.v, model.v_th, state.v)
    np.subtract(state.v_peak, state.v, state.v)
    np.logical_or(state.has_spiked, spike, state.has_spiked)
    return spike


def lif_step(
    state: NeuronState,
    weighted_input: np.ndarray,
    model: NeuronModelSpec,
    *,
    spikes: np.ndarray | None = None,
) -> np.ndarray:
    """Advance leaky integrate-and-fire neurons by one step, in place.

    ``weighted_input`` is the summed synaptic drive for this step. The new
    state overwrites ``state``'s arrays, and the boolean spikes are returned:
    written into ``spikes``, a boolean array shaped like the state, when one
    is given (bitwise what a new array would hold), else in a new array.
    The neurons may carry leading axes, such as one row per sample.

    A bias of zero (+0.0 or -0.0) is not added, which changes no bit of
    any input's result: ``i - i * dt/tau_syn`` is never -0.0 (a difference
    of equal values is +0.0), so neither is that plus the drive, and adding
    a zero of either sign to a value that is not -0.0 returns that value,
    NaN and infinities included.
    """
    # i - i * dt/tau_syn + drive + bias, left to right, with v_peak as the
    # temporary for i * dt/tau_syn
    np.multiply(state.i, model.dt / model.tau_syn, state.v_peak)
    np.subtract(state.i, state.v_peak, state.i)
    np.add(state.i, weighted_input, state.i)
    if model.bias:  # adding a zero bias of either sign would change no bit
        np.add(state.i, model.bias, state.i)
    # v + (i_new - v) * dt/tau_mem
    np.subtract(state.i, state.v, state.v_peak)
    np.multiply(state.v_peak, model.dt / model.tau_mem, state.v_peak)
    np.add(state.v, state.v_peak, state.v_peak)
    return _spike_and_reset(state, model, spikes)


def ifl_step(
    state: NeuronState,
    weighted_input: np.ndarray,
    model: NeuronModelSpec,
    *,
    spikes: np.ndarray | None = None,
) -> np.ndarray:
    """Advance non-leaky linear integrate-and-fire neurons by one step, in place.

    State and return value work as in :func:`lif_step`.
    """
    # unlike lif_step, a zero bias is added: i = -0.0 and a drive of -0.0
    # make -0.0, which adding +0.0 turns into +0.0
    np.add(state.i, weighted_input, state.i)
    np.add(state.i, model.bias, state.i)
    np.add(state.v, state.i, state.v_peak)
    return _spike_and_reset(state, model, spikes)


def step_fn(kind: NeuronKind):
    """Step function for a spiking kind; raises for the stateless rectifier."""
    kind = NeuronKind(kind)
    if kind is NeuronKind.LIF:
        return lif_step
    if kind is NeuronKind.IFL:
        return ifl_step
    raise SchemaError("ann_relu has no stepwise dynamics")


def ann_activation(
    weighted_input: np.ndarray,
    model: NeuronModelSpec,
    out: np.ndarray | None = None,
    *,
    check: Callable[[np.ndarray], None] | None = None,
) -> np.ndarray:
    """Rectified activation for a conventional layer: max(drive + bias, 0).

    With ``out`` (which may be ``weighted_input`` itself) the sum and the
    maximum are written there, by the same two ufuncs on the same operands,
    so the result is bitwise the one returned without it. ``check``, if
    given, is called on the sum before the maximum, which would turn a
    -inf into 0.0; it may raise.
    """
    out = np.add(weighted_input, model.bias, out)
    if check is not None:
        check(out)
    return np.maximum(out, 0.0, out=out)
