import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emacprof import (
    AC_EMAC,
    MAC_EMAC,
    NeuronKind,
    NeuronModelSpec,
    NeuronState,
    SchemaError,
    classify_synaptic_ops,
    classify_update_ops,
    energy_params,
    ifl_step,
    lif_step,
    state_zeros,
)
from emacprof.neuron import OP_WEIGHTS, step_fn


def lif_model(q_syn=0.1, q_mem=0.1, v_th=1.0, bias=0.0, spike_once=False):
    # dt and taus chosen so dt/tau equals q exactly (tau = dt / q with
    # dyadic q keeps the ratio representable)
    dt = 1e-3
    return NeuronModelSpec(
        kind=NeuronKind.LIF,
        dt=dt,
        tau_syn=dt / q_syn,
        tau_mem=dt / q_mem,
        v_th=v_th,
        bias=bias,
        spike_once=spike_once,
    )


def ifl_model(v_th=1.0, bias=0.0, spike_once=False):
    return NeuronModelSpec(
        kind=NeuronKind.IFL, v_th=v_th, bias=bias, spike_once=spike_once
    )


# ---------------------------------------------------------------------------
# energy parameters


def test_energy_params_from_op_classification():
    assert MAC_EMAC == 1.0
    assert AC_EMAC == 2.0 / 3.0
    lif = energy_params(NeuronKind.LIF)
    ifl = energy_params(NeuronKind.IFL)
    ann = energy_params(NeuronKind.ANN_RELU)
    assert (lif.e_syn, lif.e_upd) == (2.0 / 3.0, 2 * MAC_EMAC + 2 * AC_EMAC)
    assert lif.e_upd == pytest.approx(10.0 / 3.0, abs=1e-12)
    assert (ifl.e_syn, ifl.e_upd) == (2.0 / 3.0, 4.0 / 3.0)
    assert (ann.e_syn, ann.e_upd) == (1.0, 0.0)


@pytest.mark.parametrize("kind", list(NeuronKind))
def test_energy_params_are_the_weighted_op_counts(kind):
    e = energy_params(kind)
    upd = sum(OP_WEIGHTS[c.op] * c.count for c in classify_update_ops(kind))
    syn = sum(OP_WEIGHTS[c.op] * c.count for c in classify_synaptic_ops(kind))
    assert e.e_upd == upd
    assert e.e_syn == syn


def test_update_op_breakdown():
    lif = {(c.op.value, c.count) for c in classify_update_ops(NeuronKind.LIF)}
    assert lif == {("mac", 2), ("ac", 2)}
    ifl = {(c.op.value, c.count) for c in classify_update_ops(NeuronKind.IFL)}
    assert ifl == {("ac", 2)}
    assert classify_update_ops(NeuronKind.ANN_RELU) == ()
    ann_syn = classify_synaptic_ops(NeuronKind.ANN_RELU)
    assert [(c.op.value, c.count) for c in ann_syn] == [("mac", 1)]


# ---------------------------------------------------------------------------
# model validation


def test_model_rejects_bad_timing():
    with pytest.raises(SchemaError):
        NeuronModelSpec(kind=NeuronKind.LIF, dt=0.0, tau_syn=1.0, tau_mem=1.0)
    with pytest.raises(SchemaError):
        NeuronModelSpec(kind=NeuronKind.LIF, dt=1e-3, tau_syn=0.0, tau_mem=1.0)
    with pytest.raises(SchemaError):
        # explicit Euler needs dt below both time constants
        NeuronModelSpec(kind=NeuronKind.LIF, dt=2e-3, tau_syn=1e-3, tau_mem=1.0)


@pytest.mark.parametrize("field", ["dt", "tau_syn", "tau_mem", "v_th", "bias"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_model_rejects_non_finite_parameters(field, value):
    fields = {"dt": 1e-3, "tau_syn": 1e-2, "tau_mem": 1e-2, field: value}
    for kind in NeuronKind:
        with pytest.raises(SchemaError, match=field):
            NeuronModelSpec(kind=kind, **fields)


def test_model_rejects_bad_threshold_and_spike_once():
    with pytest.raises(SchemaError):
        NeuronModelSpec(kind=NeuronKind.IFL, v_th=0.0)
    with pytest.raises(SchemaError):
        NeuronModelSpec(kind=NeuronKind.ANN_RELU, spike_once=True)
    # ANN ignores thresholds and taus entirely
    NeuronModelSpec(kind=NeuronKind.ANN_RELU)


# ---------------------------------------------------------------------------
# LIF dynamics


def test_lif_single_step_substitution():
    model = lif_model(q_syn=0.1, q_mem=0.1)
    st = state_zeros(1)
    st.i[:] = 1.0
    spike = lif_step(st, np.zeros(1), model)
    assert st.i[0] == pytest.approx(0.9, rel=1e-12)
    assert st.v[0] == pytest.approx(0.09, rel=1e-12)
    assert not spike[0]


def test_lif_zero_state_is_a_fixed_point():
    model = lif_model()
    st = state_zeros(3)
    spike = lif_step(st, np.zeros(3), model)
    assert not spike.any()
    assert (st.i == 0).all() and (st.v == 0).all()


def test_lif_pinned_current_fixture():
    # dt/tau_syn = 0.125 with a matching input holds i at exactly 1.0, so
    # the voltage recurrence is v <- v + (1 - v)/2: 0.5, 0.75, 0.875, ...
    model = lif_model(q_syn=0.125, q_mem=0.5, v_th=0.9)
    st = state_zeros(1)
    st.i[:] = 1.0
    drive = np.full(1, 0.125)

    seen = []
    first_spike = None
    for step in range(1, 7):
        spike = lif_step(st, drive, model)
        assert st.i[0] == 1.0
        seen.append(st.v_peak[0])
        if spike[0] and first_spike is None:
            first_spike = step
            v_after = st.v[0]
    assert seen[:4] == [0.5, 0.75, 0.875, 0.9375]
    assert first_spike == 4
    assert v_after == pytest.approx(0.0375, rel=1e-12)


def test_lif_never_crosses_unit_threshold_under_pinned_drive():
    # v converges to 1 from below and stays exactly representable as
    # 1 - 2^-k for k <= 53; past that, rounding can land on 1.0, so the
    # check stops while the trajectory is still exact.
    model = lif_model(q_syn=0.125, q_mem=0.5, v_th=1.0)
    st = state_zeros(1)
    st.i[:] = 1.0
    drive = np.full(1, 0.125)
    for k in range(1, 41):
        spike = lif_step(st, drive, model)
        assert not spike[0]
        assert st.v[0] == 1.0 - 0.5**k


def test_lif_geometric_current_decay():
    q = 1e-3 / (1e-3 / 0.1)  # the exact ratio the update uses
    model = lif_model(q_syn=0.1, q_mem=0.01)
    st = state_zeros(1)
    st.i[:] = 1.0
    for k in range(1, 1001):
        lif_step(st, np.zeros(1), model)
        expected = (1.0 - q) ** k
        tol = 8 * k * np.spacing(expected)
        assert abs(st.i[0] - expected) <= tol


def test_lif_reset_by_subtraction_is_exact():
    rng = np.random.default_rng(7)
    model = lif_model(q_syn=0.25, q_mem=0.5, v_th=0.4)
    st = state_zeros(64)
    spiked_at_least_once = False
    for _ in range(50):
        spike = lif_step(st, rng.uniform(0.0, 0.8, size=64), model)
        if spike.any():
            spiked_at_least_once = True
            assert (st.v[spike] == st.v_peak[spike] - model.v_th).all()
        assert (st.v[~spike] == st.v_peak[~spike]).all()
    assert spiked_at_least_once


# ---------------------------------------------------------------------------
# IFL dynamics


def test_ifl_constant_drive_fixture():
    model = ifl_model(v_th=1.0)
    st = state_zeros(1)
    drive = np.full(1, 0.3)
    currents, volts, spikes = [], [], []
    for _ in range(3):
        spike = ifl_step(st, drive, model)
        currents.append(st.i[0])
        volts.append(st.v_peak[0])
        spikes.append(bool(spike[0]))
    assert currents == pytest.approx([0.3, 0.6, 0.9], rel=1e-12)
    assert volts == pytest.approx([0.3, 0.9, 1.8], rel=1e-12)
    assert spikes == [False, False, True]
    assert st.v[0] == pytest.approx(0.8, rel=1e-12)


def test_ifl_has_no_leak():
    model = ifl_model(v_th=100.0)
    st = state_zeros(2)
    st.i[:] = [0.4, -0.2]
    st.v[:] = [0.1, 0.3]
    for _ in range(10):
        i_before, v_before = st.i.copy(), st.v.copy()
        spike = ifl_step(st, np.zeros(2), model)
        assert not spike.any()
        assert (st.i == i_before).all()
        # v keeps integrating the frozen current
        assert (st.v == v_before + i_before).all()
    assert st.i[0] == 0.4


def test_spike_once_suppresses_later_spikes():
    model = ifl_model(v_th=0.5, spike_once=True)
    st = state_zeros(1)
    drive = np.full(1, 0.6)
    total = 0
    for _ in range(20):
        spike = ifl_step(st, drive, model)
        total += int(spike[0])
    assert total == 1
    assert st.has_spiked[0]


def test_bias_feeds_the_current_every_step():
    model = ifl_model(v_th=10.0, bias=0.25)
    st = state_zeros(1)
    for k in range(1, 5):
        ifl_step(st, np.zeros(1), model)
        assert st.i[0] == pytest.approx(0.25 * k, rel=1e-12)


def test_step_fn_dispatch():
    assert step_fn(NeuronKind.LIF) is lif_step
    assert step_fn(NeuronKind.IFL) is ifl_step
    with pytest.raises(SchemaError):
        step_fn(NeuronKind.ANN_RELU)


# ---------------------------------------------------------------------------
# in-place steps and the finiteness check


def reference_step(state, drive, model):
    """The step as plain array expressions: the arithmetic the in-place step keeps."""
    if model.kind is NeuronKind.LIF:
        i_new = state.i - state.i * (model.dt / model.tau_syn) + drive + model.bias
        v_half = state.v + (i_new - state.v) * (model.dt / model.tau_mem)
    else:
        i_new = state.i + drive + model.bias
        v_half = state.v + i_new
    spike = v_half >= model.v_th
    if model.spike_once:
        spike = spike & ~state.has_spiked
    v_new = v_half - model.v_th * spike
    fired = state.has_spiked | spike
    return NeuronState(i=i_new, v=v_new, has_spiked=fired, v_peak=v_half), spike


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_state(a, b):
    return all(
        same_bits(getattr(a, f), getattr(b, f)) for f in ("i", "v", "has_spiked", "v_peak")
    )


def random_model(rng, kind, spike_once):
    v_th = float(rng.choice([0.25, 0.5, 1.0, 3.0]))
    bias = float(rng.choice([0.0, 0.125, -0.1, 0.3]))
    if kind == "lif":
        return NeuronModelSpec(
            kind=NeuronKind.LIF, dt=1e-3, tau_syn=float(rng.choice([2e-3, 5e-3, 3e-2])),
            tau_mem=float(rng.choice([2e-3, 1e-2, 7e-3])), v_th=v_th, bias=bias,
            spike_once=spike_once,
        )
    return NeuronModelSpec(kind=NeuronKind.IFL, v_th=v_th, bias=bias, spike_once=spike_once)


def random_state(rng, shape, scale=1.0):
    return NeuronState(
        i=rng.normal(0.0, scale, shape),
        v=rng.normal(0.0, scale, shape),
        has_spiked=rng.random(shape) < 0.3,
        v_peak=rng.normal(0.0, scale, shape),
    )


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["lif", "ifl"]),
    spike_once=st.booleans(),
    shape=st.sampled_from([(1,), (7,), (1, 5), (4, 9), (3, 1)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_in_place_step_is_bitwise_the_array_expressions(kind, spike_once, shape, seed):
    # a twin state stepped with ``spikes=`` gets the same state, and its
    # spikes written into the given buffer are bitwise the new array's
    rng = np.random.default_rng(seed)
    model = random_model(rng, kind, spike_once)
    step = lif_step if kind == "lif" else ifl_step
    state = random_state(rng, shape)
    buffers = [state.i, state.v, state.has_spiked, state.v_peak]
    twin = NeuronState(*(a.copy() for a in buffers))
    written = rng.random(shape) < 0.5  # stale spikes the step must overwrite
    for _ in range(6):
        drive = rng.normal(0.4, 0.6, shape)
        want, want_spike = reference_step(state, drive, model)
        spike = step(state, drive, model)
        after = [state.i, state.v, state.has_spiked, state.v_peak]
        assert all(a is b for a, b in zip(buffers, after))
        assert same_state(state, want)
        assert same_bits(spike, want_spike)
        assert step(twin, drive, model, spikes=written) is written
        assert same_state(twin, want)
        assert same_bits(written, spike)


#: signed zeros, subnormals, and normal values around them
EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-309, 2.3e-308, 1.0, -0.75])


@pytest.mark.parametrize("kind", ["lif", "ifl"])
@pytest.mark.parametrize("bias", [0.0, -0.0, 5e-324, -1e-310, 0.125])
@pytest.mark.parametrize("spike_once", [False, True])
def test_steps_on_signed_zeros_and_subnormals_are_bitwise_the_array_expressions(
    kind, bias, spike_once
):
    # every pairing of an edge current with an edge drive, and edge voltages:
    # a zero bias the step skips must change no bit of any of them, and the
    # linear model's -0.0 current plus a -0.0 drive needs its +0.0 bias
    model = (
        lif_model(q_syn=0.25, q_mem=0.5, v_th=0.5, bias=bias, spike_once=spike_once)
        if kind == "lif"
        else ifl_model(v_th=0.5, bias=bias, spike_once=spike_once)
    )
    step = lif_step if kind == "lif" else ifl_step
    i, drive = (a.reshape(-1) for a in np.meshgrid(EDGE_VALUES, EDGE_VALUES))
    state = NeuronState(
        i=i.copy(), v=np.resize(EDGE_VALUES[::-1], i.size),
        has_spiked=np.arange(i.size) % 3 == 0, v_peak=np.zeros(i.size),
    )
    for _ in range(3):
        want, want_spike = reference_step(state, drive, model)
        spike = step(state, drive, model)
        assert same_state(state, want)
        assert same_bits(spike, want_spike)
        drive = drive[::-1].copy()


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["lif", "ifl"]),
    spike_once=st.booleans(),
    shape=st.sampled_from([(1,), (6,), (1, 4), (3, 5)]),
    drive_values=st.lists(
        st.one_of(
            st.sampled_from([np.inf, -np.inf, np.nan, 1e308, -1e308, 1.7e308]),
            st.floats(-1e3, 1e3),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=20,
    ),
    state_scale=st.sampled_from([1.0, 1e300, 1e308]),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_peak_voltage_check_equals_the_current_and_voltage_check(
    kind, spike_once, shape, drive_values, state_scale, seed
):
    # from a finite state, the step leaves i or v non-finite exactly when it
    # leaves v_peak non-finite: one check of v_peak replaces the two
    rng = np.random.default_rng(seed)
    model = random_model(rng, kind, spike_once)
    step = lif_step if kind == "lif" else ifl_step
    state = random_state(rng, shape, state_scale)
    state.i = np.clip(state.i, -1.7e308, 1.7e308)
    state.v = np.clip(state.v, -1.7e308, 1.7e308)
    drive = rng.choice(np.array(drive_values), size=shape)
    with np.errstate(all="ignore"):
        if rng.random() < 0.3:  # a synaptic sum that overflowed on a huge weight
            drive.flat[0] *= 1e300
        step(state, drive, model)
    old_check = np.isfinite(state.i).all() and np.isfinite(state.v).all()
    assert np.isfinite(state.v_peak).all() == old_check
    if state.v_peak.ndim == 2:  # and per row of a group
        rows_old = np.isfinite(state.i).all(axis=1) & np.isfinite(state.v).all(axis=1)
        assert np.array_equal(np.isfinite(state.v_peak).all(axis=1), rows_old)
