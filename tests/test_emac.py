import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emacprof import (
    Coding,
    EmacProfError,
    EncodingMode,
    LayerKind,
    MissingRates,
    NetworkBuilder,
    NeuronKind,
    NeuronModelSpec,
    RateOutOfRange,
    SchemaError,
    TraceNetMismatch,
    ann_mac_count,
    emac_analytic,
    emac_exact,
    encode,
    rates_from_trace,
    run_dataset,
    run_inference,
)
from emacprof import emac, engine, netspec
from emacprof.emac import (
    METHOD_ANALYTIC,
    METHOD_EXACT,
    EnergyReport,
    LayerEnergy,
    LayerRates,
)
from emacprof.engine import SpikeTrace
from emacprof.netspec import WEIGHTED_KINDS, layer_counts, static_split
from emacprof.neuron import AC_EMAC, MAC_EMAC
from test_reference_sim import add_layer, rectifier, spiking_model

ANN = NeuronModelSpec(kind=NeuronKind.ANN_RELU)
LIF = NeuronModelSpec(kind=NeuronKind.LIF, dt=1e-3, tau_syn=8e-3, tau_mem=2e-3)
LIF_SPIKING = NeuronModelSpec(
    kind=NeuronKind.LIF, dt=1e-3, tau_syn=5e-3, tau_mem=1e-2, v_th=0.5
)


def ifl(v_th=1.0, **kw):
    return NeuronModelSpec(kind=NeuronKind.IFL, v_th=v_th, **kw)


def dense_net(sizes, model, t_max=8, coding=Coding.RATE, rng=None):
    b = NetworkBuilder((sizes[0],), coding=coding, max_timesteps=t_max)
    for n_in, n_out in zip(sizes, sizes[1:]):
        w = None if rng is None else rng.uniform(0.05, 0.4, (n_out, n_in))
        b.dense(n_out, model, weights=w)
    return b.build()


def trace_for(net, *, counts, ff, rec=None, analog=None, input_counts=None, T=None):
    """Hand-built trace for pricing tests."""
    counts = np.asarray(counts, dtype=np.int64)
    L = counts.shape[0]
    return SpikeTrace(
        counts=counts,
        input_counts=None if input_counts is None else np.asarray(input_counts),
        feedforward_events=np.asarray(ff, dtype=np.int64),
        recurrent_events=np.zeros(L, dtype=np.int64) if rec is None else np.asarray(rec),
        analog_events=np.zeros(L, dtype=np.int64) if analog is None else np.asarray(analog),
        T_used=counts.shape[1] if T is None else T,
        layer_neurons=tuple(layer_counts(l).neurons for l in net.layers),
        n_inputs=int(np.prod(net.input_shape)),
    )


# ---------------------------------------------------------------------------
# analytic estimator


def test_pure_ann_chain_is_the_mac_count():
    net = dense_net([4, 3, 2], ANN)
    report = emac_analytic(net, None, 1)
    assert report.E_tot == 18
    assert report.E_upd == 0
    assert ann_mac_count(net) == 18
    assert report.method == METHOD_ANALYTIC


def test_single_ifl_dense_layer_arithmetic():
    net = dense_net([10, 5], ifl())
    rates = LayerRates(input_rate=0.2, per_layer=[0.0])
    report = emac_analytic(
        net, rates, 8, input_mode=EncodingMode.POISSON
    )
    [layer] = report.per_layer
    assert layer.E_syn == pytest.approx(10 * 5 * 0.2 * (2 / 3), rel=1e-12)
    assert layer.E_syn == pytest.approx(6.67, abs=5e-3)
    assert layer.E_upd == pytest.approx(8 * 5 * (4 / 3), rel=1e-12)
    assert layer.E_upd == pytest.approx(53.33, abs=5e-3)
    assert report.E_tot == pytest.approx(60.0, rel=1e-12)


def test_recurrent_layer_contribution():
    rng = np.random.default_rng(0)
    net = (
        NetworkBuilder((40,), coding=Coding.RATE, max_timesteps=16)
        .recurrent_dense(
            100,
            LIF,
            weights=rng.uniform(0, 0.1, (100, 40)),
            recurrent_weights=rng.uniform(0, 0.1, (100, 100)),
        )
        .build()
    )
    rates = LayerRates(input_rate=0.0, per_layer=[0.5])
    report = emac_analytic(net, rates, 16, input_mode=EncodingMode.POISSON)
    assert report.E_rec == pytest.approx(100 * 100 * 0.5 * (2 / 3), rel=1e-12)
    assert report.E_rec == pytest.approx(10000 / 3, rel=1e-12)
    assert report.E_tot == report.E_syn + report.E_upd + report.E_rec


def test_missing_rates_are_rejected():
    net = dense_net([10, 5], ifl())
    with pytest.raises(MissingRates):
        emac_analytic(net, None, 8, input_mode=EncodingMode.POISSON)
    with pytest.raises(MissingRates):
        emac_analytic(
            net,
            LayerRates(input_rate=None, per_layer=[0.1]),
            8,
            input_mode=EncodingMode.POISSON,
        )
    with pytest.raises(MissingRates):
        emac_analytic(
            net,
            LayerRates(input_rate=0.2, per_layer=[0.1, 0.2]),
            8,
            input_mode=EncodingMode.POISSON,
        )


def test_missing_rates_for_a_recurrent_layers_own_rate():
    # an analog input makes the feedforward drive static, so only the
    # recurrent term needs a rate: the layer's own
    net = (
        NetworkBuilder((4,), coding=Coding.RATE, max_timesteps=4)
        .recurrent_dense(3, LIF)
        .dense(2, LIF)
        .build()
    )
    with pytest.raises(MissingRates):
        emac_analytic(net, None, 4)
    report = emac_analytic(net, LayerRates(input_rate=None, per_layer=[0.5, 0.0]), 4)
    assert report.per_layer[0].E_syn == 4 * 3
    assert report.per_layer[0].E_rec == pytest.approx(3 * 3 * 0.5 * (2 / 3), rel=1e-12)


def test_poisson_input_into_rectifier_layers_is_rejected():
    # the engine refuses this input, so the estimate must not price it
    net = NetworkBuilder((4,)).dense(3, ANN).dense(2, ifl()).build()
    rates = LayerRates(input_rate=0.5, per_layer=[1.0, 0.2])
    with pytest.raises(SchemaError, match="ann_relu layers consume static values"):
        emac_analytic(net, rates, 8, input_mode="poisson")
    with pytest.raises(SchemaError, match="ann_relu layers consume static values"):
        run_inference(net, encode(np.full(4, 0.5), EncodingMode.POISSON, seed=0))
    assert emac_analytic(net, rates, 8).per_layer[0].E_syn == 12.0


@pytest.mark.parametrize(
    "input_rate, per_layer",
    [(-1.0, [0.1, 0.2]), (None, [np.nan, 0.2]), (0.1, [0.1, np.inf]),
     (np.nan, [0.1, 0.2]), (np.inf, [0.1, 0.2]), (None, [0.1, -0.5])],
)
def test_rates_must_be_finite_and_non_negative(input_rate, per_layer):
    with pytest.raises(RateOutOfRange):
        LayerRates(input_rate=input_rate, per_layer=per_layer)


def test_rates_above_one_are_spikes_per_inference():
    net = dense_net([4, 3, 2], ifl())
    rates = LayerRates(input_rate=2.5, per_layer=[3.0, 0.0])
    report = emac_analytic(net, rates, 8, input_mode="poisson")
    assert report.per_layer[0].E_syn == pytest.approx(4 * 3 * 2.5 * (2 / 3), rel=1e-12)


@pytest.mark.parametrize("steps", [-5, 0, 2.5, True])
def test_the_step_count_must_be_a_positive_integer(steps):
    net = dense_net([4, 3, 2], ifl())
    rates = LayerRates(input_rate=0.5, per_layer=[0.2, 0.1])
    with pytest.raises(SchemaError, match="T_used"):
        emac_analytic(net, rates, steps)
    report = emac_analytic(net, rates, np.int64(5))  # numpy integers are step counts
    assert type(report.T_used) is int
    assert report == emac_analytic(net, rates, 5)


@pytest.mark.parametrize("encoder_per_step", [False, True])
def test_pool_in_the_static_prefix_costs_its_window_macs(encoder_per_step):
    # a static pool reads all kh*kw values of every window: kh*kw MACs an output
    rng = np.random.default_rng(3)
    net = (
        NetworkBuilder((1, 6, 6), coding=Coding.RATE, max_timesteps=5)
        .conv2d(2, (3, 3), ANN, weights=rng.uniform(0.0, 0.5, 2 * 9))
        .max_pool((2, 2))
        .flatten()
        .dense(3, LIF_SPIKING, weights=rng.uniform(0.0, 0.5, 3 * 8))
        .build()
    )
    pool = net.layers[1]
    assert pool.kind is LayerKind.MAX_POOL2D
    result = run_inference(
        net, encode(rng.uniform(0, 1, (1, 6, 6))), encoder_per_step=encoder_per_step
    )
    assert result.trace.T_used == 5  # rate coding runs the whole window
    steps = 5 if encoder_per_step else 1
    expected = 2 * 2 * layer_counts(pool).neurons * steps
    for report in (result.energy, result.energy_analytic):
        assert report.per_layer[1].E_syn == expected
        assert report.per_layer[1].E_upd == report.per_layer[1].E_rec == 0
        assert report.E_pool == expected


# ---------------------------------------------------------------------------
# exact pricing


def test_zero_spike_trace_costs_updates_only():
    net = dense_net([10, 5], ifl(), t_max=8)
    trace = trace_for(net, counts=np.zeros((1, 8)), ff=[0])
    report = emac_exact(net, trace)
    assert report.E_syn == 0
    assert report.E_rec == 0
    assert report.E_upd == pytest.approx(8 * 5 * (4 / 3), rel=1e-12)
    assert report.method == METHOD_EXACT


def test_trace_layer_mismatch_is_rejected():
    net = dense_net([10, 5], ifl())
    other = dense_net([10, 7], ifl())
    trace = trace_for(other, counts=np.zeros((1, 4)), ff=[0])
    with pytest.raises(TraceNetMismatch):
        emac_exact(net, trace)


def test_adding_events_never_reduces_synaptic_energy():
    net = dense_net([10, 5], ifl(), t_max=4)
    base = trace_for(net, counts=[[1, 0, 2, 0]], ff=[30])
    more = trace_for(net, counts=[[1, 1, 2, 0]], ff=[45])
    a, b = emac_exact(net, base), emac_exact(net, more)
    assert b.E_syn >= a.E_syn
    assert b.E_upd == a.E_upd


def test_update_term_scales_linearly_in_time():
    net = dense_net([10, 5], ifl())
    short = trace_for(net, counts=np.zeros((1, 4)), ff=[0])
    double = trace_for(net, counts=np.zeros((1, 8)), ff=[0])
    assert emac_exact(net, double).E_upd == 2 * emac_exact(net, short).E_upd
    assert emac_exact(net, double).E_syn == emac_exact(net, short).E_syn == 0


def test_rates_from_trace_definitions():
    net = dense_net([4, 10], ifl(), t_max=6)
    trace = trace_for(
        net, counts=[[2, 1, 0, 2, 0, 0]], ff=[0], input_counts=[1, 1, 0, 0, 0, 0]
    )
    rates = rates_from_trace(trace)
    assert rates.per_layer[0] == 0.5  # 5 spikes over 10 neurons
    assert rates.input_rate == 0.5  # 2 spikes over 4 inputs
    silent = rates_from_trace(trace_for(net, counts=np.zeros((1, 6)), ff=[0]))
    assert silent.per_layer[0] == 0.0


# ---------------------------------------------------------------------------
# oracle identities


def per_spike_fanout_oracle(layer):
    """Per-position fanout by explicit kernel placement loops."""
    c_in, h, w = layer.input_shape
    k_h, k_w = layer.kernel
    s_h, s_w = layer.stride
    p = layer.padding
    out_c = layer.output_shape[0]
    oh, ow = layer.output_shape[1:]
    fan = np.zeros((c_in, h, w), dtype=np.int64)
    for oy in range(oh):
        for ox in range(ow):
            for ky in range(k_h):
                for kx in range(k_w):
                    iy = oy * s_h - p + ky
                    ix = ox * s_w - p + kx
                    if 0 <= iy < h and 0 <= ix < w:
                        fan[:, iy, ix] += out_c
    return fan


def test_dense_exact_matches_analytic_from_measured_rates():
    rng = np.random.default_rng(77)
    net = dense_net([12, 20, 15, 6], ifl(0.6), t_max=24, rng=rng)
    enc = encode(rng.uniform(0.1, 0.9, 12), EncodingMode.POISSON, seed=3)
    res = run_inference(net, enc)
    exact = res.energy.E_tot
    analytic = emac_analytic(
        net,
        rates_from_trace(res.trace),
        res.trace.T_used,
        input_mode=EncodingMode.POISSON,
    ).E_tot
    assert exact == pytest.approx(analytic, rel=1e-9)
    assert exact > 0


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 40), min_size=2, max_size=5),
    models=st.lists(st.sampled_from(["ifl", "lif", "ifl_once"]), min_size=4, max_size=4),
    coding=st.sampled_from([Coding.RATE, Coding.ROC]),
    t_max=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_stack_exact_equals_analytic(sizes, models, coding, t_max, seed):
    """The paper's dense-stack invariant, on any dense IFL/LIF stack."""
    rng = np.random.default_rng(seed)
    kinds = {"ifl": ifl(0.6), "lif": LIF_SPIKING, "ifl_once": ifl(0.6, spike_once=True)}
    b = NetworkBuilder((sizes[0],), coding=coding, max_timesteps=t_max)
    for n_in, n_out, model in zip(sizes, sizes[1:], models):
        b.dense(n_out, kinds[model], weights=rng.uniform(-1.0, 4.0, (n_out, n_in)) / n_in)
    enc = encode(rng.uniform(0.0, 1.0, sizes[0]), EncodingMode.POISSON, seed=seed)
    res = run_inference(b.build(), enc)
    assert res.energy.E_tot == pytest.approx(res.energy_analytic.E_tot, rel=1e-9)


def test_conv_events_match_bruteforce_fanout_enumeration():
    rng = np.random.default_rng(13)
    net = (
        NetworkBuilder((1, 6, 6), coding=Coding.RATE, max_timesteps=10)
        .conv2d(3, (3, 3), ifl(0.5), weights=rng.uniform(0.05, 0.3, 27))
        .build()
    )
    enc = encode(rng.uniform(0.2, 0.9, (1, 6, 6)), EncodingMode.POISSON, seed=21)
    res = run_inference(net, enc, record_raster=True)
    fan = per_spike_fanout_oracle(net.layers[0])
    # replay the input stream and sum the oracle fanout under each spike
    from emacprof import poisson_slice

    total = 0
    for t in range(1, res.trace.T_used + 1):
        spikes = poisson_slice(enc, t)
        total += int(fan[spikes].sum())
    assert res.trace.feedforward_events[0] == total


def test_interior_only_spikes_undershoot_the_analytic_bound():
    # a 5x5 input spiking only at the corner realizes far fewer synapses
    # than the structural average assumes
    w = np.full(9, 0.2, dtype=np.float32)
    net = (
        NetworkBuilder((1, 5, 5), coding=Coding.RATE, max_timesteps=4)
        .conv2d(1, (3, 3), ifl(10.0), weights=w)
        .build()
    )
    values = np.zeros((1, 5, 5))
    values[0, 0, 0] = 1.0  # corner pixel, single kernel placement covers it
    res = run_inference(net, encode(values, EncodingMode.POISSON, seed=0))
    exact = res.energy
    analytic = emac_analytic(
        net,
        rates_from_trace(res.trace),
        res.trace.T_used,
        input_mode=EncodingMode.POISSON,
    )
    assert exact.E_syn < analytic.E_syn
    # corner spike reaches exactly one kernel placement per step
    assert res.trace.feedforward_events[0] == res.trace.T_used


def test_centre_spikes_overshoot_the_analytic_view():
    # without padding the analytic view is no upper bound: spikes placed
    # where the fan-out is largest realize more synapses than the average
    net = (
        NetworkBuilder((1, 8, 8), coding=Coding.RATE, max_timesteps=4)
        .conv2d(1, (3, 3), ifl(100.0), weights=np.full(9, 0.2, dtype=np.float32))
        .build()
    )
    values = np.zeros((1, 8, 8))
    values[0, 2:6, 2:6] = 1.0  # every centre pixel reaches all 9 placements
    res = run_inference(net, encode(values, EncodingMode.POISSON, seed=0))
    analytic = emac_analytic(
        net,
        rates_from_trace(res.trace),
        res.trace.T_used,
        input_mode=EncodingMode.POISSON,
    )
    assert res.trace.feedforward_events[0] == 16 * 9 * res.trace.T_used
    # the rate formula gives each spike the mean fan-out, 9 * 36 / 64, not 9
    assert analytic.E_syn == pytest.approx(res.energy.E_syn * 36 / 64, rel=1e-12)
    assert res.energy.E_syn > analytic.E_syn
    assert not res.energy.approx_padding and not analytic.approx_padding


def test_uniform_full_rate_closes_the_conv_gap():
    w = np.full(9, 0.01, dtype=np.float32)
    net = (
        NetworkBuilder((1, 5, 5), coding=Coding.RATE, max_timesteps=6)
        .conv2d(1, (3, 3), ifl(10.0), weights=w)
        .build()
    )
    res = run_inference(net, encode(np.ones((1, 5, 5)), EncodingMode.POISSON, seed=0))
    analytic = emac_analytic(
        net,
        rates_from_trace(res.trace),
        res.trace.T_used,
        input_mode=EncodingMode.POISSON,
    )
    # every position fires every step, so the average fanout is exact
    assert res.energy.E_syn == pytest.approx(analytic.E_syn, rel=1e-12)


# ---------------------------------------------------------------------------
# MAC counting


def test_mac_count_examples():
    assert ann_mac_count(dense_net([4, 3], ANN)) == 12
    conv = NetworkBuilder((3, 64, 64)).conv2d(16, (3, 3), ANN).build()
    assert conv.layers[0].output_shape == (16, 62, 62)
    assert ann_mac_count(conv) == 27 * 61504 == 1660608


def test_mac_count_matches_reduced_enumeration():
    # structural count on a small conv equals per-connection enumeration
    net = NetworkBuilder((3, 8, 8)).conv2d(4, (3, 3), ANN).build()
    assert net.layers[0].output_shape == (4, 6, 6)
    taps = 0
    for oy in range(6):
        for ox in range(6):
            for ky in range(3):
                for kx in range(3):
                    taps += 3  # in-bounds by construction for valid padding
    assert ann_mac_count(net) == taps * 4


# ---------------------------------------------------------------------------
# pool pricing and report shape


def test_pool_events_are_priced_as_accumulates():
    rng = np.random.default_rng(5)
    net = (
        NetworkBuilder((1, 4, 4), coding=Coding.RATE, max_timesteps=6)
        .conv2d(2, (3, 3), ifl(0.4), weights=rng.uniform(0.2, 0.5, 18))
        .max_pool((2, 2))
        .flatten()
        .dense(3, ifl(0.8), weights=rng.uniform(0.1, 0.3, (3, 2)))
        .build()
    )
    enc = encode(rng.uniform(0.4, 1.0, (1, 4, 4)), EncodingMode.POISSON, seed=9)
    res = run_inference(net, enc)
    report = res.energy
    pool_layer = report.per_layer[1]
    assert pool_layer.kind == "max_pool2d"
    assert pool_layer.E_upd == 0
    assert pool_layer.E_syn == pytest.approx(
        res.trace.feedforward_events[1] * (2 / 3), rel=1e-12
    )
    assert report.E_pool == pool_layer.E_syn
    # flatten carries nothing
    assert report.per_layer[2].E_tot == 0
    assert report.E_tot == report.E_syn + report.E_upd + report.E_rec


def test_report_totals_add_layers_left_to_right():
    def report(values):
        layers = tuple(
            LayerEnergy(f"{k}:dense", "dense", v, v, v) for k, v in enumerate(values)
        )
        return EnergyReport(METHOD_EXACT, 1, layers)

    # a compensated sum (builtin sum from Python 3.12 on) gives 1.0 and 0.6
    big, small = report([1e16, 1.0, -1e16]), report([0.1, 0.2, 0.3])
    assert (big.E_syn, big.E_upd, big.E_rec) == (0.0, 0.0, 0.0)
    assert small.E_syn == (0.1 + 0.2) + 0.3 != 0.6
    # a report of columns over samples totals each as its own report does
    columns = report(
        [np.array([b.E_syn, s.E_syn]) for b, s in zip(big.per_layer, small.per_layer)]
    )
    assert columns.E_tot.tolist() == [big.E_tot, small.E_tot]


def test_pool_energy_adds_left_to_right():
    layers = tuple(
        LayerEnergy(f"{k}:max_pool2d", "max_pool2d", v, 0.0, 0.0)
        for k, v in enumerate([1e16, 1.0, -1e16])
    )
    # a compensated sum (builtin sum from Python 3.12 on) gives 1.0
    assert EnergyReport(METHOD_EXACT, 1, layers).E_pool == 0.0


def test_report_serialization_round_trip():
    net = dense_net([4, 3], ifl(), t_max=5)
    trace = trace_for(net, counts=[[1, 0, 1, 0, 0]], ff=[6])
    report = emac_exact(net, trace)
    obj = report.to_dict()
    assert obj["method"] == METHOD_EXACT
    assert obj["T_used"] == 5
    assert obj["E_tot"] == pytest.approx(report.E_tot, rel=1e-15)


# ---------------------------------------------------------------------------
# pricing from the per-network table against per-sample derivation


def reference_event_price(layer):
    if layer.kind is LayerKind.MAX_POOL2D:
        return AC_EMAC
    if layer.kind in WEIGHTED_KINDS:
        return layer.neuron_model.energy.e_syn
    return 0.0


def reference_update_price(layer):
    model = layer.neuron_model
    if model is None or not model.kind.spiking:
        return 0.0
    return model.energy.e_upd


def reference_report(method, net, T_used, counts):
    """Each layer priced from its spec, as every sample was before the table."""
    per_layer = []
    for idx, (layer, (static, syn, rec)) in enumerate(zip(net.layers, counts)):
        price = reference_event_price(layer)
        neurons = layer_counts(layer).neurons
        per_layer.append(LayerEnergy(
            name=net.layer_name(idx),
            kind=layer.kind.value,
            E_syn=float(static) * MAC_EMAC + float(syn) * price,
            E_upd=float(T_used * neurons * reference_update_price(layer)),
            E_rec=float(rec) * price,
        ))
    return EnergyReport(
        method, T_used, tuple(per_layer), any(layer.padding > 0 for layer in net.layers)
    )


def reference_analytic(net, rates, T_used, input_mode, encoder_per_step):
    def rate(idx, of):
        if rates is None:
            raise MissingRates(f"layer {idx} consumes spikes but no rates were given")
        if of >= 0:
            return float(rates.per_layer[of])
        if rates.input_rate is None:
            raise MissingRates(
                "layer 0 consumes encoder spikes but no input rate was given"
            )
        return rates.input_rate

    prefix, start = static_split(net, input_mode)
    if start is not None and input_mode is EncodingMode.ANALOG:
        prefix = [*prefix, start]
    static = [0] * len(net.layers)
    for idx in prefix:
        c = layer_counts(net.layers[idx])
        static[idx] = c.fanin * c.neurons
    counts = []
    for idx, layer in enumerate(net.layers):
        c = layer_counts(layer)
        syn = rec = 0
        if not static[idx] and c.fanin:
            syn = c.fanin * c.neurons * rate(idx, idx - 1)
        if c.recurrent_fanin:
            rec = c.recurrent_fanin * c.neurons * rate(idx, idx)
        counts.append((static[idx] * (T_used if encoder_per_step else 1), syn, rec))
    return reference_report(METHOD_ANALYTIC, net, T_used, counts)


@st.composite
def priced_cases(draw):
    """A random network of every layer kind, and random counts and rates for it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        shape = (draw(st.integers(1, 2)), draw(st.integers(2, 6)), draw(st.integers(2, 6)))
    else:
        shape = (draw(st.integers(1, 8)),)
    b = NetworkBuilder(shape, max_timesteps=8)
    static, spiking = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    while static or spiking:
        is_static = static > 0
        model = rectifier(draw) if is_static else spiking_model(draw)
        if add_layer(draw, rng, b, model, allow_recurrent=not is_static):
            static, spiking = (static - 1, spiking) if is_static else (static, spiking - 1)
    net = b.build()
    L, steps = len(net.layers), draw(st.integers(1, 6))
    big = st.integers(0, 10**12)
    trace = SpikeTrace(
        counts=rng.integers(0, 50, (L, steps)),
        input_counts=rng.integers(0, 20, steps) if draw(st.booleans()) else None,
        feedforward_events=np.array(draw(st.lists(big, min_size=L, max_size=L))),
        recurrent_events=np.array(draw(st.lists(big, min_size=L, max_size=L))),
        analog_events=np.array(draw(st.lists(big, min_size=L, max_size=L))),
        T_used=steps,
        layer_neurons=tuple(layer_counts(l).neurons for l in net.layers),
        n_inputs=int(np.prod(shape)),
    )
    rate = st.floats(0.0, 1e3, allow_nan=False)
    rates = draw(st.one_of(st.none(), st.builds(
        LayerRates,
        input_rate=st.one_of(st.none(), rate),
        per_layer=st.lists(rate, min_size=L, max_size=L),
    )))
    run = dict(
        T_used=draw(st.integers(1, 10**6)),
        input_mode=draw(st.sampled_from(list(EncodingMode))),
        encoder_per_step=draw(st.booleans()),
    )
    return net, trace, rates, run


def outcome(price, *args):
    """A report's ``to_dict`` as JSON (every float to the last bit), or the error."""
    try:
        return json.dumps(price(*args).to_dict())
    except EmacProfError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(case=priced_cases())
def test_table_pricing_equals_pricing_each_layer_from_its_spec(case):
    net, trace, rates, run = case
    assert outcome(emac_exact, net, trace) == outcome(
        reference_report, METHOD_EXACT, net, trace.T_used,
        zip(trace.analog_events, trace.feedforward_events, trace.recurrent_events),
    )
    mode, per_step = run["input_mode"], run["encoder_per_step"]
    got = outcome(
        lambda: emac_analytic(net, rates, run["T_used"], input_mode=mode,
                              encoder_per_step=per_step)
    )
    assert got == outcome(reference_analytic, net, rates, run["T_used"], mode, per_step)


def test_a_dataset_derives_structural_counts_once_per_network(monkeypatch):
    calls = []
    count = netspec.layer_counts

    def counted(layer):
        calls.append(layer)
        return count(layer)

    for module in (netspec, emac, engine):
        monkeypatch.setattr(module, "layer_counts", counted)
    x = np.random.default_rng(3).uniform(0.0, 1.0, (1, 6, 6))

    def derived(count):
        net = (
            NetworkBuilder((1, 6, 6), coding=Coding.RATE, max_timesteps=6)
            .conv2d(2, (3, 3), ANN, padding=1)
            .max_pool((2, 2))
            .flatten()
            .recurrent_dense(4, LIF_SPIKING)
            .dense(3, ifl(0.5))
            .build()
        )
        calls.clear()
        run_dataset(net, [encode(x * (k + 1) / count) for k in range(count)])
        return len(calls)

    assert derived(16) <= derived(2)


@pytest.mark.parametrize("steps", [2.5, True, "4", None, float("nan"), 1e300])
def test_a_step_count_that_is_not_an_integer_is_a_schema_error(steps):
    # the rule a spec's step budget follows; never a bare TypeError
    net = dense_net([4, 3, 2], ifl())
    rates = LayerRates(input_rate=0.5, per_layer=[0.2, 0.1])
    with pytest.raises(SchemaError, match="T_used: the step budget must be an integer"):
        emac_analytic(net, rates, steps)
