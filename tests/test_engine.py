import gc
import hashlib
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from emacprof import (
    Coding,
    EmptyDataset,
    EncodedInput,
    EncodingMode,
    NetworkBuilder,
    NeuronKind,
    NeuronModelSpec,
    NonFiniteState,
    SchemaError,
    ShapeMismatch,
    encode,
    parse_network,
    run_dataset,
    run_inference,
    serialize_network,
)
from emacprof import engine
from emacprof.engine import (
    SampleOutcome,
    _EVENT_MIN_WEIGHTS,
    _compile,
    _bind_drive,
    _event_drive,
    _group_size,
    _max_pool,
    _run_group,
    _step_plan,
    _synaptic_events,
)
from emacprof.netspec import fanout_map, lcl_mask, recurrent_weight_tensor, weight_tensor
from emacprof.neuron import state_zeros, step_fn
from reference_sim import simulate

IFL = NeuronModelSpec(kind=NeuronKind.IFL)
ANN = NeuronModelSpec(kind=NeuronKind.ANN_RELU)


def ifl(v_th=1.0, **kw):
    return NeuronModelSpec(kind=NeuronKind.IFL, v_th=v_th, **kw)


def single_dense(w, v_th=1.0, n_in=1, n_out=1, coding=Coding.ROC, t_max=16):
    weights = np.full((n_out, n_in), w, dtype=np.float32)
    return (
        NetworkBuilder((n_in,), coding=coding, max_timesteps=t_max)
        .dense(n_out, ifl(v_th), weights=weights)
        .build()
    )


def always_on(n):
    return encode(np.ones(n), EncodingMode.POISSON, seed=0)


# ---------------------------------------------------------------------------
# single inference


def test_ifl_dense_roc_stops_at_step_two():
    # current 0.4, 0.8 -> voltage 0.4, 1.2: first output spike at t=2
    net = single_dense(0.4)
    res = run_inference(net, always_on(1))
    assert res.trace.T_used == 2
    assert res.decision.latency_T == 2
    assert res.decision.class_index == 0
    assert not res.decision.fallback_used
    assert res.trace.counts.shape == (1, 2)
    assert res.trace.counts.tolist() == [[0, 1]]


def test_silent_network_falls_back_at_t_max():
    net = single_dense(0.0, t_max=12)
    res = run_inference(net, always_on(1))
    assert res.trace.T_used == 12
    assert res.decision.fallback_used
    assert res.decision.latency_T == 12
    assert res.trace.counts.sum() == 0
    assert res.trace.feedforward_events.sum() == 12  # weight 0 still a synapse


def test_input_shape_is_checked():
    net = single_dense(0.4, n_in=3)
    with pytest.raises(ShapeMismatch):
        run_inference(net, always_on(2))


def test_dense_ff_events_are_spikes_times_fanout():
    rng = np.random.default_rng(2)
    net = (
        NetworkBuilder((6,), coding=Coding.RATE, max_timesteps=20)
        .dense(5, ifl(0.7), weights=rng.uniform(0.1, 0.5, (5, 6)))
        .dense(3, ifl(0.9), weights=rng.uniform(0.1, 0.5, (3, 5)))
        .build()
    )
    enc = encode(rng.uniform(0.2, 0.9, 6), EncodingMode.POISSON, seed=4)
    res = run_inference(net, enc)
    in_spikes = int(res.trace.input_counts.sum())
    l0_spikes = int(res.trace.counts[0].sum())
    assert res.trace.feedforward_events[0] == in_spikes * 5
    assert res.trace.feedforward_events[1] == l0_spikes * 3
    assert res.trace.counts[0].max() <= 5
    assert res.trace.counts[1].max() <= 3


def test_same_step_feedforward_propagation():
    # both layers cross threshold from a single input spike in one step
    net = (
        NetworkBuilder((1,), coding=Coding.ROC, max_timesteps=8)
        .dense(1, ifl(0.5), weights=[[2.0]])
        .dense(1, ifl(0.5), weights=[[2.0]])
        .build()
    )
    res = run_inference(net, always_on(1))
    assert res.trace.T_used == 1
    assert res.trace.counts.tolist() == [[1], [1]]


def test_recurrent_spikes_feed_the_next_step():
    # neuron 0 fires at t=1 from input; its recurrent weight drives
    # neuron 1 over threshold at t=2, not t=1
    w_ff = [[2.0], [0.0]]
    w_rec = [[0.0, 0.0], [2.0, 0.0]]
    net = (
        NetworkBuilder((1,), coding=Coding.RATE, max_timesteps=3)
        .recurrent_dense(2, ifl(1.0), weights=w_ff, recurrent_weights=w_rec)
        .build()
    )
    res = run_inference(net, always_on(1))
    counts = res.trace.counts
    assert counts[0, 0] == 1  # only neuron 0 at t=1
    assert counts[0, 1] == 2  # neuron 1 joins at t=2
    # each emitted spike adds the all-to-all fanout once
    assert res.trace.recurrent_events[0] == 2 * int(counts.sum())


def test_spike_once_caps_every_neuron_at_one_spike():
    rng = np.random.default_rng(8)
    net = (
        NetworkBuilder((4,), coding=Coding.RATE, max_timesteps=30)
        .dense(6, ifl(0.3, spike_once=True), weights=rng.uniform(0.2, 0.8, (6, 4)))
        .build()
    )
    enc = encode(rng.uniform(0.5, 1.0, 4), EncodingMode.POISSON, seed=1)
    res = run_inference(net, enc, record_raster=True)
    per_neuron = res.rasters[0].sum(axis=1)
    assert per_neuron.max() <= 1
    assert res.trace.counts[0].sum() == per_neuron.sum()


def test_non_finite_state_is_reported():
    # 1e38 weight on a 1e300 analog drive overflows the synaptic sum
    net = single_dense(1e38, v_th=1e308, coding=Coding.RATE, t_max=50)
    with pytest.raises(NonFiniteState):
        run_inference(net, encode(np.full(1, 1e300)))


def test_a_suspended_group_leaves_numpy_error_state_to_its_caller():
    net = single_dense(1e38, v_th=1e308, coding=Coding.RATE, t_max=50)
    samples = [encode(np.full(1, 1e300)), encode(np.full(1, 0.5))]
    with np.errstate(all="raise"):
        group = _run_group(net, _compile(net), samples, T_max=50, coding=Coding.RATE,
                           record_raster=False, encoder_per_step=False)
        assert isinstance(next(group)[0], NonFiniteState)  # suspended at a yield
        assert np.geterr() == {"divide": "raise", "over": "raise", "under": "raise",
                               "invalid": "raise"}
        group.close()


# ---------------------------------------------------------------------------
# determinism and causality


def test_runs_are_bit_identical():
    rng = np.random.default_rng(12)
    net = (
        NetworkBuilder((5,), coding=Coding.RATE, max_timesteps=25)
        .dense(7, ifl(0.6), weights=rng.uniform(0.0, 0.4, (7, 5)))
        .dense(4, ifl(0.8), weights=rng.uniform(0.0, 0.4, (4, 7)))
        .build()
    )
    enc = encode(rng.uniform(0.0, 1.0, 5), EncodingMode.POISSON, seed=99)
    a = run_inference(net, enc, record_raster=True)
    b = run_inference(net, enc, record_raster=True)
    assert (a.trace.counts == b.trace.counts).all()
    assert (a.output_voltages == b.output_voltages).all()
    assert all((ra == rb).all() for ra, rb in zip(a.rasters, b.rasters))
    assert a.decision == b.decision
    assert a.energy.E_tot == b.energy.E_tot


def test_shorter_budget_is_a_prefix_of_the_longer_run():
    rng = np.random.default_rng(21)
    net = (
        NetworkBuilder((4,), coding=Coding.RATE, max_timesteps=40)
        .dense(6, ifl(0.5), weights=rng.uniform(0.0, 0.5, (6, 4)))
        .dense(2, ifl(0.7), weights=rng.uniform(0.0, 0.5, (2, 6)))
        .build()
    )
    enc = encode(rng.uniform(0.2, 0.8, 4), EncodingMode.POISSON, seed=5)
    short = run_inference(net, enc, t_max=15)
    long = run_inference(net, enc, t_max=40)
    assert (long.trace.counts[:, :15] == short.trace.counts).all()


def test_roc_freezes_counters_at_t_used():
    rng = np.random.default_rng(30)
    net = (
        NetworkBuilder((3,), coding=Coding.ROC, max_timesteps=50)
        .dense(4, ifl(0.8), weights=rng.uniform(0.1, 0.6, (4, 3)))
        .build()
    )
    enc = encode(rng.uniform(0.3, 0.9, 3), EncodingMode.POISSON, seed=13)
    roc = run_inference(net, enc)
    rate = run_inference(net, enc, coding=Coding.RATE)
    T = roc.trace.T_used
    assert T < 50
    assert (rate.trace.counts[:, :T] == roc.trace.counts).all()
    # events accumulated after T_used in the rate run are absent here
    assert roc.trace.feedforward_events[0] == rate.trace.input_counts[:T].sum() * 4


# ---------------------------------------------------------------------------
# conventional and mixed stacks


def test_pure_ann_single_pass():
    w0 = [[1.0, -1.0], [0.5, 0.5], [0.0, 2.0]]
    w1 = [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]
    net = (
        NetworkBuilder((2,), coding=Coding.RATE, max_timesteps=9)
        .dense(3, ANN, weights=w0)
        .dense(2, ANN, weights=w1)
        .build()
    )
    res = run_inference(net, encode(np.array([1.0, 2.0])))
    # relu([1-2, .5+1, 4]) = [0, 1.5, 4]; head = [0, 5.5] -> class 1
    assert res.trace.T_used == 1
    assert res.decision.class_index == 1
    assert res.trace.counts.sum() == 0
    assert res.trace.analog_events.tolist() == [6, 6]


def test_poisson_into_ann_is_rejected():
    net = (
        NetworkBuilder((2,), coding=Coding.RATE, max_timesteps=4)
        .dense(2, ANN)
        .dense(1, IFL)
        .build()
    )
    with pytest.raises(SchemaError):
        run_inference(net, encode(np.ones(2), EncodingMode.POISSON, seed=0))


@pytest.mark.parametrize("t_max", [2.5, float("nan"), True, "3", 1e300, np.float64(4.0)])
def test_a_step_budget_must_be_an_integer(t_max):
    net = single_dense(0.5)
    enc = encode(np.array([0.5]), EncodingMode.ANALOG)
    with pytest.raises(SchemaError, match="the step budget must be an integer"):
        run_inference(net, enc, t_max=t_max)
    with pytest.raises(SchemaError, match="the step budget must be an integer"):
        run_dataset(net, [enc], t_max=t_max)


def test_a_numpy_integer_step_budget_is_a_step_budget():
    net = single_dense(0.5)
    enc = encode(np.array([0.5]), EncodingMode.ANALOG)
    got, want = (
        run_inference(net, enc, t_max=t, record_raster=True) for t in (np.int64(5), 5)
    )
    assert_same_result(got, want)
    assert run_dataset(net, [enc], t_max=np.uint8(5)) == run_dataset(net, [enc], t_max=5)


def result_arrays(result):
    trace = result.trace
    return [result.output_spikes, result.output_voltages, trace.counts, trace.input_counts,
            trace.feedforward_events, trace.recurrent_events, trace.analog_events,
            *result.rasters]


def test_a_second_inference_leaves_the_first_results_arrays_alone():
    # a result's arrays view the histories of its own call, which no later
    # call reuses
    rng = np.random.default_rng(18)
    net = (
        NetworkBuilder((6,), coding=Coding.RATE, max_timesteps=12)
        .recurrent_dense(5, ifl(0.8), weights=rng.normal(0.3, 0.3, 30),
                         recurrent_weights=rng.normal(0.0, 0.2, 25))
        .dense(3, ifl(0.8), weights=rng.normal(0.3, 0.3, 15))
        .build()
    )
    first, second = (
        encode(rng.random(6), EncodingMode.POISSON, seed=seed) for seed in (1, 2)
    )
    result = run_inference(net, first, record_raster=True)
    before = [a.tobytes() for a in result_arrays(result)]
    other = run_inference(net, second, record_raster=True)
    assert result.output_voltages.tobytes() != other.output_voltages.tobytes()
    assert [a.tobytes() for a in result_arrays(result)] == before


@pytest.mark.parametrize("t_max", [10**15, 2**70])
def test_a_step_budget_past_memory_is_a_schema_error(t_max):
    # budgets whose histories fail to allocate at once; a smaller one that
    # the allocator grants lazily would reserve it and step for hours
    net = single_dense(0.5)
    enc = encode(np.array([0.5]), EncodingMode.ANALOG)
    need = f"a step budget of {t_max} needs {t_max * 25} bytes of step history"
    with pytest.raises(SchemaError, match=need):
        run_dataset(net, [enc, enc], t_max=t_max)
    # one layer's raster of one neuron adds a byte a step
    with pytest.raises(SchemaError, match=f"needs {t_max * 26} bytes"):
        run_inference(net, enc, t_max=t_max, record_raster=True)


def test_analog_first_layer_priced_once_or_per_step():
    net = single_dense(0.05, coding=Coding.RATE, t_max=10)
    enc = encode(np.ones(1))
    once = run_inference(net, enc)
    per_step = run_inference(net, enc, encoder_per_step=True)
    assert once.trace.analog_events.tolist() == [1]
    assert per_step.trace.analog_events.tolist() == [10]
    assert (once.trace.counts == per_step.trace.counts).all()


def test_analog_drive_accumulates_without_input_spikes():
    # constant current 0.3 into one IFL neuron: first spike at t=3
    net = single_dense(0.3, coding=Coding.ROC, t_max=8)
    res = run_inference(net, encode(np.ones(1)))
    assert res.trace.T_used == 3
    assert res.trace.feedforward_events.sum() == 0
    assert res.trace.analog_events.tolist() == [1]


# ---------------------------------------------------------------------------
# datasets


def test_dataset_requires_samples():
    with pytest.raises(EmptyDataset):
        run_dataset(single_dense(0.4), [])


def test_identical_samples_have_zero_std():
    net = single_dense(0.4, coding=Coding.RATE, t_max=6)
    samples = [always_on(1)] * 5
    stats = run_dataset(net, samples)
    assert stats.n_ok == 5
    assert stats.emac_exact.std == 0.0
    assert stats.emac_analytic.std == 0.0
    assert stats.latency.std == 0.0
    assert all(s.std == 0.0 for s in stats.per_layer_spikes)


def test_dataset_statistics_are_population_moments():
    # always-on sample: 3 input spikes -> E_syn = 2; silent sample: 0.
    # both: E_upd = 3 * 1 * 4/3 = 4. totals {6, 4} -> mean 5, std 1.
    net = single_dense(0.0, v_th=1.0, coding=Coding.RATE, t_max=3)
    on = encode(np.ones(1), EncodingMode.POISSON, seed=0)
    off = encode(np.zeros(1), EncodingMode.POISSON, seed=0)
    stats = run_dataset(net, [on, off])
    assert stats.emac_exact.mean == pytest.approx(5.0, rel=1e-12)
    assert stats.emac_exact.std == pytest.approx(1.0, rel=1e-12)


def test_mean_latency_over_mixed_roc_runs():
    # weights chosen so first-spike times are 2, 2 and 5
    fast = single_dense(0.4, t_max=10)
    samples = [
        always_on(1),
        always_on(1),
        encode(np.full(1, 0.19), EncodingMode.ANALOG),
    ]
    # the analog sample drives 0.19/step: v = .19,.57,1.14,... crosses at t=3?
    # iterate: i=.19*k, v = .19,.57,1.14 -> t=3. pick 0.082 for t=5:
    # i=.082k, v cumsum = .082,.246,.492,.82,1.23 -> t=5
    samples[2] = encode(np.full(1, 0.082 / 0.4), EncodingMode.ANALOG)
    stats = run_dataset(fast, samples)
    assert stats.latency.mean == pytest.approx((2 + 2 + 5) / 3, rel=1e-12)


def test_dataset_records_failures_without_raising():
    net = single_dense(1e38, v_th=1e308, coding=Coding.RATE, t_max=60)
    ok = encode(np.ones(1))
    bad = encode(np.full(1, 1e300))
    stats = run_dataset(net, [ok, bad, ok])
    assert stats.n_samples == 3
    assert stats.n_ok == 2
    assert [i for i, _ in stats.failures] == [1]
    assert stats.outcomes[1] is None
    assert stats.outcomes[0] is not None and stats.outcomes[2] is not None


def test_calibration_regressors_use_plain_counts_for_uniform_nets():
    net = single_dense(0.4, coding=Coding.RATE, t_max=6)
    stats = run_dataset(net, [always_on(1)])
    res = run_inference(net, always_on(1))
    events = int(
        res.trace.feedforward_events.sum() + res.trace.recurrent_events.sum()
    )
    # single IFL layer: S and U reduce to raw event and update counts
    assert stats.reference_kind == "ifl"
    assert stats.mean_synaptic_events == pytest.approx(events, rel=1e-12)
    assert stats.mean_update_count == pytest.approx(6 * 1, rel=1e-12)


def test_dataset_statistics_equal_per_sample_reductions(monkeypatch):
    # conv (padded) -> pool -> flatten -> recurrent -> dense, one sample blows up.
    # From 8 values on, np.mean adds pairwise, not as a running sum, so with
    # 10 successes a statistic reduced in another order shows (checked below).
    rng = np.random.default_rng(7)
    lif = NeuronModelSpec(
        kind=NeuronKind.LIF, dt=1e-3, tau_syn=5e-3, tau_mem=1e-2
    )
    net = (
        NetworkBuilder((1, 6, 6), coding=Coding.RATE, max_timesteps=12)
        .conv2d(2, (3, 3), lif, weights=rng.normal(0.3, 0.2, 18), padding=1)
        .max_pool((2, 2))
        .flatten()
        .recurrent_dense(
            5,
            lif,
            weights=rng.normal(0.1, 0.1, 5 * 18),
            recurrent_weights=rng.normal(0.0, 0.1, 25),
        )
        .dense(3, lif, weights=rng.normal(0.2, 0.1, 15))
        .build()
    )
    samples = [
        encode(rng.uniform(0.0, 1.0, (1, 6, 6)), EncodingMode.POISSON, seed=k)
        for k in range(11)
    ]
    samples[5] = encode(np.full((1, 6, 6), 1e308))
    samples[8] = encode(rng.uniform(0.0, 1.0, (1, 6, 6)))  # analog, static first layer
    force_group_size(monkeypatch, net, 12, 4)  # groups 0-3, 4, 5, 6-7, 8, 9-10
    stats = run_dataset(net, samples)

    results = []
    for sample in samples:
        try:
            results.append(run_inference(net, sample))
        except NonFiniteState:
            results.append(None)
    assert [r is None for r in results] == [k == 5 for k in range(11)]
    ok = [r for r in results if r is not None]

    def moments(values):
        return (np.mean(values), np.std(values))

    running_sum_differs = []

    def check(stat, values):
        assert (stat.mean, stat.std) == moments(values)
        running_sum_differs.append(np.cumsum(values)[-1] / len(values) != stat.mean)

    components = ("E_syn", "E_upd", "E_rec", "E_tot")
    for method, attr in (("exact_events", "energy"), ("analytic", "energy_analytic")):
        block = stats.methods[method]
        reports = [getattr(r, attr) for r in ok]
        assert block.approx_padding
        for c in components:
            check(block.total[c], [getattr(rep, c) for rep in reports])
            for index in range(len(net.layers)):
                check(
                    block.per_layer[index][c],
                    [getattr(rep.per_layer[index], c) for rep in reports],
                )
    assert stats.emac_exact == stats.methods["exact_events"].total["E_tot"]

    spikes = [r.trace.counts.sum(axis=1) for r in ok]
    for index in range(len(net.layers)):
        check(stats.per_layer_spikes[index], [s[index] for s in spikes])
    # the flatten row (index 2) re-emits the pool's spikes and is not counted
    check(stats.total_spikes, [s[[0, 1, 3, 4]].sum() for s in spikes])
    check(stats.latency, [r.trace.T_used for r in ok])
    # the data can tell a pairwise reduction from a running sum
    assert any(running_sum_differs)
    e_syn, e_upd = lif.energy.e_syn, lif.energy.e_upd
    assert stats.mean_synaptic_events == np.mean(
        [(r.energy.E_syn + r.energy.E_rec) / e_syn for r in ok]
    )
    assert stats.mean_update_count == np.mean([r.energy.E_upd / e_upd for r in ok])
    assert [
        None if o is None else (o.T_used, o.decision) for o in stats.outcomes
    ] == [None if r is None else (r.trace.T_used, r.decision) for r in results]


@pytest.mark.parametrize("mode", list(EncodingMode))
def test_a_list_input_runs_like_its_encoded_array(mode):
    values = [0.1, 0.2, 0.3, 0.4]
    direct = EncodedInput(mode, values, seed=5)
    encoded = encode(np.array(values), mode, seed=5)
    assert direct.values.dtype == np.float64
    assert (direct.values == encoded.values).all()
    net = single_dense(0.4, n_in=4, n_out=2, coding=Coding.RATE, t_max=8)
    got, want = run_inference(net, direct), run_inference(net, encoded)
    assert got.decision == want.decision
    assert (got.trace.counts == want.trace.counts).all()
    assert (got.output_voltages == want.output_voltages).all()
    assert got.energy.to_dict() == want.energy.to_dict()
    assert got.energy_analytic.to_dict() == want.energy_analytic.to_dict()
    assert run_dataset(net, [direct]) == run_dataset(net, [encoded])


def test_all_failed_dataset_has_nan_statistics():
    net = single_dense(1e38, v_th=1e308, coding=Coding.RATE, t_max=6)
    bad = encode(np.full(1, 1e300))
    stats = run_dataset(net, [bad, bad])
    assert stats.n_ok == 0
    assert stats.outcomes == [None, None]
    assert np.isnan(stats.emac_exact.mean) and np.isnan(stats.latency.std)
    assert np.isnan(stats.per_layer_spikes[0].mean)
    assert np.isnan(stats.mean_synaptic_events)
    assert not stats.methods["analytic"].approx_padding


# ---------------------------------------------------------------------------
# per-sample step plan


def lif(v_th=0.5):
    return NeuronModelSpec(
        kind=NeuronKind.LIF, dt=1e-3, tau_syn=5e-3, tau_mem=1e-2, v_th=v_th
    )


def window_view(x, layer):
    sh, sw = layer.stride
    return sliding_window_view(x, layer.kernel, axis=(1, 2))[:, ::sh, ::sw]


@pytest.mark.parametrize(
    "kernel, stride, padding",
    [((3, 2), (1, 1), 0), ((3, 2), (2, 1), 1), ((2, 5), (2, 3), 2), ((1, 1), (2, 2), 0)],
)
def test_conv_drive_is_bitwise_the_tensordot_over_windows(kernel, stride, padding):
    rng = np.random.default_rng(sum(kernel) + padding)
    shape = (3, 9, 11)
    net = (
        NetworkBuilder(shape, coding=Coding.RATE, max_timesteps=4)
        .conv2d(
            4, kernel, lif(), stride=stride, padding=padding,
            weights=rng.normal(0.0, 0.3, 4 * 3 * kernel[0] * kernel[1]),
        )
        .build()
    )
    layer = net.layers[0]
    weights = weight_tensor(net, 0)
    drive = _step_plan(_compile(net)[0])
    # spikes and analog values through one plan: its buffer is reused
    for x in (rng.random(shape) < 0.4, rng.normal(size=shape), rng.random(shape) < 0.7):
        p = layer.padding
        padded = np.pad(x.astype(np.float64), ((0, 0), (p, p), (p, p)))
        expected = np.tensordot(
            weights, window_view(padded, layer), axes=([1, 2, 3], [0, 3, 4])
        ).reshape(-1)
        assert np.array_equal(drive(x), expected)


@pytest.mark.parametrize(
    "shape, pool, stride",
    [
        ((2, 8, 9), (3, 2), (2, 1)),  # overlapping rows, one row left over
        ((3, 7, 7), (2, 2), None),  # one row and one column left over
        ((1, 5, 7), (3, 3), (1, 2)),  # overlapping in both axes
        ((2, 6, 5), (1, 1), None),
    ],
)
def test_pool_equals_the_window_max(shape, pool, stride):
    rng = np.random.default_rng(len(shape) + sum(pool))
    net = (
        NetworkBuilder(shape, coding=Coding.RATE, max_timesteps=4)
        .max_pool(pool, stride=stride)
        .flatten()
        .dense(2, lif())
        .build()
    )
    layer = net.layers[0]
    compiled = _compile(net)[0]
    for x in (rng.random(shape) < 0.3, rng.normal(size=shape), np.zeros(shape, bool)):
        expected = window_view(x, layer).max(axis=(-2, -1))
        out = _max_pool(x, compiled.pool_taps)
        assert out.dtype == expected.dtype
        assert np.array_equal(out, expected)


def layered_net(t_max=16):
    """conv (padded, strided) -> pool (overlapping) -> LCL -> recurrent -> dense.

    Weights and analog inputs are multiples of 1/8, so every weighted sum is
    exact in float64 whatever order a BLAS library adds it in.
    """
    rng = np.random.default_rng(5)

    def eighths(lo, hi, shape):
        return rng.integers(lo, hi, shape) / 8

    builder = (
        NetworkBuilder((1, 9, 9), coding=Coding.RATE, max_timesteps=t_max)
        .conv2d(3, (3, 2), lif(), stride=(2, 1), padding=1, weights=eighths(0, 6, 18))
        .max_pool((2, 3), stride=(1, 2))
    )
    mask = lcl_mask(
        NetworkBuilder((3, 4, 4))
        .locally_connected(2, (2, 2), lif(1.0), stride=(2, 2))
        .build()
        .layers[0]
    )
    return (
        builder.locally_connected(
            2, (2, 2), lif(1.0), stride=(2, 2), weights=eighths(0, 4, mask.shape) * mask
        )
        .recurrent_dense(
            6, lif(0.5), weights=eighths(0, 5, (6, 8)),
            recurrent_weights=eighths(-4, 3, (6, 6)),
        )
        .dense(3, lif(0.3), weights=eighths(0, 5, (3, 6)))
        .build()
    )


def test_event_counter_equals_spikes_times_fanout():
    rng = np.random.default_rng(6)
    net = layered_net()
    uneven = 0
    for rt in _compile(net):
        spikes = rng.random(rt.spec.input_shape) < 0.5
        expected = int((spikes * fanout_map(rt.spec)).sum())
        if rt.fanout is None:  # every input reaches the same number of neurons
            assert rt.even_fanout * int(spikes.sum()) == expected
        else:  # only layers whose inputs differ keep a fan-out map
            uneven += 1
            assert _synaptic_events(rt, spikes) == expected
    assert uneven >= 2


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).astype("<f8").tobytes())
    return h.hexdigest()[:16]


# Recorded before conv/pool windows and the Poisson stream were built once per
# sample (per-step sliding windows, np.tensordot, a fresh Philox per slice).
LAYERED_RUNS = {
    "poisson": dict(
        counts=[
            [0, 0, 17, 30, 43, 50, 52, 47, 54, 57, 42, 64, 56, 64, 58, 66],
            [0, 0, 24, 27, 34, 42, 41, 39, 41, 44, 35, 45, 40, 45, 42, 46],
            [0, 0, 0, 0, 0, 2, 7, 3, 6, 4, 7, 6, 5, 5, 8, 6],
            [0, 0, 0, 0, 0, 0, 0, 3, 3, 3, 5, 3, 5, 3, 5, 4],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 3, 2, 3, 3, 2, 3],
        ],
        input_counts=[37, 35, 35, 40, 35, 36, 32, 33, 32, 32, 30, 36, 36, 36, 25, 32],
        feedforward=[4824, 1595, 1090, 354, 102],
        recurrent=[0, 0, 0, 204, 0],
        analog=[0, 0, 0, 0, 0],
        voltages="5a32654c88db5f99",
        rasters="7c1377b4daac1b04",
    ),
    "analog": dict(
        counts=[
            [0, 1, 32, 50, 60, 64, 76, 74, 67, 81, 78, 80, 75, 88, 75, 87],
            [0, 4, 28, 32, 44, 40, 48, 46, 45, 48, 48, 44, 46, 45, 46, 46],
            [0, 0, 0, 0, 0, 6, 4, 4, 6, 7, 6, 8, 5, 7, 8, 6],
            [0, 0, 0, 0, 0, 0, 1, 4, 3, 3, 5, 4, 5, 3, 6, 5],
            [0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 3, 2, 3, 3, 3],
        ],
        input_counts=None,
        feedforward=[0, 2229, 1220, 402, 117],
        recurrent=[0, 0, 0, 234, 0],
        analog=[900, 0, 0, 0, 0],
        voltages="3f087faeead6e41b",
        rasters="d47f3fd911a7bdce",
    ),
}


@pytest.mark.parametrize("mode", ["poisson", "analog"])
def test_layered_run_matches_recorded_values(mode):
    x = np.random.default_rng(9).integers(0, 9, (1, 9, 9)) / 8
    enc = encode(x * 0.75, mode, seed=11) if mode == "poisson" else encode(x, mode)
    res = run_inference(layered_net(), enc, record_raster=True)
    want = LAYERED_RUNS[mode]
    trace = res.trace
    assert trace.counts.tolist() == want["counts"]
    got_inputs = None if trace.input_counts is None else trace.input_counts.tolist()
    assert got_inputs == want["input_counts"]
    assert trace.feedforward_events.tolist() == want["feedforward"]
    assert trace.recurrent_events.tolist() == want["recurrent"]
    assert trace.analog_events.tolist() == want["analog"]
    assert digest([res.output_voltages]) == want["voltages"]
    assert digest(res.rasters) == want["rasters"]
    assert (res.decision.class_index, res.decision.latency_T) == (2, 16)


def test_windows_and_the_poisson_stream_are_built_once_per_sample(monkeypatch):
    calls = {"window": 0, "philox": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    stride_tricks = np.lib.stride_tricks
    monkeypatch.setattr(
        stride_tricks, "sliding_window_view",
        counted("window", stride_tricks.sliding_window_view),
    )
    monkeypatch.setattr(np.random, "Philox", counted("philox", np.random.Philox))
    rng = np.random.default_rng(10)
    net = (
        NetworkBuilder((1, 12, 12), coding=Coding.RATE, max_timesteps=20)
        .conv2d(4, (3, 3), lif(), padding=1, weights=rng.normal(0.2, 0.1, 36))
        .max_pool((2, 2))
        .conv2d(4, (3, 3), lif(), weights=rng.normal(0.1, 0.1, 144))
        .max_pool((2, 2), stride=(1, 1))
        .flatten()
        .dense(3, lif(), weights=rng.normal(0.1, 0.1, 3 * 36))
        .build()
    )
    enc = encode(rng.uniform(0.0, 0.8, (1, 12, 12)), "poisson", seed=2)
    results = []
    # a fresh thread has no Poisson stream yet: it builds exactly its own
    worker = threading.Thread(target=lambda: results.append(run_inference(net, enc)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert results[0].trace.T_used == 20
    assert calls["window"] <= 2  # conv layers
    assert calls["philox"] <= 1


def test_a_group_binds_its_spike_buffers_and_drives_once(monkeypatch):
    # every tick hands each block's step a view of that block's one spike
    # buffer (one view per active span), and each drive is bound once per
    # group, not once per tick
    rng = np.random.default_rng(19)
    made = {"blocks": [], "binders": 0}
    spikes_seen = []
    blocks, bind_drive, compiled_step = engine._blocks, engine._bind_drive, engine.step_fn

    def recorded_blocks(*args):
        made["blocks"].append(blocks(*args))
        return made["blocks"][-1]

    def counted_binder(*args):
        made["binders"] += 1
        return bind_drive(*args)

    def recorded_step_fn(kind):
        step = compiled_step(kind)

        def recorded(state, drive, model, *, spikes=None):
            spikes_seen.append(spikes)
            return step(state, drive, model, spikes=spikes)

        return recorded

    monkeypatch.setattr(engine, "_blocks", recorded_blocks)
    monkeypatch.setattr(engine, "_bind_drive", counted_binder)
    monkeypatch.setattr(engine, "step_fn", recorded_step_fn)
    net = (  # blocks [ifl] and [lif recurrent, lif]: four drives
        NetworkBuilder((6,), coding=Coding.RATE, max_timesteps=20)
        .dense(5, ifl(0.5), weights=rng.normal(0.4, 0.3, (5, 6)))
        .recurrent_dense(5, lif(), weights=rng.normal(0.3, 0.3, (5, 5)),
                         recurrent_weights=rng.normal(0.0, 0.3, (5, 5)))
        .dense(3, lif(), weights=rng.normal(0.3, 0.3, (3, 5)))
        .build()
    )
    samples = [encode(rng.uniform(0.2, 0.8, 6), "poisson", seed=s) for s in range(4)]
    assert run_inference(net, samples[0]).trace.T_used == 20
    assert made["binders"] == 4
    (group,) = made["blocks"]
    # the first block steps at ticks 1-20, the second at 2-22; the second's
    # active spans are layers 1, 1-2 and 2
    assert len(spikes_seen) == 41
    assert all(any(np.shares_memory(s, b.spikes) for b in group) for s in spikes_seen)
    assert len({(s.ctypes.data, s.size) for s in spikes_seen}) == 4
    force_group_size(monkeypatch, net, 20, 2)
    run_dataset(net, samples)
    assert made["binders"] == 4 + 2 * 4
    assert len(made["blocks"]) == 3


def test_a_result_keeps_only_its_own_steps():
    # the group's histories are allocated at the step budget; the result
    # run_inference returns holds copies of the steps it used, not views
    net = (
        NetworkBuilder((4,), coding=Coding.ROC, max_timesteps=100_000)
        .dense(3, ifl(), weights=np.ones((3, 4)))
        .build()
    )
    enc = encode(np.ones(4), "analog")
    run_inference(net, enc)  # compiled and priced outside the measurement
    gc.collect()
    tracemalloc.start()
    try:
        result = run_inference(net, enc)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result.trace.T_used == 1
    assert result.output_voltages.shape == (3, 1)
    assert held < 64 * 1024


@pytest.mark.parametrize("dtype", [bool, np.float64])
def test_a_pool_written_in_place_equals_a_new_one(dtype):
    # stale values in ``out`` (True, +inf) must not survive the pool
    rng = np.random.default_rng(20)
    net = (
        NetworkBuilder((3, 9, 8))
        .max_pool((2, 3), stride=(2, 1))
        .flatten()
        .dense(2, lif())
        .build()
    )
    taps = _compile(net)[0].pool_taps
    shape = (4, 3, 9, 8)
    x = rng.random(shape) < 0.3 if dtype is bool else rng.normal(size=shape)
    want = _max_pool(x, taps)
    out = np.full((4, *net.layers[0].output_shape), True if dtype is bool else np.inf, dtype)
    assert _max_pool(x, taps, out=out) is out
    assert out.dtype == want.dtype and out.tobytes() == want.tobytes()
    for p in range(4):  # a sample's slice, as a one-row group pools it
        assert _max_pool(x[p], taps, out=out[p]).tobytes() == want[p].tobytes()


def per_tap_max(x, layer):
    """The window max by one ``np.maximum`` per tap, in row-major tap order."""
    (kh, kw), (sh, sw) = layer.kernel, layer.stride
    _, oh, ow = layer.output_shape
    out = None
    for dy in range(kh):
        for dx in range(kw):
            tap = x[..., dy : dy + sh * (oh - 1) + 1 : sh, dx : dx + sw * (ow - 1) + 1 : sw]
            out = tap.copy() if out is None else np.maximum(out, tap, out=out)
    return out


@pytest.mark.parametrize(
    "shape, pool, stride",
    [
        ((2, 9, 9), (3, 3), (2, 2)),  # overlapping
        ((3, 11, 11), (2, 2), (2, 2)),  # uneven: 11 -> 5, the last row and column unread
        ((2, 7, 10), (1, 3), (1, 2)),
        ((2, 10, 7), (4, 1), (3, 1)),
        ((1, 6, 6), (1, 1), (2, 2)),
    ],
)
@pytest.mark.parametrize("dtype", [bool, np.float64])
def test_pool_matches_a_per_tap_loop_byte_for_byte(shape, pool, stride, dtype):
    # values with ties of +0.0 and -0.0, NaNs and infinities: which of equal
    # values or which NaN a window keeps must be the per-tap loop's
    rng = np.random.default_rng(sum(shape) + sum(pool))
    net = NetworkBuilder(shape).max_pool(pool, stride=stride).flatten().dense(2, lif()).build()
    layer, taps = net.layers[0], _compile(net)[0].pool_taps
    values = np.array([0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf])
    for lead in ((), (4,)):  # a lone input, and a leading sample axis
        for _ in range(20):
            if dtype is bool:
                x = rng.random((*lead, *shape)) < 0.3
            else:
                x = rng.choice(values, (*lead, *shape))
            want = per_tap_max(x, layer)
            got = _max_pool(x, taps)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            out = np.full(want.shape, True if dtype is bool else 7.0, dtype)
            assert _max_pool(x, taps, out=out) is out
            assert out.tobytes() == want.tobytes()


def conv_net(height, width):
    """A padded 3x3 convolution with one filter: (3h - 2)(3w - 2) connections."""
    return NetworkBuilder((1, height, width)).conv2d(1, (3, 3), lif(), padding=1).build()


@pytest.mark.parametrize("width, dtype", [(1365, np.float32), (1366, np.float64)])
def test_a_fanout_map_is_float32_only_below_2_to_the_24_connections(width, dtype):
    # 4096 * 4093 connections, one short of 2**24 by 12,288; then exactly 2**24
    rt = _compile(conv_net(1366, width))[0]  # compiled, never stepped
    total = 4096 * (3 * width - 2)
    assert (total < 2**24) == (dtype is np.float32)
    assert rt.fanout.dtype == dtype
    assert rt.fanout.sum(dtype=np.float64) == total
    # every input spiking reaches every connection: the largest count, exact
    (count,) = _synaptic_events(rt, np.ones(rt.fanout.size, dtype=bool))
    assert count.dtype == dtype and int(count) == total


@pytest.mark.parametrize("rows", [1, 6])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_event_counts_equal_the_integer_sum_of_fanout_times_spikes(rows, dtype):
    rng = np.random.default_rng(rows)
    uneven = [rt for rt in _compile(layered_net()) if rt.fanout is not None]
    uneven.append(_compile(conv_net(40, 33))[0])
    for rt in uneven:
        fanout = fanout_map(rt.spec).reshape(-1)
        rt = replace(rt, fanout=fanout.astype(dtype))
        for p in (0.0, 0.1, 0.5, 1.0):
            spikes = rng.random((rows, *rt.spec.input_shape)) < p
            want = (spikes.reshape(rows, -1).astype(np.int64) * fanout).sum(axis=1)
            got = _synaptic_events(rt, spikes)
            assert got.dtype == dtype and got.shape == (rows,)
            assert np.array_equal(got.astype(np.int64), want)


# ---------------------------------------------------------------------------
# event-driven drive of dense-like layers


def spike_vector(rng, n, count):
    """``count`` spikes at random positions, or a random density if a float."""
    if isinstance(count, float):
        return rng.random(n) < count
    x = np.zeros(n, bool)
    x[rng.choice(n, size=min(count, n), replace=False)] = True
    return x


def drive_case(kind, rng, dyadic):
    """The (neurons, inputs) weights of a one-layer net of ``kind``, as the
    engine holds them, and its drive (the recurrent term for ``recurrent``)."""

    def weights(shape):  # as stored: float32
        if dyadic:
            return rng.integers(-16, 17, shape) / 8
        return rng.normal(0.0, 0.3, shape).astype(np.float32).astype(np.float64)

    if kind in ("dense", "small dense"):  # above and below _EVENT_MIN_WEIGHTS
        n_in = int(rng.integers(130, 300))
        n_out = int(rng.integers(1, 50) if kind == "small dense" else rng.integers(128, 200))
        w = weights((n_out, n_in))
        net = NetworkBuilder((n_in,)).dense(n_out, lif(), weights=w).build()
        return w, _step_plan(_compile(net)[0])
    if kind == "locally_connected":
        geometry = NetworkBuilder((2, 12, 12)).locally_connected(4, (3, 3), lif())
        mask = lcl_mask(geometry.build().layers[0])
        w = weights(mask.shape) * mask
        net = (
            NetworkBuilder((2, 12, 12))
            .locally_connected(4, (3, 3), lif(), weights=w)
            .build()
        )
        return w, _step_plan(_compile(net)[0])
    n = int(rng.integers(130, 200))
    w = weights((n, n))
    net = (
        NetworkBuilder((3,))
        .recurrent_dense(n, lif(), weights=weights((n, 3)), recurrent_weights=w)
        .build()
    )
    return w, _event_drive(_compile(net)[0].rec_weights)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["dense", "small dense", "locally_connected", "recurrent"]),
    count=st.one_of(
        st.sampled_from([0, 1, 63, 64, 65, 129, 1 << 20]),
        st.floats(0.0, 1.0),
    ),
    dyadic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_event_drive_equals_the_dense_product(kind, count, dyadic, seed):
    rng = np.random.default_rng(seed)
    w, drive = drive_case(kind, rng, dyadic)
    assert (w.size <= _EVENT_MIN_WEIGHTS) == (kind == "small dense")
    n_in = w.shape[1]
    x = spike_vector(rng, n_in, count)
    analog = rng.integers(-16, 17, n_in) / 8 if dyadic else rng.normal(size=n_in)
    for inputs in (x, analog):
        expected = w @ inputs.astype(np.float64)
        got = drive(inputs)
        assert got.shape == expected.shape
        if dyadic:
            assert np.array_equal(got, expected)
        else:
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
    if not x.any():
        assert not np.signbit(drive(x)).any()  # +0.0, not -0.0


@pytest.mark.parametrize(
    "kind, count",
    [
        ("dense", 0),
        ("dense", 1),
        ("dense", 64),
        ("dense", 65),
        ("dense", 130),
        ("dense", "float"),
        ("small dense", 0.3),
        ("locally_connected", 0.3),
        ("recurrent", 0.3),
        ("conv", 0.4),
        ("conv", "float"),
    ],
)
def test_a_drive_written_in_place_equals_a_new_one(kind, count):
    rng = np.random.default_rng(16)
    if kind == "conv":
        shape = (3, 9, 11)
        net = (
            NetworkBuilder(shape)
            .conv2d(4, (3, 2), lif(), stride=(2, 1), padding=1,
                    weights=rng.normal(0.0, 0.3, 72))
            .build()
        )
        plan = _step_plan(_compile(net)[0])
    else:
        w, plan = drive_case(kind, rng, dyadic=False)
        shape = (w.shape[1],)
    if count == "float":
        x = rng.normal(size=shape)
    elif kind == "conv":
        x = rng.random(shape) < count
    else:
        x = spike_vector(rng, shape[0], count)
    want = plan(x)
    # a row of a larger buffer, as a group writes it; without spikes the
    # product must overwrite a -0.0 with +0.0
    buf = np.full((3, want.size), np.nan if x.any() else -0.0)
    got = plan(x, out=buf[1])
    assert np.shares_memory(got, buf[1])
    assert buf[1].tobytes() == want.tobytes()
    assert np.isnan(buf[[0, 2]]).all() or not x.any()
    if not x.any():
        assert not np.signbit(buf[1]).any()


@pytest.mark.parametrize(
    "kind", ["dense", "small dense", "locally_connected", "recurrent", "conv"]
)
def test_a_group_drive_equals_each_row_alone(kind):
    # a group writes the drive of each row still stepping: an event-driven
    # matrix or a convolution skips a row without spikes, and a row that has
    # left keeps what it holds; a small matrix takes the product of every row
    # at once, so a row that has left gets a finite drive
    rng = np.random.default_rng(17)
    if kind == "conv":
        shape = (2, 7, 6)
        net = (
            NetworkBuilder(shape)
            .conv2d(3, (3, 3), lif(), padding=1, weights=rng.normal(-0.2, 0.3, 54))
            .build()
        )
        w, plan = None, _step_plan(_compile(net)[0])
        x = rng.random((5, *shape)) < 0.05
        n_out = int(np.prod(net.layers[0].output_shape))
    else:
        w, plan = drive_case(kind, rng, dyadic=False)
        x = rng.random((5, w.shape[1])) < 0.05
        n_out = w.shape[0]
    x[1] = False
    x.reshape(5, -1)[3, 0] = True
    out = np.full((5, n_out), -0.0)
    out[3] = np.nan
    live = [0, 1, 2, 4]
    called = []

    def recorded(x, out=None):
        called.append(x)
        return plan(x, out=out)

    _bind_drive(recorded, w, x, out)(x.reshape(5, -1).sum(axis=1), live)
    for p in live:
        if kind == "conv" and p == 1:  # +0.0, without the plan
            assert out[p].tobytes() == np.zeros(n_out).tobytes()
        else:
            assert out[p].tobytes() == plan(x[p]).tobytes()  # +0.0 for the silent row
    # the silent row is not summed: the plan never sees its input
    assert not any(np.shares_memory(a, x[1]) for a in called)
    if kind == "small dense":
        assert np.isfinite(out[3]).all()
    else:
        assert np.isnan(out[3]).all()


def small_matrix(kind, rng):
    """A small dense or recurrent matrix as the engine holds it, under
    ``_EVENT_MIN_WEIGHTS`` weights: float32-rounded normals, scaled over a
    range of exponents wider than a float64's mantissa, so that their sums
    round, and another summation order shows."""

    def weights(shape):
        return (rng.normal(0.0, 0.3, shape) * 2.0 ** rng.integers(-40, 40, shape)).astype(
            np.float32
        )

    n = int(rng.integers(20, 120))
    if kind == "dense":
        m = int(rng.integers(2, 40))
        net = NetworkBuilder((n,)).dense(m, lif(), weights=weights((m, n))).build()
        w = _compile(net)[0].weights
    else:
        builder = NetworkBuilder((3,)).recurrent_dense(
            n, lif(), weights=weights((n, 3)), recurrent_weights=weights((n, n))
        )
        w = _compile(builder.build())[0].rec_weights
    assert w.size <= _EVENT_MIN_WEIGHTS
    return w


@pytest.mark.parametrize("rows", [1, 2, 14])
@pytest.mark.parametrize("kind", ["dense", "recurrent"])
def test_a_small_matrix_drives_its_rows_by_one_stacked_product(kind, rows):
    # every live row's drive is bitwise np.dot's of that row alone; a row
    # that has left gets a finite drive, and the row plan is never called
    rng = np.random.default_rng(rows)
    w = small_matrix(kind, rng)
    calls = []
    x = rng.random((rows, w.shape[1])) < 0.2
    x[-1] = False  # a silent row still takes the product
    for live in (list(range(rows)), list(range(0, rows, 3))):
        out = np.full((rows, w.shape[0]), np.nan)
        drive = _bind_drive(lambda *args, **kwargs: calls.append(args), w, x, out)
        drive(x.sum(axis=1), live)
        for p in range(rows):
            if p in live:
                assert out[p].tobytes() == np.dot(w, x[p].astype(np.float64)).tobytes()
            else:
                assert np.isfinite(out[p]).all()
    assert not calls


@pytest.mark.parametrize("model", [lif(), ifl(0.5)])
def test_a_one_by_one_layer_runs_alike_in_a_group(model):
    # a 1x1 layer's silent drive is the stacked product's +0.0 in a group of
    # any size (np.dot would give -0.0 for the negative weight)
    net = (
        NetworkBuilder((1,), coding=Coding.RATE, max_timesteps=16)
        .dense(1, model, weights=np.array([[-0.75]]))
        .dense(1, model, weights=np.array([[1.5]]))
        .build()
    )
    samples = [encode(np.array([0.5]), EncodingMode.POISSON, seed=s) for s in range(4)]
    grouped = [
        result for result, _ in _run_group(
            net, _compile(net), samples, T_max=16, coding=Coding.RATE,
            record_raster=True, encoder_per_step=False,
        )
    ]
    for sample, got in zip(samples, grouped):
        assert_same_result(got, run_inference(net, sample, record_raster=True))


@pytest.mark.parametrize("bias", [0.0, -0.0, 0.25, -0.25])
@pytest.mark.parametrize("model", [lif(), ifl(0.5)])
def test_a_neuron_step_adds_either_zero_alike(model, bias):
    # a 1x1 matrix's silent drive is +0.0 by the stacked product and
    # -0.0 by np.dot; from fresh state, no step tells the two apart
    model = NeuronModelSpec(**{**vars(model), "bias": bias})
    rng = np.random.default_rng(16)
    drives = rng.choice([0.0, -0.0, 0.5, -0.5, 1e-320, -1e-320], size=(200, 64))
    plus, minus = state_zeros(64), state_zeros(64)
    step = step_fn(model.kind)
    for d in drives:
        spikes = step(plus, d + 0.0, model), step(minus, d, model)  # -0.0 + 0.0 is +0.0
        assert spikes[0].tobytes() == spikes[1].tobytes()
        for a, b in zip(vars(plus).values(), vars(minus).values()):
            assert a.tobytes() == b.tobytes()


def test_dense_like_weights_are_one_input_major_copy():
    rng = np.random.default_rng(14)
    w = rng.normal(size=(5, 7)).astype(np.float32)
    rw = rng.normal(size=(5, 5)).astype(np.float32)
    net = (
        NetworkBuilder((7,))
        .recurrent_dense(5, lif(), weights=w, recurrent_weights=rw)
        .build()
    )
    for got, want in ((weight_tensor(net, 0), w), (recurrent_weight_tensor(net, 0), rw)):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.T.flags.c_contiguous  # one input's weights per contiguous row
        assert np.array_equal(got, want.astype(np.float64))
    rt = _compile(net)[0]
    assert rt.weights.T.flags.c_contiguous and rt.rec_weights.T.flags.c_contiguous


def test_event_drive_temporary_is_bounded_by_the_row_block():
    net = NetworkBuilder((784,)).dense(512, lif(), weights=np.full((512, 784), 0.125)).build()
    drive = _step_plan(_compile(net)[0])
    x = np.ones(784, bool)
    drive(x)
    tracemalloc.start()
    try:
        out = drive(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, np.full(512, 98.0))
    assert peak <= 64 * 512 * 8 + 64 * 1024


@pytest.mark.parametrize(
    "kind, bad",
    [
        ("dense", np.nan),
        ("conv2d", np.inf),
        ("recurrent", np.nan),
        ("locally_connected", -np.inf),
    ],
)
def test_non_finite_weights_are_schema_errors(kind, bad):
    # rejected when the block is read, even where no spike would reach the
    # bad weight (in the dense case it sits on an input held at zero)
    builder = NetworkBuilder((1, 4, 4), coding=Coding.RATE, max_timesteps=4)
    if kind == "conv2d":
        w = np.full(9, 0.5)
        w[4] = bad
        builder.conv2d(2, (3, 3), lif(), weights=np.tile(w, 2)).flatten().dense(2, lif())
        ref = "'l0_w'"
    elif kind == "locally_connected":
        mask = lcl_mask(
            NetworkBuilder((1, 4, 4)).locally_connected(1, (2, 2), lif()).build().layers[0]
        )
        w = mask * 0.5
        w[0, 0] = bad
        builder.locally_connected(1, (2, 2), lif(), weights=w)
        ref = "'l0_w'"
    else:
        builder.flatten()
        w = np.full((3, 16), 0.5)
        if kind == "dense":
            w[1, 0] = bad
            builder.dense(3, lif(), weights=w)
            ref = "'l1_w'"
        else:
            rw = np.zeros((3, 3))
            rw[2, 0] = bad
            builder.recurrent_dense(3, lif(), weights=w, recurrent_weights=rw)
            ref = "'l1_rw'"
    net = builder.build()
    x = np.full((1, 4, 4), 0.5)
    x[0, 0, 0] = 0.0
    with pytest.raises(SchemaError, match=ref) as err:
        run_inference(net, encode(x, "poisson", seed=1))
    assert "non-finite" in str(err.value)


# ---------------------------------------------------------------------------
# lockstep sample groups


def force_group_size(monkeypatch, net, t_max, size):
    """Set the private state budget so that ``net`` runs ``size`` samples a group."""
    rt = _compile(net)
    monkeypatch.setattr(engine, "_GROUP_STATE_BYTES", 1 << 60)
    per_sample = (1 << 60) // _group_size(rt, t_max)
    monkeypatch.setattr(engine, "_GROUP_STATE_BYTES", size * per_sample)
    assert _group_size(rt, t_max) == size


def random_spiking_model(draw):
    v_th = draw(st.sampled_from([0.25, 0.5, 1.0]))
    spike_once = draw(st.booleans())
    if draw(st.booleans()):
        return NeuronModelSpec(
            kind=NeuronKind.LIF, dt=1e-3, tau_syn=draw(st.sampled_from([2e-3, 5e-3])),
            tau_mem=draw(st.sampled_from([2e-3, 1e-2])), v_th=v_th, spike_once=spike_once,
        )
    return ifl(v_th, spike_once=spike_once)


@st.composite
def lockstep_cases(draw):
    """A random network, a dataset for it, and the run settings."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arch = draw(st.sampled_from(["dense", "conv", "locally_connected", "ann"]))
    t_max = draw(st.sampled_from([1, 3, 8, 16]))
    # weaker weights make later and more varied first spikes
    g = draw(st.sampled_from([0.05, 0.15, 0.5]))
    if arch == "dense":
        n_in = draw(st.integers(3, 12))
        builder = NetworkBuilder((n_in,), coding=Coding.RATE, max_timesteps=t_max)
        # a huge weight from input 0 to neuron 0: only a sample whose input 0
        # is large overflows, after a few steps of accumulating it
        units = draw(st.integers(2, 8))
        w = rng.normal(g, g, (units, n_in))
        w[0, 0] = 1e38
        builder.dense(units, random_spiking_model(draw), weights=w)
        n_prev = units
    else:
        shape = (draw(st.integers(1, 2)), draw(st.integers(5, 8)), draw(st.integers(5, 8)))
        builder = NetworkBuilder(shape, coding=Coding.RATE, max_timesteps=t_max)
        model = ANN if arch == "ann" else random_spiking_model(draw)
        if arch == "locally_connected":
            kernel, stride = (3, 3), (draw(st.integers(1, 2)),) * 2
            geometry = NetworkBuilder(shape).locally_connected(2, kernel, model, stride=stride)
            mask = lcl_mask(geometry.build().layers[0])
            builder.locally_connected(
                2, kernel, model, stride=stride,
                weights=rng.normal(g, g, mask.shape) * mask,
            )
        else:
            kernel = (draw(st.integers(2, 3)), draw(st.integers(2, 3)))
            builder.conv2d(
                2, kernel, model, stride=(draw(st.integers(1, 2)),) * 2,
                padding=draw(st.integers(0, 1)),
                weights=rng.normal(g, g, 2 * shape[0] * kernel[0] * kernel[1]),
            )
        if draw(st.booleans()) and min(builder._shape[1:]) >= 2:
            builder.max_pool((2, 2), stride=(draw(st.integers(1, 2)),) * 2)
        builder.flatten()
        n_prev = int(np.prod(builder._shape))
    if draw(st.booleans()):
        units = draw(st.integers(2, 8))
        builder.recurrent_dense(
            units, random_spiking_model(draw),
            weights=rng.normal(g, g, (units, n_prev)),
            recurrent_weights=rng.normal(0.0, 0.4, (units, units)),
        )
        n_prev = units
    n_out = draw(st.integers(1, 4))
    builder.dense(n_out, random_spiking_model(draw), weights=rng.normal(g, g, (n_out, n_prev)))
    net = builder.build()

    if arch == "ann":
        modes = ["analog"]
    else:
        modes = draw(st.sampled_from([["poisson"], ["analog"], ["poisson", "analog"]]))
    samples = []
    for k in range(draw(st.integers(2, 6))):
        mode = modes[k % len(modes)] if len(modes) == 1 else draw(st.sampled_from(modes))
        # inputs of varied strength: samples first spike at varied steps
        x = rng.uniform(0.0, 1.0, net.input_shape) * rng.choice([0.1, 0.3, 1.0])
        if arch == "dense":
            x[0] = 0.0
        samples.append(encode(x, mode, seed=int(rng.integers(0, 2**64, dtype=np.uint64))))
    if draw(st.booleans()):  # one sample's state overflows
        bad = draw(st.integers(0, len(samples) - 1))
        x = samples[bad].values.copy()
        if arch == "dense":  # after 1 to about 20 steps
            x[0] = draw(st.sampled_from([1e270, 1e269, 1e268]))
        else:  # the first layer's sums overflow
            x[:] = 1e308
        samples[bad] = encode(x, "analog")
    settings_ = dict(
        t_max=t_max,
        coding=draw(st.sampled_from([Coding.RATE, Coding.ROC, Coding.ROC])),
        encoder_per_step=draw(st.booleans()),
    )
    return net, samples, settings_


def assert_same_result(got, want):
    if isinstance(want, NonFiniteState):
        assert isinstance(got, NonFiniteState) and str(got) == str(want)
        return
    assert got.decision == want.decision
    for field in ("counts", "input_counts", "feedforward_events", "recurrent_events",
                  "analog_events"):
        a, b = getattr(got.trace, field), getattr(want.trace, field)
        if b is None:
            assert a is None
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert got.trace.T_used == want.trace.T_used
    assert got.trace.layer_neurons == want.trace.layer_neurons
    assert got.trace.n_inputs == want.trace.n_inputs
    for a, b in [(got.output_spikes, want.output_spikes),
                 (got.output_voltages, want.output_voltages),
                 *zip(got.rasters, want.rasters)]:
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()  # bitwise, signed zeros included
    assert got.energy == want.energy
    assert got.energy_analytic == want.energy_analytic


@settings(max_examples=100, deadline=None)
@given(case=lockstep_cases())
def test_lockstep_groups_equal_one_sample_at_a_time(case):
    net, samples, run = case
    t_max, coding = run["t_max"], run["coding"]
    # per sample: one group of every sample that shares a mode, against
    # run_inference, which runs a group of one
    rt = _compile(net)
    for mode in {s.mode for s in samples}:
        subset = [s for s in samples if s.mode is mode]
        grouped = [
            result for result, _ in _run_group(
                net, rt, subset, T_max=t_max, coding=coding, record_raster=True,
                encoder_per_step=run["encoder_per_step"],
            )
        ]
        assert len(grouped) == len(subset)
        for sample, got in zip(subset, grouped):
            try:
                want = run_inference(net, sample, record_raster=True, **run)
            except NonFiniteState as exc:
                want = exc
            assert_same_result(got, want)

    # the dataset summary, with every group size the dataset allows
    with pytest.MonkeyPatch.context() as mp:
        force_group_size(mp, net, t_max, 1)
        want = run_dataset(net, samples, **run)
        event(f"{len(want.failures)} failed")
        event(f"{len({o.T_used for o in want.outcomes if o is not None})} distinct T_used")
        event(f"coding {run['coding'].value}")
        event(f"modes: {sorted({s.mode.value for s in samples})}")
        for size in range(2, len(samples) + 1):
            force_group_size(mp, net, t_max, size)
            assert run_dataset(net, samples, **run) == want


def test_a_sample_that_overflows_mid_run_fails_alone(monkeypatch):
    # IFL under a constant drive d: v after t steps is d * t * (t + 1) / 2.
    # Input 0 drives only neuron 0, which the output does not listen to.
    w = np.array([[1e38, 0.5], [0.0, 0.5]])
    net = (
        NetworkBuilder((2,), coding=Coding.ROC, max_timesteps=12)
        .dense(2, ifl(2.0), weights=w)
        .dense(2, ifl(1.0), weights=np.array([[0.0, 0.5], [0.0, 0.25]]))
        .build()
    )
    bad = encode(np.array([1e269, 0.0]))  # v passes 1.8e308 at step 6
    good = [encode(np.array([0.0, v])) for v in (0.5, 1.0, 0.25)]
    samples = [good[0], bad, good[1], good[2]]
    force_group_size(monkeypatch, net, 12, 4)
    stats = run_dataset(net, samples)
    assert stats.failures == [
        (1, "layer 0 left the finite range at step 6; check the weights and the "
            "integration step")
    ]
    alone = [run_inference(net, s) for s in good]
    assert [o.T_used for o in stats.outcomes if o is not None] == [
        r.trace.T_used for r in alone
    ]
    assert len({r.trace.T_used for r in alone}) > 1  # they stop at different steps
    with pytest.raises(NonFiniteState, match="at step 6"):
        run_inference(net, bad)


@pytest.mark.parametrize(
    "weights, value, fails",
    [
        ([[1e8], [1e8]], 1e300, False),  # two voltages near 1e308 whose sum overflows
        ([[1e9]], 1e300, True),  # +inf
        ([[1e9], [-1e9]], 1e300, True),  # +inf and -inf, whose sum is NaN
        ([[1e38, -1e38]], 1e300, True),  # NaN, from +inf and -inf products
    ],
)
def test_each_block_checks_finiteness_by_one_sum(monkeypatch, weights, value, fails):
    # the sum of a block's voltages is a NaN or an infinity whenever one of
    # them is; one that overflows from finite voltages fails no row
    weights = np.array(weights)
    n_out, n_in = weights.shape
    net = (
        NetworkBuilder((n_in,), coding=Coding.RATE, max_timesteps=1)
        .dense(n_out, ifl(1.0), weights=weights)
        .build()
    )
    samples = [encode(np.full(n_in, v)) for v in (0.5, value, 0.25)]
    force_group_size(monkeypatch, net, 1, 3)
    stats = run_dataset(net, samples)
    message = (
        "layer 0 left the finite range at step 1; check the weights and the integration step"
    )
    assert stats.failures == ([(1, message)] if fails else [])
    if fails:
        with pytest.raises(NonFiniteState, match=f"^{message}$"):
            run_inference(net, samples[1])
    else:
        assert (run_inference(net, samples[1]).output_voltages >= 1e307).all()


def test_a_row_that_has_left_is_not_read_again(monkeypatch):
    # The net of the test above. Sample a decides at step 3, but its row keeps
    # stepping with the group, and its neuron 0, which the output does not
    # read, overflows at step 6 while sample b runs to the step budget. Neither
    # the non-finite scan nor the decisions may look at a's row once it has
    # left: a keeps its decision (its output spikes again after step 3), and
    # no failure is reported for it.
    w = np.array([[1e38, 0.5], [0.0, 0.5]])
    net = (
        NetworkBuilder((2,), coding=Coding.ROC, max_timesteps=7)
        .dense(2, ifl(2.0), weights=w)
        .dense(2, ifl(1.0), weights=np.array([[0.0, 0.5], [0.0, 0.25]]))
        .build()
    )
    samples = [encode(np.array([1e269, 2.0])), encode(np.array([0.0, 0.25]))]
    alone = [run_inference(net, s, record_raster=True) for s in samples]
    assert [r.trace.T_used for r in alone] == [3, 7]
    grouped = [
        result for result, _ in _run_group(
            net, _compile(net), samples, T_max=7, coding=Coding.ROC,
            record_raster=True, encoder_per_step=False,
        )
    ]
    for got, want in zip(grouped, alone):
        assert_same_result(got, want)
    force_group_size(monkeypatch, net, 7, 2)
    stats = run_dataset(net, samples)
    assert stats.failures == []
    assert stats.outcomes == [SampleOutcome(r.trace.T_used, r.decision) for r in alone]


def test_samples_that_decide_early_leave_the_group():
    # padded conv and pool: border inputs reach fewer neurons, so these
    # layers count their events per step; samples decide at varied steps
    rng = np.random.default_rng(16)
    net = (
        NetworkBuilder((1, 6, 6), coding=Coding.ROC, max_timesteps=24)
        .conv2d(2, (3, 3), ifl(1.0), padding=1, weights=rng.uniform(0.0, 0.3, 18))
        .max_pool((3, 3), stride=(2, 2))
        .flatten()
        .dense(3, ifl(2.0), weights=rng.uniform(0.0, 0.4, (3, 8)))
        .build()
    )
    samples = [
        encode(rng.uniform(0.0, 1.0, (1, 6, 6)) * scale, "poisson", seed=k)
        for k, scale in enumerate([0.9, 0.15, 0.5, 0.05, 0.3, 1.0])
    ]
    rt = _compile(net)
    grouped = [
        result for result, _ in _run_group(
            net, rt, samples, T_max=24, coding=Coding.ROC, record_raster=True,
            encoder_per_step=False,
        )
    ]
    alone = [run_inference(net, s, record_raster=True) for s in samples]
    assert len({r.trace.T_used for r in alone}) >= 4
    for got, want in zip(grouped, alone):
        assert_same_result(got, want)


@pytest.mark.parametrize("coding", [Coding.RATE, Coding.ROC])
def test_a_sample_fails_at_its_lowest_non_finite_step(monkeypatch, coding):
    # IFL under a constant drive e per step: v after t steps is e * t * (t + 1) / 2,
    # past the float range at step 5 for e = 1.5e307 and at step 4 for e = 2e307.
    # Layer 0 gets 1.5e307 from its analog input, layer 2 gets 2e307 from its
    # bias: layer 2 fails first, though layer 0 reaches its step 5 earlier in
    # a schedule that runs each layer a step ahead of the next. The output
    # spikes first at step 3, where rank-order coding stops before any overflow.
    net = (
        NetworkBuilder((1,), coding=coding, max_timesteps=8)
        .dense(1, ifl(1.0), weights=np.ones((1, 1)))
        .dense(1, ifl(1.0), weights=np.full((1, 1), 0.5))
        .dense(1, ifl(1.0, bias=2e307), weights=np.full((1, 1), 0.5))
        .dense(1, ifl(6.0), weights=np.ones((1, 1)))
        .build()
    )
    bad = encode(np.array([1.5e307]))
    # in a group too, with a sample whose layer 0 stays finite
    samples = [encode(np.array([0.5])), bad]
    force_group_size(monkeypatch, net, 8, 2)
    stats = run_dataset(net, samples)
    if coding is Coding.RATE:
        message = ("layer 2 left the finite range at step 4; check the weights and "
                   "the integration step")
        assert stats.failures == [(0, message), (1, message)]
        with pytest.raises(NonFiniteState, match="^layer 2 .* at step 4;"):
            run_inference(net, bad)
    else:
        res = run_inference(net, bad)
        assert (res.decision.class_index, res.decision.latency_T) == (0, 3)
        assert stats.outcomes == [SampleOutcome(3, res.decision)] * 2


def rank_order_run_matches_the_reference(net, samples, budget):
    """Run ``samples`` as one group, each alone and through the reference
    simulator; return each one's step count, which all three must agree on."""
    grouped = [
        result for result, _ in _run_group(
            net, _compile(net), samples, T_max=budget, coding=Coding.ROC,
            record_raster=True, encoder_per_step=False,
        )
    ]
    steps = []
    for sample, got in zip(samples, grouped):
        assert_same_result(got, run_inference(net, sample, record_raster=True))
        want = simulate(net, sample)
        assert got.decision == want.decision
        assert got.trace.T_used == want.T_used
        for field in ("counts", "input_counts", "feedforward_events", "recurrent_events"):
            assert np.array_equal(getattr(got.trace, field), getattr(want, field)), field
        assert np.array_equal(got.output_voltages, want.output_voltages)
        steps.append(want.T_used)
    return steps


def test_rank_order_counts_no_events_past_the_decision():
    # The layers before the output run up to two steps past the step its
    # first spike decides. Padded convolutions, whose border inputs reach
    # fewer neurons, and a pool whose last row is cut off count their events
    # step by step: the steps past the decision must not add to them.
    rng = np.random.default_rng(41)
    model = ifl(0.5)
    net = (
        NetworkBuilder((1, 7, 7), coding=Coding.ROC, max_timesteps=20)
        .conv2d(2, (3, 3), model, padding=1, weights=rng.integers(0, 4, 18) / 8)
        .max_pool((2, 2))
        .conv2d(2, (3, 3), model, padding=1, weights=rng.integers(0, 4, 36) / 8)
        .flatten()
        .dense(3, ifl(1.5), weights=rng.integers(0, 3, (3, 18)) / 8)
        .build()
    )
    assert sum(r.fanout is not None for r in _compile(net)) == 3
    samples = [
        encode(rng.integers(0, 9, (1, 7, 7)) / 8 * scale, "poisson", seed=k)
        for k, scale in enumerate([1.0, 0.5, 0.3, 0.8])
    ]
    steps = rank_order_run_matches_the_reference(net, samples, 20)
    assert max(steps) < 20


def test_a_group_whose_samples_decide_at_different_steps():
    # four spiking layers of one model step as one block; as samples decide,
    # they leave the group, and their rows keep stepping unread
    rng = np.random.default_rng(42)
    model = ifl(0.75, spike_once=True)
    builder = NetworkBuilder((10,), coding=Coding.ROC, max_timesteps=40)
    for n_in, units in ((10, 8), (8, 8), (8, 6), (6, 4)):
        builder.dense(units, model, weights=rng.integers(-1, 4, (units, n_in)) / 8)
    net = builder.build()
    samples = [
        encode(rng.uniform(0.0, 1.0, 10) * scale, "poisson", seed=k)
        for k, scale in enumerate([1.0, 0.2, 0.6, 0.1, 0.4, 0.8])
    ]
    steps = rank_order_run_matches_the_reference(net, samples, 40)
    assert len(set(steps)) >= 4


def test_a_network_without_spiking_layers_runs_one_step(monkeypatch):
    rng = np.random.default_rng(36)
    kernels = rng.normal(0.0, 0.5, (2, 1, 3, 3)).astype(np.float32)
    dense_w = rng.normal(0.0, 1.0, (3, 8)).astype(np.float32)
    net = (  # rank-order coding: without output spikes, the activation decides
        NetworkBuilder((1, 6, 6), coding=Coding.ROC, max_timesteps=8)
        .conv2d(2, (3, 3), ANN, weights=kernels)
        .max_pool((2, 2))
        .flatten()
        .dense(3, ANN, weights=dense_w)
        .build()
    )

    def head(x):
        windows = sliding_window_view(x[0], (3, 3))  # (4, 4, 3, 3)
        conv = np.maximum(np.einsum("cij,yxij->cyx", kernels[:, 0], windows), 0.0)
        pooled = conv.reshape(2, 2, 2, 2, 2).max(axis=(2, 4))
        return np.maximum(dense_w @ pooled.reshape(-1), 0.0)

    # one step of history whatever the step budget
    assert _group_size(_compile(net), 8) == _group_size(_compile(net), 4096) > 5
    samples = [encode(rng.uniform(0.0, 1.0, (1, 6, 6))) for _ in range(5)]
    samples[2] = encode(np.full((1, 6, 6), -1e308))  # fails in the static stage
    force_group_size(monkeypatch, net, 8, 1)
    want = run_dataset(net, samples)
    for size in range(2, len(samples) + 1):
        force_group_size(monkeypatch, net, 8, size)
        assert run_dataset(net, samples) == want
    assert [index for index, _ in want.failures] == [2]

    classes = set()
    for sample, outcome in zip(samples, want.outcomes):
        if outcome is None:
            continue
        res = run_inference(net, sample, record_raster=True)
        assert res.trace.T_used == outcome.T_used == 1
        assert [(r.shape, r.dtype) for r in res.rasters] == [
            ((n, 1), np.dtype(bool)) for n in (32, 8, 8, 3)
        ]
        assert not any(r.any() for r in res.rasters)
        expected = head(sample.values)
        np.testing.assert_allclose(res.output_voltages[:, 0], expected, rtol=1e-12)
        assert res.decision.class_index == outcome.decision.class_index
        assert res.decision.class_index == int(np.argmax(expected))
        classes.add(res.decision.class_index)
    assert len(classes) > 1


def test_group_size_follows_the_state_budget():
    rng = np.random.default_rng(15)
    lif_ = NeuronModelSpec(kind=NeuronKind.LIF, dt=1e-3, tau_syn=5e-3, tau_mem=1e-2)
    conv = (  # shaped like the conv_poisson_rate workload
        NetworkBuilder((1, 28, 28), coding=Coding.RATE, max_timesteps=64)
        .conv2d(8, (3, 3), lif_)
        .max_pool((2, 2))
        .conv2d(16, (3, 3), lif_)
        .max_pool((2, 2))
        .flatten()
        .dense(10, lif_)
        .build()
    )
    sizes = (784, 512, 512, 256, 256, 10)
    builder = NetworkBuilder((784,), coding=Coding.ROC, max_timesteps=128)
    for units in sizes[1:]:  # like dense_poisson_roc
        builder.dense(units, ifl(spike_once=True))
    dense = builder.build()
    mixed = (  # like mixed_analog_recurrent
        NetworkBuilder((1, 28, 28), coding=Coding.RATE, max_timesteps=64)
        .conv2d(8, (3, 3), ANN, weights=rng.normal(0.0, 0.3, 72))
        .max_pool((2, 2))
        .flatten()
        .recurrent_dense(256, lif_)
        .dense(10, lif_)
        .build()
    )
    size = {
        name: _group_size(_compile(net), net.max_timesteps)
        for name, net in (("conv", conv), ("dense", dense), ("mixed", mixed))
    }
    assert size["conv"] == 1
    assert size["dense"] > 1
    assert size["mixed"] > size["dense"]
    # a longer step budget keeps a longer history per sample
    assert _group_size(_compile(mixed), 4096) < size["mixed"]
    assert _group_size(_compile(dense), 4096) < size["dense"]


def test_group_size_counts_the_state_a_group_allocates(monkeypatch):
    # per sample: the blocks' state, drive and spikes, and the histories, as
    # a one-sample group allocates them
    rng = np.random.default_rng(18)
    lif_ = NeuronModelSpec(kind=NeuronKind.LIF, dt=1e-3, tau_syn=5e-3, tau_mem=1e-2)
    net = (  # two blocks, a recurrent layer, even fan-out only
        NetworkBuilder((12,), coding=Coding.ROC, max_timesteps=10)
        .dense(9, ifl(), weights=rng.normal(0.0, 0.5, (9, 12)))
        .dense(7, ifl(), weights=rng.normal(0.0, 0.5, (7, 9)))
        .recurrent_dense(5, lif_)
        .dense(3, lif_)
        .build()
    )
    rt = _compile(net)
    spiking = [r for r in rt if r.spiking]
    blocks = engine._blocks(spiking, 1)
    assert len(blocks) == 2
    state = sum(
        a.nbytes for b in blocks for a in (*vars(b.state).values(), b.drive, b.spikes)
    )
    assert state == engine._NEURON_STATE_BYTES * sum(r.neurons for r in spiking)
    run = engine._step_group(
        net, rt, [encode(rng.uniform(0.0, 1.0, 12), "poisson", seed=1)], 0,
        T_max=10, coding=Coding.ROC, record_raster=False,
    )
    history = sum(a.nbytes for a in (run.counts, run.spikes, run.volts, run.events))
    per_sample = state + history
    for size in (1, 2, 5):
        monkeypatch.setattr(engine, "_GROUP_STATE_BYTES", size * per_sample)
        assert _group_size(rt, 10) == size
        monkeypatch.setattr(engine, "_GROUP_STATE_BYTES", (size + 1) * per_sample - 1)
        assert _group_size(rt, 10) == size


def test_large_weights_raise_the_group_budget(monkeypatch):
    dense = (
        NetworkBuilder((2048,), coding=Coding.ROC, max_timesteps=128)
        .dense(512, ifl(spike_once=True))
        .dense(10, ifl(spike_once=True))
        .build()
    )
    rt = _compile(dense)
    weight_bytes = sum(r.weights.nbytes for r in rt)
    assert weight_bytes // engine._WEIGHT_BUDGET_SHARE > engine._GROUP_STATE_BYTES
    size = _group_size(rt, 128)
    # the 256 KiB floor alone holds fewer samples
    monkeypatch.setattr(engine, "_WEIGHT_BUDGET_SHARE", 1 << 60)
    floor = _group_size(rt, 128)
    assert size > floor >= 1
    monkeypatch.undo()
    # a long step budget still shrinks the group
    assert _group_size(rt, 4096) < size


# ---------------------------------------------------------------------------
# one compile per network


def layered_samples(count):
    x = np.random.default_rng(9).integers(0, 9, (1, 9, 9)) / 8
    return [encode(x * 0.75, "poisson", seed=k) for k in range(count)]


def test_a_network_is_compiled_once(monkeypatch):
    compiled = []

    def counted(net):
        compiled.append(net)
        return _compile(net)

    monkeypatch.setattr(engine, "_compile", counted)
    net = layered_net()
    samples = layered_samples(3)
    for sample in samples:
        run_inference(net, sample)
    run_dataset(net, samples)
    assert len(compiled) == 1 and compiled[0] is net
    # the same bytes parsed again are another network, with its own compile
    twin = parse_network(*serialize_network(net))
    run_inference(twin, samples[0])
    run_inference(net, samples[0])
    assert len(compiled) == 2 and compiled[1] is twin


def test_the_compile_is_dropped_with_its_network():
    net = layered_net()
    run_inference(net, layered_samples(1)[0])
    (key,) = [ref for ref in engine._COMPILED.keyrefs() if ref() is net]
    del net
    gc.collect()
    assert key() is None
    assert key not in engine._COMPILED.keyrefs()


def test_a_cached_compile_gives_the_same_result():
    net = layered_net()
    sample = layered_samples(1)[0]
    assert net not in engine._COMPILED
    first = run_inference(net, sample, record_raster=True)
    assert net in engine._COMPILED
    again = run_inference(net, sample, record_raster=True)
    assert_same_result(again, first)  # traces, rasters and both energy reports


# ---------------------------------------------------------------------------
# per-sample pricing and failed rows


def overflowing_dense(t_max=40):
    """Two IFL layers; a 1e300 input overflows layer 0 within a few steps, a
    0.5 input stays finite for the whole budget."""
    return (
        NetworkBuilder((1,), coding=Coding.RATE, max_timesteps=t_max)
        .dense(1, ifl(1e308), weights=np.full((1, 1), 1e38))
        .dense(1, ifl(1e308), weights=np.ones((1, 1)))
        .build()
    )


def test_every_priced_sample_calls_emac_exact_once(monkeypatch):
    # the benchmark counts each sample's events inside this call
    from emacprof import emac

    priced = []
    exact = emac.emac_exact

    def counted(net, trace):
        priced.append(trace.T_used)
        return exact(net, trace)

    monkeypatch.setattr(emac, "emac_exact", counted)
    net = overflowing_dense()
    samples = [encode(np.array([v])) for v in (0.5, 1e300, 0.25, 0.75)]
    force_group_size(monkeypatch, net, 40, 3)
    stats = run_dataset(net, samples)
    assert stats.n_ok == 3
    assert priced == [40, 40, 40]
    priced.clear()
    run_inference(net, samples[0])
    assert priced == [40]


def test_a_failed_row_leaves_its_group_on_the_one_call_check(monkeypatch):
    scans = []
    scan = engine._non_finite_rows

    def counted(values, live):
        scans.append(list(live))
        return scan(values, live)

    monkeypatch.setattr(engine, "_non_finite_rows", counted)
    net = overflowing_dense()
    good = [encode(np.array([v])) for v in (0.5, 0.25)]
    bad = encode(np.array([1e300]))
    with pytest.raises(NonFiniteState) as alone:
        run_inference(net, bad)
    want = [run_inference(net, s).decision for s in good]
    scans.clear()
    force_group_size(monkeypatch, net, 40, 3)
    stats = run_dataset(net, [good[0], bad, good[1]])
    assert stats.failures == [(1, str(alone.value))]
    assert [o.decision for o in stats.outcomes if o is not None] == want
    # the bad row is scanned while it is live (one call per layer and tick,
    # for at most the two ticks the output layer needs to reach the failing
    # step); once it has left, no tick of the 40-step budget scans again
    assert 0 < len(scans) <= 4
    assert all(1 in live for live in scans)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(-1e150, 1e150), min_size=0, max_size=300))
def test_dataset_statistics_are_numpys_mean_and_std(values):
    x = np.array(values, dtype=np.float64)
    got = engine._stat(x)
    if not values:
        assert np.isnan(got.mean) and np.isnan(got.std)
        return
    assert got.mean.hex() == float(np.mean(x)).hex()
    assert got.std.hex() == float(np.std(x)).hex()


def test_a_group_lets_its_histories_go_before_the_next_group_steps(monkeypatch):
    # run_dataset's results view their group's histories instead of copying them
    earlier = []  # per group, as it starts: which earlier groups' histories live
    histories = []
    step_group = engine._step_group

    def watched(*args, **kwargs):
        earlier.append([ref() is not None for ref in histories])
        run = step_group(*args, **kwargs)
        histories.append(weakref.ref(run.volts))
        return run

    monkeypatch.setattr(engine, "_step_group", watched)
    net = overflowing_dense(t_max=6)
    force_group_size(monkeypatch, net, 6, 2)
    stats = run_dataset(net, [encode(np.array([v])) for v in (0.5, 0.25, 1e300, 0.75, 0.1)])
    assert stats.n_ok == 4
    assert earlier == [[], [False], [False, False]]
