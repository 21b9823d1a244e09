import numpy as np
import pytest

from emacprof import (
    Coding,
    EmptyDataset,
    EncodingMode,
    NetworkBuilder,
    NeuronKind,
    NeuronModelSpec,
    NonFiniteState,
    SchemaError,
    ShapeMismatch,
    encode,
    run_dataset,
    run_inference,
)

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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_state_is_reported():
    # 1e38 weight on a 1e300 analog drive overflows the synaptic sum
    net = single_dense(1e38, v_th=1e308, coding=Coding.RATE, t_max=50)
    with pytest.raises(NonFiniteState):
        run_inference(net, encode(np.full(1, 1e300)))


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
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


def test_worker_pool_matches_serial_execution():
    rng = np.random.default_rng(44)
    net = (
        NetworkBuilder((5,), coding=Coding.RATE, max_timesteps=15)
        .dense(6, ifl(0.5), weights=rng.uniform(0.0, 0.4, (6, 5)))
        .build()
    )
    samples = [
        encode(rng.uniform(0.0, 1.0, 5), EncodingMode.POISSON, seed=s)
        for s in range(8)
    ]
    serial = run_dataset(net, samples, jobs=1)
    pooled = run_dataset(net, samples, jobs=4)
    assert serial.emac_exact == pooled.emac_exact
    assert serial.latency == pooled.latency
    # per-sample outcomes in sample order, and every reduced statistic
    assert pooled.outcomes == serial.outcomes
    assert pooled == serial


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_dataset_statistics_equal_per_sample_reductions():
    # conv (padded) -> pool -> flatten -> recurrent -> dense, one sample blows up
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
    samples = [encode(rng.uniform(0.0, 1.0, (1, 6, 6))) for _ in range(5)]
    samples[2] = encode(np.full((1, 6, 6), 1e308))
    stats = run_dataset(net, samples)

    results = []
    for sample in samples:
        try:
            results.append(run_inference(net, sample))
        except NonFiniteState:
            results.append(None)
    assert [r is None for r in results] == [False, False, True, False, False]
    ok = [r for r in results if r is not None]

    def moments(values):
        return (np.mean(values), np.std(values))

    def check(stat, values):
        assert (stat.mean, stat.std) == moments(values)

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
    e_syn, e_upd = lif.energy.e_syn, lif.energy.e_upd
    assert stats.mean_synaptic_events == np.mean(
        [(r.energy.E_syn + r.energy.E_rec) / e_syn for r in ok]
    )
    assert stats.mean_update_count == np.mean([r.energy.E_upd / e_upd for r in ok])
    assert [
        None if o is None else (o.T_used, o.decision) for o in stats.outcomes
    ] == [None if r is None else (r.trace.T_used, r.decision) for r in results]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
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
