import gc
import hashlib
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from collections.abc import Sequence
from dataclasses import replace
from math import prod
from pathlib import Path

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
from emacprof import engine, netspec
from emacprof.engine import (
    SampleOutcome,
    _EVENT_MIN_WEIGHTS,
    _compile,
    _bind_drive,
    _exact_sums,
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


class LoadedOnRead(Sequence):
    """Samples made only when indexed, as the command line's input files are;
    ``reads`` lists the indexes read, in order."""

    def __init__(self, make, n):
        self.make, self.n, self.reads = make, n, []

    def __len__(self):
        return self.n

    def __getitem__(self, index):
        index = range(self.n)[index]
        self.reads.append(index)
        return self.make(index)


def test_a_dataset_read_on_demand_gives_the_stats_of_a_list(monkeypatch):
    # 11 samples in groups of at most 4 (4, 4, 3), one of which fails: every
    # statistic is bitwise that of the same samples in a list, and each
    # sample is read once, in order
    net = (
        NetworkBuilder((6,), coding=Coding.RATE, max_timesteps=12)
        .dense(5, ifl(0.5), weights=np.random.default_rng(7).normal(0.3, 0.3, (5, 6)))
        .dense(3, ifl(0.5), weights=np.random.default_rng(8).normal(0.3, 0.3, (3, 5)))
        .build()
    )

    def make(k):
        if k == 6:
            return encode(np.full(6, 1e308))  # leaves the finite range
        rng = np.random.default_rng(k)
        return encode(rng.uniform(0.0, 1.0, 6), EncodingMode.POISSON, seed=k)

    force_group_size(monkeypatch, net, 12, 4)
    lazy = LoadedOnRead(make, 11)
    got = run_dataset(net, lazy)
    want = run_dataset(net, [make(k) for k in range(11)])
    assert lazy.reads == list(range(11))
    assert [index for index, _ in got.failures] == [6]
    assert got == want
    assert repr(got) == repr(want)  # the signs of zeros too


def test_groups_are_near_equal_and_leave_as_soon_as_full():
    # ceil(n / size) groups whose sizes differ by one at most, the larger
    # first; a change of mode ends a group early, and a full group is
    # yielded before the next sample is read
    def sizes(n, size):
        return [len(g) for g in engine._groups([always_on(1)] * n, n, size)]

    assert sizes(64, 14) == [13, 13, 13, 13, 12]
    assert sizes(16, 6) == [6, 5, 5]
    assert sizes(16, 16) == [16]
    assert sizes(5, 1) == [1] * 5
    assert sizes(7, 3) == [3, 2, 2]
    analog = encode(np.ones(1))
    modes = [always_on(1)] * 5 + [analog] * 2 + [always_on(1)] * 4
    assert [len(g) for g in engine._groups(modes, len(modes), 4)] == [4, 1, 2, 1, 3]

    lazy = LoadedOnRead(lambda k: always_on(1), 10)
    assert [len(lazy.reads) for _ in engine._groups(lazy, len(lazy), 4)] == [4, 7, 10]  # 4, 3, 3
    assert lazy.reads == list(range(10))


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


def fresh(fn, x, arg):
    """``fn``'s output for ``x``, written into new buffers: with ``fn`` a
    step plan, a float64 drive of ``arg`` values; with ``fn`` :func:`_max_pool`,
    the windows of taps ``arg`` and their column maximum, of ``x``'s dtype."""
    if fn is not _max_pool:
        return fn(x, np.empty(arg))
    rows = np.empty(x[arg[0][0]].shape, x.dtype)
    return fn(x, arg, np.empty(rows[arg[1][0]].shape, x.dtype), rows)


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
    rt = _compile(net)[0]
    drive = _step_plan(rt)
    # spikes and analog values through one plan: its buffer is reused
    for x in (rng.random(shape) < 0.4, rng.normal(size=shape), rng.random(shape) < 0.7):
        p = layer.padding
        padded = np.pad(x.astype(np.float64), ((0, 0), (p, p), (p, p)))
        expected = np.tensordot(
            weights, window_view(padded, layer), axes=([1, 2, 3], [0, 3, 4])
        ).reshape(-1)
        assert np.array_equal(fresh(drive, x, rt.neurons), expected)


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
        out = fresh(_max_pool, x, compiled.pool_taps)
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

    # what builds a convolution's window view, once per conv layer and group
    monkeypatch.setattr(engine, "_conv_windows", counted("window", engine._conv_windows))
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
    assert calls["window"] == 2  # conv layers, in a group of one
    assert calls["philox"] <= 1


def test_a_group_binds_its_spike_buffers_and_drives_once(monkeypatch):
    # every tick hands each block's step a view of the group's one spike
    # buffer (one view per block and active span), and each drive is bound
    # once per group, not once per tick: the first layer's, driven a block
    # of steps ahead, by its own binder, and the three others by _bind_drive
    rng = np.random.default_rng(19)
    made = {"blocks": [], "binders": 0, "ahead": 0}
    spikes_seen = []
    blocks, bind_drive, compiled_step = engine._blocks, engine._bind_drive, engine.step_fn
    bind_block = engine._bind_block_drive

    def recorded_blocks(*args):
        made["blocks"].append(blocks(*args))
        return made["blocks"][-1]

    def counted_binder(*args):
        made["binders"] += 1
        return bind_drive(*args)

    def counted_block_binder(*args):
        made["ahead"] += 1
        return bind_block(*args)

    def recorded_step_fn(kind):
        step = compiled_step(kind)

        def recorded(state, drive, model, *, spikes=None):
            spikes_seen.append(spikes)
            return step(state, drive, model, spikes=spikes)

        return recorded

    monkeypatch.setattr(engine, "_blocks", recorded_blocks)
    monkeypatch.setattr(engine, "_bind_drive", counted_binder)
    monkeypatch.setattr(engine, "_bind_block_drive", counted_block_binder)
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
    assert (made["binders"], made["ahead"]) == (3, 1)
    (group,) = made["blocks"]
    assert [(first, stop) for first, stop, _ in group] == [(0, 1), (1, 3)]
    # the first block steps at ticks 1-20, the second at 2-22; the second's
    # active spans are layers 1, 1-2 and 2
    assert len(spikes_seen) == 41
    # all in one buffer, of every spiking layer's spikes
    assert len({id(s.base) for s in spikes_seen}) == 1
    assert spikes_seen[0].base.size == 5 + 5 + 3
    assert len({(s.ctypes.data, s.size) for s in spikes_seen}) == 4
    force_group_size(monkeypatch, net, 20, 2)
    run_dataset(net, samples)
    assert (made["binders"], made["ahead"]) == (3 + 2 * 3, 1 + 2 * 1)
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
    want = fresh(_max_pool, x, taps)
    stale = True if dtype is bool else np.inf
    out = np.full((4, *net.layers[0].output_shape), stale, dtype)
    rows = np.full(x[taps[0][0]].shape, stale, dtype)  # the column maximum
    assert _max_pool(x, taps, out, rows) is out
    assert out.dtype == want.dtype and out.tobytes() == want.tobytes()
    for p in range(4):  # a sample's slice, as a one-row group pools it
        assert _max_pool(x[p], taps, out[p], rows[p]).tobytes() == want[p].tobytes()


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
            got = fresh(_max_pool, x, taps)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            stale = True if dtype is bool else 7.0
            out = np.full(want.shape, stale, dtype)
            rows = np.full(x[taps[0][0]].shape, stale, dtype)
            assert _max_pool(x, taps, out, rows) is out
            assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("kh, kw", [(kh, kw) for kh in (1, 2, 3) for kw in (1, 2, 3)])
@pytest.mark.parametrize("sh, sw", [(sh, sw) for sh in (1, 2, 3) for sw in (1, 2, 3)])
def test_a_spike_pool_equals_the_window_max(kh, kw, sh, sw):
    # the step loop's pool ORs each window's rows over whole input rows and
    # then its columns, by one uint16 test where kw == sw == 2 and by
    # strided ORs otherwise: bitwise the window max over odd and even maps,
    # for one row and three, through buffers bound once and written again
    rng = np.random.default_rng(10 * kh + kw + 100 * (10 * sh + sw))
    for shape in ((2, 7, 9), (2, 8, 10)):
        net = NetworkBuilder(shape).max_pool((kh, kw), stride=(sh, sw)).flatten().dense(2, lif())
        layer = net.build().layers[0]
        for rows in (1, 3):
            x = np.empty((rows, *shape), bool)
            out = np.ones((rows, *layer.output_shape), bool)  # stale spikes
            pool = engine._bind_spike_pool(layer, x, out)
            for density in (0.3, 0.05, 0.9):
                x[...] = rng.random(x.shape) < density
                pool()
                want = np.stack([window_view(row, layer).max(axis=(-2, -1)) for row in x])
                assert out.dtype == want.dtype and out.tobytes() == want.tobytes()


def test_the_static_stage_pools_floats_and_the_step_loop_pools_spikes(monkeypatch):
    # _max_pool keeps the floats of the static stage, whose NaNs and signed
    # zeros need its order; the step loop binds its pools of spikes
    pooled, bound = [], []
    max_pool, bind = engine._max_pool, engine._bind_spike_pool
    monkeypatch.setattr(
        engine, "_max_pool", lambda x, *args: pooled.append(x.dtype) or max_pool(x, *args)
    )
    monkeypatch.setattr(
        engine, "_bind_spike_pool",
        lambda layer, x, out: bound.append((x.dtype, out.dtype)) or bind(layer, x, out),
    )
    rng = np.random.default_rng(12)
    net = (
        NetworkBuilder((1, 10, 10), coding=Coding.RATE, max_timesteps=6)
        .conv2d(2, (3, 3), ANN, weights=rng.normal(0.3, 0.2, 18))
        .max_pool((2, 2))  # static: floats
        .conv2d(3, (2, 2), lif(), weights=rng.normal(0.5, 0.3, 24))
        .max_pool((2, 2), stride=(1, 1))  # stepped: spikes
        .flatten()
        .dense(2, lif())
        .build()
    )
    run_inference(net, encode(rng.uniform(0.0, 1.0, (1, 10, 10))))
    assert pooled == [np.dtype(np.float64)]
    assert bound == [(np.dtype(bool), np.dtype(bool))]


@pytest.mark.parametrize("width", [1, 65535, 65536])
def test_byte_counts_equal_count_nonzero(width):
    # a group's counts sum the spike bytes into uint16, or into uint32 from
    # rows of 65,536 on, where a row of all spikes would wrap a uint16
    rng = np.random.default_rng(width)
    for lead in ((3,), (2, 3)):  # a group's rows, and a block's (step, row) pairs
        spikes = np.ones((*lead, width), bool)
        count = engine._bind_counts(spikes)
        assert np.array_equal(count(), np.count_nonzero(spikes, axis=-1))
        spikes[...] = rng.random(spikes.shape) < 0.5  # the bound buffer, written again
        spikes[..., 0, :] = False
        assert np.array_equal(count(), np.count_nonzero(spikes, axis=-1))


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


def spike_fed(net):
    """Layer 0 of ``net`` compiled, holding the input-major weights that a
    spike input reads: the compile leaves the weights of a first spiking
    dense-like layer to its input."""
    rt = _compile(net)[0]
    return rt if rt.weights is not None else replace(rt, weights=weight_tensor(net, 0))


def drive_case(kind, rng, dyadic):
    """The (neurons, inputs) weights of a one-layer net of ``kind``, as the
    engine holds them (the recurrent term's for ``recurrent``), and the
    layer's plan for float inputs (``None`` for ``recurrent``, whose term
    only ever takes spikes)."""

    def weights(shape):  # as stored: float32
        if dyadic:
            return rng.integers(-16, 17, shape) / 8
        return rng.normal(0.0, 0.3, shape).astype(np.float32).astype(np.float64)

    if kind in ("dense", "small dense"):  # above and below _EVENT_MIN_WEIGHTS
        n_in = int(rng.integers(130, 300))
        n_out = int(rng.integers(1, 50) if kind == "small dense" else rng.integers(128, 200))
        w = weights((n_out, n_in))
        net = NetworkBuilder((n_in,)).dense(n_out, lif(), weights=w).build()
        return w, _step_plan(spike_fed(net))
    if kind == "locally_connected":
        geometry = NetworkBuilder((2, 12, 12)).locally_connected(4, (3, 3), lif())
        mask = lcl_mask(geometry.build().layers[0])
        w = weights(mask.shape) * mask
        net = (
            NetworkBuilder((2, 12, 12))
            .locally_connected(4, (3, 3), lif(), weights=w)
            .build()
        )
        return w, _step_plan(spike_fed(net))
    n = int(rng.integers(130, 200))
    w = weights((n, n))
    net = (
        NetworkBuilder((3,))
        .recurrent_dense(n, lif(), weights=weights((n, 3)), recurrent_weights=w)
        .build()
    )
    return w, None


def lone_drive(w, x):
    """The drive of spikes ``x`` through ``w``'s binder in a group of one."""
    out = np.empty((1, w.shape[0]))
    _bind_drive(None, w, x[None], out)(np.array([np.count_nonzero(x)]), [0])
    return out[0]


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
    # spikes through the binder; floats through the plan, where there is one
    cases = [(x, lone_drive(w, x))]
    if drive is not None:
        cases.append((analog, fresh(drive, analog, len(w))))
    for inputs, got in cases:
        expected = w @ inputs.astype(np.float64)
        assert got.shape == expected.shape
        if dyadic:
            assert np.array_equal(got, expected)
        else:
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
    if not x.any():
        assert not np.signbit(cases[0][1]).any()  # +0.0, not -0.0


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
    # a plan (a convolution's, or a float input's) writes into ``out`` what
    # it returns without it; a dense-like binder writes a group row of
    # stale values as it writes a fresh buffer
    rng = np.random.default_rng(16)
    if kind == "conv":
        shape = (3, 9, 11)
        net = (
            NetworkBuilder(shape)
            .conv2d(4, (3, 2), lif(), stride=(2, 1), padding=1,
                    weights=rng.normal(0.0, 0.3, 72))
            .build()
        )
        rt = _compile(net)[0]
        plan, size = _step_plan(rt), rt.neurons
    else:
        w, plan = drive_case(kind, rng, dyadic=False)
        shape, size = (w.shape[1],), len(w)
    if count == "float":
        x = rng.normal(size=shape)
    elif kind == "conv":
        x = rng.random(shape) < count
    else:
        x = spike_vector(rng, shape[0], count)
    by_plan = kind == "conv" or count == "float"
    want = fresh(plan, x, size) if by_plan else lone_drive(w, x)
    # a row of a larger buffer, as a group writes it; without spikes the
    # drive must overwrite a -0.0 with +0.0
    buf = np.full((3, want.size), np.nan if x.any() else -0.0)
    if by_plan:
        got = plan(x, out=buf[1])
        assert np.shares_memory(got, buf[1])
    else:  # row 1 of a group whose rows 0 and 2 have left
        group = np.zeros((3, *shape), bool)
        group[1] = x
        _bind_drive(None, w, group, buf)(group.sum(axis=1), [1])
    assert buf[1].tobytes() == want.tobytes()
    assert np.isnan(buf[[0, 2]]).all() or not x.any()
    if not x.any():
        assert not np.signbit(buf[1]).any()


@pytest.mark.parametrize(
    "kind", ["dense", "small dense", "locally_connected", "recurrent", "conv"]
)
def test_a_group_drive_equals_each_row_alone(kind):
    # a group writes the drive of each row still stepping: an event-driven
    # matrix or a convolution skips a row without spikes, a small matrix of
    # exact sums takes one product of the live rows, and a row that has left
    # keeps what it holds
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
        w, plan = drive_case(kind, rng, dyadic=False)[0], None
        x = rng.random((5, w.shape[1])) < 0.05
        n_out = w.shape[0]
    x[1] = False
    x.reshape(5, -1)[3, 0] = True
    out = np.full((5, n_out), -0.0)
    out[3] = np.nan
    live = [0, 1, 2, 4]
    called = []

    def recorded(x, out):
        called.append(x)
        return plan(x, out)

    _bind_drive(recorded if plan else None, w, x, out)(x.reshape(5, -1).sum(axis=1), live)
    for p in live:
        if p == 1:  # +0.0, whatever sign of zero a product would have
            assert out[p].tobytes() == np.zeros(n_out).tobytes()
        elif plan is not None:
            assert out[p].tobytes() == fresh(plan, x[p], n_out).tobytes()
        else:
            assert out[p].tobytes() == lone_drive(w, x[p]).tobytes()
    # the silent row is not summed: the plan never sees its input
    assert not any(np.shares_memory(a, x[1]) for a in called)
    assert np.isnan(out[3]).all()


def wide_weights(rng, shape):
    """Float32-rounded normals, scaled over a range of exponents wider than a
    float64's mantissa, so that their sums round, and another summation
    order shows."""
    return (rng.normal(0.0, 0.3, shape) * 2.0 ** rng.integers(-40, 40, shape)).astype(
        np.float32
    )


def small_matrix(kind, rng):
    """A small dense or recurrent matrix of :func:`wide_weights` as the
    engine holds it, under ``_EVENT_MIN_WEIGHTS`` weights."""
    n = int(rng.integers(20, 120))
    if kind == "dense":
        m = int(rng.integers(2, 40))
        net = NetworkBuilder((n,)).dense(m, lif(), weights=wide_weights(rng, (m, n))).build()
        w = spike_fed(net).weights
    else:
        builder = NetworkBuilder((3,)).recurrent_dense(
            n, lif(), weights=wide_weights(rng, (n, 3)),
            recurrent_weights=wide_weights(rng, (n, n)),
        )
        w = _compile(builder.build())[0].rec_weights
    assert w.size <= _EVENT_MIN_WEIGHTS
    return w


def block_sums(w, spikes):
    """The drive of ``spikes`` through ``w`` by one ``np.dot`` of ones with
    the gathered rows of ``w.T`` per 64-row block, added left to right."""
    idx = np.flatnonzero(spikes)
    total = np.zeros(w.shape[0])  # +0.0 without spikes
    for k in range(0, idx.size, 64):
        block = idx[k : k + 64]
        block_sum = np.dot(np.ones(block.size), w.T.take(block, axis=0))
        total = block_sum if k == 0 else total + block_sum
    return total


#: spikes per row: none, one, and either side of one and of two 64-row blocks
EDGE_COUNTS = [129, 64, 0, 65, 1, 63, 128, 300, 127, 200, 70, 130, 2, 40]


@pytest.mark.parametrize("rows", [1, 2, 14])
def test_each_row_sums_its_spiking_rows_in_64_row_blocks(rows):
    rng = np.random.default_rng(24 + rows)
    n_in, n_out = 300, 96
    net = NetworkBuilder((n_in,)).dense(
        n_out, lif(), weights=wide_weights(rng, (n_out, n_in))
    ).build()
    w = spike_fed(net).weights
    assert w.size > _EVENT_MIN_WEIGHTS
    x = np.stack([spike_vector(rng, n_in, count) for count in EDGE_COUNTS[:rows]])
    counts = x.sum(axis=1)
    assert counts.tolist() == EDGE_COUNTS[:rows]
    for live in (list(range(rows)), list(range(0, rows, 3)), list(range(1, rows, 2))):
        out = np.full((rows, n_out), np.nan)
        _bind_drive(None, w, x, out)(counts, live)
        for p in range(rows):
            if p in live:
                assert out[p].tobytes() == block_sums(w, x[p]).tobytes()
            else:  # a row that has left keeps its bytes
                assert np.isnan(out[p]).all()


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


def test_the_exact_sum_check_passes_float32_values_of_a_narrow_range():
    rng = np.random.default_rng(31)
    w = rng.normal(0.0, 0.3, (96, 300)).astype(np.float32).astype(np.float64)
    assert _exact_sums(w) and _exact_sums(np.asfortranarray(w))
    assert _exact_sums(np.zeros((5, 7))) and _exact_sums(np.full((3, 4), -0.0))
    # 64 ones and a weight of 2**-k: the lowest bit is 2**-(k + 23), and the
    # sums are exact while 64 < 2**53 * 2**-(k + 23), that is for k < 24
    for k, exact in ((23, True), (24, False)):
        edge = np.zeros((2, 64))
        edge[0] = 1.0
        edge[1, 5] = -(2.0**-k)
        assert _exact_sums(edge) is exact


def test_the_exact_sum_check_fails_wide_subnormal_and_float64_weights():
    rng = np.random.default_rng(32)
    assert not _exact_sums(wide_weights(rng, (96, 300)).astype(np.float64))
    # one float32 subnormal among normals puts the lowest bit at 2**-149
    w = rng.normal(0.0, 0.3, (20, 30)).astype(np.float32)
    w[3, 4] = np.float32(1e-40)
    assert not _exact_sums(w.astype(np.float64))
    # a weight that is no float32 value
    w = w.astype(np.float64)
    w[3, 4] = 0.1
    assert not _exact_sums(w)
    # dense_poisson_roc's layer 1, drawn as benchmarks/workloads.py draws it:
    # its sums need 53.8 bits
    rng = np.random.default_rng(102)
    rng.normal(0.0, 0.003, 512 * 784)
    w = rng.normal(0.0, 0.003 * np.sqrt(784 / 512), (512, 512)).astype(np.float32)
    assert not _exact_sums(np.asfortranarray(w, dtype=np.float64))


#: spikes per row: none, one, either side of one 64-row block, and two blocks
PRODUCT_COUNTS = (130, 0, 1, 64, 65)


@pytest.mark.parametrize("rows", [2, 14, 38])
@pytest.mark.parametrize("n_in, n_out", [(140, 100), (256, 96)])
def test_a_group_of_exact_sums_drives_its_live_rows_by_one_product(n_in, n_out, rows):
    # a small matrix takes the product at every tick, a larger one when the
    # live rows spiked more than half its inputs; each live row gets a lone
    # run's bytes, a silent one +0.0 (the matrix holds -0.0 weights), and a
    # row that has left, or failed and was zeroed, keeps its bytes
    rng = np.random.default_rng(40 + rows)
    w = rng.normal(0.0, 0.3, (n_out, n_in)).astype(np.float32)
    w[rng.random(w.shape) < 0.1] = -0.0
    net = NetworkBuilder((n_in,)).dense(n_out, lif(), weights=w).build()
    weights = spike_fed(net).weights
    small = weights.size <= _EVENT_MIN_WEIGHTS
    assert small == (n_in == 140) and _exact_sums(weights)
    assert np.signbit(weights[weights == 0]).any()
    counts = [PRODUCT_COUNTS[p % 5] for p in range(rows)]
    x = np.stack([spike_vector(rng, n_in, c) for c in counts])
    failed = rows - 1  # zeroed when it failed, and no longer live
    quiet = [p for p in range(rows) if counts[p] <= 1]  # too few spikes for a large matrix
    for live in (list(range(rows)), list(range(0, failed, 3)), list(range(failed)), quiet):
        asked = []
        out = np.full((rows, n_out), np.nan)
        out[failed] = 0.0
        drive = _bind_drive(None, weights, x, out, lambda: asked.append(1) or True)
        for _ in range(2):
            drive(np.array(counts), live)
        assert asked == ([1] if small or live != quiet else [])
        for p in range(rows):
            if p in live:
                assert out[p].tobytes() == lone_drive(weights, x[p]).tobytes()
            elif p == failed:
                assert out[p].tobytes() == np.zeros(n_out).tobytes()
            else:
                assert np.isnan(out[p]).all()
        assert not np.signbit(out[[p for p in live if not counts[p]]]).any()


def test_the_sum_check_runs_once_per_matrix_and_spec_and_only_for_a_product(monkeypatch):
    # a lone run asks only for its Poisson-fed first layer, which a block of
    # steps ahead would drive by the product, and once per spec; a dataset
    # asks once per matrix that some tick would drive by the product, and a
    # second dataset on the spec not again
    rng = np.random.default_rng(33)
    net = (
        NetworkBuilder((200,), coding=Coding.RATE, max_timesteps=8)
        .dense(150, lif(), weights=rng.normal(0.02, 0.05, (150, 200)))  # above the floor
        .dense(10, lif(), weights=rng.normal(0.05, 0.1, (10, 150)))  # below it
        .build()
    )
    asked, check = [], engine._exact_sums
    monkeypatch.setattr(engine, "_exact_sums", lambda w: asked.append(w.shape) or check(w))
    samples = [encode(rng.uniform(0.6, 1.0, 200), "poisson", seed=s) for s in range(6)]
    lone = [run_inference(net, sample) for sample in samples]
    assert asked == [(150, 200)]
    force_group_size(monkeypatch, net, 8, 3)
    for _ in range(2):
        stats = run_dataset(net, samples)
        assert asked == [(150, 200), (10, 150)]
        assert [o.T_used for o in stats.outcomes] == [r.trace.T_used for r in lone]


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
    # the input decides the first spiking layer's form: spikes read this one
    assert rt.weights is None and rt.rec_weights.T.flags.c_contiguous
    assert spike_fed(net).weights.T.flags.c_contiguous


def test_event_drive_temporary_is_bounded_by_the_row_block():
    net = NetworkBuilder((784,)).dense(512, lif(), weights=np.full((512, 784), 0.125)).build()
    x = np.ones((1, 784), bool)
    out = np.empty((1, 512))
    drive = _bind_drive(None, spike_fed(net).weights, x, out)
    counts = np.array([784])
    drive(counts, [0])
    tracemalloc.start()
    try:
        drive(counts, [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out[0], np.full(512, 98.0))
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
# the row-blocked drive of an analog-fed first layer

#: the sweep of :func:`test_row_blocks_sum_as_the_whole_product`, run in a
#: fresh process so that OpenBLAS starts at the thread count it is given
ROW_BLOCK_SWEEP = """
import numpy as np
from emacprof import NetworkBuilder, NeuronKind, NeuronModelSpec, engine
from emacprof.netspec import weight_tensor

rng = np.random.default_rng(29)
ifl = NeuronModelSpec(kind=NeuronKind.IFL)


def wide(shape):  # float32-rounded normals over 2**-40 to 2**40, as wide_weights
    return (rng.normal(0.0, 0.3, shape) * 2.0 ** rng.integers(-40, 40, shape)).astype(
        np.float32
    )


found = []
for rows in range(64, 1025, 64):
    for n_in in (1, 3, 100, 784, 1352):
        w = wide((rows, n_in))
        net = NetworkBuilder((n_in,)).dense(rows, ifl, weights=w).build()
        weights = weight_tensor(net, 0, rows=engine._row_block(rows))
        blocked = rows > 128 and rows % 128 == 0
        if weights.shape[:-1] != ((rows // 128, 128) if blocked else (rows,)):
            found.append((rows, n_in, "blocks", weights.shape))
        # rows 0 and 2 of a group whose row 1 has left
        x = wide((3, n_in)).astype(np.float64)
        out = np.full((3, rows), np.nan)
        engine._bind_static_drive(None, weights, x, out)([0, 2])
        whole = np.asfortranarray(w, dtype=np.float64)
        for k in (0, 2):
            if out[k].tobytes() != np.dot(whole, x[k]).tobytes():
                found.append((rows, n_in, "row", k))
        if not np.isnan(out[1]).all():
            found.append((rows, n_in, "left row written"))
print(found)
"""


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_row_blocks_sum_as_the_whole_product(threads):
    # every live row of a blocked layer's drive is bitwise the product
    # np.dot(W, x) of the whole column-major matrix at the same OpenBLAS
    # thread count, at every multiple of 64 rows up to 1,024, and a layer
    # of a multiple of 128 rows above 128 takes blocks of 128 rows
    src = Path(engine.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": str(threads)}
    done = subprocess.run(
        [sys.executable, "-c", ROW_BLOCK_SWEEP], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def blocked_net(static):
    """An analog-fed LIF layer of 256 neurons (two row blocks) on 60 inputs,
    of wide weights, and an LIF head; with ``static``, after a rectifier
    layer of weights 1e38 on 8 inputs, whose sums leave the float range on
    inputs of 1e300."""
    rng = np.random.default_rng(30)
    builder = NetworkBuilder((60,) if not static else (8,), coding=Coding.RATE,
                             max_timesteps=12)
    if static:
        builder.dense(60, ANN, weights=np.full((60, 8), 1e38) * rng.uniform(0.0, 1.0, (60, 8)))
    w = wide_weights(rng, (256, 60)) * 2.0**-30
    return (
        builder.dense(256, lif(), weights=w)
        .dense(10, lif(), weights=rng.normal(0.05, 0.1, (10, 256)))
        .build()
    )


@pytest.mark.parametrize("static", [False, True])
def test_a_blocked_layer_runs_alike_in_any_group_and_as_one_block(monkeypatch, static):
    # run_inference and run_dataset at every group size agree bitwise, and
    # with a run whose layer takes the whole product in one block
    net = blocked_net(static)
    index = 1 if static else 0
    assert engine._row_block(net.layers[index].output_shape[0]) == 128
    rng = np.random.default_rng(31)
    scale = 1e-38 if static else 1.0
    samples = [encode(rng.uniform(0.0, 2.0, net.input_shape) * scale) for _ in range(5)]
    alone = [run_inference(net, s, record_raster=True) for s in samples]
    assert len(weight_tensor(net, index, rows=128)) == 2
    assert any(r.trace.counts[index].any() for r in alone)
    with monkeypatch.context() as mp:
        mp.setattr(engine, "_row_block", lambda neurons: None)
        twin = blocked_net(static)
        for sample, want in zip(samples, alone):
            assert_same_result(run_inference(twin, sample, record_raster=True), want)
        assert list(twin.weights._float64[f"l{index}_w"]) == [(256, 60)]
        force_group_size(mp, twin, 12, 1)
        whole = run_dataset(twin, samples)
    for size in (1, 2, 3, 5):
        force_group_size(monkeypatch, net, 12, size)
        assert run_dataset(net, samples) == whole
    assert whole.outcomes == [SampleOutcome(r.trace.T_used, r.decision) for r in alone]


def test_a_static_failure_in_a_blocked_group_fails_alone(monkeypatch):
    net = blocked_net(static=True)
    rng = np.random.default_rng(32)
    good = [encode(rng.uniform(0.0, 1e-38, 8)) for _ in range(2)]
    worst = encode(np.full(8, 1e300))
    message = "layer 0 produced non-finite values in the static stage"
    with pytest.raises(NonFiniteState, match=f"^{message}$"):
        run_inference(net, worst)
    force_group_size(monkeypatch, net, 12, 3)
    stats = run_dataset(net, [good[0], worst, good[1]])
    assert stats.failures == [(1, message)]
    for k, sample in ((0, good[0]), (2, good[1])):
        assert stats.outcomes[k] == SampleOutcome(
            run_inference(net, sample).trace.T_used, run_inference(net, sample).decision
        )


def test_an_analog_run_keeps_the_row_blocks_alone():
    # a parsed spec that ran under an analog input holds the blocked layer as
    # row blocks only, 8 bytes a weight, and has freed its container; a
    # Poisson run of the same spec adds the input-major form: two read-only
    # forms of one block
    net = parse_network(*serialize_network(blocked_net(static=False)))
    sample = np.random.default_rng(33).uniform(0.0, 1.0, 60)
    run_inference(net, encode(sample))
    blocks = net.weights._float64
    assert not net.weights._float32
    assert {name: list(forms) for name, forms in blocks.items()} == {
        "l0_w": [(2, 128, 60)], "l1_w": [(10, 256)]
    }
    assert sum(f.nbytes for forms in blocks.values() for f in forms.values()) == 8 * (
        256 * 60 + 10 * 256
    )
    first = weight_tensor(net, 0, rows=128)
    assert all(block.flags.f_contiguous for block in first)
    assert np.array_equal(net.weights["l0_w"].reshape(256, 60), first.reshape(256, 60))
    run_inference(net, encode(sample, "poisson", seed=1))
    assert list(blocks["l0_w"]) == [(2, 128, 60), (256, 60)]
    for form in blocks["l0_w"].values():
        assert not form.flags.writeable
        with pytest.raises(ValueError):
            form.setflags(write=True)
    assert np.array_equal(weight_tensor(net, 0), first.reshape(256, 60))


def test_a_dataset_builds_the_first_layer_form_after_one_input(monkeypatch):
    # run_dataset takes the blocked layer's row blocks from the spec as soon
    # as it has read the first sample, before the rest of its group, once
    net = blocked_net(static=False)
    rng = np.random.default_rng(34)
    lazy = LoadedOnRead(lambda k: encode(rng.uniform(0.0, 1.0, 60)), 6)
    built, weight_tensor_ = [], engine.weight_tensor

    def recorded(net, index, rows=None):
        if index == 0 and "l0_w" not in net.weights._float64:  # the first build
            built.append((rows, len(lazy.reads)))
        return weight_tensor_(net, index, rows=rows)

    monkeypatch.setattr(engine, "weight_tensor", recorded)
    force_group_size(monkeypatch, net, 12, 3)
    run_dataset(net, lazy)
    assert built == [(128, 1)]
    assert list(net.weights._float64["l0_w"]) == [(2, 128, 60)]


# ---------------------------------------------------------------------------
# lockstep sample groups


def force_group_size(monkeypatch, net, t_max, size):
    """Make ``run_dataset`` run ``net`` at step budget ``t_max`` in groups of ``size``.

    The group size is patched, not the budget: a network's weight term can
    exceed any state budget set small enough for a small size.
    """
    rt = netspec.derived(net, _compile)  # the compile run_dataset reuses

    def sized(compiled, budget):
        assert compiled is rt and budget == t_max
        return size

    monkeypatch.setattr(engine, "_group_size", sized)


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


def static_net(kernels, dense_w):
    """A rectifier convolution (layer 0), a 2x2 pool (1), a flatten (2) and
    a rectifier dense head (3): a network that is all static stage."""
    return (
        NetworkBuilder((1, 6, 6), coding=Coding.RATE, max_timesteps=8)
        .conv2d(2, (3, 3), ANN, weights=kernels)
        .max_pool((2, 2))
        .flatten()
        .dense(3, ANN, weights=dense_w)
        .build()
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("layer", ["conv", "pool", "dense"])
def test_a_static_layer_that_makes_a_non_finite_value_is_named(monkeypatch, layer, bad):
    # the layer whose output first holds a NaN or a +inf fails its sample,
    # alone and in a group of 3 whose other samples run as they do alone.
    # Whether a BLAS sum of +inf and -inf products is NaN depends on its
    # order, so the layer here writes the value itself, for the one sample
    # whose input to it exceeds 50.
    index = {"conv": 0, "pool": 1, "dense": 3}[layer]

    def making(fn):
        def made(x, *args):
            got = fn(x, *args)
            if x.max() > 50:
                got.flat[-1] = bad
            return got

        return made

    if layer == "pool":
        monkeypatch.setattr(engine, "_max_pool", making(engine._max_pool))
    else:
        plan = engine._step_plan
        monkeypatch.setattr(
            engine, "_step_plan", lambda r: making(plan(r)) if r.index == index else plan(r)
        )
    message = f"layer {index} produced non-finite values in the static stage"
    net = static_net(np.full(18, 0.5), np.full((3, 8), 0.25))
    rng = np.random.default_rng(index)
    good = [encode(rng.uniform(0.0, 1.0, (1, 6, 6))) for _ in range(2)]
    worst = encode(np.full((1, 6, 6), 100.0))  # 450 after the convolution
    with pytest.raises(NonFiniteState, match=f"^{message}$"):
        run_inference(net, worst)
    force_group_size(monkeypatch, net, 8, 3)
    stats = run_dataset(net, [good[0], worst, good[1]])
    assert stats.failures == [(1, message)]
    for k, sample in ((0, good[0]), (2, good[1])):
        assert stats.outcomes[k] == SampleOutcome(1, run_inference(net, sample).decision)


def test_a_static_stage_whose_squares_overflow_runs(monkeypatch):
    # finite values of about 1e160, whose sums of squares leave the float
    # range at every static layer, fail nothing; dyadic weights and inputs
    # keep every sum exact, so the head equals the reference bitwise
    rng = np.random.default_rng(43)
    kernels = rng.integers(1, 5, (2, 1, 3, 3)) / 8
    dense_w = rng.integers(-4, 5, (3, 8)) / 8
    net = static_net(kernels, dense_w)

    def head(x):
        windows = sliding_window_view(x[0], (3, 3))  # (4, 4, 3, 3)
        conv = np.maximum(np.einsum("cij,yxij->cyx", kernels[:, 0], windows), 0.0)
        pooled = conv.reshape(2, 2, 2, 2, 2).max(axis=(2, 4))
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.dot(conv.reshape(-1), conv.reshape(-1)))
        return np.maximum(dense_w @ pooled.reshape(-1), 0.0)

    samples = [encode(rng.integers(1, 9, (1, 6, 6)) / 8 * 2.0**530) for _ in range(3)]
    force_group_size(monkeypatch, net, 8, 3)
    stats = run_dataset(net, samples)
    assert stats.failures == []
    for sample, outcome in zip(samples, stats.outcomes):
        res = run_inference(net, sample)
        assert np.array_equal(res.output_voltages[:, 0], head(sample.values))
        assert outcome == SampleOutcome(1, res.decision)


def test_a_rectifier_drive_that_overflows_to_minus_inf_fails():
    # alternating +-2**100 weights on 4.5e300 inputs: every product
    # overflows, and this BLAS sums the infinities of each row to -inf
    # (other orders give NaN), which the maximum would rectify into 0.0; the
    # layer is checked before it, so the sample fails instead of deciding
    # on a head of zeros
    w = np.tile([2.0**100, -(2.0**100)], (3, 4))
    net = (
        NetworkBuilder((8,), coding=Coding.RATE, max_timesteps=8)
        .dense(3, ANN, weights=w)
        .build()
    )
    sample = encode(np.full(8, 4.5e300))
    message = "layer 0 produced non-finite values in the static stage"
    with pytest.raises(NonFiniteState, match=f"^{message}$"):
        run_inference(net, sample)
    stats = run_dataset(net, [encode(np.full(8, 0.5)), sample])
    assert stats.failures == [(1, message)]
    assert stats.n_ok == 1


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
    # per sample: the group's one state, drive and spike buffer, the
    # histories, the recurrent term, the float64 operands of the stacked
    # products and the encoded input, as a group allocates them, and
    # whichever adds more of the Poisson input block with the first layer's
    # operand and drives, at each step of a block ahead, or the analog drive
    # with the static output it is taken from; a group is sized as if its
    # block ahead took one step, and the block takes what the rest holds
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
    assert len(engine._blocks(spiking)) == 2
    compiled_step, bind_static = engine.step_fn, engine._bind_static_drive
    bind_block = engine._bind_block_drive

    def allocated(samples):
        """The arrays stepping ``samples`` as one group allocates: the state
        buffers, the histories, and what each spike binder (and the static
        drive) reads and writes."""
        # every block step views the group's buffers: the arrays they view
        # are what the group allocates
        buffers = {}

        def recorded_step_fn(kind):
            step = compiled_step(kind)

            def recorded(state, drive, model, *, spikes=None):
                for a in (*vars(state).values(), drive, spikes):
                    buffers[id(a.base)] = a.base
                return step(state, drive, model, spikes=spikes)

            return recorded

        # and every binder reads an input and writes a drive or a term
        binders, static = [], []

        def recorded_bind(plan, weights, x, out, *exact):
            binders.append((weights, x, out))
            return _bind_drive(plan, weights, x, out, *exact)

        def recorded_block(weights, x, out):
            binders.append((weights, x, out))
            return bind_block(weights, x, out)

        def recorded_static(plan, weights, x, out):
            static.append((x, out))
            return bind_static(plan, weights, x, out)

        with monkeypatch.context() as mp:
            mp.setattr(engine, "step_fn", recorded_step_fn)
            mp.setattr(engine, "_bind_drive", recorded_bind)
            mp.setattr(engine, "_bind_static_drive", recorded_static)
            mp.setattr(engine, "_bind_block_drive", recorded_block)
            run = engine._step_group(
                net, rt, samples, 0, T_max=10, coding=Coding.ROC, record_raster=False,
            )
        history = sum(a.nbytes for a in (run.ledger, run.spikes, run.volts))
        return buffers, history, binders, static

    def extra(samples, buffers, binders, static):
        """Bytes beyond the state and the histories, and their sizes."""
        operands = sum(8 * x.size for _, x, _ in binders)
        owners = [a if a.base is None else a.base for _, x, out in binders for a in (x, out)]
        owners += [a for pair in static for a in pair]
        held = list({id(a): a for a in owners if id(a) not in buffers}.values())
        sizes = sorted(a.nbytes for a in held)
        return sum(sizes) + operands + sum(s.values.nbytes for s in samples), sizes

    def per_sample(mode, rows, binder_count, sizes):
        """What one row of a group of ``rows`` holds."""
        samples = [encode(rng.uniform(0.0, 1.0, 12), mode, seed=k) for k in range(rows)]
        buffers, history, binders, static = allocated(samples)
        assert len(buffers) == 6
        state = sum(a.nbytes for a in buffers.values())
        assert state == rows * engine._NEURON_STATE_BYTES * sum(r.neurons for r in spiking)
        # every matrix here is small, so each binder casts its input to
        # float64; an analog input feeds the first layer through no binder
        assert len(binders) == binder_count
        assert all(w.size <= _EVENT_MIN_WEIGHTS for w, _, _ in binders)
        assert len(static) == (mode == "analog")
        more, held = extra(samples, buffers, binders, static)
        assert held == [rows * size for size in sizes]
        total = state + history + more
        assert total % rows == 0
        return total // rows

    # a block ahead of 10 steps (the step budget) in a group of up to 6
    # rows, of 8 in one of 8, where the group budget holds them: the Poisson
    # spikes, their drives and the term, or the term, the analog drive and
    # the static output
    ten = per_sample("poisson", 1, 5, [40, 120, 720])
    assert per_sample("poisson", 5, 5, [40, 120, 720]) == ten
    assert per_sample("analog", 1, 4, [40, 72, 96]) < ten
    eight = per_sample("poisson", 8, 5, [40, 96, 576])
    # each step of a block holds its input spikes, their float64 operand and
    # the drives: a row with a block of one step holds ``one``
    step = (ten - eight) // 2
    assert step == 12 + 8 * 12 + 8 * 9
    one = eight - 7 * step
    # a group is sized as if its block took one step ...
    for size in (1, 2, 5):
        monkeypatch.setattr(engine, "_GROUP_STATE_BYTES", size * one)
        assert _group_size(rt, 10) == size
        # ... and then allocates that, the whole budget
        assert per_sample("poisson", size, 5, [12, 40, 72]) == one
        monkeypatch.setattr(engine, "_GROUP_STATE_BYTES", (size + 1) * one - 1)
        assert _group_size(rt, 10) == size
    # ... and its block takes the steps the rest of the budget holds: at
    # most ten, and what five rows' budget holds beyond one step each
    for budget, steps in ((5 * (one + 3 * step), 4), (5 * (one + 3 * step) - 1, 3)):
        monkeypatch.setattr(engine, "_GROUP_STATE_BYTES", budget)
        assert _group_size(rt, 10) >= 5
        sizes = sorted([40, 12 * steps, 72 * steps])
        assert 5 * per_sample("poisson", 5, 5, sizes) == 5 * (one + (steps - 1) * step) <= budget
    monkeypatch.setattr(engine, "_GROUP_STATE_BYTES", 5 * (one + 20 * step))
    assert per_sample("poisson", 5, 5, [40, 120, 720]) == ten


def test_large_weights_raise_the_group_budget(monkeypatch):
    dense = (
        NetworkBuilder((2048,), coding=Coding.ROC, max_timesteps=128)
        .dense(512, ifl(spike_once=True))
        .dense(10, ifl(spike_once=True))
        .build()
    )
    rt = _compile(dense)
    weight_bytes = sum(weight_tensor(dense, i).nbytes for i in range(2))
    # the float32 bytes the compile released, half the float64 ones
    assert weight_bytes // 2 > engine._GROUP_STATE_BYTES
    size = _group_size(rt, 128)
    # what a row costs, read off a budget that dwarfs the weights
    monkeypatch.setattr(engine, "_GROUP_STATE_BYTES", 1 << 60)
    row = (1 << 60) // _group_size(rt, 128)
    monkeypatch.undo()
    # the 256 KiB floor alone holds fewer samples
    assert size == weight_bytes // 2 // row > engine._GROUP_STATE_BYTES // row >= 1
    # a long step budget still shrinks the group
    assert _group_size(rt, 4096) < size


def test_small_weight_networks_keep_their_groups():
    # a group is sized as if a block ahead took one step, so networks of
    # small weights keep the groups they had without one (their shapes are
    # those of tools/same_reports.py), while the dense reference workload
    # still runs its 16 samples as one group in blocks of 4 steps, and a
    # lone run takes blocks of 16
    def stack(shape, t_max, *layers, coding=Coding.RATE):
        builder = NetworkBuilder(shape, coding=coding, max_timesteps=t_max)
        for layer, *args in layers:
            getattr(builder, layer)(*args)
        return builder.build()

    nets = {
        "block_edge_net": (12, stack(
            (256,), 32, ("dense", 160, lif()), ("dense", 112, lif()), ("dense", 10, lif()))),
        "ahead_stack": (24, stack((784,), 64, ("dense", 256, ifl(6.0)), ("dense", 10, ifl(6.0)))),
        "ahead_recurrent": (16, stack(
            (1, 14, 14), 32, ("flatten",), ("recurrent_dense", 128, lif()), ("dense", 10, lif()))),
        "ahead_local": (16, stack(
            (2, 12, 12), 32, ("locally_connected", 4, (3, 3), lif()), ("flatten",),
            ("dense", 10, lif()))),
        "wide_weight_stack": (26, stack(
            (784,), 32, ("dense", 256, ifl()), ("dense", 256, ifl()), ("dense", 10, ifl()))),
    }
    for name, (size, net) in nets.items():
        rt = _compile(net)
        assert engine._ahead_layer(rt) is not None
        assert _group_size(rt, net.max_timesteps) == size, name
    dense = stack(
        (784,), 128, *[("dense", n, ifl(spike_once=True)) for n in (512, 512, 256, 256, 10)],
        coding=Coding.ROC,
    )
    rt = _compile(dense)
    assert _group_size(rt, 128) >= 16
    assert engine._ahead_steps(rt, 16, 128) == 4
    assert engine._ahead_steps(rt, 1, 128) == 16


# ---------------------------------------------------------------------------
# a first layer driven a block of steps ahead


def ahead_net(kind, t_max, coding, overflow=False):
    """A Poisson-fed stack whose first spiking layer, of ``kind``, sums
    exactly and so is driven a block of steps ahead, then an IFL layer and an
    IFL head; with ``overflow``, the head's bias of 1e306 takes its voltage
    past the float range at step 26, whatever the input."""
    rng = np.random.default_rng(60)
    model = ifl(0.5, spike_once=coding is Coding.ROC)
    shape = {"local": (1, 12, 12), "flatten": (2, 10, 10), "small": (30,)}.get(kind, (200,))
    builder = NetworkBuilder(shape, coding=coding, max_timesteps=t_max)
    if kind == "local":
        geometry = NetworkBuilder(shape).locally_connected(4, (3, 3), model)
        mask = lcl_mask(geometry.build().layers[0])
        builder.locally_connected(4, (3, 3), model, weights=rng.normal(0.1, 0.2, mask.shape) * mask)
        builder.flatten()
        n = 400
    elif kind == "recurrent":
        n = 90
        builder.recurrent_dense(
            n, lif(), weights=rng.normal(0.05, 0.1, (n, 200)),
            recurrent_weights=rng.normal(0.0, 0.3, (n, n)),
        )
    else:
        if kind == "flatten":
            builder.flatten()
        n = {"flatten": 96, "small": 20}.get(kind, 96)
        n_in = prod(shape)
        builder.dense(n, model, weights=rng.normal(0.0, 0.12, (n, n_in)))
    head = ifl(1.7e308, bias=1e306) if overflow else model
    built = (
        builder.dense(8, model, weights=rng.normal(0.3, 0.3, (8, n)))
        .dense(4, head, weights=rng.normal(0.4, 0.3, (4, 8)))
        .build()
    )
    assert engine._ahead_layer(_compile(built)) is not None
    return built


def ahead_samples(net, rows):
    """``rows`` Poisson samples of densities from about 1 % to 50 %, so that
    blocks of both sides of ``_AHEAD_SPARSE`` meet in one group."""
    rng = np.random.default_rng(61 + rows)
    scales = [0.02, 1.0, 0.1, 0.6, 0.05, 0.3]
    return [
        encode(rng.uniform(0.0, scales[k % 6], net.input_shape), "poisson", seed=k)
        for k in range(rows)
    ]


def group_run(net, samples, t_max, ahead):
    """Each sample's result of one group, its first layer driven ahead or,
    with ``ahead`` false, tick by tick; and the block binders it made."""
    made = []
    with pytest.MonkeyPatch.context() as mp:
        bind_block = engine._bind_block_drive
        mp.setattr(
            engine, "_bind_block_drive", lambda *args: made.append(args) or bind_block(*args)
        )
        if not ahead:
            mp.setattr(engine, "_ahead_layer", lambda rt: None)
        results = [
            result for result, _ in _run_group(
                net, _compile(net), samples, T_max=t_max, coding=net.coding,
                record_raster=True, encoder_per_step=False,
            )
        ]
    return results, made


@pytest.mark.parametrize("rows", [1, 3, 16, 17])
@pytest.mark.parametrize("t_max", [1, 15, 16, 17, 37])
@pytest.mark.parametrize("coding", [Coding.RATE, Coding.ROC])
@pytest.mark.parametrize("kind", ["dense", "small", "recurrent", "local", "flatten"])
def test_a_first_layer_driven_ahead_runs_as_tick_by_tick(kind, coding, t_max, rows):
    # every history row (ledger, output spikes and voltages, rasters) of a
    # group whose first layer takes a block of steps at a time is bitwise
    # the tick-by-tick run's, from one step to 37, across block edges and
    # with decisions in mid-block
    net = ahead_net(kind, t_max, coding)
    samples = ahead_samples(net, rows)
    got, made = group_run(net, samples, t_max, ahead=True)
    want, none = group_run(net, samples, t_max, ahead=False)
    # 16 or 17 rows hold blocks of fewer steps than _block_steps allows
    steps = engine._ahead_steps(_compile(net), rows, t_max)
    assert none == [] and len(made) == 1 and made[0][2].shape[:2] == (steps, rows)
    for a, b in zip(got, want):
        assert_same_result(a, b)
    if coding is Coding.ROC and t_max == 37 and steps > 1:  # decisions in mid-block
        assert any(r.trace.T_used % steps for r in got if r.trace.T_used < t_max)


@pytest.mark.parametrize("rows", [1, 3, 16, 17])
def test_a_row_that_fails_in_mid_block_fails_as_tick_by_tick(rows):
    # a later layer leaves the float range at step 26, inside a block of 16
    # steps (one or three rows), of 3 (16) or of 2 (17, which the group
    # budget holds)
    net = ahead_net("dense", 37, Coding.RATE, overflow=True)
    samples = ahead_samples(net, rows)
    got, made = group_run(net, samples, 37, ahead=True)
    want, _ = group_run(net, samples, 37, ahead=False)
    assert made and 25 % engine._ahead_steps(_compile(net), rows, 37)
    for a, b in zip(got, want):
        assert isinstance(b, NonFiniteState)
        assert str(b).startswith("layer 2 left the finite range at step 26;")
        assert_same_result(a, b)


@pytest.mark.parametrize("coding", [Coding.RATE, Coding.ROC])
@pytest.mark.parametrize("rows", [1, 3, 16, 17])
def test_a_block_draws_each_of_its_steps_once_and_none_past_the_budget(monkeypatch, coding, rows):
    # the encoder draws, per row live at a block's first step, each step of
    # the block, once, and no step past the budget
    t_max = 37
    net = ahead_net("dense", t_max, coding)
    samples = ahead_samples(net, rows)
    drawn = []
    draw = engine.poisson_slice

    def recorded(encoded, t, out):
        drawn.append((encoded.seed, t))  # a sample's seed is its row
        return draw(encoded, t, out)

    monkeypatch.setattr(engine, "poisson_slice", recorded)
    results, _ = group_run(net, samples, t_max, ahead=True)
    steps, K = engine._ahead_steps(_compile(net), rows, t_max), 3
    want = []
    for k in range(rows):
        # a row leaves at the end of the tick where the output takes its last step
        last_tick = results[k].trace.T_used + K - 1
        for first in range(1, t_max + 1, steps):
            if first <= last_tick:
                want += [(k, t) for t in range(first, min(first + steps, t_max + 1))]
    assert sorted(drawn) == sorted(want)
    assert len(set(drawn)) == len(drawn) and max(t for _, t in drawn) <= t_max


def test_a_sparse_block_keeps_the_event_sums(monkeypatch):
    # a block whose pairs spiked fewer than 1 in 16 of their inputs sums each
    # step's events; a denser one takes the product; both as tick by tick
    calls = []
    event_sums = engine._event_sums

    def counted(weights, flat, out):
        events = event_sums(weights, flat, out)
        return lambda counts, live: calls.append(len(live)) or events(counts, live)

    net = ahead_net("dense", 16, Coding.RATE)
    rng = np.random.default_rng(62)
    for scale, sums in ((0.05, 16), (0.5, 0)):
        samples = [
            encode(rng.uniform(0.0, scale, 200), "poisson", seed=k) for k in range(3)
        ]
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(engine, "_event_sums", counted)
            got, made = group_run(net, samples, 16, ahead=True)
        assert made and len(calls) == sums  # one call per step of the one block
        for a, b in zip(got, group_run(net, samples, 16, ahead=False)[0]):
            assert_same_result(a, b)


@pytest.mark.parametrize("case", ["conv", "pool", "wide", "analog"])
def test_what_a_block_ahead_does_not_serve_keeps_the_tick_loop(case):
    # a convolution, a pool before the first layer, a first layer whose
    # sums round, and an analog input keep the per-tick drive
    rng = np.random.default_rng(63)
    mode = "analog" if case == "analog" else "poisson"
    if case == "conv":
        builder = NetworkBuilder((1, 8, 8), max_timesteps=16).conv2d(
            2, (3, 3), lif(), weights=rng.normal(0.2, 0.1, 18)
        ).flatten()
        n = 72
    elif case == "pool":
        builder = NetworkBuilder((1, 8, 8), max_timesteps=16).max_pool((2, 2)).flatten()
        builder.dense(20, lif(), weights=rng.normal(0.1, 0.1, (20, 16)))
        n = 20
    else:
        w = wide_weights(rng, (96, 200)) if case == "wide" else rng.normal(0.0, 0.1, (96, 200))
        builder = NetworkBuilder((200,), max_timesteps=16).dense(96, lif(), weights=w)
        n = 96
    net = builder.dense(4, lif(), weights=rng.normal(0.2, 0.2, (4, n))).build()
    if case == "wide":
        assert not engine._layer_sums_exact(net, 0, False)
    samples = [
        encode(rng.uniform(0.0, 0.6, net.input_shape), mode, seed=k) for k in range(3)
    ]
    got, made = group_run(net, samples, 16, ahead=True)
    assert made == []
    for sample, result in zip(samples, got):
        assert_same_result(result, run_inference(net, sample, record_raster=True))


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
    assert (_compile,) in netspec._DERIVED[net]
    (key,) = [ref for ref in netspec._DERIVED.keyrefs() if ref() is net]
    del net
    gc.collect()
    assert key() is None
    assert key not in netspec._DERIVED.keyrefs()


def test_a_cached_compile_gives_the_same_result():
    net = layered_net()
    sample = layered_samples(1)[0]
    assert net not in netspec._DERIVED
    first = run_inference(net, sample, record_raster=True)
    assert (_compile,) in netspec._DERIVED[net]
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


def test_a_group_lets_its_inputs_go_before_the_next_group_steps(monkeypatch):
    # the first input too, which run_dataset reads before it splits the rest
    made, alive = [], []
    step_group = engine._step_group

    def watched(*args, **kwargs):
        alive.append([ref() is not None for ref in made])
        return step_group(*args, **kwargs)

    def make(k):
        sample = encode(np.array([0.5]))
        made.append(weakref.ref(sample))
        return sample

    monkeypatch.setattr(engine, "_step_group", watched)
    net = overflowing_dense(t_max=6)
    force_group_size(monkeypatch, net, 6, 2)
    assert run_dataset(net, LoadedOnRead(make, 6)).n_ok == 6
    assert alive == [[True] * 2, [False] * 2 + [True] * 2, [False] * 4 + [True] * 2]


def test_a_group_lets_its_inputs_go_before_the_next_group_is_read(monkeypatch):
    # when each sample is read, only the samples of its own group live
    made, alive = [], []

    def make(k):
        alive.append([j for j, ref in enumerate(made) if ref() is not None])
        sample = encode(np.array([0.5]))
        made.append(weakref.ref(sample))
        return sample

    net = overflowing_dense(t_max=6)
    force_group_size(monkeypatch, net, 6, 2)
    assert run_dataset(net, LoadedOnRead(make, 6)).n_ok == 6
    assert alive == [[], [0], [], [2], [], [4]]


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
