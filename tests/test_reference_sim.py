"""The engine against the plain-loop reference simulator of ``reference_sim``.

Random small networks of every layer kind run through both. With dyadic
weights, biases and inputs every synaptic sum is exact, so decisions, step
counts, event counters and reports must be identical, not merely close.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from emacprof import (
    Coding,
    EncodingMode,
    NetworkBuilder,
    NeuronKind,
    NeuronModelSpec,
    encode,
    run_dataset,
    run_inference,
)
from emacprof import engine
from emacprof.engine import SampleOutcome
from emacprof.netspec import lcl_mask
from reference_sim import simulate


def dyadic(rng, shape, low=-2, high=5):
    """Multiples of 1/8: every sum of a few of them is exact."""
    return rng.integers(low, high + 1, shape) / 8


def spiking_model(draw):
    v_th = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5]))
    bias = draw(st.sampled_from([0.0, 0.125, -0.125]))
    spike_once = draw(st.booleans())
    if draw(st.booleans()):
        return NeuronModelSpec(
            kind=NeuronKind.LIF, dt=1e-3, tau_syn=draw(st.sampled_from([2e-3, 4e-3, 5e-3])),
            tau_mem=draw(st.sampled_from([2e-3, 8e-3])), v_th=v_th, bias=bias,
            spike_once=spike_once,
        )
    return NeuronModelSpec(kind=NeuronKind.IFL, v_th=v_th, bias=bias, spike_once=spike_once)


def rectifier(draw):
    return NeuronModelSpec(kind=NeuronKind.ANN_RELU, bias=draw(st.sampled_from([0.0, 0.25])))


def add_layer(draw, rng, b, model, allow_recurrent):
    """One random layer that fits ``b``'s current shape; returns whether it is weighted."""
    shape = b._shape
    if len(shape) == 3:
        c, h, w = shape
        kind = draw(st.sampled_from(
            ["conv", "conv", "locally_connected", "pool", "pool", "flatten"]
        ))
        k = (draw(st.integers(1, min(3, h))), draw(st.integers(1, min(3, w))))
        stride = (draw(st.integers(1, 2)),) * 2
        if kind == "conv":
            filters = draw(st.integers(1, 3))
            b.conv2d(filters, k, model, stride=stride, padding=draw(st.integers(0, 1)),
                     weights=dyadic(rng, filters * c * k[0] * k[1]))
        elif kind == "locally_connected":
            filters = draw(st.integers(1, 2))
            mask = lcl_mask(NetworkBuilder(shape).locally_connected(
                filters, k, model, stride=stride).build().layers[0])
            b.locally_connected(filters, k, model, stride=stride,
                                weights=dyadic(rng, mask.shape) * mask)
        elif kind == "pool":
            b.max_pool(k, stride=stride)
        else:
            b.flatten()
        return kind in ("conv", "locally_connected")
    n_in = shape[0]
    units = draw(st.integers(1, 6))
    if allow_recurrent and draw(st.booleans()):
        b.recurrent_dense(units, model, weights=dyadic(rng, (units, n_in)),
                          recurrent_weights=dyadic(rng, (units, units), -3, 3))
    else:
        b.dense(units, model, weights=dyadic(rng, (units, n_in)))
    return True


@st.composite
def cases(draw):
    """A random network, three samples for it, and the run settings."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mode = draw(st.sampled_from([EncodingMode.ANALOG, EncodingMode.POISSON]))
    if draw(st.booleans()):
        shape = (draw(st.integers(1, 2)), draw(st.integers(2, 6)), draw(st.integers(2, 6)))
    else:
        shape = (draw(st.integers(1, 8)),)
    b = NetworkBuilder(shape, coding=draw(st.sampled_from(list(Coding))),
                       max_timesteps=draw(st.integers(1, 8)))
    # analog inputs may pass a rectifier prefix first; it may be the whole net
    static = draw(st.integers(0, 2)) if mode is EncodingMode.ANALOG else 0
    spiking = draw(st.integers(0 if static else 1, 3))
    # about half the networks share one spiking model: adjacent spiking
    # layers of one model step together, and start and stop one at a time
    shared = spiking_model(draw) if draw(st.booleans()) else None

    def next_model():
        return spiking_model(draw) if shared is None else shared

    while static or spiking:
        is_static = static > 0
        model = rectifier(draw) if is_static else next_model()
        if add_layer(draw, rng, b, model, allow_recurrent=not is_static):
            static, spiking = (static - 1, spiking) if is_static else (static, spiking - 1)
    if len(b._shape) == 3 and draw(st.booleans()):  # end on a dense head
        units = draw(st.integers(1, 4))
        b.flatten().dense(units, next_model(),
                          weights=dyadic(rng, (units, b._shape[0])))
    net = b.build()
    if mode is EncodingMode.POISSON:
        values = [rng.integers(0, 9, shape) / 8 for _ in range(3)]
    else:
        values = [rng.integers(-4, 5, shape) / 4 for _ in range(3)]
    samples = [encode(x, mode, seed=int(rng.integers(0, 2**63))) for x in values]
    run = dict(
        t_max=draw(st.one_of(st.none(), st.integers(1, 8))),
        coding=draw(st.one_of(st.none(), st.sampled_from(list(Coding)))),
        encoder_per_step=draw(st.booleans()),
    )
    return net, samples, run


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_the_engine_matches_the_reference_simulator(case):
    net, samples, run = case
    want = [simulate(net, sample, **run) for sample in samples]
    got = run_inference(net, samples[0], **run)
    ref = want[0]
    assert got.decision == ref.decision
    assert got.trace.T_used == ref.T_used
    for field in ("counts", "input_counts", "feedforward_events", "recurrent_events",
                  "analog_events"):
        a, b = getattr(got.trace, field), getattr(ref, field)
        assert (a is None) == (b is None), field
        assert b is None or np.array_equal(a, b), field
    assert np.array_equal(got.output_voltages, ref.output_voltages)
    assert got.energy.to_dict() == ref.energy.to_dict()
    assert got.energy_analytic.to_dict() == ref.energy_analytic.to_dict()

    # a lockstep group, whose samples may stop at different steps
    stats = run_dataset(net, samples, **run)
    assert stats.outcomes == [SampleOutcome(r.T_used, r.decision) for r in want]
    assert stats.emac_exact.mean == np.mean([r.energy.E_tot for r in want])
    assert stats.emac_analytic.mean == np.mean([r.energy_analytic.E_tot for r in want])


def test_event_driven_layers_match_the_reference_simulator():
    # A matrix of more than 16384 weights sums the weight rows of the inputs
    # that spiked, and skips a sample's drive in a step whose input was silent;
    # so does a recurrent term, at its first step and after a silent step.
    rng = np.random.default_rng(3)
    model = NeuronModelSpec(kind=NeuronKind.IFL, v_th=0.5)
    n = 130  # 130 * 130 weights take the event path
    net = (
        NetworkBuilder((n,), coding=Coding.RATE, max_timesteps=10)
        .dense(n, model, weights=dyadic(rng, (n, n), -1, 3))
        .recurrent_dense(n, model, weights=dyadic(rng, (n, n), -1, 1),
                         recurrent_weights=dyadic(rng, (n, n), -1, 2))
        .dense(3, model, weights=dyadic(rng, (3, n)))
        .build()
    )
    samples = [encode(np.full(n, rate), "poisson", seed=k)
               for k, rate in enumerate([0.004, 0.01, 0.03])]
    want = [simulate(net, sample) for sample in samples]
    silent = [0, 0]  # steps without input spikes, and without layer 0 spikes
    for sample, ref in zip(samples, want):
        got = run_inference(net, sample)
        assert got.decision == ref.decision
        for field in ("counts", "input_counts", "feedforward_events", "recurrent_events"):
            assert np.array_equal(getattr(got.trace, field), getattr(ref, field)), field
        assert np.array_equal(got.output_voltages, ref.output_voltages)
        silent[0] += int((ref.input_counts == 0).sum())
        silent[1] += int((ref.counts[1] == 0).sum())
    assert min(silent) > 0
    assert want[1].counts[1].min() == 0 < want[1].counts[1].max()  # the recurrent layer
    stats = run_dataset(net, samples)
    assert stats.outcomes == [SampleOutcome(r.T_used, r.decision) for r in want]
    assert stats.emac_exact.mean == np.mean([r.energy.E_tot for r in want])


def test_finite_voltages_whose_squares_overflow_run_to_the_budget(monkeypatch):
    # The step loop checks finiteness by a sum of squares of the half-step
    # voltages. Voltages near 1e160 are finite, but their squares leave the
    # float range: every tick goes to the row scan, which must find no row.
    scan, scans = engine._non_finite_rows, []

    def counted(values, live):
        found = scan(values, live)
        scans.append(found)
        return found

    monkeypatch.setattr(engine, "_non_finite_rows", counted)
    rng = np.random.default_rng(23)
    model = NeuronModelSpec(kind=NeuronKind.IFL, v_th=2.0**531, bias=2.0**525)
    net = (
        NetworkBuilder((4,), coding=Coding.RATE, max_timesteps=16)
        .dense(3, model, weights=dyadic(rng, (3, 4)))
        .build()
    )
    samples = [encode(rng.integers(-4, 5, 4) / 4, "analog") for _ in range(3)]
    want = [simulate(net, sample) for sample in samples]
    got = run_inference(net, samples[0])
    ref = want[0]
    assert got.trace.T_used == ref.T_used == 16
    assert np.array_equal(got.trace.counts, ref.counts)
    assert ref.counts.sum() > 0  # the threshold is reached, and reset
    assert np.array_equal(got.output_voltages, ref.output_voltages)
    volts = got.output_voltages
    assert np.isfinite(volts).all() and volts.max() > 1e159
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.dot(volts[:, 0], volts[:, 0]))
    assert len(scans) >= 16 and not any(scans)

    stats = run_dataset(net, samples)
    assert stats.outcomes == [SampleOutcome(r.T_used, r.decision) for r in want]
    assert stats.n_ok == 3
