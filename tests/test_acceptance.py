"""Acceptance suite: ten numbered criteria, one test each.

Every test prints one ``criterion NN PASS`` line (visible with ``-rA`` or
``-s``) and enforces its own wall-clock budget. Oracles are written inline
so each criterion stands on its own: brute-force connection enumeration,
hand-iterated neuron recurrences, and replayed encoder streams.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from emacprof import (
    Coding,
    EncodingMode,
    LayerKind,
    NetworkBuilder,
    NeuronKind,
    NeuronModelSpec,
    NeuronState,
    Observation,
    ann_mac_count,
    decode_roc,
    emac_analytic,
    encode,
    energy_params,
    fit_energy_model,
    ifl_step,
    layer_counts,
    lif_step,
    networks_equal,
    parse_network,
    poisson_slice,
    predict_energy,
    rates_from_trace,
    run_dataset,
    run_inference,
    save_input_tensor,
    serialize_network,
    write_observations_csv,
)
from emacprof.cli import main as cli_main
from emacprof.emac import LayerRates
from emacprof.neuron import OP_WEIGHTS, classify_synaptic_ops, classify_update_ops


@contextmanager
def budget(number, label, seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget is {seconds}s"
    )
    print(f"criterion {number:02d} PASS ({elapsed:.2f}s): {label}")


def ifl(v_th=1.0, **kw):
    return NeuronModelSpec(kind=NeuronKind.IFL, v_th=v_th, **kw)


def lif(v_th=1.0, **kw):
    kw.setdefault("dt", 1e-3)
    kw.setdefault("tau_syn", 8e-3)
    kw.setdefault("tau_mem", 2e-3)
    return NeuronModelSpec(kind=NeuronKind.LIF, v_th=v_th, **kw)


ANN = NeuronModelSpec(kind=NeuronKind.ANN_RELU)


def fanout_map(layer):
    """Postsynaptic connections per presynaptic position, by enumeration."""
    c_in, h, w = layer.input_shape
    k_h, k_w = layer.kernel
    s_h, s_w = layer.stride
    out_c, oh, ow = layer.output_shape
    fan = np.zeros((c_in, h, w), dtype=np.int64)
    for oy in range(oh):
        for ox in range(ow):
            for ky in range(k_h):
                for kx in range(k_w):
                    iy = oy * s_h - layer.padding + ky
                    ix = ox * s_w - layer.padding + kx
                    if 0 <= iy < h and 0 <= ix < w:
                        fan[:, iy, ix] += out_c
    return fan


# ---------------------------------------------------------------------------


def test_criterion_01_energy_parameter_table():
    """LIF (0.667, 3.333) and IFL (0.667, 1.333), derived from AC=2/3, MAC=1."""
    with budget(1, "per-event energy parameters", 1.0):
        for kind, e_syn, e_upd in [
            (NeuronKind.LIF, 2.0 / 3.0, 10.0 / 3.0),
            (NeuronKind.IFL, 2.0 / 3.0, 4.0 / 3.0),
        ]:
            params = energy_params(kind)
            assert abs(params.e_syn - e_syn) <= 1e-12
            assert abs(params.e_upd - e_upd) <= 1e-12
            # the table values are the weighted op classification, nothing else
            syn_sum = sum(OP_WEIGHTS[oc.op] * oc.count
                          for oc in classify_synaptic_ops(kind))
            upd_sum = sum(OP_WEIGHTS[oc.op] * oc.count
                          for oc in classify_update_ops(kind))
            assert params.e_syn == syn_sum
            assert params.e_upd == upd_sum
        ann = energy_params(NeuronKind.ANN_RELU)
        assert (ann.e_syn, ann.e_upd) == (1.0, 0.0)


def test_criterion_02_ann_special_case():
    """Analytic EMAC at f=1 with ANN models is the classical MAC count."""
    with budget(2, "ANN chains equal brute-force MAC enumeration", 10.0):
        rng = np.random.default_rng(20)
        for _ in range(10):
            c = int(rng.integers(1, 4))
            h = int(rng.integers(8, 15))
            w = int(rng.integers(8, 15))
            b = NetworkBuilder((c, h, w), coding=Coding.RATE, max_timesteps=4)
            shape = (c, h, w)
            for _ in range(int(rng.integers(1, 3))):
                k = int(rng.integers(2, 4))
                s = int(rng.integers(1, 3))
                if shape[1] < k or shape[2] < k:
                    break
                filters = int(rng.integers(1, 5))
                b.conv2d(filters, (k, k), ANN, stride=(s, s))
                oh = (shape[1] - k) // s + 1
                ow = (shape[2] - k) // s + 1
                shape = (filters, oh, ow)
            b.flatten()
            for _ in range(int(rng.integers(1, 3))):
                b.dense(int(rng.integers(1, 9)), ANN)
            net = b.build()

            # oracle: walk every connection of every layer
            enumerated = 0
            for layer in net.layers:
                if layer.kind is LayerKind.DENSE:
                    enumerated += math.prod(layer.input_shape) * math.prod(
                        layer.output_shape
                    )
                elif layer.kind is LayerKind.CONV2D:
                    c_in = layer.input_shape[0]
                    out_c, oh, ow = layer.output_shape
                    k_h, k_w = layer.kernel
                    taps = 0
                    for _oy in range(oh):
                        for _ox in range(ow):
                            taps += k_h * k_w * c_in
                    enumerated += taps * out_c

            mac = ann_mac_count(net)
            rates = LayerRates(input_rate=1.0, per_layer=np.ones(len(net.layers)))
            analytic = emac_analytic(net, rates, 1).E_tot
            assert mac == enumerated
            assert analytic == mac  # integer-exact


def test_criterion_03_dense_oracle_identity():
    """Exact event pricing equals the rate formula fed by measured rates."""
    with budget(3, "20 random dense nets, exact == analytic to 1e-9", 30.0):
        rng = np.random.default_rng(30)
        for trial in range(20):
            depth = int(rng.integers(1, 5))
            sizes = [int(rng.integers(2, 65)) for _ in range(depth + 1)]
            b = NetworkBuilder((sizes[0],), coding=Coding.RATE, max_timesteps=12)
            for j, n_out in enumerate(sizes[1:]):
                model = ifl(0.8) if rng.random() < 0.5 else lif(0.5)
                w = rng.uniform(0.0, 2.5 / sizes[j], (n_out, sizes[j]))
                if rng.random() < 0.25:
                    rw = rng.uniform(0.0, 0.5 / n_out, (n_out, n_out))
                    b.recurrent_dense(n_out, model, weights=w, recurrent_weights=rw)
                else:
                    b.dense(n_out, model, weights=w)
            net = b.build()
            sample = encode(
                rng.uniform(0.05, 0.95, sizes[0]), EncodingMode.POISSON, seed=trial
            )
            res = run_inference(net, sample)
            exact = res.energy
            analytic = emac_analytic(
                net,
                rates_from_trace(res.trace),
                res.trace.T_used,
                input_mode=EncodingMode.POISSON,
            )
            assert exact.E_tot == pytest.approx(analytic.E_tot, rel=1e-9)
            assert exact.E_syn == pytest.approx(analytic.E_syn, rel=1e-9)
            assert exact.E_rec == pytest.approx(analytic.E_rec, rel=1e-9)
            assert exact.E_upd == analytic.E_upd


def test_criterion_04_conv_bound():
    """Realized conv events never exceed the rate formula; tiling closes it."""
    with budget(4, "conv exact <= analytic, equality on exact tiling", 30.0):
        rng = np.random.default_rng(40)

        def run_case(h, w, k, s, values, t_max=6):
            c_in = values.shape[0]
            net = (
                NetworkBuilder((c_in, h, w), coding=Coding.RATE, max_timesteps=t_max)
                .conv2d(
                    int(rng.integers(1, 4)),
                    (k, k),
                    ifl(1e9),
                    stride=(s, s),
                    weights=None,
                )
                .build()
            )
            sample = encode(values, EncodingMode.POISSON, seed=int(rng.integers(1e6)))
            res = run_inference(net, sample)
            analytic = emac_analytic(
                net,
                rates_from_trace(res.trace),
                res.trace.T_used,
                input_mode=EncodingMode.POISSON,
            )
            # ground the engine's counter in explicit connection enumeration
            fan = fanout_map(net.layers[0])
            replayed = 0
            for t in range(1, res.trace.T_used + 1):
                replayed += int(fan[poisson_slice(sample, t)].sum())
            assert res.trace.feedforward_events[0] == replayed
            return res.energy, analytic

        # border overhang (k > s): spikes biased toward the border
        for _ in range(8):
            h = int(rng.integers(6, 12))
            w = int(rng.integers(6, 12))
            k = int(rng.integers(2, 5))
            s = int(rng.integers(1, k))
            c_in = int(rng.integers(1, 3))
            values = np.full((c_in, h, w), 0.05)
            values[:, 0, :] = values[:, -1, :] = 0.9
            values[:, :, 0] = values[:, :, -1] = 0.9
            exact, analytic = run_case(h, w, k, s, values)
            assert exact.E_syn <= analytic.E_syn * (1 + 1e-12)
            assert exact.E_tot <= analytic.E_tot * (1 + 1e-12)

        # strict undershoot: only a corner pixel fires, its single placement
        # realizes far fewer connections than the structural average
        corner = np.zeros((1, 5, 5))
        corner[0, 0, 0] = 1.0
        exact, analytic = run_case(5, 5, 3, 1, corner)
        assert exact.E_syn < analytic.E_syn

        # equality: k == s tiling covers every presynaptic neuron with the
        # same fanout, so the average is exact for any spike placement
        for _ in range(6):
            k = int(rng.integers(2, 5))
            h = k * int(rng.integers(2, 5))
            w = k * int(rng.integers(2, 5))
            c_in = int(rng.integers(1, 3))
            values = rng.uniform(0.1, 0.9, (c_in, h, w))
            exact, analytic = run_case(h, w, k, k, values)
            assert exact.E_syn == pytest.approx(analytic.E_syn, rel=1e-12)


def test_criterion_05_neuron_closed_forms():
    """Geometric current decay plus the two hand-iterated spike fixtures."""
    with budget(5, "LIF decay and first-spike fixtures", 1.0):
        # current decay, zero input: i_k = (1 - dt/tau_syn)^k
        model = lif(v_th=1e9)
        ratio = 1.0 - model.dt / model.tau_syn
        st = NeuronState(
            i=np.ones(1), v=np.zeros(1),
            has_spiked=np.zeros(1, bool), v_peak=np.zeros(1),
        )
        zero = np.zeros(1)
        for k in range(1, 1001):
            lif_step(st, zero, model)
            expected = ratio**k
            assert abs(st.i[0] - expected) <= 8 * k * np.spacing(expected)

        # pinned current: with i=1, dt/tau_syn=1/8 and drive 1/8, the decay
        # and the input cancel exactly (all quantities dyadic)
        fix = NeuronModelSpec(
            kind=NeuronKind.LIF, dt=1e-3, tau_syn=8e-3, tau_mem=2e-3, v_th=0.9
        )
        # ten-line oracle: iterate the recurrence by hand
        i, v = 1.0, 0.0
        first = None
        for k in range(1, 11):
            i = i - i * 0.125 + 0.125
            v_half = v + (i - v) * 0.5
            if v_half >= 0.9:
                first = k
                v = v_half - 0.9
                break
            v = v_half
        assert first == 4 and v == pytest.approx(0.0375, rel=1e-12)

        st = NeuronState(
            i=np.ones(1), v=np.zeros(1),
            has_spiked=np.zeros(1, bool), v_peak=np.zeros(1),
        )
        drive = np.full(1, 0.125)
        for k in range(1, 11):
            spike = lif_step(st, drive, fix)
            if spike[0]:
                assert k == 4
                assert st.v_peak[0] == pytest.approx(0.9375, rel=1e-12)
                assert st.v[0] == pytest.approx(0.0375, rel=1e-12)
                break
        else:
            pytest.fail("pinned-current fixture never spiked")

        # IFL under constant 0.3 drive: v walks 0.3, 0.9, 1.8
        st = NeuronState(
            i=np.zeros(1), v=np.zeros(1),
            has_spiked=np.zeros(1, bool), v_peak=np.zeros(1),
        )
        drive = np.full(1, 0.3)
        seen = []
        for k in range(1, 5):
            spike = ifl_step(st, drive, ifl(1.0))
            seen.append(bool(spike[0]))
        assert seen[:3] == [False, False, True]
        i = v = 0.0
        for k in range(1, 4):
            i += 0.3
            v += i
        assert v == pytest.approx(1.8, rel=1e-12)


def test_criterion_06_roc_semantics():
    """Early stop freezes counters; decoding ignores post-first-spike data;
    spike_once caps every neuron at one event. 1000 trials each."""
    with budget(6, "ROC freeze, decode invariance, spike_once cap", 30.0):
        rng = np.random.default_rng(60)

        # (a) counters equal a fresh run truncated at T_used
        for trial in range(1000):
            w = rng.uniform(0.0, 1.2, (2, 3)).astype(np.float32)
            roc_net = (
                NetworkBuilder((3,), coding=Coding.ROC, max_timesteps=10)
                .dense(2, ifl(1.0), weights=w)
                .build()
            )
            sample = encode(
                rng.uniform(0.1, 0.9, 3), EncodingMode.POISSON, seed=trial
            )
            res = run_inference(roc_net, sample)
            t_used = res.trace.T_used
            ref = run_inference(roc_net, sample, coding="rate", t_max=t_used)
            assert np.array_equal(res.trace.counts, ref.trace.counts)
            assert np.array_equal(
                res.trace.feedforward_events, ref.trace.feedforward_events
            )
            assert np.array_equal(res.trace.input_counts, ref.trace.input_counts)

        # (b) decisions depend only on data up to the first output spike
        for trial in range(1000):
            raster = rng.random((4, 9)) < 0.12
            raster[rng.integers(4), rng.integers(9)] = True
            volts = np.zeros(raster.shape)  # not read: the raster has a spike
            before = decode_roc(raster, volts)
            mutated = raster.copy()
            first_t = int(np.where(raster.any(axis=0))[0][0])
            if first_t + 1 < raster.shape[1]:
                later = rng.integers(first_t + 1, raster.shape[1], 5)
                rows = rng.integers(0, raster.shape[0], 5)
                mutated[rows, later] = ~mutated[rows, later]
            after = decode_roc(mutated, volts)
            assert after == before

        # (c) spike_once never emits twice
        for trial in range(1000):
            w1 = rng.uniform(0.0, 1.5, (5, 4)).astype(np.float32)
            w2 = rng.uniform(0.0, 1.5, (3, 5)).astype(np.float32)
            once = ifl(float(rng.uniform(0.3, 1.0)), spike_once=True)
            net = (
                NetworkBuilder((4,), coding=Coding.RATE, max_timesteps=8)
                .dense(5, once, weights=w1)
                .dense(3, once, weights=w2)
                .build()
            )
            sample = encode(
                rng.uniform(0.2, 1.0, 4), EncodingMode.POISSON, seed=trial
            )
            res = run_inference(net, sample, record_raster=True)
            for raster in res.rasters:
                assert raster.sum(axis=1).max() <= 1


def test_criterion_07_calibration():
    """Exact 2-point fit, planted recovery, 3-sigma coverage, equivariance."""
    with budget(7, "calibration fit and uncertainty", 60.0):
        # (a) the two-observation fixture interpolates exactly
        two = [
            Observation("a", S=10.0, U=4.0, E_joules=32.0),
            Observation("b", S=5.0, U=8.0, E_joules=34.0),
        ]
        model = fit_energy_model(two)
        assert model.e_syn_J == 2.0 and model.e_upd_J == 3.0

        # (b) planted parameters, zero noise, 3+ observations
        rng = np.random.default_rng(70)
        for n in (3, 5, 9):
            S = rng.uniform(50, 500, n)
            U = rng.uniform(20, 200, n)
            obs = [
                Observation(f"o{i}", S=float(S[i]), U=float(U[i]),
                            E_joules=float(2.7e-9 * S[i] + 8.1e-9 * U[i]))
                for i in range(n)
            ]
            got = fit_energy_model(obs)
            assert got.e_syn_J == pytest.approx(2.7e-9, rel=1e-9)
            assert got.e_upd_J == pytest.approx(8.1e-9, rel=1e-9)

        # (c) noisy held-out coverage: >= 990 of 1000 seeded trials inside
        # 3 sigma, where sigma combines parameter and measurement noise
        e_syn, e_upd, noise = 3e-9, 8e-9, 3e-8
        hits = 0
        for trial in range(1000):
            trng = np.random.default_rng(7000 + trial)
            S = trng.uniform(100, 1000, 50)
            U = trng.uniform(50, 500, 50)
            E = e_syn * S + e_upd * U + noise * trng.standard_normal(50)
            obs = [
                Observation(f"t{i}", S=float(S[i]), U=float(U[i]),
                            E_joules=float(E[i]))
                for i in range(50)
            ]
            fitted = fit_energy_model(obs)
            S0, U0 = trng.uniform(100, 1000), trng.uniform(50, 500)
            held_out = e_syn * S0 + e_upd * U0 + noise * trng.standard_normal()
            predicted, sigma_p = predict_energy(fitted, S0, U0)
            sigma = math.sqrt(sigma_p**2 + noise**2)
            hits += abs(predicted - held_out) <= 3 * sigma
        assert hits >= 990

        # (d) changing the energy unit by a power of two rescales the fit
        # bit-exactly
        obs = [
            Observation(f"s{i}", S=float(S[i]), U=float(U[i]), E_joules=float(E[i]))
            for i in range(8)
        ]
        base = fit_energy_model(obs)
        scaled = fit_energy_model(
            [Observation(o.name, S=o.S, U=o.U, E_joules=8.0 * o.E_joules)
             for o in obs]
        )
        assert scaled.e_syn_J == 8.0 * base.e_syn_J
        assert scaled.e_upd_J == 8.0 * base.e_upd_J
        assert np.array_equal(scaled.cov, 64.0 * base.cov)


def test_criterion_08_spike_counts_do_not_measure_load():
    """Equal spike totals, 10x fanout ratio, >= 5x synaptic energy gap."""
    with budget(8, "equal spikes, 10x fanout, >=5x E_syn", 5.0):
        # the wide net adds nine neurons with all-zero weights: they never
        # spike, so both nets produce identical rasters, but every input
        # spike now lands on ten synapses instead of one
        rng = np.random.default_rng(80)
        row = rng.uniform(0.2, 0.5, (1, 10)).astype(np.float32)
        wide_w = np.vstack([row, np.zeros((9, 10), dtype=np.float32)])

        def net(weights):
            return (
                NetworkBuilder((10,), coding=Coding.RATE, max_timesteps=8)
                .dense(weights.shape[0], ifl(1.0), weights=weights)
                .build()
            )

        narrow, wide = net(row), net(wide_w)
        sample = encode(rng.uniform(0.5, 0.9, 10), EncodingMode.POISSON, seed=8)
        res_n = run_inference(narrow, sample)
        res_w = run_inference(wide, sample)

        spikes_n = int(res_n.trace.counts.sum())
        spikes_w = int(res_w.trace.counts.sum())
        assert spikes_n == spikes_w and spikes_n > 0

        fanout_n = layer_counts(narrow.layers[0]).neurons
        fanout_w = layer_counts(wide.layers[0]).neurons
        assert fanout_w == 10 * fanout_n

        assert res_w.energy.E_syn >= 5 * res_n.energy.E_syn
        assert res_w.energy.E_tot >= 5 * res_n.energy.E_tot
        assert res_w.energy.E_syn == pytest.approx(
            10 * res_n.energy.E_syn, rel=1e-9
        )


def test_criterion_09_determinism_and_formats(tmp_path):
    """Byte-stable reports, bit-exact container round-trips, exit codes."""
    with budget(9, "determinism, round-trips, exit codes", 10.0):
        net = (
            NetworkBuilder((4,), coding=Coding.RATE, max_timesteps=6)
            .dense(3, ifl(1.0), weights=np.full((3, 4), 0.5, dtype=np.float32))
            .build()
        )
        manifest, weights = serialize_network(net)
        npath = tmp_path / "net.json"
        npath.write_bytes(manifest)
        (tmp_path / "net.emwt").write_bytes(weights)

        # round trip is bit-exact and canonical
        clone = parse_network(manifest, weights)
        assert networks_equal(net, clone)
        manifest2, weights2 = serialize_network(clone)
        assert manifest2 == manifest and weights2 == weights

        inputs = tmp_path / "inputs"
        inputs.mkdir()
        for i in range(2):
            save_input_tensor(inputs / f"s{i}.bin", np.full(4, 0.4))

        reports = []
        for run in range(2):
            out = tmp_path / f"run{run}"
            rc = cli_main(
                ["profile", "--network", str(npath), "--inputs", str(inputs),
                 "--encoding", "poisson", "--seed", "5", "--out", str(out)]
            )
            assert rc == 0
            reports.append(
                tuple((out / f).read_bytes()
                      for f in ("energy.json", "spikes.csv", "latency.csv"))
            )
        assert reports[0] == reports[1]

        # documented exit codes: 0 ok, 2 validation, 3 numeric, 4 calibration
        assert cli_main(["inspect", "--network", str(npath)]) == 0
        assert cli_main(["inspect", "--network", str(tmp_path / "ghost.json")]) == 2

        hot = (
            NetworkBuilder((1,), coding=Coding.RATE, max_timesteps=4)
            .dense(1, ifl(1e308),
                   weights=np.full((1, 1), 1e38, dtype=np.float32))
            .build()
        )
        hman, hwts = serialize_network(hot)
        hpath = tmp_path / "hot.json"
        hpath.write_bytes(hman)
        (tmp_path / "hot.emwt").write_bytes(hwts)
        (tmp_path / "big.csv").write_text("1e300\n")
        with np.errstate(over="ignore"):
            rc = cli_main(
                ["profile", "--network", str(hpath),
                 "--inputs", str(tmp_path / "big.csv"),
                 "--out", str(tmp_path / "hot_out")]
            )
        assert rc == 3

        obs = tmp_path / "collinear.csv"
        write_observations_csv(
            obs,
            [Observation("a", S=10.0, U=4.0, E_joules=32.0),
             Observation("b", S=20.0, U=8.0, E_joules=64.0)],
        )
        rc = cli_main(
            ["calibrate", "--observations", str(obs), "--out", str(tmp_path)]
        )
        assert rc == 4


def test_criterion_10_end_to_end_rehearsal():
    """Fit a planted energy model on two small CNNs, predict the third."""
    with budget(10, "three-CNN calibration rehearsal", 300.0):
        rng = np.random.default_rng(100)

        def cnn(conv_filters):
            spec = NeuronModelSpec(
                kind=NeuronKind.IFL, v_th=1.0, spike_once=True
            )
            b = NetworkBuilder((3, 32, 32), coding=Coding.ROC, max_timesteps=64)
            shape = (3, 32, 32)
            for j, f in enumerate(conv_filters):
                fanin = shape[0] * 9
                b.conv2d(
                    f, (3, 3), spec,
                    weights=rng.uniform(0, 2.0 / fanin, f * fanin).astype(
                        np.float32
                    ),
                )
                oh = shape[1] - 2
                shape = (f, oh, shape[2] - 2)
                if j < 2:
                    b.max_pool((2, 2))
                    shape = (f, shape[1] // 2, shape[2] // 2)
            b.flatten()
            flat = math.prod(shape)
            b.dense(
                10, spec,
                weights=rng.uniform(0, 2.0 / flat, (10, flat)).astype(np.float32),
            )
            return b.build()

        architectures = {
            "cnn-16-16": cnn([16, 16]),
            "cnn-16-32": cnn([16, 32]),
            "cnn-32-32-64": cnn([32, 32, 64]),
        }

        counts = {}
        for name, net in architectures.items():
            samples = [
                encode(
                    rng.uniform(0.2, 0.8, (3, 32, 32)),
                    EncodingMode.POISSON,
                    seed=k,
                )
                for k in range(50)
            ]
            stats = run_dataset(net, samples)
            assert stats.n_ok == 50
            assert stats.reference_kind == "ifl"
            counts[name] = (stats.mean_synaptic_events, stats.mean_update_count)

        e_syn, e_upd = 1.2e-9, 2.5e-9
        noise_frac = 0.01
        zrng = np.random.default_rng(4242)
        measured, sigmas, true = {}, {}, {}
        for name, (S, U) in counts.items():
            true[name] = e_syn * S + e_upd * U
            sigmas[name] = noise_frac * true[name]
            measured[name] = true[name] + sigmas[name] * zrng.standard_normal()

        train = ["cnn-16-16", "cnn-16-32"]
        target = "cnn-32-32-64"
        model = fit_energy_model(
            [
                Observation(n, S=counts[n][0], U=counts[n][1],
                            E_joules=measured[n])
                for n in train
            ]
        )
        predicted, _ = predict_energy(model, *counts[target])

        # two observations interpolate, so the fitted covariance is zero;
        # propagate the planted measurement noise through the square solve
        X = np.array([counts[n] for n in train])
        Xinv = np.linalg.inv(X)
        cov = Xinv @ np.diag([sigmas[n] ** 2 for n in train]) @ Xinv.T
        x3 = np.array(counts[target])
        sigma = math.sqrt(
            float(x3 @ cov @ x3) + sigmas[target] ** 2
        )
        assert abs(predicted - measured[target]) <= 3 * sigma
        assert predicted == pytest.approx(true[target], rel=0.2)
