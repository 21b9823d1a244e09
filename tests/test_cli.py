import json
import warnings

import numpy as np
import pytest

from emacprof import (
    Coding,
    NetworkBuilder,
    NeuronKind,
    NeuronModelSpec,
    Observation,
    encode,
    fit_energy_model,
    load_input_tensor,
    model_from_json,
    model_to_json,
    run_inference,
    save_input_tensor,
    serialize_network,
    write_observations_csv,
)
from emacprof.cli import main

IFL = NeuronModelSpec(kind=NeuronKind.IFL, v_th=1.0)
ANN = NeuronModelSpec(kind=NeuronKind.ANN_RELU)


def write_net(tmp_path, net, name="net"):
    manifest, weights = serialize_network(net)
    npath = tmp_path / f"{name}.json"
    npath.write_bytes(manifest)
    (tmp_path / f"{name}.emwt").write_bytes(weights)
    return npath


def dense_ifl(t_max=6):
    w = np.full((3, 4), 0.5, dtype=np.float32)
    return (
        NetworkBuilder((4,), coding=Coding.RATE, max_timesteps=t_max)
        .dense(3, IFL, weights=w)
        .build()
    )


def write_inputs(tmp_path, arrays, prefix="sample"):
    d = tmp_path / "inputs"
    d.mkdir(exist_ok=True)
    for i, arr in enumerate(arrays):
        save_input_tensor(d / f"{prefix}{i:02d}.bin", np.asarray(arr))
    return d


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert "emacprof" in capsys.readouterr().out


def test_no_command_is_a_usage_error():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_inspect_prints_the_structural_table(tmp_path, capsys):
    npath = write_net(tmp_path, dense_ifl())
    assert main(["inspect", "--network", str(npath)]) == 0
    out = capsys.readouterr().out
    assert "n_n=3" in out
    assert "n_s=4" in out
    assert "e=(0.667,1.333)" in out
    assert "ANN MAC count: 12" in out
    assert "update EMAC per timestep: 4" in out


def test_inspect_relu_head_energy_params(tmp_path, capsys):
    net = (
        NetworkBuilder((4,), coding=Coding.RATE, max_timesteps=4)
        .dense(3, ANN, weights=np.zeros((3, 4), dtype=np.float32))
        .dense(2, ANN, weights=np.zeros((2, 3), dtype=np.float32))
        .build()
    )
    npath = write_net(tmp_path, net)
    assert main(["inspect", "--network", str(npath)]) == 0
    out = capsys.readouterr().out
    assert "e=(1,0)" in out
    assert "ANN MAC count: 18" in out
    assert "update EMAC per timestep: 0" in out


def test_inspect_missing_manifest_exits_2(tmp_path, capsys):
    rc = main(["inspect", "--network", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_broken_manifest_exits_2(tmp_path, capsys):
    npath = tmp_path / "net.json"
    npath.write_text('{"version": 1, "layers": "oops"}')
    (tmp_path / "net.emwt").write_bytes(b"")
    rc = main(["inspect", "--network", str(npath)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_inspect_neuron_parameter_past_the_float_range_exits_2(tmp_path, capsys):
    npath = write_net(tmp_path, dense_ifl())
    manifest = json.loads(npath.read_text())
    manifest["layers"][0]["neuron_model"]["bias"] = 10**400
    npath.write_text(json.dumps(manifest))
    rc = main(["inspect", "--network", str(npath)])
    assert rc == 2
    assert "bias is out of the float range" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["inspect", "profile"])
def test_recurrent_rectifier_layer_exits_2(tmp_path, capsys, command):
    net = (
        NetworkBuilder((4,), coding=Coding.RATE, max_timesteps=4)
        .recurrent_dense(3, IFL)
        .dense(2, IFL)
        .build()
    )
    npath = write_net(tmp_path, net)
    manifest = json.loads(npath.read_text())
    manifest["layers"][0]["neuron_model"] = {"kind": "ann_relu"}
    npath.write_text(json.dumps(manifest))
    argv = [command, "--network", str(npath)]
    if command == "profile":
        inputs = write_inputs(tmp_path, [np.full(4, 0.3)])
        argv += ["--inputs", str(inputs), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert "ignore the recurrent weights" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()

@pytest.mark.parametrize("budget", [10**15, 2**70])
@pytest.mark.parametrize("source", ["flag", "manifest"])
@pytest.mark.parametrize("command", ["profile", "trace"])
def test_a_step_budget_past_memory_exits_2(tmp_path, capsys, budget, source, command):
    # only budgets whose histories fail to allocate at once
    npath = write_net(tmp_path, dense_ifl())
    argv = [command, "--network", str(npath), "--out", str(tmp_path / "o")]
    argv += ["--inputs", str(write_inputs(tmp_path, [np.full(4, 0.3)]))]
    if source == "flag":
        argv += ["--t-max", str(budget)]
    else:
        manifest = json.loads(npath.read_text())
        manifest["max_timesteps"] = budget
        npath.write_text(json.dumps(manifest))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: schema error: a step budget of {budget} needs" in err
    assert "Traceback" not in err and "Maximum allowed dimension" not in err
    assert not (tmp_path / "o").exists()


def test_weights_flag_overrides_the_default_suffix(tmp_path, capsys):
    net = dense_ifl()
    manifest, weights = serialize_network(net)
    npath = tmp_path / "net.json"
    npath.write_bytes(manifest)
    wpath = tmp_path / "elsewhere.bin"
    wpath.write_bytes(weights)
    rc = main(["inspect", "--network", str(npath), "--weights", str(wpath)])
    assert rc == 0
    assert "n_n=3" in capsys.readouterr().out


def test_unknown_encoding_is_a_usage_error(tmp_path):
    npath = write_net(tmp_path, dense_ifl())
    with pytest.raises(SystemExit) as e:
        main(
            ["profile", "--network", str(npath), "--inputs", str(tmp_path),
             "--encoding", "morse"]
        )
    assert e.value.code == 2


# ---------------------------------------------------------------------------
# profile


def profile_run(tmp_path, out_name):
    npath = write_net(tmp_path, dense_ifl())
    inputs = write_inputs(tmp_path, [np.full(4, 0.3)] * 3)
    out = tmp_path / out_name
    rc = main(
        ["profile", "--network", str(npath), "--inputs", str(inputs),
         "--out", str(out)]
    )
    return rc, out


def test_profile_writes_all_three_reports(tmp_path, capsys):
    rc, out = profile_run(tmp_path, "run")
    assert rc == 0
    assert (out / "energy.json").is_file()
    assert (out / "spikes.csv").is_file()
    assert (out / "latency.csv").is_file()
    report = json.loads((out / "energy.json").read_text())
    assert report["n_samples"] == 3
    assert report["n_ok"] == 3
    assert report["failures"] == []
    assert set(report["methods"]) == {"analytic", "exact_events"}
    # identical samples leave no spread
    assert report["methods"]["exact_events"]["E_tot"]["std"] == 0.0
    assert report["latency_T"]["std"] == 0.0
    lines = (out / "latency.csv").read_text().splitlines()
    assert lines[0] == "sample,status,T_used,class_index,fallback_used"
    assert len(lines) == 4
    assert all(line.split(",")[1] == "ok" for line in lines[1:])
    spikes = (out / "spikes.csv").read_text().splitlines()
    assert spikes[0] == "layer,name,kind,spikes_mean,spikes_std"
    assert len(spikes) == 2  # one layer
    assert "samples: 3/3 ok" in capsys.readouterr().out


def test_profile_reports_are_byte_stable(tmp_path):
    _, first = profile_run(tmp_path, "a")
    _, second = profile_run(tmp_path, "b")
    for name in ("energy.json", "spikes.csv", "latency.csv"):
        ref = (first / name).read_bytes()
        assert (second / name).read_bytes() == ref


def test_profile_poisson_seeds_change_the_draws(tmp_path):
    npath = write_net(tmp_path, dense_ifl())
    inputs = write_inputs(tmp_path, [np.full(4, 0.5)] * 2)
    outs = []
    for seed in ("0", "0", "1"):
        out = tmp_path / f"seed{len(outs)}"
        rc = main(
            ["profile", "--network", str(npath), "--inputs", str(inputs),
             "--encoding", "poisson", "--seed", seed, "--out", str(out)]
        )
        assert rc == 0
        outs.append((out / "spikes.csv").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_profile_pure_ann_equals_the_mac_count(tmp_path):
    net = (
        NetworkBuilder((4,), coding=Coding.RATE, max_timesteps=9)
        .dense(3, ANN, weights=np.full((3, 4), 0.1, dtype=np.float32))
        .dense(2, ANN, weights=np.full((2, 3), 0.1, dtype=np.float32))
        .build()
    )
    npath = write_net(tmp_path, net)
    inputs = write_inputs(tmp_path, [np.arange(4.0)])
    out = tmp_path / "ann"
    rc = main(
        ["profile", "--network", str(npath), "--inputs", str(inputs),
         "--out", str(out)]
    )
    assert rc == 0
    report = json.loads((out / "energy.json").read_text())
    assert report["methods"]["exact_events"]["E_tot"]["mean"] == 18.0
    assert report["methods"]["analytic"]["E_tot"]["mean"] == 18.0
    assert report["latency_T"]["mean"] == 1.0
    assert report["total_spikes"]["mean"] == 0.0


def test_profile_numeric_blowup_exits_3(tmp_path, capsys):
    w = np.full((3, 4), 1e38, dtype=np.float32)
    net = (
        NetworkBuilder((4,), coding=Coding.RATE, max_timesteps=6)
        .dense(3, NeuronModelSpec(kind=NeuronKind.IFL, v_th=1e308), weights=w)
        .build()
    )
    npath = write_net(tmp_path, net)
    # the overflowing value rides a .csv, which keeps float64 range
    inputs = write_inputs(tmp_path, [np.full(4, 1.0)])
    (inputs / "sample00.bin").rename(inputs / "sample99.bin")
    (inputs / "sample00.csv").write_text("1e300,1e300,1e300,1e300\n")
    out = tmp_path / "blown"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the typed failure line is all stderr says
        rc = main(
            ["profile", "--network", str(npath), "--inputs", str(inputs),
             "--out", str(out)]
        )
    assert rc == 3
    assert "sample 0 failed" in capsys.readouterr().err
    report = json.loads((out / "energy.json").read_text())
    assert report["n_ok"] == 1
    assert report["failures"][0]["sample"] == 0
    lines = (out / "latency.csv").read_text().splitlines()
    assert lines[1].startswith("0,failed")
    assert lines[2].startswith("1,ok")


def test_profile_non_finite_weight_exits_2(tmp_path, capsys):
    w = np.full((3, 4), 0.5, dtype=np.float32)
    w[1, 0] = np.nan  # on an input held at zero, so no spike ever reads it
    net = (
        NetworkBuilder((4,), coding=Coding.RATE, max_timesteps=6)
        .dense(3, IFL, weights=w)
        .build()
    )
    npath = write_net(tmp_path, net)
    inputs = write_inputs(tmp_path, [np.array([0.0, 0.5, 0.5, 0.5])])
    rc = main(
        ["profile", "--network", str(npath), "--inputs", str(inputs),
         "--encoding", "poisson", "--out", str(tmp_path / "o")]
    )
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field, value", [("bias", np.nan), ("v_th", np.inf)])
def test_profile_non_finite_neuron_parameter_exits_2(tmp_path, capsys, field, value):
    npath = write_net(tmp_path, dense_ifl())
    manifest = json.loads(npath.read_text())
    manifest["layers"][0]["neuron_model"][field] = value
    npath.write_text(json.dumps(manifest))  # a NaN or Infinity literal
    inputs = write_inputs(tmp_path, [np.full(4, 0.3)])
    rc = main(
        ["profile", "--network", str(npath), "--inputs", str(inputs),
         "--out", str(tmp_path / "o")]
    )
    assert rc == 2
    assert f"{field} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_profile_all_failed_dataset_reports_null_statistics(tmp_path, capsys):
    w = np.full((3, 4), 1e38, dtype=np.float32)
    net = (
        NetworkBuilder((4,), coding=Coding.RATE, max_timesteps=6)
        .dense(3, NeuronModelSpec(kind=NeuronKind.IFL, v_th=1e308), weights=w)
        .build()
    )
    npath = write_net(tmp_path, net)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for name in ("a.csv", "b.csv"):
        (inputs / name).write_text("1e300,1e300,1e300,1e300\n")
    out = tmp_path / "blown"
    rc = main(
        ["profile", "--network", str(npath), "--inputs", str(inputs),
         "--out", str(out)]
    )
    assert rc == 3
    assert "samples: 0/2 ok" in capsys.readouterr().out
    report = json.loads((out / "energy.json").read_text())
    null = {"mean": None, "std": None}
    assert report["n_ok"] == 0
    assert report["latency_T"] == null
    assert report["total_spikes"] == null
    assert report["synaptic_events_mean"] is None
    for block in report["methods"].values():
        assert block["E_tot"] == null
        assert block["approx_padding"] is False
        assert block["per_layer"] == [
            {"name": "0:dense", "kind": None, "E_syn": null, "E_upd": null,
             "E_rec": null, "E_tot": null}
        ]
    spikes = (out / "spikes.csv").read_text().splitlines()
    assert spikes[1] == "0,0:dense,dense,nan,nan"
    assert (out / "latency.csv").read_text().splitlines()[1:] == [
        "0,failed,,,", "1,failed,,,"
    ]


def test_profile_accepts_upper_case_suffixes(tmp_path, capsys):
    npath = write_net(tmp_path, dense_ifl())
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    save_input_tensor(inputs / "x.BIN", np.full(4, 0.3))
    (inputs / "y.CSV").write_text("0.3,0.3,0.3,0.3\n")
    out = tmp_path / "upper"
    rc = main(
        ["profile", "--network", str(npath), "--inputs", str(inputs),
         "--out", str(out)]
    )
    assert rc == 0, capsys.readouterr().err
    assert json.loads((out / "energy.json").read_text())["n_ok"] == 2


# ---------------------------------------------------------------------------
# trace


def single_chain(tmp_path):
    net = (
        NetworkBuilder((1,), coding=Coding.RATE, max_timesteps=4)
        .dense(1, IFL, weights=np.array([[1.0]], dtype=np.float32))
        .build()
    )
    npath = write_net(tmp_path, net)
    ipath = tmp_path / "x.bin"
    save_input_tensor(ipath, np.array([0.4]))
    return npath, ipath


def test_trace_covers_the_full_grid(tmp_path, capsys):
    npath, ipath = single_chain(tmp_path)
    out = tmp_path / "t"
    rc = main(
        ["trace", "--network", str(npath), "--inputs", str(ipath),
         "--out", str(out)]
    )
    assert rc == 0
    # current ramps 0.4, 0.8, 1.2, 1.6; v crosses 1.0 from t=2 on
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines == [
        "layer,t,spike_count",
        "0,1,0",
        "0,2,1",
        "0,3,1",
        "0,4,1",
    ]
    assert "class 0 after" in capsys.readouterr().out


def test_trace_roc_stops_at_the_first_output_spike(tmp_path):
    npath, ipath = single_chain(tmp_path)
    out = tmp_path / "roc"
    rc = main(
        ["trace", "--network", str(npath), "--inputs", str(ipath),
         "--coding", "roc", "--out", str(out)]
    )
    assert rc == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines == ["layer,t,spike_count", "0,1,0", "0,2,1"]


def test_trace_raster_lists_spike_events_only(tmp_path):
    npath, ipath = single_chain(tmp_path)
    out = tmp_path / "r"
    rc = main(
        ["trace", "--network", str(npath), "--inputs", str(ipath),
         "--raster", "--out", str(out)]
    )
    assert rc == 0
    lines = (out / "raster.csv").read_text().splitlines()
    assert lines == ["layer,neuron,t", "0,0,2", "0,0,3", "0,0,4"]


def test_trace_sample_index_must_exist(tmp_path, capsys):
    npath, ipath = single_chain(tmp_path)
    rc = main(
        ["trace", "--network", str(npath), "--inputs", str(ipath),
         "--sample", "5", "--out", str(tmp_path / "x")]
    )
    assert rc == 2
    assert "out of range" in capsys.readouterr().err


def test_trace_sample_k_draws_with_the_seed_profile_gives_it(tmp_path):
    # a fast leak keeps the counts following each step's input draws
    fast = NeuronModelSpec(
        kind=NeuronKind.LIF, dt=1e-3, tau_syn=2e-3, tau_mem=2e-3, v_th=0.5
    )
    net = (
        NetworkBuilder((16,), coding=Coding.RATE, max_timesteps=8)
        .dense(16, fast, weights=np.eye(16, dtype=np.float32))
        .build()
    )
    rng = np.random.default_rng(3)
    npath = write_net(tmp_path, net)
    inputs = write_inputs(tmp_path, [rng.uniform(0.2, 0.8, 16) for _ in range(3)])
    out = tmp_path / "t"
    rc = main(
        ["trace", "--network", str(npath), "--inputs", str(inputs),
         "--encoding", "poisson", "--seed", "5", "--sample", "2", "--out", str(out)]
    )
    assert rc == 0
    # sample k of a dataset draws from seed + k
    values = load_input_tensor(sorted(inputs.iterdir())[2], net.input_shape)
    counts = run_inference(net, encode(values, "poisson", 5 + 2)).trace.counts
    expected = ["layer,t,spike_count"] + [
        f"0,{t},{c}" for t, c in enumerate(counts[0].tolist(), start=1)
    ]
    assert (out / "trace.csv").read_text().splitlines() == expected


# ---------------------------------------------------------------------------
# calibrate / predict

TWO_POINTS = [
    Observation("a", S=10.0, U=4.0, E_joules=32.0),
    Observation("b", S=5.0, U=8.0, E_joules=34.0),
]


def test_calibrate_writes_the_fitted_model(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    write_observations_csv(obs, TWO_POINTS)
    out = tmp_path / "cal"
    rc = main(["calibrate", "--observations", str(obs), "--out", str(out)])
    assert rc == 0
    model = json.loads((out / "model.json").read_text())
    assert model["e_syn_J"] == 2.0
    assert model["e_upd_J"] == 3.0
    assert model["n_obs"] == 2
    assert "e_syn_J = 2.0" in capsys.readouterr().out


def test_calibrate_collinear_observations_exit_4(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    write_observations_csv(
        obs,
        [
            Observation("a", S=10.0, U=4.0, E_joules=32.0),
            Observation("b", S=20.0, U=8.0, E_joules=64.0),
        ],
    )
    rc = main(["calibrate", "--observations", str(obs), "--out", str(tmp_path)])
    assert rc == 4
    err = capsys.readouterr().err
    assert "rank deficient" in err
    assert "collinear" in err


@pytest.mark.parametrize("floor", ["nan", "inf", "-0.5"])
def test_calibrate_bad_floor_power_exits_2(tmp_path, capsys, floor):
    obs = tmp_path / "obs.csv"
    write_observations_csv(
        obs,
        [
            Observation("a", S=10.0, U=4.0, E_joules=32.0, duration_s=1.0),
            Observation("b", S=5.0, U=8.0, E_joules=34.0, duration_s=2.0),
        ],
    )
    out = tmp_path / "cal"
    rc = main(
        ["calibrate", "--observations", str(obs), "--floor-power", floor,
         "--out", str(out)]
    )
    assert rc == 2
    assert "floor power" in capsys.readouterr().err
    assert not (out / "model.json").exists()


def test_calibrate_negative_duration_under_floor_power_exits_2(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    write_observations_csv(
        obs,
        [
            Observation("a", S=10.0, U=4.0, E_joules=32.0, duration_s=1.0),
            Observation("back", S=5.0, U=8.0, E_joules=34.0, duration_s=-4.0),
            Observation("c", S=12.0, U=12.0, E_joules=60.0, duration_s=1.0),
        ],
    )
    out = tmp_path / "cal"
    rc = main(
        ["calibrate", "--observations", str(obs), "--floor-power", "0.1",
         "--out", str(out)]
    )
    assert rc == 2
    assert "negative duration_s" in capsys.readouterr().err
    assert not (out / "model.json").exists()


def test_calibrate_floor_power_needs_durations(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    write_observations_csv(obs, TWO_POINTS)
    rc = main(
        ["calibrate", "--observations", str(obs), "--floor-power", "0.5",
         "--out", str(tmp_path)]
    )
    assert rc == 4
    assert "duration" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows, floor, code, message",
    [
        ("a,1e-300,2e-300,3\nb,2e-300,1e-300,4\n", None, 4, "ill conditioned: "),
        ("a,1e-300,2e-300,3e300\nb,2e-300,1e-300,4e300\n", None, 4, "ill conditioned: "),
        ("a,10,4,32,10\nb,5,8,34,10\n", "1e308", 2, "schema error: "),
    ],
)
def test_calibrate_writes_no_model_that_is_not_finite(tmp_path, capsys, rows, floor, code,
                                                      message):
    obs = tmp_path / "obs.csv"
    header = "name,S,U,E_joules" + (",duration_s" if floor else "")
    obs.write_text(f"{header}\n{rows}")
    out = tmp_path / "cal"
    argv = ["calibrate", "--observations", str(obs), "--out", str(out)]
    rc = main(argv + (["--floor-power", floor] if floor else []))
    captured = capsys.readouterr()
    assert rc == code
    assert captured.err.startswith(f"error: {message}")
    assert "Warning" not in captured.err
    assert "nan" not in captured.out
    assert not (out / "model.json").exists()


@pytest.mark.parametrize(
    "rows",  # their squares underflow or overflow, the scaled fit's do not
    ["a,1e-160,2e-160,3\nb,2e-160,1e-160,4\n", "a,1e200,2e200,3e200\nb,2e200,1e200,4e200\n"],
)
def test_calibrate_fits_rows_whose_squares_leave_float64(tmp_path, capsys, rows):
    obs = tmp_path / "obs.csv"
    obs.write_text(f"name,S,U,E_joules\n{rows}")
    out = tmp_path / "cal"
    assert main(["calibrate", "--observations", str(obs), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    model = model_from_json((out / "model.json").read_text())
    assert np.isfinite([model.e_syn_J, model.e_upd_J, model.residual_rms]).all()
    assert np.isfinite(model.cov).all()


def test_predict_writes_no_prediction_that_is_not_finite(tmp_path, capsys):
    model = json.loads(model_to_json(fit_energy_model(TWO_POINTS)))
    model["e_syn_J"] = 1e308  # times 18 events a sample
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model))
    npath = write_net(tmp_path, dense_ifl())
    inputs = write_inputs(tmp_path, [np.full(4, 0.3)])
    out = tmp_path / "pred"
    rc = main(
        ["predict", "--model", str(model_path), "--network", str(npath),
         "--inputs", str(inputs), "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: schema error: the model predicts a non-finite")
    assert "Warning" not in captured.err
    assert "inf" not in captured.out
    assert not (out / "prediction.json").exists()


def test_predict_applies_the_model_to_measured_counts(tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_bytes(model_to_json(fit_energy_model(TWO_POINTS)))
    npath = write_net(tmp_path, dense_ifl())
    inputs = write_inputs(tmp_path, [np.full(4, 0.3)] * 2)
    out = tmp_path / "pred"
    rc = main(
        ["predict", "--model", str(model_path), "--network", str(npath),
         "--inputs", str(inputs), "--out", str(out)]
    )
    assert rc == 0
    pred = json.loads((out / "prediction.json").read_text())
    assert pred["n_ok"] == 2
    S, U = pred["synaptic_events_mean"], pred["update_count_mean"]
    assert pred["E_joules"] == pytest.approx(2.0 * S + 3.0 * U, rel=1e-12)
    # an exactly interpolating two-point fit carries no parameter spread
    assert pred["sigma_joules"] == pytest.approx(0.0, abs=1e-9)
    assert pred["reference_kind"] == "ifl"


@pytest.mark.parametrize("extra", [[], [Observation("c", S=4.0, U=4.0, E_joules=20.5)]])
def test_predict_warns_that_a_two_observation_sigma_is_noise(tmp_path, capsys, extra):
    model = fit_energy_model(TWO_POINTS + extra)
    model_path = tmp_path / "model.json"
    model_path.write_bytes(model_to_json(model))
    npath = write_net(tmp_path, dense_ifl())
    inputs = write_inputs(tmp_path, [np.full(4, 0.3)])
    out = tmp_path / "pred"
    rc = main(
        ["predict", "--model", str(model_path), "--network", str(npath),
         "--inputs", str(inputs), "--out", str(out)]
    )
    assert rc == 0
    warned = "sigma_joules is rounding noise" in capsys.readouterr().err
    assert warned == (model.n_obs == 2)
    assert set(json.loads((out / "prediction.json").read_text())) == {
        "E_joules", "sigma_joules", "synaptic_events_mean", "update_count_mean",
        "reference_kind", "n_ok", "n_samples",
    }


def test_predict_missing_model_exits_2(tmp_path, capsys):
    npath = write_net(tmp_path, dense_ifl())
    inputs = write_inputs(tmp_path, [np.full(4, 0.3)])
    rc = main(
        ["predict", "--model", str(tmp_path / "ghost.json"),
         "--network", str(npath), "--inputs", str(inputs),
         "--out", str(tmp_path / "p")]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value", [("e_syn_J", None), ("n_obs", None), ("e_syn_J", [1])]
)
def test_predict_malformed_model_exits_2(tmp_path, capsys, field, value):
    model = json.loads(model_to_json(fit_energy_model(TWO_POINTS)))
    model[field] = value
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model))
    npath = write_net(tmp_path, dense_ifl())
    inputs = write_inputs(tmp_path, [np.full(4, 0.3)])
    rc = main(
        ["predict", "--model", str(model_path), "--network", str(npath),
         "--inputs", str(inputs), "--out", str(tmp_path / "p")]
    )
    assert rc == 2
    assert f"model {field} must be" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_empty_input_directory_exits_2(tmp_path, capsys):
    npath = write_net(tmp_path, dense_ifl())
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(
        ["profile", "--network", str(npath), "--inputs", str(empty),
         "--out", str(tmp_path / "o")]
    )
    assert rc == 2
    assert "no .bin or .csv" in capsys.readouterr().err
