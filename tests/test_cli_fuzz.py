"""Hostile files and flags through ``cli.main``: a typed exit, never a traceback.

Every case must return 0, 2, 3 or 4, or end in argparse's usage exit 2;
byte-mutated weight containers and input tensors, 0 or 2.
Stderr never holds "Traceback", and a run that exits 0 writes outputs that
parse. Step budgets are drawn only from small values and from values whose
histories cannot be allocated at all, never from budgets an allocator could
grant lazily and then fill for hours.
"""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from emacprof import (
    Coding,
    NetworkBuilder,
    NeuronKind,
    NeuronModelSpec,
    Observation,
    fit_energy_model,
    model_from_json,
    model_to_json,
    save_input_tensor,
    serialize_network,
)
from emacprof.cli import main

EXITS = {0, 2, 3, 4}
FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    """Two small networks with their weights and inputs, and a fitted model."""
    root = tmp_path_factory.mktemp("fuzz")
    net = (
        NetworkBuilder((4,), coding=Coding.RATE, max_timesteps=6)
        .dense(3, NeuronModelSpec(kind=NeuronKind.IFL, v_th=1.0),
               weights=np.full((3, 4), 0.5, dtype=np.float32))
        .build()
    )
    manifest, weights = serialize_network(net)
    (root / "net.json").write_bytes(manifest)
    (root / "net.emwt").write_bytes(weights)
    inputs = root / "inputs"
    inputs.mkdir()
    for k, level in enumerate((0.3, 0.6)):
        save_input_tensor(inputs / f"sample{k}.bin", np.full(4, level))
    conv = (  # every kind of manifest field: shapes, kernel, stride, padding, models
        NetworkBuilder((1, 4, 4), coding=Coding.RATE, max_timesteps=6)
        .conv2d(2, (3, 3), NeuronModelSpec(kind=NeuronKind.LIF, dt=1e-3, tau_syn=5e-3,
                                           tau_mem=1e-2, v_th=0.5),
                padding=1, weights=np.full(18, 0.25, dtype=np.float32))
        .max_pool((2, 2))
        .flatten()
        .dense(3, NeuronModelSpec(kind=NeuronKind.IFL, v_th=1.0),
               weights=np.full((3, 8), 0.5, dtype=np.float32))
        .build()
    )
    manifest, weights = serialize_network(conv)
    (root / "conv.json").write_bytes(manifest)
    (root / "conv.emwt").write_bytes(weights)
    images = root / "images"
    images.mkdir()
    save_input_tensor(images / "sample0.bin", np.linspace(0.0, 0.6, 16).reshape(1, 4, 4))
    (root / "sample0.csv").write_text(
        ",".join(f"{v:.3f}" for v in np.linspace(0.0, 0.6, 16)) + "\n"
    )
    model = fit_energy_model([
        Observation("a", S=10.0, U=4.0, E_joules=32.0),
        Observation("b", S=5.0, U=8.0, E_joules=34.0),
    ])
    (root / "model.json").write_bytes(model_to_json(model))
    return root


def run_main(argv: list[str]) -> tuple[int, str]:
    """``main``'s exit code, argparse's included, and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            rc = exc.code
            assert rc == 2, err.getvalue()
    assert rc in EXITS, err.getvalue()
    assert "Traceback" not in err.getvalue()
    return rc, err.getvalue()


def parse_outputs(out: Path) -> None:
    """Every file a successful run wrote parses."""
    written = list(out.iterdir())
    assert written
    for path in written:
        if path.name == "model.json":
            model_from_json(path.read_bytes())  # finite numbers only
        elif path.suffix == ".json":
            json.loads(path.read_text())
        else:
            rows = list(csv.reader(path.read_text().splitlines()))
            assert rows and all(len(row) == len(rows[0]) for row in rows)


# ---------------------------------------------------------------------------
# calibrate and predict

def magnitudes(exponents):
    return st.builds(
        lambda sign, mantissa, exponent: f"{sign}{mantissa}e{exponent}",
        st.sampled_from(["", "", "-"]),
        st.sampled_from(["1", "2.5", "9.99"]),
        exponents,
    )


hostile_cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "", " ", "1e400",
                     "x", "0", "-0.0"]),
)


@st.composite
def observation_rows(draw):
    """Up to four rows of S, U, E_joules and duration_s cells, most of them
    numbers near one scale, whose squares may underflow or overflow."""
    scale = draw(st.sampled_from([-318, -300, -160, -3, 0, 3, 160, 200, 305]))
    near = magnitudes(st.integers(scale - 3, scale + 3))
    cell = st.one_of(near, near, near, hostile_cells)
    return draw(st.lists(st.tuples(cell, cell, cell, cell), max_size=4))


floor_powers = st.one_of(
    st.none(),
    magnitudes(st.integers(-320, 308)),
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e308", "1e-320", "watts"]),
)


@FUZZ
@given(
    rows=observation_rows(),
    with_duration=st.booleans(),
    floor=floor_powers,
)
def test_calibrate_on_hostile_observations(rows, with_duration, floor):
    with tempfile.TemporaryDirectory() as tmp:
        obs = Path(tmp) / "obs.csv"
        header = "name,S,U,E_joules" + (",duration_s" if with_duration else "")
        width = 4 if with_duration else 3  # S, U, E_joules and duration_s
        lines = [header] + [",".join([f"r{k}", *row[:width]]) for k, row in enumerate(rows)]
        obs.write_text("\n".join(lines) + "\n")
        out = Path(tmp) / "out"
        argv = ["calibrate", "--observations", str(obs), "--out", str(out)]
        rc, _ = run_main(argv + (["--floor-power", floor] if floor is not None else []))
        if rc == 0:
            parse_outputs(out)
        else:
            assert not (out / "model.json").exists()


model_values = st.one_of(
    magnitudes(st.integers(-320, 308)).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**400), 10**400),
    st.sampled_from([None, True, False, "1.0", [], {}, [1.0] * 4, [1.0] * 3]),
)


@FUZZ
@given(
    field=st.sampled_from(["e_syn_J", "e_upd_J", "cov", "residual_rms", "n_obs"]),
    value=model_values,
    index=st.integers(0, 3),
)
def test_predict_with_a_hostile_model(fixture_files, field, value, index):
    model = json.loads((fixture_files / "model.json").read_text())
    if field == "cov" and not isinstance(value, list):
        model["cov"][index] = value  # one entry of the covariance
    else:
        model[field] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(model))  # NaN and infinities as JSON tokens
        out = Path(tmp) / "out"
        rc, _ = run_main(
            ["predict", "--model", str(path), "--network", str(fixture_files / "net.json"),
             "--inputs", str(fixture_files / "inputs"), "--out", str(out)]
        )
        if rc == 0:
            parse_outputs(out)
            prediction = json.loads((out / "prediction.json").read_text())
            assert prediction["E_joules"] is not None
            assert prediction["sigma_joules"] is not None
        else:
            assert not (out / "prediction.json").exists()


# ---------------------------------------------------------------------------
# profile and trace

budgets = st.one_of(
    st.integers(-3, 64).map(str),
    st.integers(10**13, 2**80).map(str),
    st.sampled_from(["1.5", "1e3", "", "x", "nan"]),
)
seeds = st.one_of(st.integers(-(2**80), 2**80).map(str), st.sampled_from(["0.5", "seed"]))
samples = st.one_of(st.integers(-(2**70), 2**70).map(str), st.sampled_from(["1.0", ""]))


@FUZZ
@given(
    command=st.sampled_from(["profile", "trace"]),
    t_max=st.one_of(st.none(), budgets),
    seed=st.one_of(st.none(), seeds),
    sample=st.one_of(st.none(), samples),
    encoding=st.sampled_from(["analog", "poisson"]),
)
def test_runs_with_hostile_flags(fixture_files, command, t_max, seed, sample, encoding):
    argv = [command, "--network", str(fixture_files / "net.json"),
            "--inputs", str(fixture_files / "inputs"), "--encoding", encoding]
    for flag, value in (("--t-max", t_max), ("--seed", seed)):
        if value is not None:
            argv += [flag, value]
    if command == "trace" and sample is not None:
        argv += ["--sample", sample]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        rc, _ = run_main(argv + ["--out", str(out)])
        if rc == 0:
            parse_outputs(out)


# ---------------------------------------------------------------------------
# inspect, profile and trace on hostile manifests


def field_paths(node, path=()):
    """The path of every field of a parsed manifest, nested ones included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield (*path, key)
        if isinstance(value, (dict, list)):
            yield from field_paths(value, (*path, key))


# no integer from 2 to 10**13 - 1: as a step budget it could be granted lazily
field_values = st.one_of(
    st.integers(10**13, 10**400),
    st.integers(-(10**13), -1),
    st.floats(min_value=1e300, max_value=1.7e308),
    st.floats(max_value=-1e-300),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), True, False, None, 0, 0.5]),
    st.sampled_from(["", "x", "lif", "conv2d", "rate", "7"]),
    st.sampled_from([[], [1], [10**13] * 3, [1.5, 2], ["a", "b"], [[1, 1]], [-1, 4, 4], {}]),
)


@FUZZ
@given(data=st.data(), command=st.sampled_from(["inspect", "profile", "trace"]))
def test_a_manifest_with_a_hostile_field(fixture_files, data, command):
    manifest = json.loads((fixture_files / "conv.json").read_text())
    path = data.draw(st.sampled_from(list(field_paths(manifest))), label="field")
    value = data.draw(field_values, label="value")
    node = manifest
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        net = Path(tmp) / "net.json"
        net.write_text(json.dumps(manifest))  # NaN and infinities as JSON tokens
        argv = [command, "--network", str(net), "--weights", str(fixture_files / "conv.emwt")]
        out = Path(tmp) / "out"
        if command != "inspect":
            argv += ["--inputs", str(fixture_files / "images"), "--encoding", "poisson",
                     "--out", str(out)]
        rc, _ = run_main(argv)
        if rc == 0 and command != "inspect":
            parse_outputs(out)


# ---------------------------------------------------------------------------
# inspect and profile on byte-mutated weights and inputs


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """``data`` with one byte flipped, cut short, extended, or a range
    replaced by random bytes."""
    kind = draw(st.sampled_from(["flip", "truncate", "extend", "splice"]))
    at = draw(st.integers(0, len(data) - 1))
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
    if kind == "truncate":
        return data[:at]
    junk = draw(st.binary(min_size=1, max_size=16))
    if kind == "extend":
        return data + junk
    return data[:at] + junk + data[draw(st.integers(at, len(data))) :]


@pytest.mark.filterwarnings("error")  # on the command line a warning would reach stderr
@settings(FUZZ, max_examples=80)
@given(
    data=st.data(),
    target=st.sampled_from(["conv.emwt", "images/sample0.bin", "sample0.csv"]),
    command=st.sampled_from(["inspect", "profile"]),
)
def test_byte_mutated_weights_and_inputs(fixture_files, data, target, command):
    mutated = data.draw(mutations((fixture_files / target).read_bytes()), label="bytes")
    with tempfile.TemporaryDirectory() as tmp:
        weights, inputs = fixture_files / "conv.emwt", fixture_files / "images"
        if target == "conv.emwt":
            weights = Path(tmp) / "conv.emwt"
            weights.write_bytes(mutated)
        else:  # inspect reads no inputs, so a mutated input goes to profile
            command = "profile"
            inputs = Path(tmp) / "inputs"
            inputs.mkdir()
            (inputs / Path(target).name).write_bytes(mutated)
        argv = [command, "--network", str(fixture_files / "conv.json"),
                "--weights", str(weights)]
        out = Path(tmp) / "out"
        if command == "profile":
            argv += ["--inputs", str(inputs), "--encoding", "poisson", "--out", str(out)]
        rc, _ = run_main(argv)
        assert rc in (0, 2)
        if rc == 0 and command == "profile":
            parse_outputs(out)
