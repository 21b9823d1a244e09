import copy
import dataclasses
import gc
import hashlib
import json
import pickle
import re
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from emacprof import (
    Coding,
    EmacProfError,
    LayerKind,
    MaskViolation,
    NetworkBuilder,
    NeuronKind,
    NeuronModelSpec,
    SchemaError,
    ShapeMismatch,
    UnknownRef,
    encode,
    networks_equal,
    parse_manifest,
    parse_network,
    read_weights_container,
    layer_counts,
    run_inference,
    serialize_network,
    write_weights_container,
)
from emacprof.netspec import (
    LayerSpec,
    NetworkSpec,
    conv_output_hw,
    fanout_map,
    lcl_mask,
    realized_connections,
    recurrent_weight_tensor,
    weight_tensor,
)
from emacprof import netspec
from emacprof.cli import main

IFL = NeuronModelSpec(kind=NeuronKind.IFL)
ANN = NeuronModelSpec(kind=NeuronKind.ANN_RELU)


def dense_manifest(n_in=4, n_out=3, model_kind="ifl"):
    return {
        "version": 1,
        "coding": "rate",
        "max_timesteps": 16,
        "layers": [
            {
                "kind": "dense",
                "input_shape": [n_in],
                "output_shape": [n_out],
                "neuron_model": {"kind": model_kind},
                "weights_ref": "w0",
            }
        ],
    }


def dense_weights(n_in=4, n_out=3):
    return write_weights_container(
        {"w0": np.arange(n_in * n_out, dtype=np.float32)}
    )


def enumerate_conv_connections(in_shape, out_hw, kernel, stride, padding):
    """Count realized taps one output position at a time."""
    c_in, h, w = in_shape
    total = 0
    for oy in range(out_hw[0]):
        for ox in range(out_hw[1]):
            for ky in range(kernel[0]):
                for kx in range(kernel[1]):
                    iy = oy * stride[0] - padding + ky
                    ix = ox * stride[1] - padding + kx
                    if 0 <= iy < h and 0 <= ix < w:
                        total += c_in
    return total


# ---------------------------------------------------------------------------
# parsing


def test_dense_manifest_parses_with_counts():
    net = parse_network(json.dumps(dense_manifest()), dense_weights())
    counts = [layer_counts(layer) for layer in net.layers]
    assert len(net.layers) == 1
    assert counts[0].neurons == 3
    assert counts[0].fanin == 4
    assert counts[0].recurrent_fanin == 0
    assert net.coding is Coding.RATE
    assert net.max_timesteps == 16


def test_conv_manifest_counts():
    manifest = {
        "version": 1,
        "coding": "roc",
        "max_timesteps": 32,
        "layers": [
            {
                "kind": "conv2d",
                "input_shape": [3, 64, 64],
                "output_shape": [16, 62, 62],
                "kernel": [3, 3],
                "padding": "valid",
                "neuron_model": {"kind": "ifl"},
                "weights_ref": "k",
            },
            {
                "kind": "flatten",
                "input_shape": [16, 62, 62],
                "output_shape": [61504],
            },
            {
                "kind": "dense",
                "input_shape": [61504],
                "output_shape": [10],
                "neuron_model": {"kind": "ifl"},
                "weights_ref": "head",
            },
        ],
    }
    weights = write_weights_container(
        {
            "k": np.zeros(16 * 3 * 3 * 3, dtype=np.float32),
            "head": np.zeros(10 * 61504, dtype=np.float32),
        }
    )
    net = parse_network(json.dumps(manifest), weights)
    counts = [layer_counts(layer) for layer in net.layers]
    assert net.layers[0].output_shape == (16, 62, 62)
    assert counts[0].neurons == 61504
    assert counts[0].fanin == 27
    assert counts[1].fanin == 0
    assert counts[2].fanin == 61504


def test_wrong_weight_count_is_rejected():
    with pytest.raises(ShapeMismatch):
        parse_network(
            json.dumps(dense_manifest()),
            write_weights_container({"w0": np.zeros(11, dtype=np.float32)}),
        )


def test_dangling_weights_ref_is_rejected():
    with pytest.raises(UnknownRef):
        parse_network(
            json.dumps(dense_manifest()),
            write_weights_container({"other": np.zeros(12, dtype=np.float32)}),
        )


def test_adjacent_shape_mismatch_is_rejected():
    manifest = dense_manifest()
    manifest["layers"].append(
        {
            "kind": "dense",
            "input_shape": [5],  # previous layer emits 3
            "output_shape": [2],
            "neuron_model": {"kind": "ifl"},
            "weights_ref": "w1",
        }
    )
    weights = write_weights_container(
        {
            "w0": np.zeros(12, dtype=np.float32),
            "w1": np.zeros(10, dtype=np.float32),
        }
    )
    with pytest.raises(ShapeMismatch):
        parse_network(json.dumps(manifest), weights)


def test_declared_conv_output_shape_must_match_geometry():
    manifest = {
        "version": 1,
        "coding": "rate",
        "max_timesteps": 4,
        "layers": [
            {
                "kind": "conv2d",
                "input_shape": [1, 8, 8],
                "output_shape": [4, 7, 7],  # k=3 s=1 p=0 gives 6x6
                "kernel": [3, 3],
                "neuron_model": {"kind": "ifl"},
                "weights_ref": "k",
            }
        ],
    }
    weights = write_weights_container({"k": np.zeros(36, dtype=np.float32)})
    with pytest.raises(ShapeMismatch):
        parse_network(json.dumps(manifest), weights)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda m: m.update(version=2),
        lambda m: m.update(coding="first_spike"),
        lambda m: m.update(max_timesteps=0),
        lambda m: m.update(extra=1),
        lambda m: m["layers"][0].update(kind="conv3d"),
        lambda m: m["layers"][0].update(surprise=True),
        lambda m: m["layers"][0]["neuron_model"].update(kind="izhikevich"),
        lambda m: m["layers"][0].pop("output_shape"),
    ],
)
def test_malformed_manifests_are_rejected(mutate):
    manifest = dense_manifest()
    mutate(manifest)
    with pytest.raises(SchemaError):
        parse_network(json.dumps(manifest), dense_weights())


@pytest.mark.parametrize("field", ["bias", "v_th", "dt"])
def test_neuron_parameters_past_the_float_range_are_schema_errors(field):
    manifest = dense_manifest()
    manifest["layers"][0]["neuron_model"][field] = 10**400  # a valid JSON integer
    with pytest.raises(SchemaError, match=f"{field} is out of the float range"):
        parse_network(json.dumps(manifest), dense_weights())


def test_manifest_must_be_json():
    with pytest.raises(SchemaError):
        parse_manifest(b"not json at all {")


def test_padding_accepts_valid_and_integers():
    manifest = {
        "version": 1,
        "coding": "rate",
        "max_timesteps": 4,
        "layers": [
            {
                "kind": "conv2d",
                "input_shape": [1, 4, 4],
                "output_shape": [2, 4, 4],
                "kernel": [3, 3],
                "padding": 1,
                "neuron_model": {"kind": "ifl"},
                "weights_ref": "k",
            }
        ],
    }
    weights = write_weights_container({"k": np.zeros(18, dtype=np.float32)})
    net = parse_network(json.dumps(manifest), weights)
    assert net.layers[0].padding == 1
    manifest["layers"][0]["padding"] = -1
    with pytest.raises(SchemaError):
        parse_network(json.dumps(manifest), weights)


# ---------------------------------------------------------------------------
# structural counts


def test_vgg_style_downsampling_conv_counts():
    layer = LayerSpec(
        kind=LayerKind.CONV2D,
        input_shape=(16, 32, 32),
        output_shape=(32, 16, 16),
        kernel=(5, 5),
        stride=(2, 2),
        padding=2,
        neuron_model=IFL,
        weights_ref="k",
    )
    assert conv_output_hw((32, 32), (5, 5), (2, 2), 2) == (16, 16)
    from emacprof import layer_counts

    c = layer_counts(layer)
    assert c.neurons == 32 * 16 * 16
    assert c.fanin == 5 * 5 * 16 == 400


def test_recurrent_and_pool_counts():
    from emacprof import layer_counts

    rec = LayerSpec(
        kind=LayerKind.RECURRENT_DENSE,
        input_shape=(40,),
        output_shape=(100,),
        neuron_model=IFL,
        weights_ref="w",
        recurrent_weights_ref="r",
    )
    c = layer_counts(rec)
    assert c.neurons == 100
    assert c.recurrent_fanin == 100

    pool = LayerSpec(
        kind=LayerKind.MAX_POOL2D,
        input_shape=(16, 62, 62),
        output_shape=(16, 31, 31),
        kernel=(2, 2),
        stride=(2, 2),
    )
    c = layer_counts(pool)
    assert c.neurons == 16 * 31 * 31
    assert c.fanin == 4


def test_conv_structural_bound_against_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(25):
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 5))
        h = int(rng.integers(4, 12))
        w = int(rng.integers(4, 12))
        k = int(rng.integers(1, min(h, w) + 1))
        s = int(rng.integers(1, 4))
        p = int(rng.integers(0, k))
        try:
            out_hw = conv_output_hw((h, w), (k, k), (s, s), p)
        except ShapeMismatch:
            continue
        layer = LayerSpec(
            kind=LayerKind.CONV2D,
            input_shape=(c_in, h, w),
            output_shape=(c_out, *out_hw),
            kernel=(k, k),
            stride=(s, s),
            padding=p,
            neuron_model=IFL,
            weights_ref="k",
        )
        enumerated = enumerate_conv_connections(
            (c_in, h, w), out_hw, (k, k), (s, s), p
        )
        assert realized_connections(layer) == enumerated * c_out
        structural = (k * k * c_in) * (c_out * out_hw[0] * out_hw[1])
        assert realized_connections(layer) <= structural
        if p == 0 and (h - k) % s == 0 and (w - k) % s == 0 and k <= s:
            # non-overlapping exact tiling: every tap lands inside
            assert realized_connections(layer) == structural


def test_a_flatten_reaches_no_neuron():
    # a flatten re-emits its input, so it books no synaptic event
    layer = LayerSpec(kind=LayerKind.FLATTEN, input_shape=(2, 3, 3), output_shape=(18,))
    fan = fanout_map(layer)
    assert fan.shape == (2, 3, 3) and not fan.any()
    assert realized_connections(layer) == 0


def test_fanout_map_totals_match_realized_connections():
    layer = LayerSpec(
        kind=LayerKind.CONV2D,
        input_shape=(2, 5, 5),
        output_shape=(3, 3, 3),
        kernel=(3, 3),
        stride=(1, 1),
        padding=0,
        neuron_model=IFL,
        weights_ref="k",
    )
    fan = fanout_map(layer)
    assert fan.shape == (2, 5, 5)
    # valid padding with full interior coverage: per-position fanout sums
    # to the structural product exactly
    assert int(fan.sum()) == realized_connections(layer)
    assert int(fan.sum()) == (3 * 3 * 2) * (3 * 3 * 3)
    # the centre pixel feeds every kernel placement
    assert fan[0, 2, 2] == 3 * 3 * 3


# ---------------------------------------------------------------------------
# locally connected masks


def lcl_layer():
    return LayerSpec(
        kind=LayerKind.LOCALLY_CONNECTED,
        input_shape=(1, 4, 4),
        output_shape=(2, 2, 2),
        kernel=(3, 3),
        stride=(1, 1),
        neuron_model=IFL,
        weights_ref="m",
    )


def test_lcl_weights_outside_receptive_field_are_rejected():
    layer = lcl_layer()
    mask = lcl_mask(layer)
    weights = np.zeros(mask.shape, dtype=np.float32)
    weights[mask] = 1.0
    net = NetworkSpec(
        layers=(layer,),
        weights={"m": weights.reshape(-1)},
        coding=Coding.RATE,
        max_timesteps=4,
    )
    assert layer_counts(net.layers[0]).fanin == 9

    bad = weights.copy()
    outside = np.argwhere(~mask)[0]
    bad[tuple(outside)] = 1e-3
    with pytest.raises(MaskViolation):
        NetworkSpec(
            layers=(layer,),
            weights={"m": bad.reshape(-1)},
            coding=Coding.RATE,
            max_timesteps=4,
        )


def test_lcl_mask_geometry():
    mask = lcl_mask(lcl_layer())
    assert mask.shape == (8, 16)
    # every output neuron sees exactly kernel-area * C_in inputs
    assert (mask.sum(axis=1) == 9).all()


# ---------------------------------------------------------------------------
# weights container


def test_container_round_trip_bit_exact():
    rng = np.random.default_rng(3)
    blocks = {
        "a": rng.standard_normal(7).astype(np.float32),
        "zz": rng.standard_normal(130).astype(np.float32),
        "m1": np.array([np.float32(np.pi)], dtype=np.float32),
    }
    data = write_weights_container(blocks)
    back = read_weights_container(data)
    assert set(back) == set(blocks)
    for name, arr in blocks.items():
        assert back[name].dtype == np.float32
        assert back[name].tobytes() == arr.tobytes()


def test_container_serialization_is_canonical():
    blocks = {"b": np.zeros(2, dtype=np.float32), "a": np.ones(3, dtype=np.float32)}
    once = write_weights_container(blocks)
    again = write_weights_container(dict(reversed(list(blocks.items()))))
    assert once == again


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda d: b"XXXX" + d[4:],  # wrong magic
        lambda d: d[:20],  # truncated table
        lambda d: d[:-1],  # truncated payload
    ],
)
def test_container_rejects_corruption(corrupt):
    data = write_weights_container({"w": np.arange(5, dtype=np.float32)})
    with pytest.raises(SchemaError):
        read_weights_container(corrupt(data))


# ---------------------------------------------------------------------------
# round trips


def test_network_round_trip_is_identical():
    rng = np.random.default_rng(5)
    net = (
        NetworkBuilder((1, 8, 8), coding=Coding.ROC, max_timesteps=24)
        .conv2d(4, (3, 3), IFL, weights=rng.standard_normal(4 * 1 * 9))
        .max_pool((2, 2))
        .flatten()
        .dense(5, IFL, weights=rng.standard_normal(5 * 36))
        .build()
    )
    manifest, weights = serialize_network(net)
    back = parse_network(manifest, weights)
    assert networks_equal(net, back)
    manifest2, weights2 = serialize_network(back)
    assert manifest2 == manifest
    assert weights2 == weights


FINITE32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def neuron_models(draw, spiking: bool) -> NeuronModelSpec:
    bias = draw(st.floats(-1.0, 1.0))
    if not spiking:
        return NeuronModelSpec(kind=NeuronKind.ANN_RELU, bias=bias)
    dt = draw(st.sampled_from([1e-4, 1e-3, 0.1, 1.0]))
    kind = draw(st.sampled_from([NeuronKind.LIF, NeuronKind.IFL]))
    taus = {}
    if kind is NeuronKind.LIF:
        taus = {
            "tau_syn": dt * draw(st.floats(1.5, 100.0)),
            "tau_mem": dt * draw(st.floats(1.5, 100.0)),
        }
    return NeuronModelSpec(
        kind=kind,
        dt=dt,
        v_th=draw(st.floats(1e-3, 10.0)),
        bias=bias,
        spike_once=draw(st.booleans()),
        **taus,
    )


@st.composite
def networks(draw) -> NetworkSpec:
    """Small valid networks of every layer kind, with arbitrary finite weights."""
    c, h, w = draw(st.integers(1, 2)), draw(st.integers(3, 8)), draw(st.integers(3, 8))
    b = NetworkBuilder(
        (c, h, w),
        coding=draw(st.sampled_from(list(Coding))),
        max_timesteps=draw(st.integers(1, 64)),
    )
    spiking = draw(st.booleans())  # False: a rectifier prefix comes first

    def model() -> NeuronModelSpec:
        nonlocal spiking
        spiking = spiking or draw(st.booleans())
        return draw(neuron_models(spiking))

    def weights(n: int) -> np.ndarray:
        return draw(hnp.arrays(np.float32, n, elements=FINITE32))

    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(["conv", "pool", "lcl"]))
        p = draw(st.integers(0, 1)) if op == "conv" else 0
        kh = draw(st.integers(1, min(3, h + 2 * p)))
        kw = draw(st.integers(1, min(3, w + 2 * p)))
        stride = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
        oh, ow = conv_output_hw((h, w), (kh, kw), stride, p)
        if op == "pool":
            b.max_pool((kh, kw), stride=stride)
            h, w = oh, ow
            continue
        f = draw(st.integers(1, 3))
        if op == "conv":
            b.conv2d(f, (kh, kw), model(), stride=stride, padding=p,
                     weights=weights(f * c * kh * kw))
        else:
            mask = lcl_mask(LayerSpec(
                kind=LayerKind.LOCALLY_CONNECTED, input_shape=(c, h, w),
                output_shape=(f, oh, ow), kernel=(kh, kw), stride=stride,
            ))
            values = np.where(mask, weights(mask.size).reshape(mask.shape), 0)
            b.locally_connected(f, (kh, kw), model(), stride=stride, weights=values)
        c, h, w = f, oh, ow
    b.flatten()
    n_in = c * h * w
    for _ in range(draw(st.integers(0, 2))):
        units = draw(st.integers(1, 6))
        m = model()
        if m.kind.spiking and draw(st.booleans()):
            b.recurrent_dense(units, m, weights=weights(units * n_in),
                              recurrent_weights=weights(units * units))
        else:
            b.dense(units, m, weights=weights(units * n_in))
        n_in = units
    units = draw(st.integers(1, 4))
    return b.dense(units, model(), weights=weights(units * n_in)).build()


@settings(max_examples=50, deadline=None)
@given(net=networks())
def test_any_network_round_trips_byte_identically(net):
    manifest, weights = serialize_network(net)
    back = parse_network(manifest, weights)
    assert networks_equal(net, back)
    assert serialize_network(back) == (manifest, weights)
    for spec in (net, back):
        assert not any(block.flags.writeable for block in spec.weights.values())


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([0, -1, 2**31, 2**64, 10**400])
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_bytes(draw, blob: bytes) -> bytes:
    """``blob`` with a few bytes overwritten, inserted, deleted or cut off."""
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(out)))
        how = draw(st.sampled_from(["overwrite", "insert", "delete", "truncate"]))
        if how == "truncate":
            del out[at:]
        elif how == "delete":
            del out[at : at + draw(st.integers(1, 8))]
        else:
            chunk = draw(st.binary(min_size=1, max_size=8))
            out[at : at + (len(chunk) if how == "overwrite" else 0)] = chunk
    return bytes(out)


@st.composite
def mutated_fields(draw, manifest: bytes) -> bytes:
    """``manifest`` with one field replaced by an arbitrary JSON value, or removed."""
    doc = json.loads(manifest)
    parent, key, node = None, None, doc
    # walk down from the root, at least one level, stopping at random
    while isinstance(node, (dict, list)) and node:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(keys))
        node = node[key]
        if not draw(st.booleans()):
            break
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(JSON_VALUES)
    return json.dumps(doc).encode()


@settings(max_examples=100, deadline=None)
@given(net=networks(), data=st.data())
def test_mutated_files_raise_only_package_errors(net, data):
    manifest, weights = serialize_network(net)
    which = data.draw(st.sampled_from(["manifest bytes", "manifest field", "weights"]))
    if which == "manifest bytes":
        manifest = data.draw(mutated_bytes(manifest))
    elif which == "manifest field":
        manifest = data.draw(mutated_fields(manifest))
    else:
        weights = data.draw(mutated_bytes(weights))
    try:
        parse_network(manifest, weights)
    except EmacProfError:
        pass


# ---------------------------------------------------------------------------
# immutability


def built_spec() -> NetworkSpec:
    rng = np.random.default_rng(7)
    return (
        NetworkBuilder((1, 5, 5), max_timesteps=8)
        .conv2d(2, (3, 3), IFL, weights=rng.standard_normal(18))
        .flatten()
        .recurrent_dense(4, IFL, weights=rng.standard_normal(72),
                         recurrent_weights=rng.standard_normal(16))
        .dense(3, IFL, weights=rng.standard_normal(12))
        .build()
    )


def parsed_spec() -> NetworkSpec:
    return parse_network(*serialize_network(built_spec()))


@pytest.mark.parametrize("make", [built_spec, parsed_spec])
def test_a_spec_cannot_change(make):
    net = make()
    files = serialize_network(net)
    assert set(net.weights) == {"l0_w", "l2_w", "l2_rw", "l3_w"}
    for name in net.weights:
        with pytest.raises(ValueError, match="read-only"):
            net.weights[name][0] = 1.0
        with pytest.raises(TypeError):
            net.weights[name] = np.zeros(net.weights[name].size, np.float32)
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.layers = net.layers[:1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.weights = {}
    assert serialize_network(net) == files
    assert networks_equal(net, parsed_spec())


def cannot_be_made_writable(net: NetworkSpec) -> bool:
    for block in net.weights.values():
        with pytest.raises(ValueError, match="WRITEABLE"):
            block.setflags(write=True)
    return not any(block.flags.writeable for block in net.weights.values())


@pytest.mark.parametrize("make", [built_spec, parsed_spec])
def test_a_spec_block_cannot_be_made_writable_again(make):
    net = make()
    files = serialize_network(net)
    assert cannot_be_made_writable(net)
    assert serialize_network(net) == files


def test_a_parsed_spec_views_the_container_bytes():
    manifest, container = serialize_network(built_spec())
    net = parse_network(manifest, container)
    assert all(block.base is container for block in net.weights.values())
    # any other buffer is copied once, so the caller's stays theirs
    buffer = bytearray(container)
    net = parse_network(manifest, buffer)
    assert cannot_be_made_writable(net)
    assert not any(np.shares_memory(b, np.frombuffer(buffer, np.uint8))
                   for b in net.weights.values())
    buffer[-4:] = np.float32(np.nan).tobytes()
    assert networks_equal(net, parsed_spec())


def test_networks_equal_tells_each_part_of_a_spec_apart():
    net = built_spec()
    blocks = dict(net.weights)
    flipped = blocks["l3_w"].copy()
    flipped.view(np.uint32)[5] ^= 1  # the last bit of one weight
    spare = np.zeros(1, np.float32)
    assert networks_equal(net, NetworkSpec(net.layers, blocks, net.coding, 8))
    for other in (
        NetworkSpec(net.layers, blocks, net.coding, 9),  # the step budget
        NetworkSpec(net.layers, blocks, Coding.ROC, 8),
        NetworkSpec(net.layers[:-1], blocks, net.coding, 8),  # l3_w unused
        NetworkSpec(net.layers, {**blocks, "spare": spare}, net.coding, 8),  # a block name
        NetworkSpec(net.layers, {**blocks, "l3_w": flipped}, net.coding, 8),
    ):
        assert not networks_equal(net, other) and not networks_equal(other, net)


def test_a_spec_pickles_and_deep_copies_as_a_frozen_spec():
    net = built_spec()
    for twin in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
        assert networks_equal(twin, net)
        assert cannot_be_made_writable(twin)


def test_derived_builds_once_per_spec_and_arguments_and_keeps_no_failure():
    net = built_spec()
    built = []

    def build(net, k):
        built.append(k)
        if k < 0:
            raise SchemaError(f"no build for {k}")
        return [k]

    first = netspec.derived(net, build, 1)
    assert netspec.derived(net, build, 1) is first and first == [1]
    assert netspec.derived(net, build, 2) == [2]
    for _ in range(2):
        with pytest.raises(SchemaError, match="^no build for -1$"):
            netspec.derived(net, build, -1)
    assert built == [1, 2, -1, -1]
    assert set(netspec._DERIVED[net]) == {(build, 1), (build, 2)}
    twin = copy.deepcopy(net)
    assert netspec.derived(twin, build, 1) is not first and built[-1] == 1


def test_the_builder_copies_the_callers_weights():
    values = np.ones(12, dtype=np.float32)
    builder = NetworkBuilder((4,), max_timesteps=4).dense(3, IFL, weights=values)
    net = builder.build()
    values[0] = np.nan  # would get past the finiteness check if it were shared
    assert not np.shares_memory(values, net.weights["l0_w"])
    assert (net.weights["l0_w"] == 1.0).all()
    assert (builder.build().weights["l0_w"] == 1.0).all()
    assert values.flags.writeable  # the caller's array stays theirs


def test_a_spec_copies_blocks_it_does_not_own():
    layer = LayerSpec(kind=LayerKind.DENSE, input_shape=(4,), output_shape=(3,),
                      neuron_model=IFL, weights_ref="w")
    values = np.ones(12, dtype=np.float32)
    read_only_view = values[:]
    read_only_view.setflags(write=False)
    for block in (values, read_only_view):
        net = NetworkSpec(layers=(layer,), weights={"w": block},
                          coding=Coding.RATE, max_timesteps=4)
        values[0] = np.nan
        assert not np.shares_memory(values, net.weights["w"])
        assert (net.weights["w"] == 1.0).all()
        values[0] = 1.0
    assert values.flags.writeable


# ---------------------------------------------------------------------------
# one storage per block: its float64 form once the network has run


def run_once(net: NetworkSpec):
    return run_inference(net, encode(np.full(net.input_shape, 0.5), "poisson", seed=1))


def bytes_backed(block: np.ndarray) -> bool:
    base = block
    while isinstance(base, np.ndarray):
        base = base.base
    return isinstance(base, bytes)


@pytest.mark.parametrize("make", [built_spec, parsed_spec])
def test_a_spec_that_has_run_keeps_its_bytes_and_its_contract(make):
    net = make()
    files, names = serialize_network(net), list(net.weights)
    first = run_once(net)
    assert not net.weights._float32  # every block is float64 only
    assert list(net.weights) == names and len(net.weights) == 4
    assert "l0_w" in net.weights and "l1_w" not in net.weights
    with pytest.raises(KeyError):
        net.weights["l1_w"]
    assert serialize_network(net) == files
    assert networks_equal(net, parsed_spec()) and networks_equal(parsed_spec(), net)
    assert networks_equal(parse_network(*serialize_network(net)), net)
    assert cannot_be_made_writable(net)
    for block in net.weights.values():
        assert block.dtype == np.float32 and block.ndim == 1 and bytes_backed(block)
        with pytest.raises(ValueError, match="read-only"):
            block[0] = 1.0
    for twin in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
        assert networks_equal(twin, net) and cannot_be_made_writable(twin)
        again = run_once(twin)
        assert (again.output_voltages == first.output_voltages).all()
        assert (again.trace.counts == first.trace.counts).all()
    assert serialize_network(net) == files


def test_a_shared_and_an_unreferenced_block_still_work():
    rng = np.random.default_rng(4)
    shared = rng.standard_normal(24).astype(np.float32)
    head = rng.standard_normal(18).astype(np.float32)

    def spec(refs, blocks):
        layers = [
            LayerSpec(kind=LayerKind.DENSE, input_shape=(n_in,), output_shape=(n_out,),
                      neuron_model=IFL, weights_ref=ref)
            for (n_in, n_out), ref in zip([(6, 4), (4, 6), (6, 4), (4, 3)], refs)
        ]
        return NetworkSpec(layers=tuple(layers), weights=blocks, coding=Coding.RATE,
                           max_timesteps=8)

    # one block read by three layers, in two shapes, and one no layer reads
    net = spec(["s", "s", "s", "h"], {"s": shared, "h": head[:12], "spare": head})
    apart = spec(["a", "b", "c", "h"], {"a": shared, "b": shared, "c": shared, "h": head[:12]})
    parsed = parse_network(*serialize_network(net))
    files = serialize_network(parsed)
    for n in (net, parsed):
        got, want = run_once(n), run_once(apart)
        assert (got.output_voltages == want.output_voltages).all()
        assert (got.trace.counts == want.trace.counts).all()
    # the layers that read the block in one shape share one form
    assert np.shares_memory(weight_tensor(parsed, 0), weight_tensor(parsed, 2))
    assert not np.shares_memory(weight_tensor(parsed, 0), weight_tensor(parsed, 1))
    # the unreferenced block stays as parsed: a view of the container
    assert set(parsed.weights._float32) == {"spare"}
    assert isinstance(parsed.weights["spare"].base, bytes)
    assert serialize_network(parsed) == files


def test_racing_first_calls_keep_one_float64_form():
    net = parsed_spec()
    barrier = threading.Barrier(2)

    class Racing(dict):  # both threads read the float32 block before either stores
        def __getitem__(self, name):
            barrier.wait(10)
            return super().__getitem__(name)

    net.weights._float32 = Racing(net.weights._float32)
    got = []
    threads = [
        threading.Thread(target=lambda: got.append(weight_tensor(net, 3))) for _ in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(got) == 2 and np.shares_memory(*got)
    assert np.shares_memory(got[0], weight_tensor(net, 3))
    assert list(net.weights._float64["l3_w"]) == [(3, 4)] and "l3_w" not in net.weights._float32


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_block_raises_on_every_run_and_stays_float32(bad):
    values = np.full(12, 0.5, dtype=np.float32)
    values[5] = bad
    manifest, container = serialize_network(
        NetworkBuilder((4,), max_timesteps=4).dense(3, IFL, weights=values).build()
    )
    net = parse_network(manifest, container)
    block = net.weights["l0_w"]
    for _ in range(2):
        with pytest.raises(SchemaError, match="'l0_w' holds non-finite values"):
            run_once(net)
    assert net.weights["l0_w"] is block and block.base is container
    assert not net.weights._float64
    assert serialize_network(net) == (manifest, container)


def test_a_weight_tensor_cannot_be_made_writable():
    net = parsed_spec()
    views = [weight_tensor(net, 0), weight_tensor(net, 2),
             recurrent_weight_tensor(net, 2), weight_tensor(net, 3)]
    for view in views:
        with pytest.raises(ValueError):
            view.setflags(write=True)
        with pytest.raises(ValueError, match="read-only"):
            view[...] = 0.0
    # each call is a new view of the one form
    again = weight_tensor(net, 3)
    assert again is not views[3] and np.shares_memory(again, views[3])
    assert networks_equal(net, parsed_spec())


def test_a_spec_that_has_run_holds_8_bytes_a_weight():
    rng = np.random.default_rng(5)
    manifest, container = serialize_network(
        NetworkBuilder((784,), max_timesteps=4)
        .dense(512, IFL, weights=rng.normal(0.0, 0.01, (512, 784)))
        .dense(10, IFL, weights=rng.normal(0.0, 0.1, (10, 512)))
        .build()
    )
    n_weights = 784 * 512 + 512 * 10
    buffer = bytearray(container)  # parsing copies it into bytes, traced
    gc.collect()
    tracemalloc.start()
    try:
        net = parse_network(manifest, buffer)
        parsed = tracemalloc.get_traced_memory()[0]
        run_once(net)
        gc.collect()
        ran = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # the float32 container, then the float64 forms alone: it is freed
    assert 4 * n_weights < parsed < 4.1 * n_weights
    assert 8 * n_weights < ran < 8.4 * n_weights


def test_last_layer_must_be_weighted():
    with pytest.raises(SchemaError):
        NetworkBuilder((1, 4, 4), max_timesteps=4).max_pool((2, 2)).build()


def test_ann_layers_only_in_a_leading_prefix():
    with pytest.raises(SchemaError):
        (
            NetworkBuilder((6,), max_timesteps=4)
            .dense(4, IFL)
            .dense(3, ANN)
            .build()
        )
    # the other order is the supported static-preprocessing arrangement
    net = NetworkBuilder((6,), max_timesteps=4).dense(4, ANN).dense(3, IFL).build()
    assert net.layers[0].neuron_model.kind is NeuronKind.ANN_RELU


def test_recurrent_rectifier_layers_are_rejected():
    # the static stage evaluates a rectifier layer once, so its recurrent
    # weights could never act
    with pytest.raises(SchemaError, match="ignore the recurrent weights"):
        (
            NetworkBuilder((6,), max_timesteps=4)
            .recurrent_dense(4, ANN)
            .dense(3, IFL)
            .build()
        )


# ---------------------------------------------------------------------------
# the step budget and the builder's blocks

#: not a step count: each would once have been truncated, accepted, or met a
#: bare TypeError somewhere
NOT_STEP_COUNTS = [2.5, True, "4", None, float("nan"), 1e300]


@pytest.mark.parametrize("budget", NOT_STEP_COUNTS)
def test_a_step_budget_that_is_not_an_integer_is_a_schema_error(budget):
    layer = LayerSpec(kind=LayerKind.DENSE, input_shape=(4,), output_shape=(3,),
                      neuron_model=IFL, weights_ref="w0")
    manifest = dense_manifest()
    manifest["max_timesteps"] = budget  # NaN goes out as JSON's NaN literal
    attempts = [
        lambda: NetworkBuilder((4,), max_timesteps=budget).dense(3, IFL).build(),
        lambda: NetworkSpec(layers=(layer,), weights={"w0": np.zeros(12, np.float32)},
                            coding=Coding.RATE, max_timesteps=budget),
        lambda: parse_network(json.dumps(manifest), dense_weights()),
    ]
    for attempt in attempts:
        with pytest.raises(SchemaError, match="max_timesteps: the step budget must be"):
            attempt()


@pytest.mark.parametrize(
    "attempt",
    [
        lambda: NetworkBuilder((4.7,)).dense(2.9, IFL),
        lambda: NetworkBuilder((4,)).dense(2.9, IFL),
        lambda: NetworkBuilder((1, 8, 8)).conv2d(2, (2.9, 3), IFL, stride=(1.5, 1)),
        lambda: NetworkBuilder((1, 8, 8)).conv2d(2, (3, 3), IFL, stride=(1.5, 1)),
        lambda: NetworkBuilder((1, 8, 8)).conv2d(2, (3, 3), IFL, padding=1.0),
        lambda: NetworkBuilder((1, 8, 8)).conv2d(2, (3, 3), IFL, padding=-1),
        lambda: NetworkBuilder((1, 8, 8)).conv2d(2, (3, 3, 3), IFL),
        lambda: NetworkBuilder((1, 8, 8)).max_pool((True, 2)),
        lambda: NetworkBuilder((4,)).dense(True, IFL),
        lambda: NetworkBuilder((4,)).dense(0, IFL),
    ],
)
def test_a_geometry_value_that_is_not_a_whole_count_is_rejected(attempt):
    # sizes, kernels, strides and padding used to be truncated by int()
    with pytest.raises(SchemaError, match="must be an integer >= [01]|two values"):
        attempt()


def test_numpy_integer_geometry_is_stored_as_int():
    i = np.int64
    net = (
        NetworkBuilder((i(1), i(8), i(8)), max_timesteps=4)
        .conv2d(i(2), (i(3), i(3)), IFL, stride=(i(1), i(2)), padding=i(1))
        .flatten()
        .dense(i(3), IFL)
        .build()
    )
    for layer in net.layers:
        values = [*layer.input_shape, *layer.output_shape, *(layer.kernel or ()),
                  *(layer.stride or ()), layer.padding]
        assert all(type(v) is int for v in values)
    assert net.layers[0].output_shape == (2, 8, 4)
    twin = parse_network(*serialize_network(net))
    assert networks_equal(twin, net)


def test_a_numpy_integer_step_budget_is_stored_as_an_int():
    net = NetworkBuilder((4,), max_timesteps=np.int64(5)).dense(3, IFL).build()
    assert type(net.max_timesteps) is int and net.max_timesteps == 5
    twin = parse_network(*serialize_network(net))
    assert type(twin.max_timesteps) is int and networks_equal(twin, net)


@pytest.mark.parametrize("ref", ["l0_w", "l0_rw"])
def test_both_blocks_of_a_recurrent_layer_are_checked_alike(ref):
    # flat float32 of the size netspec.weight_shape gives, the recurrent
    # block included (a float64 or 2-D one used to pass)
    net = NetworkBuilder((3,), max_timesteps=4).recurrent_dense(2, IFL).build()
    size = net.weights[ref].size
    for bad, error in (
        (np.zeros(size), SchemaError),
        (np.zeros((2, size // 2), np.float32), SchemaError),
        (np.zeros(size + 1, np.float32), ShapeMismatch),
    ):
        with pytest.raises(error, match=r"^layer 0 \(recurrent_dense\)"):
            NetworkSpec(net.layers, {**net.weights, ref: bad}, net.coding, 4)


def test_every_builder_method_writes_the_same_bytes():
    # one net through every method, with default and given weights; the
    # digest was recorded before the builder sized its blocks by
    # netspec.weight_shape, which must not change a byte
    lif = NeuronModelSpec(kind=NeuronKind.LIF, dt=1e-3, tau_syn=5e-3, tau_mem=1e-2)
    rng = np.random.default_rng(17)
    net = (
        NetworkBuilder((2, 9, 9), coding=Coding.ROC, max_timesteps=12)
        .conv2d(3, (3, 3), lif, stride=(2, 2), padding=1,
                weights=rng.normal(size=(3, 2, 3, 3)))
        .max_pool((2, 2), stride=(1, 1))
        .locally_connected(2, (2, 2), lif)
        .max_pool((3, 3))
        .flatten()
        .dense(5, IFL, weights=rng.normal(size=(5, 2)))
        .recurrent_dense(4, lif, recurrent_weights=rng.normal(size=16))
        .dense(3, IFL)
        .build()
    )
    assert [layer.output_shape for layer in net.layers] == [
        (3, 5, 5), (3, 4, 4), (2, 3, 3), (2, 1, 1), (2,), (5,), (4,), (3,)
    ]
    manifest, weights = serialize_network(net)
    assert hashlib.sha256(manifest + weights).hexdigest() == (
        "2ec0dc6e6926ef75c174615100c7508255b38a8b0b7f3a4bd28b483098c98a7a"
    )


# ---------------------------------------------------------------------------
# typed errors of every validation rule


def pooled_files():
    """The manifest (as an object) and the container of a padded conv, a 3x3
    pool whose output padding would not change, a flatten and a dense head."""
    net = (
        NetworkBuilder((1, 6, 6), coding=Coding.RATE, max_timesteps=4)
        .conv2d(2, (3, 3), IFL, padding=1)
        .max_pool((3, 3))
        .flatten()
        .dense(3, IFL)
        .build()
    )
    manifest, weights = serialize_network(net)
    return json.loads(manifest), weights


def assert_typed_failure(tmp_path, capsys, manifest, weights, error, message):
    """Parsing fails with ``error`` and ``message``; the CLI exits 2 with it."""
    with pytest.raises(error, match=message):
        parse_network(manifest, weights)
    (tmp_path / "net.json").write_bytes(manifest)
    (tmp_path / "net.emwt").write_bytes(weights)
    assert main(["inspect", "--network", str(tmp_path / "net.json")]) == 2
    err = capsys.readouterr().err
    assert re.search(message, err)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "edit, error, message",
    [
        (lambda m: m["layers"][0].update(input_shape=[6, 6]), ShapeMismatch,
         r"layer 0 \(conv2d\): input shape \(6, 6\) must have rank 3"),
        (lambda m: m["layers"][1].pop("kernel"), SchemaError,
         r"layer 1 \(max_pool2d\): kernel is required"),
        (lambda m: m["layers"][1].update(padding=1), SchemaError,
         r"layer 1 \(max_pool2d\): padding applies to conv2d only"),
        (lambda m: m["layers"][2].update(stride=[1, 1]), SchemaError,
         r"layer 2 \(flatten\): kernel/stride apply to spatial kinds only"),
        (lambda m: m["layers"][3].update(padding=1), SchemaError,
         r"layer 3 \(dense\): padding applies to conv2d only"),
        (lambda m: m["layers"][3].pop("neuron_model"), SchemaError,
         r"layer 3 \(dense\): neuron_model is required"),
        (lambda m: m["layers"][3].pop("weights_ref"), SchemaError,
         r"layer 3 \(dense\): weights_ref is required"),
        (lambda m: m["layers"][2].update(neuron_model={"kind": "ifl"}), SchemaError,
         r"layer 2 \(flatten\): flatten takes no neuron_model"),
        (lambda m: m["layers"][2].update(weights_ref="l3_w"), SchemaError,
         r"layer 2 \(flatten\): flatten takes no weights"),
        (lambda m: m["layers"][3].update(kind="recurrent_dense"), SchemaError,
         r"layer 3 \(recurrent_dense\): recurrent_weights_ref is required"),
        (lambda m: m["layers"][3].update(recurrent_weights_ref="l3_w"), SchemaError,
         r"layer 3 \(dense\): only recurrent_dense takes recurrent weights"),
        (lambda m: m["layers"][3]["neuron_model"].update(tau=1.0), SchemaError,
         r"layer 3: unknown neuron_model fields \['tau'\]"),
        (lambda m: m["layers"][3]["neuron_model"].pop("kind"), SchemaError,
         r"layer 3: neuron_model needs a kind"),
    ],
)
def test_an_edited_manifest_is_a_typed_error(tmp_path, capsys, edit, error, message):
    manifest, weights = pooled_files()
    edit(manifest)
    assert_typed_failure(
        tmp_path, capsys, json.dumps(manifest).encode(), weights, error, message
    )


@pytest.mark.parametrize(
    "edit_manifest, edit_weights, message",
    [
        (lambda d: b"[]", None, "manifest root must be an object"),
        (None, lambda d: d[:4] + struct.pack("<I", 2) + d[8:],
         "unsupported weights container version 2"),
        (None, lambda d: d[:12], "weights container truncated in entry table"),
        (None, lambda d: d.replace(b"l3_w", b"l0_w"), "duplicate weight block name 'l0_w'"),
        (None, lambda d: d.replace(b"l3_w", b"l3\xff_"), "weight block name is not valid UTF-8"),
    ],
)
def test_an_edited_file_is_a_schema_error(tmp_path, capsys, edit_manifest, edit_weights,
                                          message):
    manifest, weights = pooled_files()
    manifest = json.dumps(manifest).encode()
    if edit_manifest is not None:
        manifest = edit_manifest(manifest)
    if edit_weights is not None:
        weights = edit_weights(weights)
    assert_typed_failure(tmp_path, capsys, manifest, weights, SchemaError, message)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: NetworkSpec(
            layers=(
                LayerSpec(kind=LayerKind.MAX_POOL2D, input_shape=(1, 4, 4),
                          output_shape=(1, 2, 2), kernel=(2, 2)),
            ),
            weights={}, coding=Coding.RATE, max_timesteps=4,
         ), SchemaError, r"layer 0 \(max_pool2d\): stride is required"),
        (lambda: NetworkSpec(layers=(), weights={}, coding=Coding.RATE, max_timesteps=4),
         SchemaError, "a network needs at least one layer"),
        (lambda: NetworkBuilder((4,), max_timesteps=4).dense(3, IFL, weights=np.zeros(5)),
         ShapeMismatch, "expected 12 weights, got 5"),
        # an object block has no buffer to freeze, so validation sees it as given
        (lambda: NetworkSpec(
            layers=NetworkBuilder((4,), max_timesteps=4).dense(3, IFL).build().layers,
            weights={"l0_w": np.zeros(12, dtype=object)}, coding=Coding.RATE,
            max_timesteps=4,
         ), SchemaError, r"layer 0 \(dense\): weight blocks must be flat float32"),
        (lambda: NetworkBuilder((4,), max_timesteps=4).conv2d(2, (3, 3), IFL),
         ShapeMismatch, r"conv2d needs a \(C, H, W\) input, current shape is \(4,\)"),
    ],
)
def test_a_spec_only_the_python_api_can_make_is_a_typed_error(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_networks_equal_tells_every_difference_apart():
    def net(coding=Coding.RATE, t_max=4, neurons=3, bias=0.0, w=0.5):
        return (
            NetworkBuilder((2,), coding=coding, max_timesteps=t_max)
            .dense(neurons, NeuronModelSpec(kind=NeuronKind.IFL, bias=bias),
                   weights=np.full((neurons, 2), w))
            .build()
        )

    base = net()
    assert networks_equal(base, net())
    extra = NetworkSpec(
        base.layers, {**base.weights, "unused": np.zeros(1, np.float32)}, base.coding, 4
    )
    for other in (
        net(coding=Coding.ROC), net(t_max=5), net(neurons=2), net(bias=1.0),
        net(w=-0.5), extra,
    ):
        assert not networks_equal(base, other)
    # bit-exact: -0.0 equals 0.0 as a number, not as bits
    assert not networks_equal(net(w=0.0), net(w=-0.0))
