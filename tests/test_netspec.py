import json

import numpy as np
import pytest

from emacprof import (
    Coding,
    LayerKind,
    MaskViolation,
    NetworkBuilder,
    NeuronKind,
    NeuronModelSpec,
    SchemaError,
    ShapeMismatch,
    UnknownRef,
    networks_equal,
    parse_manifest,
    parse_network,
    read_weights_container,
    serialize_network,
    structural_counts,
    write_weights_container,
)
from emacprof.netspec import (
    LayerSpec,
    NetworkSpec,
    conv_output_hw,
    fanout_map,
    lcl_mask,
    realized_connections,
)

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
    counts = structural_counts(net)
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
    counts = structural_counts(net)
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
    assert structural_counts(net)[0].fanin == 9

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
