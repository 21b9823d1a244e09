import sys
import threading

import numpy as np
import pytest

from emacprof import (
    EmptyHistory,
    EmptyRaster,
    EncodedInput,
    EncodingMode,
    NonFiniteState,
    RateOutOfRange,
    SchemaError,
    ShapeMismatch,
    decode_max_membrane,
    decode_roc,
    encode,
    load_input_tensor,
    poisson_slice,
    save_input_tensor,
)


# ---------------------------------------------------------------------------
# encoding


def test_analog_passes_values_through():
    values = np.array([[0.5, -2.0], [3.0, 0.0]])
    enc = encode(values, EncodingMode.ANALOG)
    assert enc.mode is EncodingMode.ANALOG
    assert (enc.values == values).all()


def test_analog_rejects_non_finite():
    with pytest.raises(NonFiniteState):
        encode(np.array([1.0, np.nan]), EncodingMode.ANALOG)


def test_poisson_rejects_out_of_range_rates():
    with pytest.raises(RateOutOfRange):
        encode(np.array([0.2, 1.5]), EncodingMode.POISSON)
    with pytest.raises(RateOutOfRange):
        encode(np.array([-0.1]), EncodingMode.POISSON)


def test_poisson_rejects_nan_rates():
    with pytest.raises(RateOutOfRange):
        encode(np.array([np.nan, 0.5]), EncodingMode.POISSON)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_seeds_outside_the_64_bit_range_are_schema_errors(seed):
    with pytest.raises(SchemaError):
        encode(np.array([0.5]), EncodingMode.POISSON, seed=seed)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_directly_built_inputs_reject_out_of_range_seeds(seed):
    with pytest.raises(SchemaError):
        EncodedInput(EncodingMode.POISSON, np.array([0.5]), seed=seed)


@pytest.mark.parametrize("rate", [1.5, np.nan])
def test_directly_built_poisson_inputs_reject_bad_rates(rate):
    with pytest.raises(RateOutOfRange):
        EncodedInput(EncodingMode.POISSON, np.array([0.5, rate]), seed=3)


@pytest.mark.parametrize("mode", list(EncodingMode))
@pytest.mark.parametrize("values", [["a", "b"], [[1.0, 2.0], [3.0]]])
def test_values_that_make_no_numeric_array_are_schema_errors(mode, values):
    with pytest.raises(SchemaError, match="numeric array"):
        EncodedInput(mode, values)


def test_poisson_extremes_are_deterministic():
    enc = encode(np.array([1.0, 0.0]), EncodingMode.POISSON, seed=9)
    for t in range(1, 50):
        s = poisson_slice(enc, t)
        assert s[0] and not s[1]


def test_poisson_empirical_rate():
    enc = encode(np.full(4, 0.5), EncodingMode.POISSON, seed=123)
    draws = np.stack([poisson_slice(enc, t) for t in range(1, 10001)])
    rate = draws.mean(axis=0)
    # binomial: std of the mean over 10000 draws is 0.005
    assert np.all(np.abs(rate - 0.5) < 0.02)


def test_poisson_is_reproducible_and_seed_sensitive():
    values = np.linspace(0.1, 0.9, 12).reshape(3, 4)
    a = encode(values, EncodingMode.POISSON, seed=7)
    b = encode(values, EncodingMode.POISSON, seed=7)
    c = encode(values, EncodingMode.POISSON, seed=8)
    raster_a = np.stack([poisson_slice(a, t) for t in range(1, 40)])
    raster_b = np.stack([poisson_slice(b, t) for t in range(1, 40)])
    raster_c = np.stack([poisson_slice(c, t) for t in range(1, 40)])
    assert (raster_a == raster_b).all()
    assert (raster_a != raster_c).any()


def test_poisson_slices_do_not_depend_on_draw_order():
    enc = encode(np.full(6, 0.4), EncodingMode.POISSON, seed=55)
    forward = [poisson_slice(enc, t) for t in (1, 2, 3)]
    backward = [poisson_slice(enc, t) for t in (3, 2, 1)]
    for f, b in zip(forward, reversed(backward)):
        assert (f == b).all()


@pytest.mark.parametrize("shape", [(13,), (2, 5, 7)])
@pytest.mark.parametrize("t", [1, 64, 2**40])
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_poisson_slice_is_a_fresh_philox_stream(seed, t, shape):
    values = np.random.default_rng(4).uniform(0.0, 1.0, shape)
    enc = encode(values, EncodingMode.POISSON, seed=seed)
    fresh = np.random.Generator(
        np.random.Philox(key=np.uint64(seed), counter=[0, 0, 0, t])
    )
    expected = fresh.random(shape) < values
    got = poisson_slice(enc, t)
    assert got.dtype == np.bool_ and got.shape == shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("shape", [(13,), (2, 5, 7)])
def test_poisson_slice_into_out_is_bitwise_the_new_array(shape):
    values = np.random.default_rng(6).uniform(0.0, 1.0, shape)
    enc = encode(values, EncodingMode.POISSON, seed=12)
    out = np.ones(shape, dtype=bool)  # stale spikes the draw must overwrite
    for t in range(1, 20):
        assert poisson_slice(enc, t, out) is out
        assert out.tobytes() == poisson_slice(enc, t).tobytes()


def test_threads_drawing_interleaved_slices_get_the_serial_result():
    values = np.random.default_rng(5).uniform(0.0, 1.0, (4, 6))
    encoded = [encode(values, EncodingMode.POISSON, seed=s) for s in (3, 4, 5, 6)]
    steps = range(1, 200)
    serial = {(i, t): poisson_slice(enc, t) for i, enc in enumerate(encoded) for t in steps}
    drawn = [{} for _ in encoded]
    start = threading.Barrier(len(encoded))

    def draw(i):
        start.wait(timeout=30)
        for t in steps:
            drawn[i][t] = poisson_slice(encoded[i], t)

    # more threads than cores, switching as often as the interpreter allows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=draw, args=(i,)) for i in range(len(encoded))]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for (i, t), expected in serial.items():
        assert np.array_equal(drawn[i][t], expected)


# ---------------------------------------------------------------------------
# ROC decoding


def raster(n, T, events):
    out = np.zeros((n, T), dtype=bool)
    for neuron, t in events:
        out[neuron, t - 1] = True
    return out


def unread_voltages(spikes):
    """A voltage history for a raster that spikes, where it is not read."""
    return np.zeros(spikes.shape)


def test_roc_picks_earliest_spike():
    spikes = raster(6, 12, [(3, 7), (1, 9)])
    d = decode_roc(spikes, unread_voltages(spikes))
    assert d.class_index == 3
    assert d.latency_T == 7
    assert not d.fallback_used


def test_roc_breaks_ties_by_lowest_index():
    spikes = raster(6, 6, [(5, 4), (2, 4)])
    d = decode_roc(spikes, unread_voltages(spikes))
    assert d.class_index == 2
    assert d.latency_T == 4


def test_roc_silent_falls_back_to_membrane():
    volts = np.array([[0.1, 0.2], [0.4, 0.3], [0.0, 0.1]])
    d = decode_roc(np.zeros((3, 2), dtype=bool), volts)
    assert d.fallback_used
    assert d.class_index == 1
    assert d.latency_T == 2


def test_roc_empty_or_one_dimensional_rasters_are_errors():
    with pytest.raises(EmptyRaster):
        decode_roc(np.zeros((3, 0), dtype=bool), np.zeros((3, 0)))
    with pytest.raises(EmptyRaster):
        decode_roc(np.ones(4, dtype=bool), np.zeros(4))


def test_roc_ignores_everything_after_the_first_spike():
    base = raster(5, 10, [(2, 3)])
    d0 = decode_roc(base, unread_voltages(base))
    rng = np.random.default_rng(31)
    for _ in range(50):
        mutated = base.copy()
        mutated[:, 3:] = rng.random((5, 7)) < 0.5
        d1 = decode_roc(mutated, unread_voltages(mutated))
        assert (d1.class_index, d1.latency_T) == (d0.class_index, d0.latency_T)


# ---------------------------------------------------------------------------
# membrane decoding


def test_membrane_argmax_of_peaks():
    volts = np.array([[0.2, 0.1], [0.9, 0.0], [0.1, 0.1]])
    d = decode_max_membrane(volts)
    assert d.class_index == 1
    assert d.latency_T == 2


def test_membrane_ties_and_degenerate_cases():
    assert decode_max_membrane(np.full((4, 3), 0.5)).class_index == 0
    assert decode_max_membrane(np.array([[1.0, 2.0]])).class_index == 0
    with pytest.raises(EmptyHistory):
        decode_max_membrane(np.zeros((0, 4)))


def test_membrane_is_scale_invariant():
    rng = np.random.default_rng(17)
    volts = rng.standard_normal((8, 20))
    base = decode_max_membrane(volts).class_index
    for scale in (1e-6, 3.0, 1e6):
        assert decode_max_membrane(volts * scale).class_index == base


# ---------------------------------------------------------------------------
# tensor files


def test_bin_round_trip(tmp_path):
    values = np.arange(24, dtype=np.float32).reshape(2, 3, 4) / 7
    path = tmp_path / "x.bin"
    save_input_tensor(path, values)
    back = load_input_tensor(path, (2, 3, 4))
    assert back.dtype == np.float64
    assert (back.astype(np.float32) == values).all()


def test_bin_shape_must_match(tmp_path):
    path = tmp_path / "x.bin"
    save_input_tensor(path, np.zeros((2, 3, 4), dtype=np.float32))
    with pytest.raises(ShapeMismatch):
        load_input_tensor(path, (4, 3, 2))


def test_csv_inputs_reshape_to_expected(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("\n".join(str(v / 10) for v in range(6)) + "\n")
    back = load_input_tensor(path, (2, 3))
    assert back.shape == (2, 3)
    assert back[1, 2] == pytest.approx(0.5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["", "\n", "\n\n"])
def test_an_empty_csv_input_is_a_shape_mismatch_without_a_warning(tmp_path, text):
    path = tmp_path / "x.csv"
    path.write_text(text)
    with pytest.raises(ShapeMismatch, match="0 values"):
        load_input_tensor(path, (2, 3))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda tmp: poisson_slice(encode(np.full(3, 0.5)), 1),
         "spike slices are only defined for poisson encoding"),
        (lambda tmp: load_input_tensor(tmp / "sample.txt", (3,)),
         "sample.txt: input tensors must be .bin or .csv"),
    ],
)
def test_a_call_outside_the_codec_contract_is_a_schema_error(tmp_path, call, message):
    with pytest.raises(SchemaError, match=message):
        call(tmp_path)
