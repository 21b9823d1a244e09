import json
import logging
from types import SimpleNamespace

import numpy as np
import pytest

from emacprof import (
    IllConditioned,
    MissingMeasurement,
    Observation,
    RankDeficient,
    SchemaError,
    fit_energy_model,
    model_from_json,
    model_to_json,
    observation_from_run,
    predict_energy,
    read_observations_csv,
    write_observations_csv,
)

TWO_POINTS = [
    Observation("dense-small", S=10.0, U=4.0, E_joules=32.0),
    Observation("dense-wide", S=5.0, U=8.0, E_joules=34.0),
]


def planted(rng, n, e_syn, e_upd, noise=0.0):
    S = rng.uniform(50, 500, n)
    U = rng.uniform(20, 200, n)
    E = e_syn * S + e_upd * U + noise * rng.standard_normal(n)
    return [
        Observation(f"run{i}", S=float(S[i]), U=float(U[i]), E_joules=float(E[i]))
        for i in range(n)
    ]


def test_two_observations_interpolate_exactly():
    model = fit_energy_model(TWO_POINTS)
    assert model.e_syn_J == 2.0
    assert model.e_upd_J == 3.0
    assert model.n_obs == 2
    assert model.residual_rms == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.abs(model.cov) < 1e-24)
    for obs in TWO_POINTS:
        energy, sigma = predict_energy(model, obs.S, obs.U)
        assert energy == pytest.approx(obs.E_joules, rel=1e-14)
        assert sigma == pytest.approx(0.0, abs=1e-12)


def test_fit_matches_lstsq_on_random_data():
    rng = np.random.default_rng(42)
    obs = planted(rng, 12, 3e-9, 7e-9, noise=1e-8)
    model = fit_energy_model(obs)
    X = np.array([[o.S, o.U] for o in obs])
    y = np.array([o.E_joules for o in obs])
    ref, *_ = np.linalg.lstsq(X, y, rcond=None)
    assert model.e_syn_J == pytest.approx(ref[0], rel=1e-9)
    assert model.e_upd_J == pytest.approx(ref[1], rel=1e-9)


def test_planted_parameters_recover_without_noise():
    rng = np.random.default_rng(7)
    model = fit_energy_model(planted(rng, 6, 4.2e-9, 1.3e-8))
    assert model.e_syn_J == pytest.approx(4.2e-9, rel=1e-9)
    assert model.e_upd_J == pytest.approx(1.3e-8, rel=1e-9)
    assert model.residual_rms < 1e-18


@pytest.mark.parametrize("count", [0, 1])
def test_too_few_observations(count):
    with pytest.raises(RankDeficient, match="at least 2"):
        fit_energy_model(TWO_POINTS[:count])


def test_collinear_rows_are_rejected():
    obs = [
        Observation("a", S=10.0, U=4.0, E_joules=32.0),
        Observation("b", S=20.0, U=8.0, E_joules=64.0),
        Observation("c", S=5.0, U=2.0, E_joules=16.0),
    ]
    with pytest.raises(RankDeficient, match="collinear"):
        fit_energy_model(obs)


def test_nearly_collinear_rows_are_ill_conditioned():
    obs = [
        Observation("a", S=1.0, U=1.0, E_joules=5.0),
        Observation("b", S=1.0, U=1.0 + 1e-13, E_joules=5.0),
    ]
    with pytest.raises(IllConditioned):
        fit_energy_model(obs)


def test_unit_change_scales_parameters_exactly():
    # measuring in eighths of a joule must scale both parameters by
    # exactly 8: every fit operation is linear in y and 8 is a power of two
    rng = np.random.default_rng(3)
    obs = planted(rng, 9, 2.5e-9, 9e-9, noise=2e-9)
    scaled = [
        Observation(o.name, S=o.S, U=o.U, E_joules=8.0 * o.E_joules) for o in obs
    ]
    base = fit_energy_model(obs)
    big = fit_energy_model(scaled)
    assert big.e_syn_J == 8.0 * base.e_syn_J
    assert big.e_upd_J == 8.0 * base.e_upd_J
    assert np.array_equal(big.cov, 64.0 * base.cov)
    assert big.residual_rms == 8.0 * base.residual_rms


def test_count_rescaling_is_exactly_compensated():
    # halving the event units doubles the per-event parameters
    rng = np.random.default_rng(4)
    obs = planted(rng, 9, 2.5e-9, 9e-9, noise=2e-9)
    scaled = [
        Observation(o.name, S=o.S / 2, U=o.U / 2, E_joules=o.E_joules) for o in obs
    ]
    base = fit_energy_model(obs)
    fine = fit_energy_model(scaled)
    assert fine.e_syn_J == 2.0 * base.e_syn_J
    assert fine.e_upd_J == 2.0 * base.e_upd_J


def test_weighted_fit_discounts_noisy_rows():
    outlier = Observation("broken-meter", S=8.0, U=8.0, E_joules=1000.0)
    model = fit_energy_model(
        TWO_POINTS + [outlier], variances=[1e-6, 1e-6, 1e12]
    )
    assert model.e_syn_J == pytest.approx(2.0, rel=1e-6)
    assert model.e_upd_J == pytest.approx(3.0, rel=1e-6)


@pytest.mark.parametrize("variances", [[1.0], [1.0, 0.0, 1.0], [1.0, -2.0, 1.0]])
def test_bad_variances_are_rejected(variances):
    outlier = Observation("c", S=8.0, U=8.0, E_joules=40.0)
    with pytest.raises(SchemaError, match="variances"):
        fit_energy_model(TWO_POINTS + [outlier], variances=variances)


def test_floor_power_is_subtracted_before_fitting():
    e_syn, e_upd, floor = 2.0, 3.0, 0.5
    obs = []
    for i, (S, U, d) in enumerate([(10, 4, 2.0), (5, 8, 4.0), (12, 12, 1.0)]):
        E = e_syn * S + e_upd * U + floor * d
        obs.append(Observation(f"o{i}", S=S, U=U, E_joules=E, duration_s=d))
    model = fit_energy_model(obs, floor_power_W=floor)
    assert model.e_syn_J == pytest.approx(2.0, rel=1e-9)
    assert model.e_upd_J == pytest.approx(3.0, rel=1e-9)


def test_floor_power_needs_durations():
    with pytest.raises(MissingMeasurement, match="duration"):
        fit_energy_model(TWO_POINTS, floor_power_W=0.5)


@pytest.mark.parametrize("floor", [float("nan"), float("inf"), -float("inf"), -0.5])
def test_bad_floor_power_is_rejected(floor):
    obs = [
        Observation("a", S=10.0, U=4.0, E_joules=32.0, duration_s=1.0),
        Observation("b", S=5.0, U=8.0, E_joules=34.0, duration_s=2.0),
    ]
    with pytest.raises(SchemaError, match="floor power"):
        fit_energy_model(obs, floor_power_W=floor)
    # no floor power at all is fine, and so is a floor of zero
    assert fit_energy_model(obs).e_syn_J == fit_energy_model(obs, floor_power_W=0.0).e_syn_J


def test_non_finite_energy_is_rejected():
    obs = [TWO_POINTS[0], Observation("hole", S=5.0, U=8.0, E_joules=float("nan"))]
    with pytest.raises(MissingMeasurement, match="hole"):
        fit_energy_model(obs)


@pytest.mark.parametrize(
    "bad",
    [
        {"S": float("nan")},
        {"S": float("inf")},
        {"U": float("-inf")},
        {"U": float("nan")},
    ],
)
def test_non_finite_counts_are_rejected(bad):
    fields = {"S": 5.0, "U": 8.0, "E_joules": 34.0, **bad}
    obs = [TWO_POINTS[0], Observation("hole", **fields)]
    with pytest.raises(SchemaError, match="hole"):
        fit_energy_model(obs)


@pytest.mark.parametrize("duration", [float("nan"), float("inf")])
def test_non_finite_durations_are_rejected_under_floor_power(duration):
    obs = [
        Observation("a", S=10.0, U=4.0, E_joules=32.0, duration_s=1.0),
        Observation("hole", S=5.0, U=8.0, E_joules=34.0, duration_s=duration),
    ]
    with pytest.raises(SchemaError, match="hole"):
        fit_energy_model(obs, floor_power_W=0.5)
    # without a floor power term the duration is not read
    fit_energy_model(obs)


def test_negative_parameters_are_flagged_not_hidden(caplog):
    obs = [
        Observation("a", S=10.0, U=1.0, E_joules=1.0),
        Observation("b", S=1.0, U=10.0, E_joules=50.0),
    ]
    with caplog.at_level(logging.WARNING, logger="emacprof.calib"):
        model = fit_energy_model(obs)
    assert model.negative_params
    assert model.e_syn_J < 0
    assert any("not both positive" in rec.message for rec in caplog.records)
    clean = fit_energy_model(TWO_POINTS)
    assert not clean.negative_params


def test_replicating_observations_tightens_the_covariance():
    rng = np.random.default_rng(11)
    obs = planted(rng, 8, 3.0, 5.0, noise=0.5)
    single = fit_energy_model(obs)
    replicated = fit_energy_model(obs * 4)
    assert np.trace(replicated.cov) < np.trace(single.cov)
    # the point estimate is unchanged by exact replication
    assert replicated.e_syn_J == pytest.approx(single.e_syn_J, rel=1e-12)


def test_prediction_uncertainty_is_positive_under_noise():
    rng = np.random.default_rng(19)
    model = fit_energy_model(planted(rng, 20, 3.0, 5.0, noise=1.0))
    energy, sigma = predict_energy(model, 200.0, 80.0)
    assert sigma > 0
    assert energy == pytest.approx(3.0 * 200 + 5.0 * 80, rel=0.05)


# ---------------------------------------------------------------------------
# packaging runs into observations


def run_stats(n_ok, S, U):
    return SimpleNamespace(
        n_ok=n_ok, mean_synaptic_events=S, mean_update_count=U
    )


def test_observation_from_run_single():
    obs = observation_from_run("board0", run_stats(10, 120.0, 40.0), 3.5e-6)
    assert obs == Observation("board0", S=120.0, U=40.0, E_joules=3.5e-6)


def test_observation_from_run_merges_weighted_by_samples():
    obs = observation_from_run(
        "merged",
        [run_stats(3, 100.0, 10.0), run_stats(1, 200.0, 50.0)],
        1.0,
        duration_s=2.0,
    )
    assert obs.S == pytest.approx((3 * 100 + 1 * 200) / 4)
    assert obs.U == pytest.approx((3 * 10 + 1 * 50) / 4)
    assert obs.duration_s == 2.0


def test_observation_from_run_requires_energy_and_samples():
    with pytest.raises(MissingMeasurement, match="energy"):
        observation_from_run("x", run_stats(5, 1.0, 1.0), None)
    with pytest.raises(MissingMeasurement, match="sample"):
        observation_from_run("x", run_stats(0, 1.0, 1.0), 2.0)


# ---------------------------------------------------------------------------
# file formats


def test_observations_csv_round_trip(tmp_path):
    obs = [
        Observation("a", S=10.0, U=4.0, E_joules=32.125),
        Observation("b", S=5.5, U=8.25, E_joules=34.0, duration_s=1.5),
    ]
    path = tmp_path / "obs.csv"
    write_observations_csv(path, obs)
    assert read_observations_csv(path) == obs
    header = path.read_text().splitlines()[0]
    assert header == "name,S,U,E_joules,duration_s"


def test_observations_csv_omits_duration_column_when_unused(tmp_path):
    path = tmp_path / "obs.csv"
    write_observations_csv(path, TWO_POINTS)
    assert path.read_text().splitlines()[0] == "name,S,U,E_joules"
    assert read_observations_csv(path) == TWO_POINTS


@pytest.mark.parametrize(
    "text",
    [
        "",
        "who,S,U,E_joules\nx,1,2,3\n",
        "name,S,U,E_joules\nx,1,2\n",
        "name,S,U,E_joules\nx,1,2,notanumber\n",
        "name,S,U,E_joules,duration_s,extra\nx,1,2,3,4,5\n",
    ],
)
def test_malformed_observation_files_are_rejected(tmp_path, text):
    path = tmp_path / "obs.csv"
    path.write_text(text)
    with pytest.raises(SchemaError):
        read_observations_csv(path)


def test_model_json_round_trip():
    rng = np.random.default_rng(2)
    model = fit_energy_model(planted(rng, 5, 3e-9, 7e-9, noise=1e-9))
    clone = model_from_json(model_to_json(model))
    assert clone.e_syn_J == model.e_syn_J
    assert clone.e_upd_J == model.e_upd_J
    assert np.array_equal(clone.cov, model.cov)
    assert clone.residual_rms == model.residual_rms
    assert clone.n_obs == model.n_obs
    # a second serialization is byte-identical
    assert model_to_json(clone) == model_to_json(model)


@pytest.mark.parametrize(
    "data",
    [
        b"not json at all",
        b"[1, 2, 3]",
        json.dumps({"e_syn_J": 1.0}).encode(),
        json.dumps(
            {
                "e_syn_J": 1.0,
                "e_upd_J": 2.0,
                "cov": [0.0, 0.0, 0.0],
                "residual_rms": 0.0,
                "n_obs": 2,
            }
        ).encode(),
        # parameters that are not finite JSON numbers, or a non-integer count
        *(
            json.dumps(
                {
                    "e_syn_J": 1.0,
                    "e_upd_J": 2.0,
                    "cov": [0.0, 0.0, 0.0, 0.0],
                    "residual_rms": 0.0,
                    "n_obs": 2,
                    **bad,
                }
            ).encode()
            for bad in (
                {"e_syn_J": None},
                {"e_syn_J": [1]},
                {"e_upd_J": "2.0"},
                {"e_upd_J": True},
                {"e_syn_J": float("nan")},
                {"e_upd_J": 2**1024},  # an integer past the float range
                {"residual_rms": float("inf")},
                {"residual_rms": None},
                {"cov": [0.0, None, 0.0, 0.0]},
                {"cov": [0.0, 0.0, float("nan"), 0.0]},
                {"cov": [0.0, 0.0, 0.0, "0"]},
                {"n_obs": None},
                {"n_obs": 2.5},
                {"n_obs": "2"},
                {"n_obs": True},
            )
        ),
    ],
)
def test_malformed_model_files_are_rejected(data):
    with pytest.raises(SchemaError):
        model_from_json(data)
