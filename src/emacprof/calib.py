"""Hardware energy calibration.

A device is modeled by two dimensional parameters: joules per synaptic
event and joules per neuron update. Given measured energies ``E_k`` for
networks with known per-inference event counts ``(S_k, U_k)``, the fit is
ordinary least squares through the origin,

    E_k ~ S_k * e_syn_J + U_k * e_upd_J,

solved via the normal equations, with each column scaled by a power of two
so that squaring it neither underflows nor overflows. The parameter
covariance is the standard linear-model estimate ``sigma2 * (X^T X)^-1``
with ``sigma2 = RSS / max(n - 2, 1)``. Two observations interpolate
exactly, so their covariance is rounding noise, which can even leave the
float range (``predict`` warns about such a model). Mixed-model networks
fold their counts into the units of one reference kind upstream (see the
dataset statistics), which is what keeps a single parameter pair
meaningful.

Observations travel as CSV with header ``name,S,U,E_joules`` and an
optional ``duration_s`` column (needed only when a floor-power term is
subtracted from the measurements before fitting). Fitted models travel as
JSON holding the two parameters, the row-major covariance, the residual
RMS, and the observation count.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    IllConditioned,
    MissingMeasurement,
    RankDeficient,
    SchemaError,
)

__all__ = [
    "Observation",
    "EnergyModel",
    "fit_energy_model",
    "predict_energy",
    "observation_from_run",
    "read_observations_csv",
    "write_observations_csv",
    "model_to_json",
    "model_from_json",
    "COND_LIMIT",
]

logger = logging.getLogger(__name__)

#: Condition-number ceiling for the design matrix.
COND_LIMIT = 1e12


@dataclass(frozen=True)
class Observation:
    """One measured operating point: event counts and energy per inference."""

    name: str
    S: float
    U: float
    E_joules: float
    duration_s: float | None = None


@dataclass(frozen=True)
class EnergyModel:
    """Fitted per-event parameters with their covariance.

    ``cov`` is the 2x2 covariance of ``(e_syn_J, e_upd_J)``;
    ``residual_rms`` is sqrt(RSS / n) in joules.
    """

    e_syn_J: float
    e_upd_J: float
    cov: np.ndarray
    residual_rms: float
    n_obs: int

    @property
    def negative_params(self) -> bool:
        return self.e_syn_J < 0 or self.e_upd_J < 0


def _design(observations: Sequence[Observation], floor_power_W: float | None):
    if floor_power_W is not None and not (
        np.isfinite(floor_power_W) and floor_power_W >= 0
    ):
        raise SchemaError(
            f"the floor power must be finite and >= 0 W, got {floor_power_W}"
        )
    bad = [o.name for o in observations
           if o.E_joules is None or not np.isfinite(o.E_joules)]
    if bad:
        raise MissingMeasurement(f"observations without usable energy: {bad}")
    for obs in observations:
        if floor_power_W is not None and obs.duration_s is None:
            raise MissingMeasurement(
                f"observation {obs.name!r} has no duration_s; the floor "
                "power term needs one"
            )
        used = (obs.S, obs.U) + ((obs.duration_s,) if floor_power_W is not None else ())
        if not np.isfinite(used).all():
            raise SchemaError(
                f"observation {obs.name!r} has a non-finite S, U or duration_s"
            )
        if floor_power_W is not None and obs.duration_s < 0:
            raise SchemaError(f"observation {obs.name!r} has a negative duration_s")
    X = np.array([[obs.S, obs.U] for obs in observations], dtype=np.float64)
    y = np.array([obs.E_joules for obs in observations], dtype=np.float64)
    if floor_power_W is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            y = y - floor_power_W * np.array(
                [obs.duration_s for obs in observations], dtype=np.float64
            )
        bad = [obs.name for obs, e in zip(observations, y.tolist()) if not np.isfinite(e)]
        if bad:
            raise SchemaError(
                f"observations {bad}: E_joules minus the floor power times "
                "duration_s is not finite"
            )
    return X, y


def fit_energy_model(
    observations: Sequence[Observation],
    *,
    variances: Sequence[float] | None = None,
    floor_power_W: float | None = None,
) -> EnergyModel:
    """Fit (e_syn_J, e_upd_J) by least squares through the origin.

    Parameters
    ----------
    observations : sequence of Observation
        At least two operating points whose (S, U) rows are linearly
        independent.
    variances : sequence of float, optional
        Per-observation measurement variances for a weighted fit; the
        default weights all observations equally.
    floor_power_W : float, optional
        Constant platform power to subtract from each measurement as
        ``floor_power_W * duration_s`` before fitting.

    Returns
    -------
    EnergyModel
        Parameters, covariance, residual RMS, and observation count.
        Negative parameters are reported as fitted, with a logged warning.

    Raises
    ------
    RankDeficient
        Fewer than two observations, or collinear (S, U) rows.
    IllConditioned
        Design matrix condition number at or above ``COND_LIMIT``, or
        parameters, covariance or residual that are not finite in float64
        (joules per event past the float range, or their variance).
    MissingMeasurement
        An observation lacks a usable energy (or a duration when the
        floor-power term is requested).
    SchemaError
        An observation has a non-finite S, U, or (with floor power) a
        non-finite or negative duration; the floor power is negative or not
        finite; an energy minus the floor-power term is not finite; or a
        variance is not positive (NaN included).
    """
    X, y = _design(observations, floor_power_W)
    n = X.shape[0]
    if n < 2:
        raise RankDeficient(f"need at least 2 observations, got {n}")
    if variances is not None:
        var = np.asarray(variances, dtype=np.float64)
        if var.shape != (n,) or not (var > 0).all():
            raise SchemaError("variances must be positive, one per observation")
        scale = 1.0 / np.sqrt(var)
        Xw = X * scale[:, None]
        yw = y * scale
    else:
        Xw, yw = X, y
    if np.linalg.matrix_rank(Xw) < 2:
        raise RankDeficient(
            "the (S, U) rows are collinear; vary the workload mix between "
            "observations"
        )
    cond = float(np.linalg.cond(Xw))
    if cond >= COND_LIMIT:
        raise IllConditioned(
            f"design matrix condition number {cond:.3e} is unusable for a "
            "two-parameter fit"
        )

    # The normal equations square the counts, which can underflow or
    # overflow where the rows themselves are fine. So each column of Xw, and
    # yw, is first scaled by the power of two that brings its largest
    # magnitude into [0.5, 1). That is exact, and so is taking the scales
    # off the results: a fit whose products stay normal is bitwise the
    # unscaled one. One that still leaves float64 fails below.
    x_exp = np.frexp(np.abs(Xw).max(axis=0))[1]
    y_exp = np.frexp(np.abs(yw).max())[1]
    Xs, ys = np.ldexp(Xw, -x_exp), np.ldexp(yw, -y_exp)
    with np.errstate(all="ignore"):
        xtx = Xs.T @ Xs
        xty = Xs.T @ ys
        det = xtx[0, 0] * xtx[1, 1] - xtx[0, 1] * xtx[1, 0]
        inv = (
            np.array([[xtx[1, 1], -xtx[0, 1]], [-xtx[1, 0], xtx[0, 0]]], dtype=np.float64)
            / det
        )
        params = inv @ xty
        residuals = ys - Xs @ params
        rss = float(residuals @ residuals)
        sigma2 = rss / max(n - 2, 1)
        params = np.ldexp(params, y_exp - x_exp)
        cov = np.ldexp(sigma2 * inv, 2 * y_exp - x_exp[:, None] - x_exp[None, :])
        rms = float(np.ldexp(np.sqrt(rss / n), y_exp))
    if not (np.isfinite(params).all() and np.isfinite(cov).all() and np.isfinite(rms)):
        raise IllConditioned(
            "the fit's parameters, covariance or residual are not finite in "
            "float64; express S, U and E_joules in other units"
        )
    model = EnergyModel(
        e_syn_J=float(params[0]),
        e_upd_J=float(params[1]),
        cov=cov,
        residual_rms=rms,
        n_obs=n,
    )
    if model.negative_params:
        logger.warning(
            "fitted energy parameters are not both positive "
            "(e_syn_J=%.3e, e_upd_J=%.3e); the observations may not span "
            "the workload space",
            model.e_syn_J,
            model.e_upd_J,
        )
    return model


def predict_energy(model: EnergyModel, S: float, U: float) -> tuple[float, float]:
    """Energy estimate and its one-sigma parameter uncertainty, in joules.

    Counts that are not finite (those of a dataset with no successful
    sample) give NaN. Finite counts whose estimate or variance is not finite
    in float64 raise :class:`SchemaError`: the model does not fit them.
    """
    x = np.array([S, U], dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        energy = float(x @ np.array([model.e_syn_J, model.e_upd_J]))
        var = float(x @ np.asarray(model.cov) @ x)
    if np.isfinite(x).all() and not (np.isfinite(energy) and np.isfinite(var)):
        raise SchemaError(
            f"the model predicts a non-finite energy for S={S!r}, U={U!r} "
            f"(E = {energy!r} J, variance {var!r} J^2)"
        )
    return energy, float(np.sqrt(max(var, 0.0)))


def observation_from_run(
    name: str,
    stats,
    e_measured_joules: float | None,
    duration_s: float | None = None,
) -> Observation:
    """Package dataset statistics with a measured energy.

    ``stats`` is one dataset aggregate or an iterable of them; several runs
    merge by weighting each mean with its successful sample count.
    """
    if e_measured_joules is None:
        raise MissingMeasurement(
            f"observation {name!r} needs a measured energy in joules"
        )
    group = stats if isinstance(stats, (list, tuple)) else [stats]
    total = sum(st.n_ok for st in group)
    if total == 0:
        raise MissingMeasurement(
            f"observation {name!r} has no successfully simulated samples"
        )
    s_mean = sum(st.mean_synaptic_events * st.n_ok for st in group) / total
    u_mean = sum(st.mean_update_count * st.n_ok for st in group) / total
    return Observation(
        name=name,
        S=float(s_mean),
        U=float(u_mean),
        E_joules=float(e_measured_joules),
        duration_s=duration_s,
    )


# ---------------------------------------------------------------------------
# file formats


_BASE_HEADER = ["name", "S", "U", "E_joules"]


def read_observations_csv(path: str | Path) -> list[Observation]:
    """Read ``name,S,U,E_joules[,duration_s]`` rows."""
    text = Path(path).read_text(encoding="utf-8")
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows:
        raise SchemaError(f"{Path(path).name}: empty observations file")
    header = [cell.strip() for cell in rows[0]]
    if header != _BASE_HEADER and header != _BASE_HEADER + ["duration_s"]:
        raise SchemaError(
            f"{Path(path).name}: header must be 'name,S,U,E_joules' with an "
            f"optional trailing 'duration_s', got {header}"
        )
    has_duration = len(header) == 5
    out = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise SchemaError(
                f"{Path(path).name}: line {line_no} has {len(row)} fields, "
                f"expected {len(header)}"
            )
        try:
            obs = Observation(
                name=row[0],
                S=float(row[1]),
                U=float(row[2]),
                E_joules=float(row[3]),
                duration_s=float(row[4]) if has_duration and row[4] != "" else None,
            )
        except ValueError as exc:
            raise SchemaError(f"{Path(path).name}: line {line_no}: {exc}") from exc
        out.append(obs)
    return out


def write_observations_csv(
    path: str | Path, observations: Iterable[Observation]
) -> None:
    observations = list(observations)
    has_duration = any(obs.duration_s is not None for obs in observations)
    header = _BASE_HEADER + (["duration_s"] if has_duration else [])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for obs in observations:
            row = [obs.name, repr(obs.S), repr(obs.U), repr(obs.E_joules)]
            if has_duration:
                row.append("" if obs.duration_s is None else repr(obs.duration_s))
            writer.writerow(row)


def model_to_json(model: EnergyModel) -> bytes:
    obj = {
        "e_syn_J": model.e_syn_J,
        "e_upd_J": model.e_upd_J,
        "cov": [float(v) for v in np.asarray(model.cov).reshape(-1)],
        "residual_rms": model.residual_rms,
        "n_obs": model.n_obs,
    }
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def model_from_json(data: bytes | str) -> EnergyModel:
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("model file root must be an object")
    missing = {"e_syn_J", "e_upd_J", "cov", "residual_rms", "n_obs"} - set(obj)
    if missing:
        raise SchemaError(f"model file is missing fields {sorted(missing)}")
    cov = obj["cov"]
    if not isinstance(cov, list) or len(cov) != 4:
        raise SchemaError("model cov must hold 4 row-major values")
    if type(obj["n_obs"]) is not int:
        raise SchemaError(f"model n_obs must be an integer, got {obj['n_obs']!r}")
    return EnergyModel(
        e_syn_J=_finite_number(obj["e_syn_J"], "e_syn_J"),
        e_upd_J=_finite_number(obj["e_upd_J"], "e_upd_J"),
        cov=np.array([_finite_number(v, "cov") for v in cov]).reshape(2, 2),
        residual_rms=_finite_number(obj["residual_rms"], "residual_rms"),
        n_obs=obj["n_obs"],
    )


def _finite_number(value, field: str) -> float:
    # bools are ints; NaN, infinities and integers past the float range fail the bound
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise SchemaError(f"model {field} must be a finite number, got {value!r}")
