"""Correctness gate: simulated results against the values recorded in ``golden.json``.

Each ``profile`` call's reports are read back and checked for:

* the exit code was 0 (checked by the caller) and every sample succeeded
  (``n_ok == n_samples``);
* the per-layer spike means of ``spikes.csv`` and the per-sample ``T_used`` of
  ``latency.csv`` equal the recorded values exactly;
* on workloads that declare it, exact ``E_tot`` equals analytic ``E_tot`` to a
  relative 1e-9.

Energies that depend on pricing, and class indices, are left out on purpose:
pricing fixes may change them while the simulation stays the same.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "GOLDEN", "RECORDED_SEEDS", "Observed", "read_reports", "check", "energies_agree", "load_golden",
]

GOLDEN = Path(__file__).with_name("golden.json")
#: seeds whose results ``golden.json`` holds; other seeds fall back to seed 0
RECORDED_SEEDS = range(32)
REL_TOL = 1e-9


@dataclass(frozen=True)
class Observed:
    """What the gate reads from one ``profile`` call's reports."""

    n_ok: int
    n_samples: int
    spikes_mean: list[str]
    T_used: list[int | None]
    E_tot_exact: float | None
    E_tot_analytic: float | None

    def recorded(self) -> dict:
        return {"spikes_mean": self.spikes_mean, "T_used": self.T_used}


def read_reports(out_dir: Path) -> Observed:
    energy = json.loads((out_dir / "energy.json").read_text(encoding="utf-8"))
    with open(out_dir / "spikes.csv", newline="", encoding="utf-8") as fh:
        spikes_mean = [row["spikes_mean"] for row in csv.DictReader(fh)]
    with open(out_dir / "latency.csv", newline="", encoding="utf-8") as fh:
        T_used = [
            int(row["T_used"]) if row["status"] == "ok" else None
            for row in csv.DictReader(fh)
        ]
    methods = energy["methods"]
    return Observed(
        n_ok=energy["n_ok"],
        n_samples=energy["n_samples"],
        spikes_mean=spikes_mean,
        T_used=T_used,
        E_tot_exact=methods["exact_events"]["E_tot"]["mean"],
        E_tot_analytic=methods["analytic"]["E_tot"]["mean"],
    )


def energies_agree(exact: float | None, analytic: float | None) -> bool:
    return (
        exact is not None
        and analytic is not None
        and math.isclose(exact, analytic, rel_tol=REL_TOL, abs_tol=0.0)
    )


def check(obs: Observed, expected: dict, *, exact_equals_analytic: bool) -> list[str]:
    """Problems in the reports of one ``profile`` call; an empty list means it passed."""
    problems = []
    if obs.n_ok != obs.n_samples:
        problems.append(f"only {obs.n_ok} of {obs.n_samples} samples succeeded")
    if obs.spikes_mean != expected["spikes_mean"]:
        problems.append(
            f"spike means {obs.spikes_mean} differ from recorded {expected['spikes_mean']}"
        )
    if obs.T_used != expected["T_used"]:
        problems.append(f"T_used {obs.T_used} differs from recorded {expected['T_used']}")
    if exact_equals_analytic and not energies_agree(obs.E_tot_exact, obs.E_tot_analytic):
        problems.append(
            f"exact E_tot {obs.E_tot_exact!r} differs from analytic "
            f"{obs.E_tot_analytic!r} by more than {REL_TOL}"
        )
    return problems


def load_golden(path: Path = GOLDEN) -> dict[str, dict[str, dict]]:
    """``{workload: {seed: {"spikes_mean": [...], "T_used": [...]}}}``."""
    return json.loads(path.read_text(encoding="utf-8"))
