"""Command-line profiler.

Subcommands:

``inspect``
    Print the per-layer structural table (neuron count, fanin, recurrent
    fanin, per-event energy parameters), the conventional MAC count, and
    the update energy one timestep costs.
``profile``
    Run a dataset and write all three of ``energy.json`` (structural
    estimate and exact event count side by side, mean and std over
    samples), ``spikes.csv`` (per-layer totals), and ``latency.csv``
    (per-sample outcome).
``trace``
    Run one sample and write ``trace.csv`` with rows ``layer,t,spike_count``
    over the full (layer, t) grid; ``--raster`` adds a per-spike
    ``raster.csv`` with rows ``layer,neuron,t``.
``calibrate``
    Fit joules-per-event parameters from an observations CSV and write
    ``model.json``.
``predict``
    Run a dataset, take its mean event counts, and apply a fitted model to
    estimate energy per inference in joules (written to
    ``prediction.json``).

Exit codes: 0 success; 2 for unusable inputs (bad files, malformed
manifests, shape problems); 3 when simulation state left the finite range;
4 when a calibration fit is impossible. ``EMACPROF_LOG`` sets the log
level (DEBUG, INFO, WARNING, ERROR).

Report files contain no timestamps and are written with sorted keys and
fixed float formatting, so a rerun with the same inputs and seed produces
byte-identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import math
import os
import re
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from . import __version__
from .calib import (
    fit_energy_model,
    model_from_json,
    model_to_json,
    predict_energy,
    read_observations_csv,
)
from .codec import INPUT_SUFFIXES, EncodedInput, EncodingMode, encode, load_input_tensor
from .emac import ann_mac_count, price_table
from .engine import AggregateStats, Stat, run_dataset, run_inference
from .errors import (
    EmacProfError,
    IllConditioned,
    MissingMeasurement,
    NonFiniteState,
    RankDeficient,
    SchemaError,
)
from .netspec import Coding, NetworkSpec, parse_network

__all__ = ["main", "entrypoint"]

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_CALIBRATION = 4

# ---------------------------------------------------------------------------
# shared plumbing


def _setup_logging() -> None:
    name = os.environ.get("EMACPROF_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )


def _slug(exc: BaseException) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", " ", type(exc).__name__).lower()


def _exit_code(exc: BaseException) -> int:
    if isinstance(exc, (RankDeficient, IllConditioned, MissingMeasurement)):
        return EXIT_CALIBRATION
    if isinstance(exc, NonFiniteState):
        return EXIT_NUMERIC
    return EXIT_VALIDATION


def _load_net(args) -> NetworkSpec:
    npath = Path(args.network)
    wpath = Path(args.weights) if args.weights else npath.with_suffix(".emwt")
    return parse_network(npath.read_bytes(), wpath.read_bytes())


def _collect_inputs(spec: str) -> list[Path]:
    root = Path(spec)
    if root.is_dir():
        # regular files (or links to them): a directory named like one is skipped
        paths = sorted(
            p for p in root.iterdir() if p.suffix.lower() in INPUT_SUFFIXES and p.is_file()
        )
        if not paths:
            raise SchemaError(f"{root}: no .bin or .csv input files")
        return paths
    if root.suffix.lower() not in INPUT_SUFFIXES:
        raise SchemaError(f"{root}: input files must end in .bin or .csv")
    return [root]


def _load_sample(net: NetworkSpec, args, path: Path, index: int) -> EncodedInput:
    """The input file of sample ``index``, encoded with that sample's seed.

    Each sample gets its own counter-based stream, keyed by
    ``(--seed + index) mod 2**64``, so ``trace --sample k`` shows the draws
    ``profile`` gives sample k. A NaN or infinite value is a
    :class:`SchemaError` that names the file, whatever the encoding.
    """
    values = load_input_tensor(path, net.input_shape)
    if not np.isfinite(values).all():
        raise SchemaError(f"{path.name}: input values must be finite, got a NaN or infinity")
    return encode(values, EncodingMode(args.encoding), (args.seed + index) % (1 << 64))


class _InputFiles(Sequence[EncodedInput]):
    """The input files of a run as samples, each read, checked and encoded
    by :func:`_load_sample` only when it is indexed.

    :func:`~emacprof.engine.run_dataset` reads its samples once, in order,
    one group at a time, so a run holds one group's inputs, not the whole
    dataset's, and a malformed file fails the run when its group is reached.
    """

    def __init__(self, net: NetworkSpec, args, paths: list[Path]) -> None:
        self._net, self._args, self._paths = net, args, paths

    def __len__(self) -> int:
        return len(self._paths)

    def __getitem__(self, index: int) -> EncodedInput:
        index = range(len(self._paths))[index]  # an IndexError past the end
        return _load_sample(self._net, self._args, self._paths[index], index)


def _load_samples(net: NetworkSpec, args) -> _InputFiles:
    return _InputFiles(net, args, _collect_inputs(args.inputs))


def _num(value: float) -> float | None:
    v = float(value)
    return v if math.isfinite(v) else None


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _fmt(value: float) -> str:
    out = f"{value:.3f}".rstrip("0").rstrip(".")
    return out if out else "0"


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands


def cmd_inspect(args) -> int:
    net = _load_net(args)
    static_upd = 0.0
    print(f"{'layer':<6}{'name':<22}{'kind':<20}{'n_n':>8}{'n_s':>7}"
          f"{'n_sr':>7}  e=(e_syn,e_upd)")
    for index, lp in enumerate(price_table(net).layers):
        static_upd += lp.neurons * lp.update
        print(
            f"{index:<6}{lp.name:<22}{lp.kind:<20}"
            f"n_n={lp.neurons:<7} n_s={lp.fanin:<5} n_sr={lp.recurrent_fanin:<5}"
            f" e=({_fmt(lp.event)},{_fmt(lp.update)})"
        )
    print(f"ANN MAC count: {ann_mac_count(net)}")
    print(f"update EMAC per timestep: {_fmt(static_upd)}")
    return EXIT_OK


def _stat_json(stat: Stat) -> dict:
    return {"mean": _num(stat.mean), "std": _num(stat.std)}


def _method_json(stats: AggregateStats, method: str, net: NetworkSpec) -> dict:
    block = stats.methods[method]
    out = {c: _stat_json(stat) for c, stat in block.total.items()}
    out["approx_padding"] = block.approx_padding
    out["per_layer"] = [
        {
            "name": net.layer_name(index),
            # a layer's kind is only reported when some sample was priced
            "kind": net.layers[index].kind.value if stats.n_ok else None,
            **{c: _stat_json(stat) for c, stat in layer.items()},
        }
        for index, layer in enumerate(block.per_layer)
    ]
    return out


def _energy_report(stats: AggregateStats, args, net: NetworkSpec) -> dict:
    return {
        "coding": (args.coding or net.coding.value),
        "encoder_per_step": bool(args.encoder_per_step),
        "encoding": args.encoding,
        "failures": [
            {"sample": index, "message": message}
            for index, message in stats.failures
        ],
        "latency_T": _stat_json(stats.latency),
        "methods": {m: _method_json(stats, m, net) for m in stats.methods},
        "n_ok": stats.n_ok,
        "n_samples": stats.n_samples,
        "reference_kind": stats.reference_kind,
        "seed": args.seed,
        "synaptic_events_mean": _num(stats.mean_synaptic_events),
        "t_max": args.t_max if args.t_max is not None else net.max_timesteps,
        "total_spikes": _stat_json(stats.total_spikes),
        "update_count_mean": _num(stats.mean_update_count),
    }


def _write_spikes_csv(path: Path, stats: AggregateStats, net: NetworkSpec) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["layer", "name", "kind", "spikes_mean", "spikes_std"])
        for index, stat in enumerate(stats.per_layer_spikes):
            kind = net.layers[index].kind.value
            writer.writerow(
                [index, net.layer_name(index), kind, repr(stat.mean), repr(stat.std)]
            )


def _write_latency_csv(path: Path, stats: AggregateStats) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["sample", "status", "T_used", "class_index", "fallback_used"]
        )
        for index, outcome in enumerate(stats.outcomes):
            if outcome is None:
                writer.writerow([index, "failed", "", "", ""])
                continue
            d = outcome.decision
            writer.writerow(
                [index, "ok", outcome.T_used, d.class_index, int(d.fallback_used)]
            )


def _run_dataset(args) -> tuple[NetworkSpec, AggregateStats]:
    net = _load_net(args)
    stats = run_dataset(
        net,
        _load_samples(net, args),
        t_max=args.t_max,
        coding=args.coding,
        encoder_per_step=args.encoder_per_step,
    )
    return net, stats


def _failures_exit(stats: AggregateStats) -> int:
    for index, message in stats.failures:
        print(f"sample {index} failed: {message}", file=sys.stderr)
    return EXIT_NUMERIC if stats.failures else EXIT_OK


def cmd_profile(args) -> int:
    net, stats = _run_dataset(args)
    out = _out_dir(args)
    _write_json(out / "energy.json", _energy_report(stats, args, net))
    _write_spikes_csv(out / "spikes.csv", stats, net)
    _write_latency_csv(out / "latency.csv", stats)
    print(f"samples: {stats.n_ok}/{stats.n_samples} ok")
    print(
        f"E_tot exact_events: mean={stats.emac_exact.mean!r} "
        f"std={stats.emac_exact.std!r}"
    )
    print(
        f"E_tot analytic:     mean={stats.emac_analytic.mean!r} "
        f"std={stats.emac_analytic.std!r}"
    )
    print(f"wrote energy.json, spikes.csv, latency.csv to {out}")
    return _failures_exit(stats)


def cmd_trace(args) -> int:
    net = _load_net(args)
    paths = _collect_inputs(args.inputs)
    if not 0 <= args.sample < len(paths):
        raise SchemaError(
            f"--sample {args.sample} is out of range for {len(paths)} input file(s)"
        )
    result = run_inference(
        net,
        _load_sample(net, args, paths[args.sample], args.sample),
        t_max=args.t_max,
        coding=args.coding,
        record_raster=args.raster,
        encoder_per_step=args.encoder_per_step,
    )
    out = _out_dir(args)
    trace = result.trace
    with open(out / "trace.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["layer", "t", "spike_count"])
        for index in range(trace.counts.shape[0]):
            for t in range(1, trace.T_used + 1):
                writer.writerow([index, t, int(trace.counts[index, t - 1])])
    written = ["trace.csv"]
    if args.raster:
        with open(out / "raster.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["layer", "neuron", "t"])
            for index, raster in enumerate(result.rasters):
                neurons, steps = np.nonzero(raster)
                order = np.lexsort((neurons, steps))
                for k in order:
                    writer.writerow([index, int(neurons[k]), int(steps[k]) + 1])
        written.append("raster.csv")
    d = result.decision
    print(
        f"class {d.class_index} after {d.latency_T} step(s)"
        + (" via silent-output fallback" if d.fallback_used else "")
    )
    print(f"E_tot exact_events: {result.energy.E_tot!r}")
    print(f"wrote {', '.join(written)} to {out}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    observations = read_observations_csv(args.observations)
    model = fit_energy_model(observations, floor_power_W=args.floor_power)
    out = _out_dir(args)
    (out / "model.json").write_bytes(model_to_json(model))
    print(f"e_syn_J = {model.e_syn_J!r}")
    print(f"e_upd_J = {model.e_upd_J!r}")
    print(f"residual_rms = {model.residual_rms!r} over {model.n_obs} observation(s)")
    if model.negative_params:
        print("warning: fitted parameters are not both positive", file=sys.stderr)
    print(f"wrote model.json to {out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = model_from_json(Path(args.model).read_bytes())
    _, stats = _run_dataset(args)
    energy, sigma = predict_energy(
        model, stats.mean_synaptic_events, stats.mean_update_count
    )
    out = _out_dir(args)
    _write_json(
        out / "prediction.json",
        {
            "E_joules": _num(energy),
            "sigma_joules": _num(sigma),
            "dof": model.n_obs - 2,  # sigma_joules is the scale of a t with these
            "synaptic_events_mean": _num(stats.mean_synaptic_events),
            "update_count_mean": _num(stats.mean_update_count),
            "reference_kind": stats.reference_kind,
            "n_ok": stats.n_ok,
            "n_samples": stats.n_samples,
        },
    )
    print(f"E = {energy!r} J per inference (sigma {sigma!r})")
    if model.n_obs <= 2:  # no residual degrees of freedom
        print(
            f"warning: the model was fitted to {model.n_obs} observation(s), which it "
            "interpolates exactly: sigma_joules is rounding noise, not an uncertainty",
            file=sys.stderr,
        )
    print(f"wrote prediction.json to {out}")
    return _failures_exit(stats)


# ---------------------------------------------------------------------------
# parser


def _add_network_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--network", required=True, help="network manifest (JSON)")
    p.add_argument(
        "--weights",
        help="weights container; default: the manifest path with a .emwt suffix",
    )


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--inputs", required=True, help="input tensor file or directory of .bin/.csv"
    )
    p.add_argument(
        "--encoding",
        choices=[m.value for m in EncodingMode],
        default=EncodingMode.ANALOG.value,
        help="present inputs as constant currents or per-step spike draws",
    )
    p.add_argument(
        "--coding",
        choices=[c.value for c in Coding],
        default=None,
        help="decision rule override; default: what the manifest declares",
    )
    p.add_argument("--t-max", type=int, default=None, help="step budget override")
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed; sample k uses seed+k for its spike draws",
    )
    p.add_argument(
        "--encoder-per-step",
        action="store_true",
        help="charge the static first-layer pass once per timestep instead of once",
    )


def _add_out_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=".", help="directory for report files")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused.

    Building it takes about 1.4 ms, and its parsers reference each other,
    so each one left behind stays in memory until the garbage collector
    runs; ``parse_args`` does not change it, so one serves every call.
    """
    parser = argparse.ArgumentParser(
        prog="emacprof",
        description="Energy profiling for spiking and conventional networks.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="print the structural table of a network")
    _add_network_flags(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("profile", help="run a dataset and write energy reports")
    _add_network_flags(p)
    _add_run_flags(p)
    _add_out_flags(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("trace", help="run one sample and write its spike trace")
    _add_network_flags(p)
    _add_run_flags(p)
    p.add_argument(
        "--sample", type=int, default=0, help="index into the sorted input files"
    )
    p.add_argument("--raster", action="store_true", help="also write raster.csv")
    _add_out_flags(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("calibrate", help="fit joules-per-event parameters")
    p.add_argument(
        "--observations", required=True, help="CSV of name,S,U,E_joules[,duration_s]"
    )
    p.add_argument(
        "--floor-power",
        type=float,
        default=None,
        help="constant platform watts to subtract via each row's duration_s",
    )
    _add_out_flags(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("predict", help="apply a fitted model to a new network")
    p.add_argument("--model", required=True, help="fitted model JSON")
    _add_network_flags(p)
    _add_run_flags(p)
    _add_out_flags(p)
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _setup_logging()
    try:
        return args.func(args)
    except (EmacProfError, OSError, ValueError) as exc:
        print(f"error: {_slug(exc)}: {exc}", file=sys.stderr)
        logger.debug("command failed", exc_info=exc)
        return _exit_code(exc)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
