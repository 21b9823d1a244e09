"""Seeded reference workloads.

A workload is a fixed network plus a dataset drawn from the run's seed. The
network's weights come from a constant per-workload seed, so every run
profiles the same model and only the inputs change with ``--seed``.
:func:`generate` writes the manifest, the ``.emwt`` weights container and one
``.bin`` file per sample; those files are all the profiler sees.

Why these three (see also ``why`` in ``BENCHMARK.json``):

* ``conv_poisson_rate`` runs every sample for the full window through the
  conv/pool window path, the Poisson encoder and the LIF step, with dense
  spiking. A precomputed window index or a batched encoder shows here.
* ``dense_poisson_roc`` has no conv or pool, spikes sparsely and stops each
  sample at its own step (69-105 of 128, mean 80, over the recorded seeds)
  under rank-order coding, with no silent-output fallback. It bypasses window
  optimisations and exposes early stop under batching and sparse
  event-driven drive.
* ``mixed_analog_recurrent`` bypasses the encoder (analog input through a
  static rectifier stage) and steps a recurrent layer. Its samples are the
  cheapest, so per-sample overheads (compile, pricing, aggregation, report
  writing) weigh the most. An encoder optimisation should not move it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from emacprof import (
    Coding,
    NetworkBuilder,
    NetworkSpec,
    NeuronKind,
    NeuronModelSpec,
    save_input_tensor,
    serialize_network,
)

__all__ = ["Workload", "Generated", "WORKLOADS", "generate", "profile_argv"]

LIF = NeuronModelSpec(kind=NeuronKind.LIF, dt=1e-3, tau_syn=5e-3, tau_mem=1e-2)
IFL_ONCE = NeuronModelSpec(kind=NeuronKind.IFL, spike_once=True)
RELU = NeuronModelSpec(kind=NeuronKind.ANN_RELU)


@dataclass(frozen=True)
class Workload:
    name: str
    encoding: str
    input_shape: tuple[int, ...]
    input_range: tuple[float, float]
    n_samples: int
    network_seed: int
    build: Callable[[np.random.Generator], NetworkSpec]
    #: the paper's dense-stack invariant: exact E_tot equals analytic E_tot
    exact_equals_analytic: bool = False

    def network(self) -> NetworkSpec:
        return self.build(np.random.default_rng(self.network_seed))

    def inputs(self, seed: int) -> list[np.ndarray]:
        rng = np.random.default_rng(seed)
        lo, hi = self.input_range
        return [
            rng.uniform(lo, hi, self.input_shape).astype(np.float32)
            for _ in range(self.n_samples)
        ]


def _conv_poisson_rate(rng: np.random.Generator) -> NetworkSpec:
    return (
        NetworkBuilder((1, 28, 28), coding=Coding.RATE, max_timesteps=64)
        .conv2d(8, (3, 3), LIF, weights=rng.normal(0.15, 0.1, 8 * 9))
        .max_pool((2, 2))
        .conv2d(16, (3, 3), LIF, weights=rng.normal(0.01, 0.03, 16 * 8 * 9))
        .max_pool((2, 2))
        .flatten()
        .dense(10, LIF, weights=rng.normal(0.002, 0.01, 10 * 400))
        .build()
    )


def _dense_poisson_roc(rng: np.random.Generator) -> NetworkSpec:
    sizes = (784, 512, 512, 256, 256, 10)
    builder = NetworkBuilder((784,), coding=Coding.ROC, max_timesteps=128)
    for fan_in, units in zip(sizes, sizes[1:]):
        std = 0.003 * math.sqrt(784 / fan_in)
        builder.dense(units, IFL_ONCE, weights=rng.normal(0.0, std, units * fan_in))
    return builder.build()


def _mixed_analog_recurrent(rng: np.random.Generator) -> NetworkSpec:
    return (
        NetworkBuilder((1, 28, 28), coding=Coding.RATE, max_timesteps=64)
        .conv2d(8, (3, 3), RELU, weights=rng.normal(0.0, 0.3, 8 * 9))
        .max_pool((2, 2))
        .flatten()
        .recurrent_dense(
            256,
            LIF,
            weights=rng.normal(0.0005, 0.01, 256 * 1352),
            recurrent_weights=rng.normal(0.0, 0.02, 256 * 256),
        )
        .dense(10, LIF, weights=rng.normal(0.05, 0.05, 10 * 256))
        .build()
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="conv_poisson_rate",
            encoding="poisson",
            input_shape=(1, 28, 28),
            input_range=(0.0, 0.6),
            n_samples=16,
            network_seed=101,
            build=_conv_poisson_rate,
        ),
        Workload(
            name="dense_poisson_roc",
            encoding="poisson",
            input_shape=(784,),
            input_range=(0.0, 0.3),
            n_samples=16,
            network_seed=102,
            build=_dense_poisson_roc,
            exact_equals_analytic=True,
        ),
        Workload(
            name="mixed_analog_recurrent",
            encoding="analog",
            input_shape=(1, 28, 28),
            input_range=(0.0, 1.0),
            n_samples=64,
            network_seed=103,
            build=_mixed_analog_recurrent,
        ),
    )
}


@dataclass(frozen=True)
class Generated:
    """Paths of one generated workload instance."""

    network: Path
    weights: Path
    inputs: Path
    samples: tuple[Path, ...]


def generate(workload: Workload, seed: int, out_dir: Path) -> Generated:
    """Write the workload's network and the dataset for ``seed`` into ``out_dir``."""
    manifest, container = serialize_network(workload.network())
    out_dir.mkdir(parents=True, exist_ok=True)
    network = out_dir / "net.json"
    weights = out_dir / "net.emwt"
    network.write_bytes(manifest)
    weights.write_bytes(container)
    inputs = out_dir / "inputs"
    inputs.mkdir(exist_ok=True)
    samples = []
    for index, values in enumerate(workload.inputs(seed)):
        path = inputs / f"sample_{index:03d}.bin"
        save_input_tensor(path, values)
        samples.append(path)
    return Generated(network, weights, inputs, tuple(samples))


def profile_argv(
    workload: Workload, gen: Generated, seed: int, out_dir: Path
) -> list[str]:
    """``emacprof profile`` arguments; coding and step budget come from the manifest."""
    return [
        "profile",
        "--network", str(gen.network),
        "--weights", str(gen.weights),
        "--inputs", str(gen.inputs),
        "--encoding", workload.encoding,
        "--seed", str(seed),
        "--out", str(out_dir),
    ]
