"""Check that two source trees write byte-identical reports on the benchmark workloads.

Usage, from the root of a checkout::

    python tools/same_reports.py BASE_SRC

``BASE_SRC`` is the ``src`` directory of another tree, such as the parent
commit unpacked with ``git archive``. Each workload of
``benchmarks/workloads.py`` is generated at seeds 0-3, and on each instance
``emacprof profile`` and ``emacprof trace --sample 1 --raster`` run twice, in
a fresh process: once with ``PYTHONPATH=BASE_SRC`` and once with this
checkout's ``src``. ``emacprof inspect``, which prints the price table, runs
once per network (at seed 0: a network does not change with the seed), and
on ``mixed_analog_recurrent``, the one workload with a static prefix,
``profile --encoder-per-step`` runs at every seed, so that the static MACs
are priced once per step. So do they on :data:`POOL_NETS`, a network with a
padded stride-2 convolution and an overlapping 3x3 stride-2 pool, which no
workload has: once with a rectifier convolution and analog inputs, so that
the pool takes floats in the static stage, and once with a spiking
convolution and Poisson inputs, so that it takes spikes in the step loop.
Each of these networks steps one block (consecutive spiking layers of one
neuron model); :data:`BLOCK_NETS` and ``two_block_overflow_net`` step two.
:data:`STEP_PATH_NETS` take paths that every other network here leaves
alone: ``threshold_net``'s spiking layers have thresholds other than 1.0,
whose reset multiplies the spikes by the threshold, and
``square_overflow_net`` holds finite voltages whose squares leave the float
range, so that every tick's finiteness check falls back to the row scan,
and ``block_edge_net``'s first two layers sum their input spikes in blocks
of 64 rows, with per-step counts on either side of 64 and of 128 among the
rows of one group.
On ``conv_poisson_rate``, on :data:`BLOCK_NETS`, on ``threshold_net`` and
on ``block_edge_net`` both also run with ``--coding roc``: samples then
decide early (at seed 0, at steps 30-36 of 64 on ``conv_poisson_rate``,
9-11 of 32 on ``two_block_poisson`` and 5-19 of 32 on ``block_edge_net``),
so rows leave the group while pools, layers of uneven fan-out, later blocks
and the other rows' event sums still step, which no run under the
manifest's own coding reaches.
:data:`ANALOG_STACKS` are LIF stacks whose first layer takes an analog
input with no static stage before it: one of 512 neurons on 784 inputs,
which the engine drives in four row blocks of 128, and one of 300, which
takes the whole product in one; ``mixed_analog_recurrent``'s recurrent
layer of 256 neurons, in two row blocks, is the only other layer driven
in blocks.
:data:`UNEVEN_ANALOG_NETS` hold the one analog-input network whose step
loop counts events into layers of uneven fan-out: an LIF convolution on
the analog input, a 2x2 pool over its 11x11 map, whose last row and column
reach no window, a padded LIF convolution and an LIF dense head; it also
runs with ``--coding roc``, where samples decide at steps 9-10 of 32.
:data:`WIDE_NETS` hold a 784-256-256-10 IFL stack on Poisson inputs whose
float32 weights span 2**-40 to 2**40, so that their sums round: in a group
of several rows its dense ticks would take one product if the engine's
exact-sum check passed, and since it fails them they keep their per-row
drives; it also runs with ``--coding roc``.
:data:`AHEAD_NETS` hold Poisson-fed first layers whose sums are exact, which
the engine drives a block of steps ahead: ``ahead_stack``, a 784-256-10 IFL
stack run at ``--t-max 37`` over 27 inputs, in groups of 14 and 13, whose
blocks take the 4 steps the group budget holds (64 pairs would take 5),
the last one cut short by the step budget, while ``trace`` runs one row in
blocks of 16, 16 and 5; ``ahead_recurrent``, a recurrent first layer after
a flatten, whose recurrent term stays tick by tick, in one group of 8 in
blocks of 7 steps (8 for 64 pairs), the last one of 4; and ``ahead_local``,
a locally connected one, whose inputs reach differing numbers of neurons,
in blocks of 6 steps, the last one of 2. Their odd samples are sparse, so
some blocks keep the event sums, and they also run with ``--coding roc``,
where samples decide inside a block (at steps 7-17 of 37 on
``ahead_stack`` at seed 0).
:data:`SPIKE_POOL_NETS` hold a Poisson conv network small enough to step
groups of 4 rows, whose pools take spikes in shapes the reference
workload's 2x2 stride-2 pools over even maps do not: 2x2 stride 2 over an
odd map, 2x2 stride 1 and 3x2 of stride (2, 1); it also runs with
``--coding roc``, where rows leave the group while its pools still step.
:data:`MULTI_GROUP_NETS` run ``mixed_analog_recurrent``'s network over 150
inputs, by ``profile`` at seed 0 only, so that a large-weight network
crosses several lockstep group boundaries (four groups of 37 or 38 at 40
samples a group, three of 50 at 54, eleven at 14), where every reference
dataset runs in at most two groups.
:data:`OVERFLOW_NETS` are networks whose samples leave the finite range:
some in the static stage, most in the step loop at steps that vary with the
input, and, on ``overflow_net``, some not at all, so their runs exit 3 with
a message per failed sample that names the layer and the step.
Both runs read the same generated files and write into directories of the
same relative name, so their exit codes, stdout, stderr and every output
file must match byte for byte. A run that fails on both sides counts as a
difference too, since it would compare nothing, unless it is a run of
:data:`OVERFLOW_NETS` that exits 3.

Run it at the default OpenBLAS thread count and again with
``OPENBLAS_NUM_THREADS=1``: a group's checked product runs OpenBLAS's
threaded GEMM by default and another kernel at one thread.

Exit 0 when every run matches; exit 1 naming the first difference; exit 2
when ``BASE_SRC`` holds no ``emacprof`` package.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from emacprof import Coding, NetworkBuilder, NeuronKind, NeuronModelSpec  # noqa: E402
from emacprof.netspec import lcl_mask  # noqa: E402
from workloads import LIF, RELU, WORKLOADS, Workload, generate, profile_argv  # noqa: E402

IFL = NeuronModelSpec(kind=NeuronKind.IFL)

SEEDS = range(4)


def pool_net(first):
    """Builder of a padded stride-2 convolution of ``first`` neurons, an
    overlapping 3x3 stride-2 pool and a dense LIF head."""

    def build(rng):
        return (
            NetworkBuilder((1, 16, 16), coding=Coding.RATE, max_timesteps=32)
            .conv2d(4, (3, 3), first, stride=(2, 2), padding=1,
                    weights=rng.normal(0.15, 0.2, 4 * 9))
            .max_pool((3, 3), stride=(2, 2))  # 8x8 -> 3x3, windows overlap
            .flatten()
            .dense(10, LIF, weights=rng.normal(0.05, 0.05, 10 * 36))
            .build()
        )

    return build


POOL_NETS = {
    w.name: w
    for w in (
        Workload("pool_net_analog", "analog", (1, 16, 16), (0.0, 1.0), 8, 104, pool_net(RELU)),
        Workload("pool_net_poisson", "poisson", (1, 16, 16), (0.0, 0.6), 8, 104, pool_net(LIF)),
    )
}


def spike_pool_net(rng):
    """Builder of a Poisson-fed LIF convolution, a 2x2 stride-2 pool over its
    odd 13x13 map, whose last row and column reach no window, a 2x2
    stride-1 pool, a padded LIF convolution, a 3x2 pool of stride (2, 1)
    and an LIF dense head: every pool takes spikes in the step loop."""
    return (
        NetworkBuilder((1, 15, 15), coding=Coding.RATE, max_timesteps=32)
        .conv2d(4, (3, 3), LIF, weights=rng.normal(0.1, 0.2, 4 * 9))  # 15x15 -> 13x13
        .max_pool((2, 2))  # 13x13 -> 6x6
        .max_pool((2, 2), stride=(1, 1))  # 6x6 -> 5x5
        .conv2d(6, (3, 3), LIF, padding=1, weights=rng.normal(0.0, 0.15, 6 * 4 * 9))
        .max_pool((3, 2), stride=(2, 1))  # 5x5 -> 2x4
        .flatten()
        .dense(10, LIF, weights=rng.normal(0.2, 0.1, 10 * 48))
        .build()
    )


#: a Poisson conv network small enough to step several rows a group, whose
#: pools take spikes in shapes the reference workload's 2x2 pools do not
SPIKE_POOL_NETS = {
    "spike_pool_net": Workload(
        "spike_pool_net", "poisson", (1, 15, 15), (0.0, 0.6), 8, 118, spike_pool_net
    )
}


def two_block_poisson(rng):
    """Builder of an IFL dense layer, then an LIF recurrent layer and an
    LIF dense head: two blocks."""
    return (
        NetworkBuilder((16,), coding=Coding.RATE, max_timesteps=32)
        .dense(12, IFL, weights=rng.normal(0.02, 0.1, (12, 16)))
        .recurrent_dense(10, LIF, weights=rng.normal(0.3, 0.3, (10, 12)),
                         recurrent_weights=rng.normal(0.0, 0.3, (10, 10)))
        .dense(4, LIF, weights=rng.normal(0.1, 0.3, (4, 10)))
        .build()
    )


BLOCK_NETS = {
    "two_block_poisson": Workload(
        "two_block_poisson", "poisson", (16,), (0.0, 0.8), 8, 106, two_block_poisson
    )
}


def overflow_chain(rng, head):
    """Builder of a rectifier chain that scales its input x in [0, 1] by
    2e308 (past the float range for x > 0.9), two IFL neurons, the first of
    which, at voltage x * 2e306 * t * (t + 1) / 2 after step t, leaves the
    float range at a step from 14 (x = 0.9) to past the budget of 32
    (x < 0.17), and a head of three ``head`` neurons."""
    builder = NetworkBuilder((1,), coding=Coding.RATE, max_timesteps=32)
    for gain in [1e38] * 8 + [2e4]:
        builder.dense(1, RELU, weights=[[gain]])
    return (
        builder.dense(2, IFL, weights=[[0.01], [1e-5]])
        .dense(3, head, weights=rng.uniform(0.0, 0.5, (3, 2)))
        .build()
    )


def overflow_net(rng):
    """Builder of :func:`overflow_chain` with an IFL head: one block."""
    return overflow_chain(rng, IFL)


def two_block_overflow_net(rng):
    """Builder of :func:`overflow_chain` with a second block: an IFL head of
    bias 1e306, at voltage 1e306 * t * (t + 1) / 2 after step t, which
    leaves the float range at step 19 whatever the input. A block after the
    first sees only spikes, whose drive cannot leave the float range, so its
    own bias sets that step; the input decides whether the first block
    fails before it (x > 0.53), at the same step, where the first block's
    lower layer is reported (0.47 < x <= 0.53), or not (x <= 0.47)."""
    return overflow_chain(rng, NeuronModelSpec(kind=NeuronKind.IFL, bias=1e306))


OVERFLOW_NETS = {
    w.name: w
    for w in (
        Workload("overflow_net", "analog", (1,), (0.0, 1.0), 8, 105, overflow_net),
        Workload("two_block_overflow_net", "analog", (1,), (0.0, 1.0), 8, 107,
                 two_block_overflow_net),
    )
}


def threshold_net(rng):
    """Builder of :func:`two_block_poisson`'s layers with thresholds other than
    1.0, whose reset subtracts ``v_th * spike`` (a threshold of 1.0 subtracts
    the spikes themselves): an IFL dense layer of threshold 0.75 that spikes
    once, an LIF recurrent layer of 0.5 and an LIF dense head of 2.5."""
    return (
        NetworkBuilder((16,), coding=Coding.RATE, max_timesteps=32)
        .dense(12, replace(IFL, v_th=0.75, spike_once=True),
               weights=rng.normal(0.05, 0.1, (12, 16)))
        .recurrent_dense(10, replace(LIF, v_th=0.5), weights=rng.normal(0.3, 0.3, (10, 12)),
                         recurrent_weights=rng.normal(0.0, 0.3, (10, 10)))
        .dense(4, replace(LIF, v_th=2.5), weights=rng.normal(1.0, 0.5, (4, 10)))
        .build()
    )


def square_overflow_net(rng):
    """Builder of a rectifier chain that scales its input x in [0, 1] by
    1e160, two IFL neurons of threshold 1e161 at voltages up to
    x * 1e160 * t * (t + 1) / 2 after step t, which stay finite but whose
    squares leave the float range from step 1 on (x > 1e-6), so that every
    tick's finiteness check sends it to the row scan, and an IFL head of
    three neurons that their spikes drive."""
    builder = NetworkBuilder((1,), coding=Coding.RATE, max_timesteps=32)
    for gain in [1e38] * 4 + [1e8]:
        builder.dense(1, RELU, weights=[[gain]])
    return (
        builder.dense(2, replace(IFL, v_th=1e161), weights=[[1.0], [0.25]])
        .dense(3, IFL, weights=rng.uniform(0.0, 1.0, (3, 2)))
        .build()
    )


def block_edge_net(rng):
    """Builder of a Poisson dense stack whose first two layers, of 256 x 160
    and 160 x 112 weights, are above ``_EVENT_MIN_WEIGHTS`` (16,384) and so
    sum their input spikes in blocks of 64 rows, and an LIF head of 10."""
    return (
        NetworkBuilder((256,), coding=Coding.RATE, max_timesteps=32)
        .dense(160, LIF, weights=rng.normal(0.02, 0.05, (160, 256)))
        .dense(112, LIF, weights=rng.normal(0.03, 0.06, (112, 160)))
        .dense(10, LIF, weights=rng.normal(0.05, 0.1, (10, 112)))
        .build()
    )


class EdgeInputs(Workload):
    """A workload whose sample ``k`` scales its uniform inputs by ``SCALES[k]``,
    so that the rows of one group see input spike counts from well below 64
    to well above 128 in each step, several of them close to either edge."""

    SCALES = (0.6, 1.0, 0.95, 1.05, 2.0, 1.9, 1.6, 0.3)

    def inputs(self, seed: int) -> list:
        return [x * scale for x, scale in zip(super().inputs(seed), self.SCALES)]


#: networks on paths of the neuron step, of the finiteness check and of the
#: event sums that no workload takes; all run to their budgets without failing
STEP_PATH_NETS = {
    w.name: w
    for w in (
        Workload("threshold_net", "poisson", (16,), (0.0, 0.8), 8, 108, threshold_net),
        Workload("square_overflow_net", "analog", (1,), (0.0, 1.0), 8, 109,
                 square_overflow_net),
        EdgeInputs("block_edge_net", "poisson", (256,), (0.0, 0.5), 8, 110, block_edge_net),
    )
}


def analog_stack(first):
    """Builder of an LIF stack of a dense layer of ``first`` neurons on 784
    inputs and an LIF head of 10."""

    def build(rng):
        return (
            NetworkBuilder((784,), coding=Coding.RATE, max_timesteps=32)
            .dense(first, LIF, weights=rng.normal(0.002, 0.02, (first, 784)))
            .dense(10, LIF, weights=rng.normal(0.05, 0.05, (10, first)))
            .build()
        )

    return build


#: analog-input networks whose first layer is driven in row blocks, and not
ANALOG_STACKS = {
    w.name: w
    for w in (
        Workload("analog_stack_512", "analog", (784,), (0.0, 1.0), 8, 111, analog_stack(512)),
        Workload("analog_stack_300", "analog", (784,), (0.0, 1.0), 8, 112, analog_stack(300)),
    )
}


def analog_conv_net(rng):
    """Builder of an LIF convolution on an analog input, a 2x2 pool over its
    odd-sized map, a padded LIF convolution and an LIF dense head: the
    inputs of the pool and of the second convolution reach differing
    numbers of neurons."""
    return (
        NetworkBuilder((1, 13, 13), coding=Coding.RATE, max_timesteps=32)
        .conv2d(4, (3, 3), LIF, weights=rng.normal(0.2, 0.15, 4 * 9))
        .max_pool((2, 2))  # 11x11 -> 5x5
        .conv2d(6, (3, 3), LIF, padding=1, weights=rng.normal(0.05, 0.1, 6 * 4 * 9))
        .flatten()
        .dense(10, LIF, weights=rng.normal(0.05, 0.05, 10 * 150))
        .build()
    )


#: an analog-input network whose step loop counts events of uneven fan-out
UNEVEN_ANALOG_NETS = {
    "analog_conv_net": Workload(
        "analog_conv_net", "analog", (1, 13, 13), (0.0, 1.0), 8, 113, analog_conv_net
    )
}


def wide_weight_stack(rng):
    """Builder of a 784-256-256-10 IFL stack whose float32 weights span 2**-40
    to 2**40, so that their sums round: every dense layer fails the engine's
    exact-sum check and keeps its per-row drives in groups of several rows."""

    def wide(shape):
        return (rng.normal(0.0, 0.3, shape) * 2.0 ** rng.integers(-40, 40, shape)).astype(
            np.float32
        )

    return (
        NetworkBuilder((784,), coding=Coding.RATE, max_timesteps=32)
        .dense(256, IFL, weights=wide((256, 784)))
        .dense(256, IFL, weights=wide((256, 256)))
        .dense(10, IFL, weights=wide((10, 256)))
        .build()
    )


#: a network whose dense drives would take one product per tick if their sums were exact
WIDE_NETS = {
    "wide_weight_stack": Workload(
        "wide_weight_stack", "poisson", (784,), (0.0, 0.6), 8, 114, wide_weight_stack
    )
}


def ahead_stack(rng):
    """Builder of a 784-256-10 IFL stack of threshold 6.0 whose first layer's
    weights are multiples of 2**-12, whose sums are exact, so that the
    encoder drives it a block of steps ahead."""
    model = replace(IFL, v_th=6.0)
    return (
        NetworkBuilder((784,), coding=Coding.RATE, max_timesteps=64)
        .dense(256, model, weights=np.round(rng.normal(0.002, 0.02, (256, 784)) * 4096) / 4096)
        .dense(10, model, weights=rng.normal(0.02, 0.1, (10, 256)))
        .build()
    )


def ahead_recurrent(rng):
    """Builder of a flatten of a 1x14x14 input, an LIF recurrent layer driven
    a block of steps ahead (its recurrent term still tick by tick) and an LIF
    head."""
    return (
        NetworkBuilder((1, 14, 14), coding=Coding.RATE, max_timesteps=32)
        .flatten()
        .recurrent_dense(128, LIF, weights=rng.normal(0.01, 0.04, (128, 196)),
                         recurrent_weights=rng.normal(0.0, 0.1, (128, 128)))
        .dense(10, LIF, weights=rng.normal(0.05, 0.1, (10, 128)))
        .build()
    )


def ahead_local(rng):
    """Builder of an LIF locally connected layer on a 2x12x12 input, driven a
    block of steps ahead, whose inputs reach differing numbers of neurons,
    and an LIF head."""
    builder = NetworkBuilder((2, 12, 12), coding=Coding.RATE, max_timesteps=32)
    mask = lcl_mask(NetworkBuilder((2, 12, 12)).locally_connected(4, (3, 3), LIF).build().layers[0])
    return (
        builder.locally_connected(4, (3, 3), LIF, weights=rng.normal(0.1, 0.15, mask.shape) * mask)
        .flatten()
        .dense(10, LIF, weights=rng.normal(0.05, 0.05, (10, 400)))
        .build()
    )


class SparseInputs(Workload):
    """A workload whose odd samples scale their uniform inputs by 0.15, so
    that a group's blocks ahead spike more or less than one in 16 of their
    inputs as its rows leave, and sample 1, which ``trace`` runs alone, is
    sparse."""

    def inputs(self, seed: int) -> list:
        return [x * (0.15 if k % 2 else 1.0) for k, x in enumerate(super().inputs(seed))]


#: Poisson-fed first layers that sum exactly, which the engine drives a block
#: of steps ahead
AHEAD_NETS = {
    w.name: w
    for w in (
        SparseInputs("ahead_stack", "poisson", (784,), (0.0, 0.25), 27, 115, ahead_stack),
        SparseInputs("ahead_recurrent", "poisson", (1, 14, 14), (0.0, 0.6), 8, 116,
                     ahead_recurrent),
        SparseInputs("ahead_local", "poisson", (2, 12, 12), (0.0, 0.6), 8, 117, ahead_local),
    )
}
#: step budgets other than the manifest's, given by ``--t-max``
T_MAX = {"ahead_stack": 37}


#: a large-weight network over more inputs than two lockstep groups hold
MULTI_GROUP_NETS = {
    "mixed_analog_recurrent_150": replace(WORKLOADS["mixed_analog_recurrent"], n_samples=150)
}


def run(src: Path, argv: list[str], cwd: Path) -> tuple[int, bytes, bytes, dict[str, bytes]]:
    """Exit code, stdout, stderr and written files of ``emacprof`` from ``src``, run in ``cwd``."""
    cwd.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, "-m", "emacprof.cli", *argv],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        check=False,
    )
    files = {
        path.relative_to(cwd).as_posix(): path.read_bytes()
        for path in sorted(cwd.rglob("*"))
        if path.is_file()
    }
    return proc.returncode, proc.stdout, proc.stderr, files


def difference(base: tuple, change: tuple, codes: tuple[int, ...] = (0,)) -> str | None:
    """The first way two runs differ, or ``None``; a shared exit code not in
    ``codes`` is a difference too."""
    (base_code, base_out, base_err, base_files), (code, out, err, files) = base, change
    if base_code != code:
        return f"exit code {base_code} != {code}"
    if code not in codes:
        return f"both runs exit {code}"
    if base_out != out:
        return "stdout differs"
    if base_err != err:
        return "stderr differs"
    for name in sorted(base_files.keys() | files.keys()):
        if name not in files:
            return f"{name} is missing from the change's outputs"
        if name not in base_files:
            return f"{name} is missing from the base's outputs"
        if base_files[name] != files[name]:
            return f"{name} differs"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src", type=Path, help="src directory of the tree to compare with")
    args = parser.parse_args(argv)
    base_src = args.base_src.resolve()
    if not (base_src / "emacprof" / "__init__.py").is_file():
        print(f"error: no emacprof package under {base_src}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        nets = {**WORKLOADS, **POOL_NETS, **BLOCK_NETS, **OVERFLOW_NETS, **STEP_PATH_NETS,
                **ANALOG_STACKS, **UNEVEN_ANALOG_NETS, **WIDE_NETS, **AHEAD_NETS,
                **SPIKE_POOL_NETS, **MULTI_GROUP_NETS}
        for name, workload in nets.items():
            codes = (0, 3) if name in OVERFLOW_NETS else (0,)
            for seed in SEEDS[:1] if name in MULTI_GROUP_NETS else SEEDS:
                case = Path(tmp) / f"{name}-{seed}"
                gen = generate(workload, seed, case / "data")
                # None: the manifest's own coding
                roc_too = name in {"conv_poisson_rate", "threshold_net", "block_edge_net",
                                   *BLOCK_NETS, *UNEVEN_ANALOG_NETS, *WIDE_NETS, *AHEAD_NETS,
                                   *SPIKE_POOL_NETS}
                profile = profile_argv(workload, gen, seed, Path("out"))
                if name in T_MAX:
                    profile += ["--t-max", str(T_MAX[name])]
                runs = {}  # output directory: (command, flags)
                for coding in [None, "roc"] if roc_too else [None]:
                    flags = [] if coding is None else ["--coding", coding]
                    runs[f"profile-{coding or 'manifest'}"] = [*profile, *flags], flags
                    trace = ["trace", *profile[1:], *flags, "--sample", "1", "--raster"]
                    runs[f"trace-{coding or 'manifest'}"] = trace, flags
                if name == "mixed_analog_recurrent":
                    flags = ["--encoder-per-step"]
                    runs["profile-per-step"] = [*profile, *flags], flags
                if seed == SEEDS[0]:
                    runs["inspect"] = ["inspect", *profile[1:5]], []
                if name in MULTI_GROUP_NETS:  # only a dataset crosses groups
                    runs = {"profile-manifest": runs["profile-manifest"]}
                for where, (command, flags) in runs.items():
                    label = " ".join([name, "seed", str(seed), command[0], *flags])
                    found = difference(
                        run(base_src, command, case / "base" / where),
                        run(ROOT / "src", command, case / "change" / where),
                        codes,
                    )
                    if found is not None:
                        print(f"{label}: {found}", file=sys.stderr)
                        return 1
                    print(f"{label}: identical", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
