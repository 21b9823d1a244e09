"""Check that two source trees write byte-identical reports on the benchmark workloads.

Usage, from the root of a checkout::

    python tools/same_reports.py BASE_SRC

``BASE_SRC`` is the ``src`` directory of another tree, such as the parent
commit unpacked with ``git archive``. Each workload of
``benchmarks/workloads.py`` is generated at seeds 0-3, and on each instance
``emacprof profile`` and ``emacprof trace --sample 1 --raster`` run twice, in
a fresh process: once with ``PYTHONPATH=BASE_SRC`` and once with this
checkout's ``src``. So do they on :data:`POOL_NETS`, a network with a
padded stride-2 convolution and an overlapping 3x3 stride-2 pool, which no
workload has: once with a rectifier convolution and analog inputs, so that
the pool takes floats in the static stage, and once with a spiking
convolution and Poisson inputs, so that it takes spikes in the step loop.
On ``conv_poisson_rate`` both also run with ``--coding roc``: its samples
then decide early (at steps 30-36 of 64 at seed 0), so rows leave the group
while pools and layers of uneven fan-out still step, which no run under the
manifest's own coding reaches. Both
runs read the same generated files and write into directories of the same
relative name, so their exit codes, stdout and every output file must
match byte for byte. A run that fails on both sides counts
as a difference too, since it would compare nothing.

Exit 0 when every run matches; exit 1 naming the first difference; exit 2
when ``BASE_SRC`` holds no ``emacprof`` package.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from emacprof import Coding, NetworkBuilder  # noqa: E402
from workloads import LIF, RELU, WORKLOADS, Workload, generate, profile_argv  # noqa: E402

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


def run(src: Path, argv: list[str], cwd: Path) -> tuple[int, bytes, dict[str, bytes]]:
    """Exit code, stdout and written files of ``emacprof`` from ``src``, run in ``cwd``."""
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
    return proc.returncode, proc.stdout, files


def difference(base: tuple, change: tuple) -> str | None:
    """The first way two runs differ, or ``None``."""
    (base_code, base_out, base_files), (code, out, files) = base, change
    if base_code != code:
        return f"exit code {base_code} != {code}"
    if code != 0:
        return f"both runs exit {code}"
    if base_out != out:
        return "stdout differs"
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
        for name, workload in {**WORKLOADS, **POOL_NETS}.items():
            for seed in SEEDS:
                case = Path(tmp) / f"{name}-{seed}"
                gen = generate(workload, seed, case / "data")
                # None: the manifest's own coding
                for coding in [None, "roc"] if name == "conv_poisson_rate" else [None]:
                    flags = [] if coding is None else ["--coding", coding]
                    profile = [*profile_argv(workload, gen, seed, Path("out")), *flags]
                    trace = ["trace", *profile[1:], "--sample", "1", "--raster"]
                    for command in (profile, trace):
                        label = " ".join([name, "seed", str(seed), command[0], *flags])
                        where = f"{command[0]}-{coding or 'manifest'}"
                        found = difference(
                            run(base_src, command, case / "base" / where),
                            run(ROOT / "src", command, case / "change" / where),
                        )
                        if found is not None:
                            print(f"{label}: {found}", file=sys.stderr)
                            return 1
                        print(f"{label}: identical", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
