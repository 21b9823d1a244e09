"""Self-tests of the benchmark harness.

Run from the root of a checkout with ``python3 -m pytest benchmarks``.
"""

import copy
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from emacprof import cli, engine
from gate import check, load_golden, read_reports
from tracing import PATCHES, ROOT_SPAN, Tracer, installed, self_times
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent


def _files(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_generator_writes_identical_bytes_for_the_same_seed(tmp_path):
    for workload in WORKLOADS.values():
        first = generate(workload, 5, tmp_path / workload.name / "a")
        generate(workload, 5, tmp_path / workload.name / "b")
        other = generate(workload, 6, tmp_path / workload.name / "c")
        a, b, c = (_files(tmp_path / workload.name / d) for d in "abc")
        assert a == b
        assert len(first.samples) == workload.n_samples
        # the network is fixed per workload; only the inputs follow the seed
        assert a["net.emwt"] == c["net.emwt"]
        assert first.samples[0].read_bytes() != other.samples[0].read_bytes()


@pytest.fixture(scope="module")
def dense_run(tmp_path_factory):
    workload = WORKLOADS["dense_poisson_roc"]
    expected = load_golden()[workload.name]["0"]
    run = harness.Run(workload, 0, tmp_path_factory.mktemp("dense"), expected)
    run.profile()
    assert (run.failed, run.problems) == (0, [])
    return run


@pytest.mark.parametrize("field", ["T_used", "spikes_mean"])
def test_gate_fails_when_one_recorded_counter_changes_by_one(dense_run, field):
    obs = read_reports(dense_run.out)
    for index in range(len(dense_run.expected[field])):
        changed = copy.deepcopy(dense_run.expected)
        value = changed[field][index]
        changed[field][index] = value + 1 if field == "T_used" else repr(float(value) + 1)
        assert check(obs, changed, exact_equals_analytic=True), (field, index)


def test_gate_counts_a_mismatch_as_a_failed_operation(dense_run):
    changed = copy.deepcopy(dense_run.expected)
    changed["T_used"][0] += 1
    run = harness.Run(dense_run.workload, 0, dense_run.work_dir / "changed", changed)
    run.profile()
    run.setup()
    run.infer(0)
    assert run.attempted == 2 and run.failed == 2


def test_command_exits_nonzero_when_the_gate_fails(monkeypatch, capsys):
    workload = WORKLOADS["mixed_analog_recurrent"]
    golden = copy.deepcopy(load_golden())
    golden[workload.name]["0"]["T_used"][-1] += 1
    monkeypatch.setattr(harness, "load_golden", lambda: golden)
    code = harness.main(
        ["--workload", workload.name, "--seed", "0", "--seconds", "0", "--trace", "0"]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0


def _patched_attributes():
    attrs = {(module.__name__, attr): getattr(module, attr) for module, attr, _ in PATCHES}
    attrs["engine", "step_fn"] = engine.step_fn
    return attrs


def test_traced_run_puts_back_every_wrapped_attribute(dense_run):
    before = _patched_attributes()
    tracer = Tracer()
    with installed(tracer):
        during = _patched_attributes()
        assert all(during[key] is not before[key] for key in before)
        dense_run.profile(functools.partial(tracer.trace, cli.main))
    assert _patched_attributes() == before
    with pytest.raises(RuntimeError), installed(tracer):
        raise RuntimeError("interrupted traced run")
    assert _patched_attributes() == before
    assert dense_run.failed == 0

    spans = [s for s in tracer.spans if s is not None]
    names = {s.name for s in spans}
    assert {"engine.run_dataset", "neuron.step", "codec.poisson_slice", "emac.price"} <= names
    assert {s.trace_id for s in spans} == {0}
    root = sum(s.end - s.start for s in spans if s.name == ROOT_SPAN)
    assert sum(self_times(spans).values()) == pytest.approx(root, rel=1e-9)
    assert tracer.counts["samples"] == dense_run.workload.n_samples


def test_command_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "dense_poisson_roc",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
