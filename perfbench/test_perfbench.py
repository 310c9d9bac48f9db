"""Self-check of the benchmark at tiny scale.

    python3 -m pytest perfbench -q

Runs ``run.main`` in-process on the tiny inputs of each workload.
"""
from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

SEED = 11


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(run, "WORKLOADS", {
        name: functools.partial(cls, scale="tiny")
        for name, cls in run.WORKLOADS.items()})


def _run(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", str(SEED),
                     "--seconds", "0", "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


def _reference(workload) -> dict:
    """Digests of the tiny inputs, made the way make_reference.py does."""
    gate = run.measure(run.WORKLOADS[workload](SEED), 0, False, {})["gate"]
    assert gate.failed == 0, gate.problems
    return {str(k): {"combined": gate.combined[k],
                     "answers": [d[:16] for d in v]}
            for k, v in gate.first.items()}


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_result_schema(capsys, workload, trace):
    code, result = _run(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        list(expected)
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float))
        if not trace:
            assert m["value"] > 0, name


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_corrupted_reference_fails(capsys, monkeypatch, workload):
    good = _reference(workload)
    monkeypatch.setattr(run, "_load_reference", lambda name: good)
    code, result = _run(capsys, workload)
    assert code == 0 and result["failed"] == 0
    entry = next(iter(good.values()))
    entry["answers"][0] = "0" * 16
    code, result = _run(capsys, workload)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_host_probe_scales_each_segment_by_its_samples(monkeypatch):
    samples = iter([1e-3, 3e-3, 2e-3])
    monkeypatch.setattr(tracing, "probe_seconds", lambda: next(samples))
    probe = tracing.HostProbe()
    for _ in range(3):
        probe.sample()
    probe.starts[:] = [10.0, 11.0, 12.0]
    probe.segments[:] = [0.5, 0.25]
    first, second = 2 * probe.NOMINAL / 4e-3, 2 * probe.NOMINAL / 5e-3
    assert probe.total() == pytest.approx(0.5 * first + 0.25 * second)
    assert probe.normalize(10.1, 10.3) == pytest.approx(0.2 * first)
    # Across a sample: the rest of the first segment, none of the sample
    # time, part of the second segment.
    assert probe.normalize(10.25, 11.1) == pytest.approx(
        0.25 * first + 0.1 * second)


def test_kernel_spans_nest_under_hyperreg(capsys):
    code, _ = _run(capsys, "hypergraph", trace=1)
    assert code == 0
    trace = json.loads(
        (HERE / "out" / f"trace-hypergraph-{SEED}.json").read_text())
    spans = trace["spans"]
    kernel = [s for s in spans if s[0].startswith("kernels.")]
    assert kernel
    for span in kernel:
        parent = spans[span[1]]
        assert parent[0].startswith("hyperreg."), parent[0]
        assert parent[3] <= span[3] <= span[4] <= parent[4]
        assert span[2] is not None
