"""Smoke test of the benchmark itself at tiny sizes (about a minute).

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent


def tiny(workload, **sizes):
    return dataclasses.replace(workload, name="smoke-" + workload.name, **sizes)


@pytest.mark.parametrize(
    "workload, trace",
    [
        (tiny(workloads.large_cli(n=30, k=3, boot=100)), 0),
        (tiny(workloads.small_cli(n=30, k=3, boot=100, reps=(100, 100))), 1),
    ],
    ids=["end-to-end", "traced"],
)
def test_every_named_metric_is_emitted(workload, trace):
    result = run.run_workload(workload, seed=3, seconds=0, trace=trace, root=ROOT)
    assert result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.units()[trace])
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    if trace == 0:
        assert result["metrics"]["session_rel"]["value"] > 0
    else:
        assert result["metrics"]["trace.spans"]["value"] > 0
        assert all(result["metrics"][f"cli.run.{m}_s"]["value"] > 0 for m in workloads.METRICS)


def test_corrupted_outputs_count_as_failed(monkeypatch):
    workload = workloads.Workload(
        name="smoke-corrupt",
        n=30,
        k=3,
        boot=100,
        why="corrupted outputs",
        invocations=(
            workloads.Invocation("rank", ("rank", "@table", "--json", "@json")),
            workloads.Invocation("sip_pair", ("sip", "@table", "--pair", "M01,M02", "--json", "@json")),
        ),
    )
    launch = run.Run.launch

    def corrupting_launch(self, args, stdout_path, stderr_path):
        outcome = launch(self, args, stdout_path, stderr_path)
        if "--json" in args:
            path = args[args.index("--json") + 1]
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            if args[2] == "rank":
                payload["report"]["p"][0][0] = float("nan")  # bare NaN: not strict JSON
            else:
                payload["report"]["delta_mue"]["value"] += 1e-3  # breaks dMUE = SIP*MG + SIP'*ML
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        return outcome

    monkeypatch.setattr(run.Run, "launch", corrupting_launch)
    result = run.run_workload(workload, seed=5, seconds=0, trace=0, root=ROOT)
    # Two passes of an import-only launch, a reference launch and two
    # invocations; every corrupted output is one failure.
    assert result["attempted"] == 8
    assert result["failed"] == 4
    assert result["correct"] is False
