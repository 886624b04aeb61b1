"""The program-side calls the benchmark's workloads make, run at a small size.

`bench/workloads.py` builds galleries from `Template`s, drives `sigfd.cli.run`
and calls `recognition.evaluate`.  A change that breaks one of those calls
would otherwise show only as a failed benchmark run.  Each workload here
runs its set-up and one cycle at the reference seed, with 200-template
galleries in place of 1k and 10k, and its inputs and the evaluate grid's
CSVs are compared with the stored seed-0 reference as `bench/run.py` does.
"""

import json
from pathlib import Path

import pytest

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "seed0.json"
SMALL_TEMPLATES = 200


@pytest.fixture
def workloads(bench_module):
    return bench_module("workloads")


def _small(workloads, name: str):
    base = workloads.WORKLOADS[name]
    if not hasattr(base, "TEMPLATES"):
        return base
    return type(f"Small{base.__name__}", (base,), {"TEMPLATES": SMALL_TEMPLATES})


@pytest.mark.parametrize("name", ["gallery-10k", "cli-session", "evaluate-grid"])
def test_workload_sets_up_runs_a_cycle_and_passes_its_checks(workloads, tmp_path, name):
    workload = _small(workloads, name)(0, tmp_path)
    workload.setup()
    results = [call() for _, call in workload.cycle()]
    assert results == [True] * len(results)
    assert [(check, detail) for check, ok, detail in workload.checks() if not ok] == []
    reference = json.loads(REFERENCE.read_text())
    assert workload.digest == reference["digests"][name]
    if name == "evaluate-grid":
        assert workload.full_csv() == reference["evaluate_csv"]
        assert workload.sym8_csv() == reference["evaluate_sym8_csv"]
