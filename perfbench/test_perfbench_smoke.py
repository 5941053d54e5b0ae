"""Smoke test of the end-to-end benchmark at m <= 16.

Runs every workload of ``BENCHMARK.json`` through ``run.py --smoke
--trace 1`` (which sends the same requests untraced and traced) and one
workload with ``--trace 0``, and checks that every verdict matched its
known answer and that each result line carries exactly the declared
metrics.  The end-to-end metrics come from one code path for all
workloads, so one untraced run covers their names.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    # One scratch directory for the module: the two cold workloads and
    # both trace modes reuse the inputs generated for the seed.
    return tmp_path_factory.mktemp("perfbench")


CASES = [(w["name"], 1) for w in SPEC["workloads"]]
CASES.append((SPEC["workloads"][0]["name"], 0))


@pytest.mark.parametrize("workload,trace", CASES)
def test_workload_smoke(work, workload, trace):
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--smoke", "--work", str(work),
        ],
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = line["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    if trace:
        # Call counts per netlist are exact: one parse per netlist.
        assert line["metrics"]["netlist.parse_calls"]["value"] == 1
