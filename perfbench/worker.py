"""One benchmark workload in a fresh interpreter.

``run.py`` starts this script once per measurement so that peak RSS,
the garbage collector and every in-process memo belong to that
workload alone.  It drives the service's public entry points,
``CampaignRunner.run`` and ``eco_reverify``, with ``jobs=1`` and
``workers=1`` on a closed loop: one request at a time, each sent after
the previous verdict.  Every verdict is checked against the known
answer in the input manifest.

A *pass* is one round over the workload's request set; every request
of a pass is sent once fresh (never seen by the cache) and then
``REPEATS`` times against the warm cache:

* ``cold-bitpack`` / ``cold-fused`` -- audit each ladder netlist on an
  empty cache (a new cache directory per pass; cold-fused skips the
  m=64 rung);
* ``eco`` -- re-audit ``--edits-per-pass`` never-seen edits of the
  verified baseline;
* ``triage`` -- diagnose each netlist of the fleet on an empty cache.

The latencies a pass records are host-normalized (``hostspeed.py``):
each fresh request together with its repeats is bracketed by the
calibration loops, the one after a request also serving the next.  The raw fresh latencies and the raw pass wall are
kept alongside.

Usage (normally only through ``run.py``)::

    python3 perfbench/worker.py --workload eco --inputs DIR --work DIR \\
        --passes N [--edits-per-pass K] [--trace] --out result.json
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

import hostspeed

# The calibration chain is built before anything else is imported, so
# that it takes the same memory in every run; that size is taken off the
# peak RSS the worker reports.
CALIBRATION_MB = hostspeed.prepare()

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from repro.netlist.eqn_io import read_eqn  # noqa: E402
from repro.service.cache import ResultCache  # noqa: E402
from repro.service.eco import eco_reverify  # noqa: E402
from repro.service.runner import CampaignRunner  # noqa: E402
from repro.telemetry import load_trace  # noqa: E402

from hostspeed import speed_factor  # noqa: E402
from layers import LayerProbe, layer_metrics  # noqa: E402
from oracle import golden, simulate_pairs  # noqa: E402

#: Warm-cache repeats of every fresh request.  A repeat takes a few
#: milliseconds, so many samples are needed for a steady median.
REPEATS = 40

#: Engine options of each workload.
ENGINES = {
    "cold-bitpack": {"engine": "bitpack", "fused": False},
    "cold-fused": {"engine": "vector", "fused": True},
    "eco": {"engine": "bitpack", "fused": False},
    "triage": {"engine": "bitpack", "fused": False},
}

#: Largest ladder rung each cold workload audits.  The fused sweep takes
#: about 5 s per m=64 audit, so cold-fused stops at m=48 and fits more
#: passes, hence more samples, into a run.
LADDER_TOP_M = {"cold-bitpack": 64, "cold-fused": 48}


class Client:
    """Times requests, checks verdicts and collects passes."""

    def __init__(self, probe: "LayerProbe | None"):
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.request_wall_s = 0.0
        self.normalized_s = 0.0
        self.passes: List[Dict[str, Any]] = []
        # Host-speed factor measured after the latest request; it also
        # stands for the host's speed before the next one.
        self.speed: "float | None" = None

    def request(self, kind: str, send: Callable[[], Any], collect=True):
        """Send one request; returns ``(response or None, seconds)``."""
        self.attempted += 1
        if collect:
            # Garbage left by the previous request is collected here,
            # not charged to this one.
            gc.collect()
        started = time.perf_counter()
        try:
            if self.probe is not None:
                with self.probe.request(kind=kind):
                    response = send()
            else:
                response = send()
        except Exception as error:  # noqa: BLE001 - a failed request
            self.fail(f"{kind} request raised {type(error).__name__}: {error}")
            response = None
        elapsed = time.perf_counter() - started
        self.request_wall_s += elapsed
        return response, elapsed

    def measure(self, out: Dict[str, list], label: str, send, check):
        """Send a request fresh, then ``REPEATS`` times against the warm
        cache; check every response and add the host-normalized
        latencies (see ``hostspeed.py``) to the pass ``out``.  Returns
        the fresh response."""
        before = self.speed or speed_factor()
        response, elapsed = self.request("fresh", send)
        check(response)
        samples = []
        for index in range(REPEATS):
            # The collector runs once before the repeats: a repeat
            # leaves little garbage.
            again, seconds = self.request("repeat", send, collect=index == 0)
            check(again)
            samples.append(seconds)
        # The repeats take milliseconds: the calibration right after
        # them stands for the host's speed during them, and also right
        # after the fresh request.
        self.speed = speed_factor()
        fresh = elapsed * (before + self.speed) / 2
        repeats = [seconds * self.speed for seconds in samples]
        out["fresh"].append(fresh)
        out["repeat"].append(repeats)
        out["labels"].append(label)
        out["raw_fresh"].append(elapsed)
        self.normalized_s += fresh + sum(repeats)
        return response

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def expect(self, label: str, got: Dict[str, Any], want: Dict[str, Any]):
        """Count a failure unless every key of ``want`` matches."""
        wrong = {
            key: (got.get(key), value)
            for key, value in want.items()
            if got.get(key) != value
        }
        if wrong:
            self.fail(f"{label}: got/expected {wrong}")


def new_pass() -> Dict[str, list]:
    return {"fresh": [], "repeat": [], "labels": [], "raw_fresh": []}


def audit_answer(record) -> Dict[str, Any]:
    if record is None:
        return {}
    return {
        "status": record.get("status"),
        "polynomial": record.get("polynomial"),
        "equivalent": record.get("equivalent"),
        "error": record.get("error"),
    }


def campaign(mode: str, path: Path, cache_dir: Path, options: Dict[str, Any]):
    def send():
        runner = CampaignRunner(
            mode=mode, jobs=1, workers=1, cache_dir=cache_dir, **options
        )
        return runner.run([path]).records[0]
    return send


def reaudit(baseline: Path, edited: Path, cache_dir: Path, options):
    def send():
        return eco_reverify(
            baseline, edited, ResultCache(cache_dir), jobs=1, audit=True,
            **options,
        )
    return send


def audit_expected(req: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "status": "ok",
        "polynomial": req["polynomial"],
        "equivalent": True,
        "error": None,
    }


# ----------------------------------------------------------------------
# Workloads: each sets itself up (warm-up included) and returns
# ``(run_pass, units per pass)``; ``run_pass(index)`` runs one measured
# pass and returns its latencies, or None when no input is left.
# ----------------------------------------------------------------------

def cold_workload(client, manifest, inputs, work, options):
    requests = manifest["requests"]
    # Warm-up: the smallest rung once, on a throwaway cache, so lazy
    # imports and first-touch heap growth land outside the timed pass.
    first = requests[0]
    response, _ = client.request(
        "warmup",
        campaign("audit", inputs / first["file"], work / "cache-warmup", options),
    )
    client.expect("warmup", audit_answer(response), audit_expected(first))

    def run_pass(index: int):
        cache_dir = work / f"cache-{index}"
        out = new_pass()
        for req in requests:
            send = campaign("audit", inputs / req["file"], cache_dir, options)
            want = audit_expected(req)
            label = f"{req['file']} (pass {index})"
            client.measure(
                out, f"m{req['m']}", send,
                lambda r: client.expect(label, audit_answer(r), want),
            )
        shutil.rmtree(cache_dir, ignore_errors=True)
        return out
    return run_pass, len(requests)


def eco_workload(client, manifest, inputs, work, options, edits_per_pass):
    cache_dir = work / "cache-eco"
    baseline_req = manifest["baseline"]
    baseline = inputs / baseline_req["file"]
    response, _ = client.request(
        "warmup", campaign("audit", baseline, cache_dir, options)
    )
    client.expect(
        "eco baseline", audit_answer(response), audit_expected(baseline_req)
    )
    edits = list(manifest["requests"])

    def reaudit_answer(report) -> Dict[str, Any]:
        if report is None:
            return {}
        return {
            "polynomial": report.polynomial,
            "irreducible": report.irreducible,
            "equivalent": report.equivalent,
        }

    def run_pass(index, count=edits_per_pass):
        if len(edits) < count:
            return None
        out = new_pass()
        for req in edits[:count]:
            send = reaudit(baseline, inputs / req["file"], cache_dir, options)
            want = {
                "polynomial": req["polynomial"],
                "irreducible": True,
                "equivalent": True,
            }
            label = req["file"]
            client.measure(
                out, "edit", send,
                lambda r: client.expect(label, reaudit_answer(r), want),
            )
        del edits[:count]
        return out

    # One discarded edit first: the edit path's lazy imports and first
    # touches of the warm cache happen there, not in a measured pass.
    run_pass("warmup", count=1)
    return run_pass, edits_per_pass


def triage_workload(client, manifest, inputs, work, options):
    requests = manifest["requests"]

    def run_pass(index):
        out = new_pass()
        for slot, req in enumerate(requests):
            # A cache of its own per netlist: fleet members share cones
            # (a mutant and its clean design), and a shared cache would
            # make each request's work depend on where the fault sits.
            cache_dir = work / f"cache-{index}-{slot}"
            send = campaign("diagnose", inputs / req["file"], cache_dir, options)
            want = {
                "status": "ok",
                "verdict": req["verdict"],
                "polynomial": req["polynomial"],
                "clean": req["verdict"] == "verified-multiplier",
            }
            label = f"{req['file']} (pass {index})"

            def check(record, label=label, want=want):
                got = {} if record is None else {k: record.get(k) for k in want}
                client.expect(label, got, want)

            response = client.measure(out, req["stratum"], send, check)
            check_counterexample(client, inputs, cache_dir, req, response)
            shutil.rmtree(cache_dir, ignore_errors=True)
        return out

    # One discarded pass first: the first passes of a process run the
    # counterexample sweep measurably slower than later ones.
    run_pass("warmup")
    return run_pass, len(requests)


def check_counterexample(client, inputs, cache_dir, req, record) -> None:
    """The counterexample search must find a mismatch exactly when the
    oracle put one in the 64 x 64 low-operand window (stratum
    ``caught``), and a reported one must disagree with A*B mod P."""
    if record is None or req["verdict"] != "not-equivalent":
        return
    label = req["file"]
    diagnosis = ResultCache(cache_dir).get_diagnosis(record["fingerprint"])
    if diagnosis is None:
        client.fail(f"{label}: no cached diagnosis for a not-equivalent verdict")
        return
    found = diagnosis.counterexample
    if (found is not None) != (req["stratum"] == "caught"):
        client.fail(
            f"{label}: {req['stratum']} mutant, but the search returned "
            f"counterexample {found}"
        )
    if found is None:
        return
    m = req["m"]
    a = np.array([sum(found.get(f"a{i}", 0) << i for i in range(m))])
    b = np.array([sum(found.get(f"b{i}", 0) << i for i in range(m))])
    netlist = read_eqn(inputs / label)
    if simulate_pairs(netlist, m, a, b)[0] == golden(a, b, req["modulus"])[0]:
        client.fail(f"{label}: counterexample {found} agrees with A*B mod P")


WORKLOADS = {
    "cold-bitpack": cold_workload,
    "cold-fused": cold_workload,
    "eco": eco_workload,
    "triage": triage_workload,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--edits-per-pass", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    manifest = json.loads(
        (args.inputs / "manifest.json").read_text(encoding="utf-8")
    )
    args.work.mkdir(parents=True, exist_ok=True)
    options = ENGINES[args.workload]
    if args.workload in LADDER_TOP_M:
        top = LADDER_TOP_M[args.workload]
        manifest["requests"] = [
            req for req in manifest["requests"] if req["m"] <= top
        ]
    client = Client(probe=None)
    extra = (args.edits_per_pass,) if args.workload == "eco" else ()
    run_pass, units_per_pass = WORKLOADS[args.workload](
        client, manifest, args.inputs, args.work, options, *extra
    )
    # Warm-up requests are not measured.
    client.request_wall_s = client.normalized_s = 0.0

    probe = None
    if args.trace:
        probe = LayerProbe(args.work / "trace.jsonl")
        probe.install()
        client.probe = probe
    try:
        for index in range(args.passes):
            before = (client.normalized_s, client.request_wall_s)
            latencies = run_pass(index)
            if latencies is None:
                break
            latencies["wall_s"] = client.normalized_s - before[0]
            latencies["raw_wall_s"] = client.request_wall_s - before[1]
            client.passes.append(latencies)
    finally:
        if probe is not None:
            probe.uninstall()

    result = {
        "workload": args.workload,
        "attempted": client.attempted,
        "failed": client.failed,
        "errors": client.errors,
        "passes": client.passes,
        "request_wall_s": client.request_wall_s,
        "normalized_s": client.normalized_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0 - CALIBRATION_MB,
    }
    if probe is not None:
        result["layers"] = layer_metrics(
            load_trace(probe.trace_path),
            probe.cache_bytes,
            units=max(1, units_per_pass * len(client.passes)),
        )
        result["trace"] = str(probe.trace_path)
    args.out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
