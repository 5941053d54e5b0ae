"""Batch-campaign benchmark: cold pipeline vs content-addressed cache.

Measures :func:`repro.service.runner.run_campaign` over a generated
fleet of multiplier netlists (mixed architectures), three ways:

* **cold** — empty cache, full extract+verify per netlist;
* **warm** — identical rerun, served from the content-addressed cache
  (the PR's >= 10x acceptance criterion);
* **cross-engine warm** — rerun under the *other* engine, still served
  from cache (results are engine-independent, so the cache is too).

Usage::

    PYTHONPATH=src python benchmarks/bench_batch.py            # full
    PYTHONPATH=src python benchmarks/bench_batch.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_batch.py -o out.json

The full run writes ``BENCH_batch.json`` at the repository root.  The
module doubles as a pytest file: the smoke test always runs, the full
fleet is marked ``slow``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import shutil
import sys
import tempfile
import time
from typing import Dict, List

import pytest

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.fieldmath.irreducible import default_irreducible  # noqa: E402
from repro.fieldmath.polynomial_db import PAPER_POLYNOMIALS  # noqa: E402
from repro.gen.digit_serial import generate_digit_serial  # noqa: E402
from repro.gen.karatsuba import generate_karatsuba  # noqa: E402
from repro.gen.mastrovito import generate_mastrovito  # noqa: E402
from repro.gen.montgomery import generate_montgomery  # noqa: E402
from repro.gen.schoolbook import generate_schoolbook  # noqa: E402
from repro.netlist.eqn_io import write_eqn  # noqa: E402
from repro.service.runner import run_campaign  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = ROOT / "BENCH_batch.json"

#: (generator, m) pairs per profile — mixed architectures by design.
SMOKE_FLEET = [
    ("mastrovito", 8),
    ("montgomery", 6),
    ("schoolbook", 6),
    ("karatsuba", 5),
    ("digit-serial", 5),
    ("mastrovito", 6),
]
FULL_FLEET = SMOKE_FLEET + [
    ("mastrovito", 16),
    ("schoolbook", 12),
    ("karatsuba", 12),
    ("montgomery", 10),
]

GENERATORS = {
    "mastrovito": generate_mastrovito,
    "montgomery": generate_montgomery,
    "schoolbook": generate_schoolbook,
    "karatsuba": generate_karatsuba,
    "digit-serial": generate_digit_serial,
}


def build_fleet(fleet: List, directory: pathlib.Path) -> None:
    for generator, m in fleet:
        modulus = PAPER_POLYNOMIALS.get(m, default_irreducible(m))
        write_eqn(
            GENERATORS[generator](modulus),
            directory / f"{generator}_{m}.eqn",
        )


def run_benchmark(fleet: List, verbose: bool = True) -> Dict:
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="repro_bench_batch_"))
    try:
        designs = workdir / "designs"
        designs.mkdir()
        build_fleet(fleet, designs)
        cache_dir = workdir / "cache"

        phases = {}
        # Cold/warm under the reference engine is the acceptance pair
        # ("an immediately repeated run"); the cross-engine rerun shows
        # the cache is engine-independent.
        for phase, engine in (
            ("cold", "reference"),
            ("warm", "reference"),
            ("warm_cross_engine", "bitpack"),
        ):
            started = time.perf_counter()
            report = run_campaign(
                designs,
                report_path=workdir / f"{phase}.jsonl",
                cache_dir=cache_dir,
                engine=engine,
            )
            wall = time.perf_counter() - started
            assert report.errors == 0, report.summary()
            assert not report.failing, report.failing
            phases[phase] = {
                "engine": engine,
                "wall_s": round(wall, 6),
                "compute_s": round(
                    sum(r["wall_time_s"] for r in report.records), 6
                ),
                "cache_hits": report.cache_hits,
                "netlists": len(report.records),
            }
            if verbose:
                print(
                    f"{phase:>18}: engine={engine:<9} "
                    f"wall={wall:.4f}s hits={report.cache_hits}"
                    f"/{len(report.records)}"
                )

        speedup = phases["cold"]["compute_s"] / max(
            phases["warm"]["compute_s"], 1e-9
        )
        result = {
            "benchmark": "bench_batch",
            "python": platform.python_version(),
            "fleet": [
                {"generator": generator, "m": m} for generator, m in fleet
            ],
            "methodology": (
                "one campaign over a generated mixed-architecture fleet "
                "with an empty content-addressed cache (cold), then "
                "identical reruns served from the cache (warm), incl. "
                "one under the other engine; compute_s sums per-netlist "
                "wall times from the JSONL report"
            ),
            "phases": phases,
            "acceptance": {
                "criterion": "warm rerun >= 10x faster than cold",
                "speedup": round(speedup, 2),
                "passed": speedup >= 10.0,
            },
        }
        if verbose:
            print(
                f"cache speedup: {speedup:.1f}x "
                f"({'PASS' if speedup >= 10 else 'FAIL'} >= 10x)"
            )
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------


def test_batch_smoke():
    """Fast fleet sweep (runs in CI): cache must hit and stay correct."""
    result = run_benchmark(SMOKE_FLEET, verbose=False)
    phases = result["phases"]
    assert phases["cold"]["cache_hits"] == 0
    assert phases["warm"]["cache_hits"] == len(SMOKE_FLEET)
    assert phases["warm_cross_engine"]["cache_hits"] == len(SMOKE_FLEET)


@pytest.mark.slow
def test_batch_full_fleet():
    """The full fleet incl. the >= 10x cache acceptance bar."""
    result = run_benchmark(FULL_FLEET, verbose=False)
    assert result["acceptance"]["passed"], result["acceptance"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="small fleet, no JSON output"
    )
    parser.add_argument("-o", "--output", default=None)
    args = parser.parse_args(argv)

    fleet = SMOKE_FLEET if args.smoke else FULL_FLEET
    result = run_benchmark(fleet)
    if not args.smoke or args.output:
        output = pathlib.Path(args.output or DEFAULT_OUTPUT)
        output.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
