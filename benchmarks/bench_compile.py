"""What bitpack's compiled program costs and keeps, at the paper's sizes.

A compile-only slice of the paper-size benchmark.  Each row is one
netlist, written once as EQN into a work directory:

* ``ladder-m64`` -- perfbench's NAND-mapped Mastrovito m=64 ladder
  netlist (seed 1: the same polynomial perfbench's ``cold-bitpack``
  audits);
* ``mastrovito-283`` -- flat Mastrovito, m=283, ``PAPER_POLYNOMIALS``;
* ``montgomery-409`` -- flat Montgomery, m=409, ``PAPER_POLYNOMIALS``
  (the paper's Table 2 runs out of 32 GB here).

Every measurement runs in a fresh interpreter against one source tree
(a *side*), so two trees -- a parent commit and a change -- can be
compared in alternating pairs:

* the **compile probe** parses the file and strashes it (untimed),
  times building bitpack's program, counts the flats and monomials the
  program keeps, then rewrites every output with that program and
  hashes (sha256) every cone's encoding and, separately, its
  ``RewriteStats`` without the runtime;
* the **audit probe** runs a cold ``audit`` (empty cache, default
  engine) and reports the interpreter's peak RSS and the seconds of
  the golden-model check (``verify_multiplier``'s own runtime).

A row whose estimated peak does not fit in the host's available memory,
or whose probe fails, is recorded as skipped with the reason.

Usage::

    PYTHONPATH=src python benchmarks/bench_compile.py --smoke
    PYTHONPATH=src python benchmarks/bench_compile.py \\
        --baseline-src /path/to/parent/src --pairs 3

The full run writes ``BENCH_compile.json`` at the repository root.  The
module doubles as a pytest file: the smoke test always runs (m=8); the
full matrix is marked ``slow``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# ``repro`` is imported only inside functions: a probe first puts the
# tree it measures ahead of this one.
sys.path.insert(0, str(SRC))
DEFAULT_OUTPUT = ROOT / "BENCH_compile.json"
DEFAULT_WORK = ROOT / ".bench_compile_work"

#: name -> (generator, variant, m, estimated peak MB of the audit probe).
ROWS = {
    "ladder-m64": ("mastrovito", "nand-mapped", 64, 400),
    "mastrovito-283": ("mastrovito", "flat", 283, 1500),
    "montgomery-409": ("montgomery", "flat", 409, 1500),
}
SMOKE_ROWS = {"ladder-m8": ("mastrovito", "nand-mapped", 8, 200)}

#: The bars at the largest Montgomery row: compile falls by at least
#: 30% and the cold audit's peak RSS by at least 40% (paired medians),
#: set when compile was made to work in place; the golden-model check
#: falls by at least half, set when it stopped building the spec.
GATED_ROW = "montgomery-409"
COMPILE_CUT = 0.30
RSS_CUT = 0.40
VERIFY_CUT = 0.50


# ----------------------------------------------------------------------
# Probes (run in a fresh interpreter: ``--probe KIND --src DIR FILE``)
# ----------------------------------------------------------------------

def _probe_compile(path: str) -> dict:
    import hashlib
    import time

    from repro.aig import live_aig
    from repro.engine import BitpackEngine
    from repro.engine.bitpack import _CompiledProgram
    from repro.netlist.eqn_io import read_eqn

    netlist = read_eqn(path)
    live_aig(netlist)  # the fingerprint pays for the strash, not compile
    started = time.perf_counter()
    program = _CompiledProgram(netlist)
    compile_s = time.perf_counter() - started
    row = {
        "compile_s": round(compile_s, 4),
        "flats_kept": len(program.flats),
        "monomials_kept": sum(map(len, program.flats.values())),
    }
    engine = BitpackEngine()
    engine._compiled[netlist] = program
    cones, stats = hashlib.sha256(), hashlib.sha256()
    for output in netlist.outputs:
        expression, run = engine.rewrite_cone(netlist, output)
        cones.update(json.dumps([output, expression.to_json()]).encode())
        stats.update(json.dumps([
            output, run.iterations, run.cone_gates, run.peak_terms,
            run.final_terms, run.eliminated_monomials,
        ]).encode())
    row["cones_sha256"] = cones.hexdigest()
    row["stats_sha256"] = stats.hexdigest()
    return row


def _probe_audit(path: str) -> dict:
    import resource

    import repro.extract.verify as verify_mod
    from repro.service.runner import CampaignRunner

    # The pipeline looks verify_multiplier up at call time, so this
    # wrapper sees the audit's check; it adds no work to the check.
    reports = []
    verify = verify_mod.verify_multiplier

    def recorded(*args, **kwargs):
        reports.append(verify(*args, **kwargs))
        return reports[-1]

    verify_mod.verify_multiplier = recorded
    with tempfile.TemporaryDirectory(prefix="bench_compile_") as cache:
        record = CampaignRunner(mode="audit", cache_dir=cache).run(
            [path]
        ).records[0]
    if record["status"] != "ok" or record["equivalent"] is not True:
        raise RuntimeError(f"audit of {path} failed: {record}")
    if len(reports) != 1:
        raise RuntimeError(f"audit of {path} verified {len(reports)} times")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "peak_rss_mb": round(peak_kb / 1024, 1),
        "verify_s": round(reports[0].runtime_s, 4),
        "polynomial": record["polynomial"],
    }


PROBES = {"compile": _probe_compile, "audit": _probe_audit}


def _run_probe(kind: str, src: pathlib.Path, path: pathlib.Path) -> dict:
    """One probe in a fresh interpreter; raises with its stderr."""
    done = subprocess.run(
        [sys.executable, __file__, "--probe", kind, "--src", str(src),
         str(path)],
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise RuntimeError(
            f"{kind} probe exited {done.returncode}: {tail[0]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def _ladder_polynomial(m: int) -> int:
    """The polynomial perfbench's seed-1 ladder gives rung ``m``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from inputs import LADDER, pick_polynomial
    finally:
        sys.path.pop(0)
    rng = random.Random("ladder:1")
    for rung in LADDER:
        modulus = pick_polynomial(rung, rng)
        if rung == m:
            return modulus
    raise ValueError(f"m={m} is not a perfbench ladder rung")


def _write_input(name: str, work: pathlib.Path) -> pathlib.Path:
    """The row's EQN file, generated on first use in a child process:
    a probe inherits its parent's peak RSS (``ru_maxrss`` survives
    fork and exec), so the process that spawns probes holds no netlist."""
    path = work / f"{name}.eqn"
    if not path.is_file():
        work.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [sys.executable, __file__, "--generate", name, str(path)],
            check=True,
        )
    return path


def _generate(name: str, path: str) -> None:
    """Write row ``name``'s netlist to ``path`` (``--generate``)."""
    from repro.fieldmath.irreducible import default_irreducible
    from repro.fieldmath.polynomial_db import PAPER_POLYNOMIALS
    from repro.gen.mastrovito import generate_mastrovito
    from repro.gen.montgomery import generate_montgomery
    from repro.netlist.eqn_io import write_eqn
    from repro.synth.pipeline import synthesize

    generator, variant, m, _ = {**ROWS, **SMOKE_ROWS}[name]
    if name.startswith("ladder-m") and m in (32, 48, 64):
        modulus = _ladder_polynomial(m)
    else:
        modulus = PAPER_POLYNOMIALS.get(m) or default_irreducible(m)
    make = {"mastrovito": generate_mastrovito,
            "montgomery": generate_montgomery}[generator]
    netlist = make(modulus)
    if variant == "nand-mapped":
        netlist = synthesize(netlist, use_xor_cells=False)
    partial = pathlib.Path(path).with_suffix(".tmp")
    write_eqn(netlist, partial)
    partial.replace(path)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except (OSError, UnicodeDecodeError):
        pass
    return platform.machine()


def _available_mb() -> Optional[float]:
    try:
        with open("/proc/meminfo", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


# ----------------------------------------------------------------------
# The benchmark
# ----------------------------------------------------------------------

def _measure(sides: Dict[str, pathlib.Path], path: pathlib.Path,
             pairs: int) -> dict:
    """Alternating pairs of both probes on every side."""
    runs: Dict[str, List[dict]] = {side: [] for side in sides}
    order = list(sides)
    for pair in range(pairs):
        for side in (order if pair % 2 == 0 else order[::-1]):
            row = _run_probe("compile", sides[side], path)
            row.update(_run_probe("audit", sides[side], path))
            runs[side].append(row)
    result = {}
    for side, rows in runs.items():
        first = rows[0]
        for key in ("flats_kept", "monomials_kept", "cones_sha256",
                    "stats_sha256", "polynomial"):
            if any(row[key] != first[key] for row in rows):
                raise RuntimeError(f"{side}: {key} differs between runs")
        result[side] = {
            "compile_s": [row["compile_s"] for row in rows],
            "compile_median_s": round(
                statistics.median(row["compile_s"] for row in rows), 4
            ),
            "peak_rss_mb": [row["peak_rss_mb"] for row in rows],
            "peak_rss_median_mb": round(
                statistics.median(row["peak_rss_mb"] for row in rows), 1
            ),
            "verify_s": [row["verify_s"] for row in rows],
            "verify_median_s": round(
                statistics.median(row["verify_s"] for row in rows), 4
            ),
            **{key: first[key] for key in (
                "flats_kept", "monomials_kept", "cones_sha256",
                "stats_sha256", "polynomial")},
        }
    return result


def run_benchmark(rows: dict, sides: Dict[str, pathlib.Path], pairs: int,
                  work: pathlib.Path) -> dict:
    report_rows = []
    for name, spec in rows.items():
        generator, variant, m, need_mb = spec
        row = {"row": name, "generator": generator, "variant": variant,
               "m": m}
        available = _available_mb()
        if available is not None and available < need_mb:
            row["skipped"] = (
                f"needs about {need_mb} MB, {available:.0f} MB available"
            )
        else:
            try:
                row.update(_measure(sides, _write_input(name, work),
                                    pairs))
            except (RuntimeError, MemoryError) as error:
                row["skipped"] = str(error)
        report_rows.append(row)
        print(json.dumps(row), flush=True)
    return {
        "benchmark": "bench_compile",
        "python": platform.python_version(),
        "host": _cpu_model(),
        "pairs": pairs,
        # "parent": the --baseline-src tree; "change": this tree.
        "sides": list(sides),
        "rows": report_rows,
        "acceptance": _acceptance(report_rows, list(sides)),
    }


def _acceptance(rows: List[dict], sides: List[str]) -> dict:
    measured = [row for row in rows if "skipped" not in row]
    identical = all(
        len({row[side]["cones_sha256"] for side in sides}) == 1
        for row in measured
    )
    verdict = {
        "criterion": (
            "every cone's encoding identical on every side; with a "
            f"baseline, {GATED_ROW}'s median compile falls by at least "
            f"{COMPILE_CUT:.0%}, its cold-audit peak RSS by at least "
            f"{RSS_CUT:.0%} and its golden-model check by at least "
            f"{VERIFY_CUT:.0%}"
        ),
        "identical": identical,
    }
    gated = [row for row in measured if row["row"] == GATED_ROW]
    if len(sides) == 2 and gated:
        base, change = (gated[0][side] for side in sides)
        verdict["compile_ratio"] = round(
            change["compile_median_s"] / base["compile_median_s"], 3
        )
        verdict["peak_rss_ratio"] = round(
            change["peak_rss_median_mb"] / base["peak_rss_median_mb"], 3
        )
        verdict["verify_ratio"] = round(
            change["verify_median_s"] / base["verify_median_s"], 3
        )
        verdict["passed"] = (
            identical
            and verdict["compile_ratio"] <= 1 - COMPILE_CUT
            and verdict["peak_rss_ratio"] <= 1 - RSS_CUT
            and verdict["verify_ratio"] <= 1 - VERIFY_CUT
        )
    else:
        verdict["passed"] = identical
    return verdict


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

def _reference_cones_sha256(path: pathlib.Path) -> str:
    import hashlib

    from repro.netlist.eqn_io import read_eqn
    from repro.rewrite.parallel import extract_expressions

    netlist = read_eqn(str(path))
    run = extract_expressions(netlist, engine="reference")
    digest = hashlib.sha256()
    for output in netlist.outputs:
        digest.update(
            json.dumps([output, run.cones[output].to_json()]).encode()
        )
    return digest.hexdigest()


def test_compile_smoke(tmp_path):
    """m=8 in fresh interpreters: the program's cones hash like the
    reference engine's, and it keeps only the outputs' flats."""
    report = run_benchmark(SMOKE_ROWS, {"change": SRC}, 1, tmp_path)
    row = report["rows"][0]
    assert "skipped" not in row, row
    change = row["change"]
    assert change["cones_sha256"] == _reference_cones_sha256(
        tmp_path / "ladder-m8.eqn"
    )
    assert change["flats_kept"] <= 1 + 2 * 8 + 8  # const, leaves, outputs
    assert report["acceptance"]["passed"]


@pytest.mark.slow
def test_compile_paper_sizes():
    """Every paper-size row runs (or says why not) on this tree."""
    report = run_benchmark(ROWS, {"change": SRC}, 1, DEFAULT_WORK)
    assert report["acceptance"]["identical"]


# ----------------------------------------------------------------------
# CLI entry point
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="one m=8 row, one run")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument(
        "--baseline-src", default=None, metavar="DIR",
        help="the src/ directory of the tree to compare against",
    )
    parser.add_argument("--work", default=str(DEFAULT_WORK),
                        help="where the rows' EQN files are kept")
    parser.add_argument("-o", "--output", default=None)
    parser.add_argument("--probe", choices=sorted(PROBES),
                        help=argparse.SUPPRESS)
    parser.add_argument("--src", help=argparse.SUPPRESS)
    parser.add_argument("--generate", metavar="ROW", help=argparse.SUPPRESS)
    parser.add_argument("file", nargs="?", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.generate:
        _generate(args.generate, args.file)
        return 0
    if args.probe:
        sys.path.insert(0, args.src)
        print(json.dumps(PROBES[args.probe](args.file)))
        return 0

    sides = {"change": SRC}
    if args.baseline_src:
        sides = {"parent": pathlib.Path(args.baseline_src).resolve(),
                 "change": SRC}
    rows = SMOKE_ROWS if args.smoke else ROWS
    pairs = 1 if args.smoke else args.pairs
    report = run_benchmark(rows, sides, pairs, pathlib.Path(args.work))
    status = "PASS" if report["acceptance"]["passed"] else "FAIL"
    print(f"acceptance [{status}]: {report['acceptance']['criterion']}")
    output = args.output
    if output is None and not args.smoke:
        output = DEFAULT_OUTPUT
    if output:
        pathlib.Path(output).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {output}")
    return 0 if report["acceptance"]["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
