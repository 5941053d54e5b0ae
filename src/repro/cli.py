"""Command-line interface: ``repro <command>``.

Commands mirror the paper's tool flow:

``gen``
    emit a gate-level GF(2^m) multiplier netlist for a given P(x);
``extract``
    reverse engineer P(x) from a netlist file (Algorithm 2);
``audit``
    extract + verify against the golden model + full report;
``synth``
    optimize/technology-map a netlist (the Table III flow);
``diagnose``
    full triage of an unknown netlist (verified multiplier / buggy /
    wrong basis / malformed), with a counterexample when one exists;
``inject``
    write a single-fault mutant of a netlist (for screening demos);
``reduction``
    print the Figure-1 reduction table and XOR cost for a P(x);
``search``
    list irreducible trinomials/pentanomials of a degree;
``batch``
    audit a directory (or manifest) of netlists through the cached,
    checkpointed campaign runner, emitting a JSONL report;
``serve``
    run the HTTP verification API (:mod:`repro.service.api`);
``cache``
    inspect (``stats``), evict down to an entry and/or byte budget
    (``prune``, oldest-mtime-first; see ``REPRO_CACHE_MAX_ENTRIES``
    and ``REPRO_CACHE_MAX_BYTES``) or empty (``clear``) the
    content-addressed result cache (``REPRO_CACHE_DIR``, default
    ``~/.cache/repro``) — which also holds the engines' compiled
    programs (``stats`` reports them as the ``compiled`` kind);
``trace``
    render a JSONL trace file (written by ``--trace``) as a span tree
    with per-phase wall/CPU times and the merged counters/gauges/
    histograms; ``--profile`` aggregates per span name (count,
    total/self wall, percentiles, critical path), ``--json`` emits
    the aggregate for scripting, and ``repro trace diff BASE CURRENT
    [--check --policy P.json]`` compares two traces host-normalized
    by their calibration spans — the CI perf-regression guard.

The workload commands (``extract``/``audit``/``diagnose``/``batch``/
``serve``) accept ``--trace out.jsonl``: every telemetry span
(compile, per-cone rewriting, cache traffic, HTTP requests)
is streamed to the file as it closes — see :mod:`repro.telemetry`
and the README's Observability section.

The ``--engine`` choices come from the backend registry
(:mod:`repro.engine`): ``bitpack`` (the default: interned bitmask
monomials over the strashed AIG), ``reference`` (the oracle) and
``vector`` (another name for ``bitpack``).  With ``--fallback`` an
engine that fails at run time degrades down the ladder
``bitpack -> reference``, with a note on stderr.  Every command
rewrites the output bits one after another in this process.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import repro.gen
import repro.netlist
from repro.engine import DEFAULT_ENGINE, registered_engines
from repro.extract.extractor import (
    ExtractionError,
    extract_irreducible_polynomial,
)
from repro.extract.report import format_extraction_report
from repro.extract.verify import verify_multiplier
from repro.fieldmath.bitpoly import bitpoly_parse, bitpoly_str
from repro.fieldmath.irreducible import (
    find_irreducible_pentanomials,
    find_irreducible_trinomials,
    is_irreducible,
)
from repro.extract.diagnose import diagnose
from repro.netlist.netlist import NetlistError

# Generators, readers and writers are named here and resolved through
# the lazy ``repro.gen`` and ``repro.netlist`` packages, so a command
# imports only the generator and file format it uses.
#: ``--algorithm`` → (generator in :mod:`repro.gen`, its keyword options)
_GENERATORS = {
    "mastrovito": ("generate_mastrovito", {}),
    "montgomery": ("generate_montgomery", {}),
    "schoolbook": ("generate_schoolbook", {}),
    "karatsuba": ("generate_karatsuba", {}),
    "interleaved": ("generate_interleaved", {}),
    "interleaved-lsb": ("generate_interleaved", {"msb_first": False}),
    "digit-serial": ("generate_digit_serial", {}),
    "massey-omura": ("generate_massey_omura", {}),
}

_WRITERS = {"eqn": "write_eqn", "blif": "write_blif", "v": "write_verilog"}
_READERS = {"eqn": "read_eqn", "blif": "read_blif", "v": "read_verilog"}


def _read(fmt: str, path: str):
    return getattr(repro.netlist, _READERS[fmt])(path)


def _write(fmt: str, netlist, path: str) -> None:
    getattr(repro.netlist, _WRITERS[fmt])(netlist, path)


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        choices=sorted(registered_engines()),
        default=DEFAULT_ENGINE,
        help=(
            "rewriting backend: %(choices)s (default: %(default)s; "
            "'vector' is another name for 'bitpack')"
        ),
    )


_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}


def _byte_size(text: str) -> int:
    """argparse type for --max-rss: '512M', '2GiB', '1.5k', plain bytes.

    An optional single ``K``/``M``/``G``/``T`` suffix (binary
    multiples, case-insensitive, optional trailing ``B``/``iB``).
    """
    cleaned = str(text).strip().lower()
    for tail in ("ib", "b"):
        stem = cleaned[: -len(tail)]
        if cleaned.endswith(tail) and stem[-1:] in _SIZE_SUFFIXES:
            cleaned = stem
            break
    factor = 1
    if cleaned[-1:] in _SIZE_SUFFIXES:
        factor = _SIZE_SUFFIXES[cleaned[-1]]
        cleaned = cleaned[:-1]
    try:
        value = float(cleaned) if "." in cleaned else int(cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse byte size {text!r} "
            "(expected e.g. 268435456, 256M, 1G)"
        ) from None
    result = int(value * factor)
    if result <= 0:
        raise argparse.ArgumentTypeError(
            f"byte size must be positive, got {text!r}"
        )
    return result


def _non_negative_int(text: str) -> int:
    """argparse type for the cache budgets: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return value


def _add_fallback_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fallback",
        action="store_true",
        help=(
            "degrade gracefully instead of failing: when the selected "
            "engine fails at run time walk the fallback ladder "
            "bitpack -> reference to the next backend (results are "
            "bit-identical; the substitution is reported)"
        ),
    )


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="OUT.JSONL",
        default=None,
        help=(
            "stream telemetry spans/counters to this JSONL file "
            "(hierarchical compile/cone/cache/request spans "
            "with wall+CPU times; render it with 'repro trace')"
        ),
    )


def _add_baseline_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--baseline",
        metavar="NETLIST",
        default=None,
        help=(
            "verified baseline version of this netlist: diff per-output-"
            "cone fingerprints and re-verify only the cones the edit "
            "touched, reusing the rest from the result cache "
            "(see 'repro eco')"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result cache for --baseline runs (override REPRO_CACHE_DIR)",
    )


def _infer_format(path: str, explicit: Optional[str]) -> str:
    if explicit:
        return explicit
    for ext, name in ((".eqn", "eqn"), (".blif", "blif"), (".v", "v")):
        if path.endswith(ext):
            return name
    raise SystemExit(
        f"cannot infer netlist format of {path!r}; pass --format"
    )


def _cmd_gen(args: argparse.Namespace) -> int:
    modulus = bitpoly_parse(args.p)
    if not is_irreducible(modulus):
        print(
            f"warning: {bitpoly_str(modulus)} is reducible; the netlist "
            "will not implement a field multiplier",
            file=sys.stderr,
        )
    generator, options = _GENERATORS[args.algorithm]
    netlist = getattr(repro.gen, generator)(modulus, **options)
    if args.synthesize:
        from repro.synth.pipeline import synthesize

        netlist = synthesize(netlist)
    _write(_infer_format(args.output, args.format), netlist, args.output)
    stats = netlist.stats()
    print(
        f"wrote {args.output}: GF(2^{len(netlist.outputs)}) "
        f"{args.algorithm}, {stats.num_equations} equations"
    )
    return 0


def _with_fallback(args: argparse.Namespace, call):
    """``call(engine)`` on ``--engine``; with ``--fallback``, an engine
    that fails at run time degrades down the ladder, noted on stderr.
    """
    if not getattr(args, "fallback", False):
        return call(args.engine)
    from repro.service.resilience import (
        RetryPolicy,
        engine_ladder,
        run_supervised,
    )

    supervised = run_supervised(
        call,
        engines=engine_ladder(args.engine, fallback=True),
        policy=RetryPolicy(max_attempts=1, retryable_types=()),
    )
    if supervised.fallback_reason is not None:
        print(
            f"warning: {supervised.fallback_reason}; using engine "
            f"{supervised.engine_used!r}",
            file=sys.stderr,
        )
    return supervised.value


def _run_eco(
    args: argparse.Namespace,
    baseline: str,
    edited: str,
    audit: bool,
) -> int:
    from repro.service.cache import ResultCache
    from repro.service.eco import EcoError, eco_reverify

    cache = ResultCache(getattr(args, "cache_dir", None))
    try:
        report = _with_fallback(
            args,
            lambda engine: eco_reverify(
                baseline,
                edited,
                cache,
                engine=engine,
                term_limit=args.term_limit,
                audit=audit,
                diagnose_on_failure=(
                    audit and not getattr(args, "no_diagnose", False)
                ),
            ),
        )
    except EcoError as error:
        raise SystemExit(str(error))
    print(report.render())
    return 0 if report.ok else 1


def _cmd_eco(args: argparse.Namespace) -> int:
    return _run_eco(
        args, args.baseline, args.edited, audit=not args.no_audit
    )


def _cmd_extract(args: argparse.Namespace) -> int:
    if args.baseline is not None:
        # Incremental path: diff output-cone fingerprints against the
        # verified baseline and rewrite only the dirty cones.
        return _run_eco(args, args.baseline, args.netlist, audit=False)
    netlist = _read(_infer_format(args.netlist, args.format), args.netlist)
    result = _with_fallback(
        args,
        lambda engine: extract_irreducible_polynomial(
            netlist, term_limit=args.term_limit, engine=engine
        ),
    )
    print(f"P(x) = {result.polynomial_str}")
    if not result.irreducible:
        print("warning: extracted polynomial is NOT irreducible")
        return 1
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    if args.baseline is not None:
        return _run_eco(args, args.baseline, args.netlist, audit=True)
    netlist = _read(_infer_format(args.netlist, args.format), args.netlist)

    def audit(engine):
        result = extract_irreducible_polynomial(
            netlist,
            term_limit=args.term_limit,
            measure_memory=True,
            engine=engine,
        )
        return result, verify_multiplier(netlist, result, engine=engine)

    result, verification = _with_fallback(args, audit)
    print(
        format_extraction_report(
            result, verification, netlist_gates=len(netlist)
        )
    )
    return 0 if verification.equivalent else 1


def _cmd_synth(args: argparse.Namespace) -> int:
    from repro.synth.pipeline import synthesize

    netlist = _read(_infer_format(args.netlist, args.format), args.netlist)
    optimized = synthesize(
        netlist,
        map_cells=not args.no_map,
        use_xor_cells=not args.nand_only,
    )
    _write(_infer_format(args.output, args.format), optimized, args.output)
    print(
        f"synthesized {args.netlist}: {len(netlist)} -> "
        f"{len(optimized)} gates"
    )
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    netlist = _read(_infer_format(args.netlist, args.format), args.netlist)
    diagnosis = _with_fallback(
        args,
        lambda engine: diagnose(
            netlist,
            term_limit=args.term_limit,
            find_counterexample=not args.no_counterexample,
            engine=engine,
        ),
    )
    print(diagnosis.render())
    return 0 if diagnosis.is_clean else 1


def _cmd_inject(args: argparse.Namespace) -> int:
    from repro.gen.faults import flip_gate, random_fault, stuck_at, swap_input

    netlist = _read(_infer_format(args.netlist, args.format), args.netlist)
    if args.kind == "random":
        mutant, fault = random_fault(netlist, seed=args.seed)
    elif args.gate is None:
        raise SystemExit(f"--gate is required for --kind {args.kind}")
    elif args.kind == "gate-flip":
        mutant, fault = flip_gate(netlist, args.gate, seed=args.seed)
    elif args.kind == "input-swap":
        mutant, fault = swap_input(netlist, args.gate, seed=args.seed)
    elif args.kind == "stuck-at-0":
        mutant, fault = stuck_at(netlist, args.gate, 0)
    else:  # stuck-at-1
        mutant, fault = stuck_at(netlist, args.gate, 1)
    _write(_infer_format(args.output, args.format), mutant, args.output)
    print(f"injected {fault}")
    print(f"wrote {args.output}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.service.runner import CampaignError, run_campaign

    try:
        report = run_campaign(
            args.target,
            report_path=args.output,
            mode=args.mode,
            engine=args.engine,
            workers=args.workers,
            term_limit=args.term_limit,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            checkpoint=not args.no_checkpoint,
            retries=args.retries,
            deadline_s=args.deadline,
            max_rss_bytes=args.max_rss,
            fallback=args.fallback,
        )
    except CampaignError as error:
        raise SystemExit(str(error))
    print(report.summary())
    for name in report.failing:
        print(f"  FAILING: {name}", file=sys.stderr)
    return 0 if not report.failing else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.api import serve

    server = serve(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        engine=args.engine,
        worker_threads=args.worker_threads,
        max_queue=args.max_queue,
        retries=args.retries,
        fallback=args.fallback,
    )
    host, port = server.address
    print(f"repro service listening on http://{host}:{port}/v1/health")
    print(f"cache: {server.cache.root}  engine: {server.engine}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
        server.shutdown()
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.service.cache import ResultCache

    try:
        cache = ResultCache(
            args.cache_dir,
            max_entries=args.max_entries,
            max_bytes=args.max_bytes,
        )
    except ValueError as error:  # a malformed REPRO_CACHE_MAX_* budget
        raise SystemExit(f"error: {error}")
    if args.action == "stats":
        print(cache.stats())
    elif args.action == "prune":
        # Explicit --max-entries/--max-bytes go straight to prune() so
        # that 0 means "drop every artifact entry", as prune()
        # documents; the constructor's budgets (env-derived) treat 0
        # as "unbounded".
        entry_budget = args.max_entries
        if entry_budget is None:
            entry_budget = cache.max_entries
        byte_budget = args.max_bytes
        if byte_budget is None:
            byte_budget = cache.max_bytes
        if entry_budget is None and byte_budget is None:
            raise SystemExit(
                "no budget: pass --max-entries/--max-bytes or set "
                "REPRO_CACHE_MAX_ENTRIES/REPRO_CACHE_MAX_BYTES"
            )
        removed = cache.prune(
            max_entries=entry_budget, max_bytes=byte_budget
        )
        budgets = []
        if entry_budget is not None:
            budgets.append(f"{entry_budget} entries")
        if byte_budget is not None:
            budgets.append(f"{byte_budget} bytes")
        print(
            f"pruned {removed} cached entries from {cache.root} "
            f"(budget {', '.join(budgets)})"
        )
    else:  # clear
        removed = cache.clear()
        print(f"cleared {removed} cached entries from {cache.root}")
    return 0


def _print_pipe_safe(text: str) -> None:
    try:
        print(text)
    except BrokenPipeError:  # e.g. piped into head; not an error
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _load_policy(path: Optional[str]) -> Optional[dict]:
    if path is None:
        return None
    import json

    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry import load_trace, render_trace
    from repro.telemetry import analyze

    if args.args[0] == "diff":
        if len(args.args) != 3:
            raise SystemExit("usage: repro trace diff BASE CURRENT")
        base_path, current_path = args.args[1], args.args[2]
        base = load_trace(base_path)
        current = load_trace(current_path)
        if not base or not current:
            empty = base_path if not base else current_path
            print(f"no trace events in {empty}", file=sys.stderr)
            return 1
        report = analyze.diff_traces(
            base, current, policy=_load_policy(args.policy)
        )
        if args.as_json:
            _print_pipe_safe(json.dumps(report, indent=2, sort_keys=True))
        else:
            _print_pipe_safe(analyze.format_diff(report))
        return 0 if report["ok"] or not args.check else 1

    if len(args.args) != 1:
        raise SystemExit("usage: repro trace FILE | repro trace diff A B")
    events = load_trace(args.args[0])
    if not events:
        print(f"no trace events in {args.args[0]}", file=sys.stderr)
        return 1
    failures = []
    if args.check:
        failures = analyze.check_trace(
            events, policy=_load_policy(args.policy)
        )
    if args.profile or args.as_json:
        profile = analyze.profile_trace(events)
        path = analyze.critical_path(events)
        if args.as_json:
            payload = {"profile": profile, "critical_path": path}
            if args.check:
                payload["failures"] = failures
                payload["ok"] = not failures
            _print_pipe_safe(json.dumps(payload, indent=2, sort_keys=True))
        else:
            _print_pipe_safe(analyze.format_profile(profile, path))
    else:
        _print_pipe_safe(render_trace(events))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_reduction(args: argparse.Namespace) -> int:
    from repro.analysis.xor_count import figure1_report

    moduli = [bitpoly_parse(text) for text in args.p]
    print(figure1_report(moduli))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    trinomials = find_irreducible_trinomials(args.m, limit=args.limit)
    if trinomials:
        print(f"irreducible trinomials of degree {args.m}:")
        for poly in trinomials:
            print(f"  {bitpoly_str(poly)}")
    else:
        print(f"no irreducible trinomials of degree {args.m}")
    pentanomials = find_irreducible_pentanomials(args.m, limit=args.limit)
    print(f"first irreducible pentanomials of degree {args.m}:")
    for poly in pentanomials:
        print(f"  {bitpoly_str(poly)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reverse engineering of irreducible polynomials in GF(2^m) "
            "arithmetic (DATE 2017 reproduction)"
        ),
    )
    from repro import __version__

    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a multiplier netlist")
    gen.add_argument("--p", required=True, help='P(x), e.g. "x^4+x+1"')
    gen.add_argument(
        "--algorithm",
        choices=sorted(_GENERATORS),
        default="mastrovito",
    )
    gen.add_argument("--synthesize", action="store_true")
    gen.add_argument("--format", choices=sorted(_WRITERS), default=None)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=_cmd_gen)

    extract = sub.add_parser("extract", help="recover P(x) from a netlist")
    extract.add_argument("netlist")
    extract.add_argument("--term-limit", type=int, default=None)
    extract.add_argument("--format", choices=sorted(_READERS), default=None)
    _add_baseline_arguments(extract)
    _add_fallback_argument(extract)
    _add_engine_argument(extract)
    _add_trace_argument(extract)
    extract.set_defaults(func=_cmd_extract)

    audit = sub.add_parser(
        "audit", help="extract P(x), verify, print a full report"
    )
    audit.add_argument("netlist")
    audit.add_argument("--term-limit", type=int, default=None)
    audit.add_argument("--format", choices=sorted(_READERS), default=None)
    _add_baseline_arguments(audit)
    _add_fallback_argument(audit)
    _add_engine_argument(audit)
    _add_trace_argument(audit)
    audit.set_defaults(func=_cmd_audit)

    eco = sub.add_parser(
        "eco",
        help=(
            "incrementally re-audit an edited netlist against its "
            "verified baseline (dirty output cones only)"
        ),
    )
    eco.add_argument("baseline", help="the previously verified version")
    eco.add_argument("edited", help="the post-ECO version to re-audit")
    eco.add_argument("--term-limit", type=int, default=None)
    eco.add_argument(
        "--cache-dir", default=None, help="override REPRO_CACHE_DIR"
    )
    eco.add_argument(
        "--no-audit",
        action="store_true",
        help="extract P(x) only; skip the golden-model verification",
    )
    eco.add_argument(
        "--no-diagnose",
        action="store_true",
        help="on an audit failure, skip the full diagnose pass",
    )
    _add_fallback_argument(eco)
    _add_engine_argument(eco)
    _add_trace_argument(eco)
    eco.set_defaults(func=_cmd_eco)

    synth = sub.add_parser("synth", help="optimize/map a netlist")
    synth.add_argument("netlist")
    synth.add_argument("-o", "--output", required=True)
    synth.add_argument("--no-map", action="store_true")
    synth.add_argument("--nand-only", action="store_true")
    synth.add_argument("--format", choices=sorted(_READERS), default=None)
    synth.set_defaults(func=_cmd_synth)

    diag = sub.add_parser(
        "diagnose", help="triage an unknown netlist (full decision tree)"
    )
    diag.add_argument("netlist")
    diag.add_argument("--term-limit", type=int, default=None)
    diag.add_argument("--no-counterexample", action="store_true")
    diag.add_argument("--format", choices=sorted(_READERS), default=None)
    _add_fallback_argument(diag)
    _add_engine_argument(diag)
    _add_trace_argument(diag)
    diag.set_defaults(func=_cmd_diagnose)

    inject = sub.add_parser(
        "inject", help="write a single-fault mutant of a netlist"
    )
    inject.add_argument("netlist")
    inject.add_argument(
        "--kind",
        choices=[
            "random", "gate-flip", "input-swap", "stuck-at-0", "stuck-at-1",
        ],
        default="random",
    )
    inject.add_argument("--gate", default=None, help="target gate output net")
    inject.add_argument("--seed", type=int, default=0)
    inject.add_argument("-o", "--output", required=True)
    inject.add_argument("--format", choices=sorted(_READERS), default=None)
    inject.set_defaults(func=_cmd_inject)

    reduction = sub.add_parser(
        "reduction", help="print Figure-1 reduction tables"
    )
    reduction.add_argument("--p", action="append", required=True)
    reduction.set_defaults(func=_cmd_reduction)

    search = sub.add_parser(
        "search", help="find irreducible tri/pentanomials"
    )
    search.add_argument("--m", type=int, required=True)
    search.add_argument("--limit", type=int, default=4)
    search.set_defaults(func=_cmd_search)

    batch = sub.add_parser(
        "batch",
        help="audit a directory/manifest of netlists (cached, resumable)",
    )
    batch.add_argument(
        "target", help="directory, manifest file, or single netlist"
    )
    batch.add_argument(
        "-o",
        "--output",
        default="batch_report.jsonl",
        help="JSONL report path (default: %(default)s)",
    )
    batch.add_argument(
        "--mode",
        choices=["extract", "audit", "diagnose"],
        default="audit",
    )
    batch.add_argument(
        "--workers", type=int, default=1, help="concurrent netlists"
    )
    batch.add_argument("--term-limit", type=int, default=None)
    batch.add_argument(
        "--cache-dir", default=None, help="override REPRO_CACHE_DIR"
    )
    batch.add_argument(
        "--no-cache", action="store_true", help="bypass the result cache"
    )
    batch.add_argument(
        "--no-checkpoint",
        action="store_true",
        help="disable mid-extraction checkpoints",
    )
    batch.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "per-netlist attempt budget for transient failures "
            "(crashed workers, IO errors); exhausted budgets land in "
            "the report as quarantined/worker_died records instead of "
            "aborting the campaign (default: 3 attempts)"
        ),
    )
    batch.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock budget per netlist; a netlist past it is "
            "quarantined (recorded, campaign continues)"
        ),
    )
    batch.add_argument(
        "--max-rss",
        metavar="BYTES",
        type=_byte_size,
        default=None,
        help=(
            "RSS budget per worker (suffixes K/M/G/T); a netlist "
            "whose extraction exceeds it is quarantined"
        ),
    )
    _add_fallback_argument(batch)
    _add_engine_argument(batch)
    _add_trace_argument(batch)
    batch.set_defaults(func=_cmd_batch)

    serve = sub.add_parser(
        "serve", help="run the HTTP verification API"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8017)
    serve.add_argument(
        "--cache-dir", default=None, help="override REPRO_CACHE_DIR"
    )
    serve.add_argument(
        "--worker-threads", type=int, default=2, help="job worker threads"
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        metavar="N",
        help=(
            "bound on queued jobs; past it submissions get 429 + "
            "Retry-After (default: %(default)s)"
        ),
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "per-job attempt budget for transient failures; an "
            "exhausted budget quarantines the job with a structured "
            "reason (default: 3 attempts)"
        ),
    )
    _add_fallback_argument(serve)
    _add_engine_argument(serve)
    _add_trace_argument(serve)
    serve.set_defaults(func=_cmd_serve)

    cache = sub.add_parser(
        "cache", help="inspect, prune, or clear the result cache"
    )
    cache.add_argument("action", choices=["stats", "prune", "clear"])
    cache.add_argument(
        "--cache-dir", default=None, help="override REPRO_CACHE_DIR"
    )
    cache.add_argument(
        "--max-entries",
        type=_non_negative_int,
        default=None,
        help=(
            "entry budget for prune (default: REPRO_CACHE_MAX_ENTRIES); "
            "oldest-mtime entries beyond it are evicted"
        ),
    )
    cache.add_argument(
        "--max-bytes",
        type=_non_negative_int,
        default=None,
        help=(
            "size budget in bytes for prune (default: "
            "REPRO_CACHE_MAX_BYTES); oldest-mtime entries are evicted "
            "until the store fits"
        ),
    )
    cache.set_defaults(func=_cmd_cache)

    trace = sub.add_parser(
        "trace",
        help=(
            "render, profile, or diff --trace JSONL files "
            "(trace FILE | trace diff BASE CURRENT)"
        ),
    )
    trace.add_argument(
        "args",
        nargs="+",
        metavar="FILE | diff BASE CURRENT",
        help=(
            "one trace file to render/profile, or 'diff' plus a "
            "baseline and a current trace to compare"
        ),
    )
    trace.add_argument(
        "--profile",
        action="store_true",
        help=(
            "aggregate per span name (count, total/self wall, CPU, "
            "percentiles) and print the critical path instead of the "
            "span tree"
        ),
    )
    trace.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="emit the profile/diff as JSON for scripting",
    )
    trace.add_argument(
        "--check",
        action="store_true",
        help=(
            "enforce the policy: on a single trace, require spans/"
            "counters and fail on span errors; on a diff, also exit "
            "non-zero when a span regressed beyond the allowed ratio "
            "(host-normalized via the calibrate span)"
        ),
    )
    trace.add_argument(
        "--policy",
        default=None,
        metavar="POLICY.JSON",
        help=(
            "JSON policy file overriding the defaults (max_ratio, "
            "min_wall_s, per_span, require_spans, require_counters, "
            "allow_errors)"
        ),
    )
    trace.set_defaults(func=_cmd_trace)
    return parser


def _run_command(args: argparse.Namespace) -> int:
    """Run the subcommand; a netlist that does not parse or is not a
    multiplier is one stderr line and exit code 2 (1 means reducible
    or not equivalent)."""
    try:
        return args.func(args)
    except (NetlistError, ExtractionError) as error:
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return _run_command(args)
    from repro import telemetry as _telemetry

    # --trace taps the process-global registry, so every span the run
    # produces (engine phases, cache traffic, campaign workers via
    # fork, HTTP requests under serve) streams to the file as it
    # closes; the final metrics snapshot is appended even on error.
    telemetry = _telemetry.get_telemetry()
    sink = _telemetry.JsonlSink(trace_path)
    telemetry.add_sink(sink)
    # Stamp the trace with a hardware-calibration span so `repro
    # trace diff` can normalize baseline-vs-current across hosts.
    from repro.telemetry.analyze import run_calibration

    run_calibration(telemetry)
    try:
        return _run_command(args)
    finally:
        telemetry.flush_metrics()
        telemetry.remove_sink(sink)
        sink.close()


if __name__ == "__main__":
    raise SystemExit(main())
