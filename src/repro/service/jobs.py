"""The per-bit service hook around every extraction.

Theorem 2 makes each output bit an independent shard of an extraction,
and Theorem 1 makes each bit's canonical expression unique, so a
per-cone cache entry is a complete, engine-neutral record of a
finished bit.  :func:`~repro.rewrite.parallel.extract_expressions`
stores each rewritten cone the moment its bit completes; that store
is the only resume state.  A killed, retried, cancelled or
term-limited run leaves its finished bits in the cone tier, and the
rerun serves them as ordinary ``cone_hit``\\ s — under any engine.

What the service adds per bit lives here: the deadline check, the
caller's progress hook and the ``job.*`` progress telemetry.  (The
chaos crash site that proves a killed worker resumes past a stored
bit follows the cone write itself, in
:meth:`~repro.service.cache.ResultCache.put_cone`: here it would
also fire on the bits a resubmission serves from the cache, and a
crashing worker would never get further than the last one did.)
"""

from __future__ import annotations

from typing import Optional

from repro import telemetry as _telemetry
from repro.netlist.netlist import Netlist
from repro.rewrite.parallel import (
    ExtractionRun,
    ResultHook,
    extract_expressions,
)


def checkpointed_extract(
    netlist: Netlist,
    fingerprint: Optional[str] = None,
    progress: Optional[ResultHook] = None,
    deadline=None,
    telemetry=None,
    **options,
) -> ExtractionRun:
    """:func:`~repro.rewrite.parallel.extract_expressions` under the
    per-bit service hook.

    ``options`` are forwarded to the extraction; with a ``cache`` its
    cone tier serves the bits an earlier run finished and stores each
    fresh one as it completes.  At every bit, in order: ``deadline``
    (a :class:`repro.service.resilience.Deadline`) is checked, so a
    budgeted job stops between stored bits; ``progress`` is called
    with ``(output, cone, stats)``; the ``job.bits_completed`` counter
    ticks and, for a ``fingerprint``-keyed request, the
    ``job.<fingerprint>.done_bits`` gauge beside its ``total_bits`` —
    the ticks ``GET /jobs/<id>/progress`` reads.  ``telemetry``
    selects the registry (default: the active one).
    """
    tel = _telemetry.resolve(telemetry)
    gauge = None
    if fingerprint is not None:
        gauge = f"job.{fingerprint[:12]}.done_bits"
        tel.gauge(gauge, 0)
        outputs = options.get("outputs")
        tel.gauge(
            f"job.{fingerprint[:12]}.total_bits",
            len(netlist.outputs if outputs is None else outputs),
        )
    done = 0

    def hook(output, cone, stats) -> None:
        nonlocal done
        if deadline is not None:
            deadline.check()
        if progress is not None:
            progress(output, cone, stats)
        done += 1
        tel.counter("job.bits_completed")
        if gauge is not None:
            tel.gauge(gauge, done)

    return extract_expressions(
        netlist, on_result=hook, telemetry=tel, **options
    )
