"""One request, one exit code or status, one error line per entry point.

``repro extract``, ``repro audit`` and ``repro diagnose`` run the same
request pipeline as ``repro batch`` and the HTTP API
(:func:`repro.service.pipeline.run_mode`).  For each case below and
each mode this pins what every entry point answers: the CLI's exit
code and its one ``error: <Type>: <message>`` stderr line, and the
batch record's and the HTTP job's status, ``error`` and verdict
fields.  A failed run (a file that does not parse, the term limit's
memory-out, an engine failure) is exit code 2 on the CLI and an error
record or job elsewhere, with the same ``<Type>: <message>`` text;
exit code 1 means reducible, not equivalent or not clean (a batch of
such records exits 1 too).  Diagnose answers a term limit with its
memory-out verdict everywhere, on a squarer as on a multiplier.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.engine import BitpackEngine, EngineError, register_engine
from repro.engine.registry import _FACTORIES, _INSTANCES
from repro.gen.faults import flip_gate
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.squarer import generate_squarer
from repro.netlist.eqn_io import write_eqn
from repro.service.api import TERMINAL_STATUSES, ReproAPIServer
from repro.service.cache import ResultCache
from repro.service.runner import CampaignRunner

P8 = 0b100011011
MEMORY_OUT = (
    "TermLimitExceeded: rewriting 'z0' reached 13 terms (limit 3) "
    "— memory-out"
)
ENGINE_DOWN = "EngineError: disabled for the entry-point check"
UNPARSABLE = "EqnFormatError: line 1: expected GATE(...) in 'a0;'"
NOT_A_MULTIPLIER = (
    "ExtractionError: inputs must be named a0..a7, b0..b7; got "
    "['a0', 'a1', 'a2', 'a3', 'a4', 'a5']..."
)


class _Broken(BitpackEngine):
    name = "broken"

    def rewrite_cone(self, *args, **kwargs):
        raise EngineError("disabled for the entry-point check")


@pytest.fixture(scope="module", autouse=True)
def broken_engine():
    register_engine("broken", _Broken)
    yield
    _FACTORIES.pop("broken", None)
    _INSTANCES.pop("broken", None)


def _faulty():
    base = generate_mastrovito(P8)
    return flip_gate(base, base.gates[len(base.gates) // 2].output)[0]


#: case -> (netlist or EQN text, engine, term limit)
CASES = {
    "ok": (lambda: generate_mastrovito(P8), "bitpack", None),
    "reducible": (lambda: generate_mastrovito(0b100000001), "bitpack", None),
    "not_equivalent": (_faulty, "bitpack", None),
    "parse_error": (
        lambda: "INORDER = a0;\nOUTORDER = z0;\nz0 = a0 * ;\n",
        "bitpack",
        None,
    ),
    "term_limit": (lambda: generate_mastrovito(P8), "bitpack", 3),
    "engine_failure": (lambda: generate_mastrovito(P8), "broken", None),
    "squarer_term_limit": (lambda: generate_squarer(P8), "bitpack", 1),
}

#: (case, mode) -> (CLI exit code, error text or verdict fields).  The
#: fields are those of the batch record and the HTTP job result.
EXPECTED = {
    ("ok", "extract"): (0, {"irreducible": True}),
    ("ok", "audit"): (0, {"irreducible": True, "equivalent": True}),
    ("ok", "diagnose"): (0, {"verdict": "verified-multiplier"}),
    ("reducible", "extract"): (1, {"irreducible": False}),
    ("reducible", "audit"): (1, {"irreducible": False, "equivalent": True}),
    ("reducible", "diagnose"): (1, {"verdict": "reducible-polynomial"}),
    ("not_equivalent", "extract"): (0, {"irreducible": True}),
    ("not_equivalent", "audit"): (
        1, {"irreducible": True, "equivalent": False}
    ),
    ("not_equivalent", "diagnose"): (1, {"verdict": "not-equivalent"}),
    ("parse_error", "extract"): (2, UNPARSABLE),
    ("parse_error", "audit"): (2, UNPARSABLE),
    ("parse_error", "diagnose"): (2, UNPARSABLE),
    ("term_limit", "extract"): (2, MEMORY_OUT),
    ("term_limit", "audit"): (2, MEMORY_OUT),
    ("term_limit", "diagnose"): (1, {"verdict": "memory-out"}),
    ("engine_failure", "extract"): (2, ENGINE_DOWN),
    ("engine_failure", "audit"): (2, ENGINE_DOWN),
    ("engine_failure", "diagnose"): (2, ENGINE_DOWN),
    ("squarer_term_limit", "extract"): (2, NOT_A_MULTIPLIER),
    ("squarer_term_limit", "audit"): (2, NOT_A_MULTIPLIER),
    ("squarer_term_limit", "diagnose"): (1, {"verdict": "memory-out"}),
}


def _post(server, body):
    """Submit a job and wait for it: the job view, or the 400 error."""
    host, port = server.address
    base = f"http://{host}:{port}"
    request = urllib.request.Request(
        f"{base}/v1/jobs",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request) as response:
            job = json.load(response)
    except urllib.error.HTTPError as error:
        assert error.code == 400
        return {"status": 400, "error": json.load(error)["error"]}
    deadline = time.monotonic() + 30
    while job["status"] not in TERMINAL_STATUSES:
        assert time.monotonic() < deadline, job
        time.sleep(0.01)
        with urllib.request.urlopen(f"{base}/v1/jobs/{job['job_id']}") as r:
            job = json.load(r)
    return job


@pytest.mark.parametrize("mode", ["extract", "audit", "diagnose"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_entry_points_answer_alike(tmp_path, capsys, case, mode):
    make, engine, term_limit = CASES[case]
    code, expected = EXPECTED[case, mode]
    netlist = make()
    path = tmp_path / f"{case}.eqn"
    if isinstance(netlist, str):
        path.write_text(netlist)
    else:
        write_eqn(netlist, path)
    limit = [] if term_limit is None else ["--term-limit", str(term_limit)]

    # The CLI verb: exit code, and one stderr line on a failed run.
    assert main([mode, str(path), "--engine", engine, *limit]) == code
    captured = capsys.readouterr()
    if isinstance(expected, str):
        assert captured.err == f"error: {expected}\n"
        assert captured.out == ""
    else:
        assert captured.err == ""
        if "verdict" in expected:
            assert f"verdict : {expected['verdict']}\n" in captured.out

    # batch: one record, "error" with the CLI's text after "error: ";
    # the record is failing (batch exits 1) when the verb exits non-zero.
    report = CampaignRunner(
        mode=mode, engine=engine, cache_dir=tmp_path / "batch",
        term_limit=term_limit,
    ).run([path])
    record = report.records[0]
    assert report.failing == ([] if code == 0 else [case])
    if isinstance(expected, str):
        assert (record["status"], record["error"]) == ("error", expected)
    else:
        assert record["status"] == "ok", record
        assert {key: record.get(key) for key in expected} == expected

    # HTTP: the job carries the same text; a parse failure is a 400.
    server = ReproAPIServer(
        port=0, cache=ResultCache(tmp_path / "http"), engine="bitpack",
        worker_threads=1,
    )
    server.start()
    try:
        body = {"netlist": path.read_text(), "mode": mode, "engine": engine}
        if term_limit is not None:
            body["term_limit"] = term_limit
        job = _post(server, body)
    finally:
        server.shutdown()
    if case == "parse_error":
        assert job == {
            "status": 400, "error": f"netlist parse failed: {expected}"
        }
    elif isinstance(expected, str):
        assert (job["status"], job["error"]) == ("error", expected), job
    else:
        assert job["status"] == "done", job
        assert {key: job["result"].get(key) for key in expected} == expected


def test_single_file_verbs_touch_no_cache(tmp_path, monkeypatch, capsys):
    """Without ``--baseline`` the verbs run the pipeline with no cache:
    the default cache directory is neither read nor written."""
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    path = tmp_path / "mult.eqn"
    write_eqn(_faulty(), path)
    for verb in ("extract", "audit", "diagnose"):
        main([verb, str(path)])
    capsys.readouterr()
    assert list(cache_dir.iterdir()) == []
