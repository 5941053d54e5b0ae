"""One request, one answer: batch, HTTP and ECO run the same pipeline.

Each netlist goes through :class:`CampaignRunner`, an in-process
:class:`ReproAPIServer` and :func:`eco_reverify` against a clean
baseline; polynomial, irreducibility, equivalence/verdict and the error
type must agree across all three entry points.  A file that does not
parse is its reader's format error through every entry point.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.gen.faults import flip_gate
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.squarer import generate_squarer
from repro.netlist.eqn_io import format_eqn, parse_eqn, write_eqn
from repro.service.api import TERMINAL_STATUSES, ReproAPIServer
from repro.service.cache import ResultCache
from repro.service.eco import eco_reverify
from repro.service.pipeline import MODES
from repro.service.runner import CampaignRunner

P8 = 0b100011011


def clean():
    return generate_mastrovito(P8)


def single_fault():
    base = clean()
    return flip_gate(base, base.gates[len(base.gates) // 2].output)[0]


def wrong_ports():
    text = format_eqn(generate_mastrovito(0b10011))
    for bit in range(4):
        text = text.replace(f"z{bit}", f"y{bit}")
    return parse_eqn(text, name="wrong_ports")


def wrong_arity_verilog():
    """A file that does not parse, as (suffix, text): a one-input
    ``and`` instance."""
    return ".v", (
        "module bad (a, y);\n  input a;\n  output y;\n"
        "  and g0 (y, a);\nendmodule\n"
    )


NETLISTS = {
    "clean": clean,
    "single_fault": single_fault,
    "wrong_ports": wrong_ports,
    "squarer": lambda: generate_squarer(0b10011),
    "wrong_arity_verilog": wrong_arity_verilog,
}


def answer(mode, fields, error):
    """The mode's verdict in entry-point-neutral form."""
    if error is not None:
        return {"error": error.split(":")[0]}
    keys = {
        "extract": ("polynomial", "irreducible"),
        "audit": ("polynomial", "irreducible", "equivalent"),
        "diagnose": ("polynomial", "verdict"),
    }[mode]
    return {key: fields.get(key) for key in keys}


def batch_answer(path, mode, cache_dir):
    record = CampaignRunner(
        mode=mode, engine="bitpack", cache_dir=cache_dir
    ).run([path]).records[0]
    return answer(mode, record, record.get("error"))


def http_answer(server, netlist, mode):
    job = server.submit(netlist, mode=mode, engine="bitpack")
    deadline = time.monotonic() + 30
    while job.status not in TERMINAL_STATUSES:
        assert time.monotonic() < deadline, job.view()
        time.sleep(0.01)
    return answer(mode, job.result or {}, job.error)


def http_text_answer(server, text, fmt, mode):
    """POST netlist text; here it must fail to parse (HTTP 400)."""
    host, port = server.address
    request = urllib.request.Request(
        f"http://{host}:{port}/v1/jobs",
        data=json.dumps({"netlist": text, "format": fmt, "mode": mode}).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as caught:
        urllib.request.urlopen(request)
    assert caught.value.code == 400
    message = json.load(caught.value)["error"]
    prefix = "netlist parse failed: "
    assert message.startswith(prefix), message
    return answer(mode, {}, message[len(prefix):])


def eco_answer(baseline, path, mode, cache_dir):
    """None where ECO has no answer: it diagnoses only a failed audit."""
    try:
        report = eco_reverify(
            baseline, path, ResultCache(cache_dir), engine="bitpack",
            audit=mode != "extract",
        )
    except Exception as error:  # noqa: BLE001 - compared by type name
        if mode == "diagnose":
            return None
        return answer(mode, {}, f"{type(error).__name__}: {error}")
    if mode != "diagnose":
        return answer(mode, vars(report), None)
    if report.diagnosis is None:
        return None
    fields = {
        "verdict": report.diagnosis.verdict.value,
        "polynomial": report.polynomial,
    }
    return answer(mode, fields, None)


@pytest.mark.parametrize("name", sorted(NETLISTS))
def test_same_answer_through_every_entry_point(tmp_path, name):
    netlist = NETLISTS[name]()
    baseline = tmp_path / "baseline.eqn"
    write_eqn(clean(), baseline)
    if isinstance(netlist, tuple):
        suffix, text = netlist
        path = tmp_path / f"{name}{suffix}"
        path.write_text(text)
    else:
        path = tmp_path / f"{name}.eqn"
        write_eqn(netlist, path)

    server = ReproAPIServer(
        port=0, cache=ResultCache(tmp_path / "http"), engine="bitpack",
        worker_threads=1,
    )
    server.start()
    try:
        for mode in MODES:
            batch = batch_answer(path, mode, tmp_path / f"batch-{mode}")
            if isinstance(netlist, tuple):
                assert batch == {"error": "VerilogFormatError"}, batch
                http = http_text_answer(server, text, suffix[1:], mode)
            else:
                http = http_answer(server, netlist, mode)
            assert http == batch, (mode, http, batch)
            eco = eco_answer(baseline, path, mode, tmp_path / f"eco-{mode}")
            if eco is not None:
                assert eco == batch, (mode, eco, batch)
    finally:
        server.shutdown()


def _entries(cache):
    """Cache files by relative path, minus the per-path file memos."""
    root = cache.version_dir
    return sorted(
        str(path.relative_to(root))
        for path in root.rglob("*")
        if path.is_file() and path.relative_to(root).parts[0] != "files"
    )


def test_http_job_and_batch_record_leave_the_same_entries(tmp_path):
    """An HTTP job writes exactly the entries a batch record writes,
    and on a compiling engine neither stores a compiled program."""
    netlist = clean()
    path = tmp_path / "clean.eqn"
    write_eqn(netlist, path)
    CampaignRunner(
        mode="audit", engine="aig", cache_dir=tmp_path / "batch"
    ).run([path])
    batch = _entries(ResultCache(tmp_path / "batch"))

    cache = ResultCache(tmp_path / "http")
    server = ReproAPIServer(port=0, cache=cache, engine="aig")
    server.start()
    try:
        job = server.submit(netlist, mode="audit", engine="aig")
        deadline = time.monotonic() + 30
        while job.status not in TERMINAL_STATUSES:
            assert time.monotonic() < deadline, job.view()
            time.sleep(0.01)
        assert job.result["equivalent"], job.view()
    finally:
        server.shutdown()
    assert _entries(cache) == batch
    assert any(entry.startswith("cone/") for entry in batch)
    assert not any(entry.startswith("compiled/") for entry in batch)
