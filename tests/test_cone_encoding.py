"""One encoding per cone.

Every cone's expression is stored in one engine-neutral JSON form
(``poly_to_json``): in its checkpoint line, its cone entry and the
extraction entry.  ``ConeExpression.to_json`` computes that form once
and every consumer shares it.  These tests pin that the memoized form
is the ``poly_to_json`` of the decoded expression on every engine, that
a cold bitpack audit never decodes a packed expression, and that the
bytes written are the ones earlier versions wrote.
"""

import hashlib
import json
import re

import pytest

import repro.service.jobs as jobs_module
from repro.engine import PackedExpression, ReferenceExpression
from repro.gen.karatsuba import generate_karatsuba
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.schoolbook import generate_schoolbook
from repro.netlist.eqn_io import write_eqn
from repro.rewrite.parallel import extract_expressions
from repro.service.cache import ResultCache, poly_to_json
from repro.service.runner import CampaignRunner
from repro.synth.pipeline import synthesize

M8 = 0b100011011

GENERATORS = {
    "mastrovito": generate_mastrovito,
    "montgomery": generate_montgomery,
    "karatsuba": generate_karatsuba,
    "schoolbook": generate_schoolbook,
}

#: sha256 of the m=8 NAND-mapped bitpack audit's cone entries,
#: checkpoint lines and extraction-entry expressions (timestamps and
#: timings zeroed), as the encoding before memoization wrote them.
M8_AUDIT_DIGEST = (
    "40b6a3554234efaa59bb29f755b3bf22a927944524ee7d215f73ea47907cdc7f"
)

_TIMING = re.compile(rb'("(?:created_unix|runtime_s)": ?)[-+0-9.eE]+')


def _zero_timings(data: bytes) -> bytes:
    return _TIMING.sub(rb"\g<1>0", data)


def _nand_m8():
    return synthesize(generate_mastrovito(M8), use_xor_cells=False)


@pytest.mark.parametrize("engine", ["bitpack", "reference"])
@pytest.mark.parametrize("mapped", [False, True], ids=["flat", "nand"])
@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_memoized_form_is_poly_to_json_of_the_decode(name, mapped, engine):
    netlist = GENERATORS[name](0b100101)
    if mapped:
        netlist = synthesize(netlist, use_xor_cells=False)
    run = extract_expressions(netlist, engine=engine)
    for output, cone in run.cones.items():
        encoded = cone.to_json()
        assert encoded == poly_to_json(cone.decode()), output
        assert cone.to_json() is encoded  # computed once


def test_an_expression_read_from_json_keeps_its_list():
    data = [["a0", "b0"], ["a1", "b1"]]
    expression = ReferenceExpression.from_json(data)
    assert expression.to_json() is data
    assert poly_to_json(expression.decode()) == data


def test_a_cold_bitpack_audit_decodes_no_packed_expression(
    tmp_path, monkeypatch
):
    decodes = []
    original = PackedExpression.decode

    def counted(self):
        decodes.append(self)
        return original(self)

    monkeypatch.setattr(PackedExpression, "decode", counted)
    path = tmp_path / "m8.eqn"
    write_eqn(_nand_m8(), path)
    record = CampaignRunner(
        mode="audit", engine="bitpack", cache_dir=tmp_path / "cache"
    ).run([path]).records[0]
    assert record["status"] == "ok" and record["equivalent"] is True
    assert decodes == []


def test_the_m8_audit_writes_the_bytes_it_always_wrote(tmp_path, monkeypatch):
    lines = []
    append = jobs_module.atomic_append_line

    def spy(path, line, **kwargs):
        lines.append(line)
        return append(path, line, **kwargs)

    monkeypatch.setattr(jobs_module, "atomic_append_line", spy)
    path = tmp_path / "m8.eqn"
    write_eqn(_nand_m8(), path)
    record = CampaignRunner(
        mode="audit", engine="bitpack", cache_dir=tmp_path / "cache"
    ).run([path]).records[0]
    assert record["status"] == "ok"
    assert len(lines) == 8

    cache = ResultCache(tmp_path / "cache")
    digest = hashlib.sha256()
    cones = sorted((cache.version_dir / "cone").rglob("*.json"))
    assert len(cones) == 8
    for entry in cones:
        digest.update(_zero_timings(entry.read_bytes()) + b"\n")
    for line in lines:
        digest.update(_zero_timings(line.encode("utf-8")) + b"\n")
    extraction = cache.get_raw("extraction", record["fingerprint"])
    expressions = extraction["payload"]["run"]["expressions"]
    digest.update(json.dumps(expressions, sort_keys=True).encode("utf-8"))
    assert digest.hexdigest() == M8_AUDIT_DIGEST
