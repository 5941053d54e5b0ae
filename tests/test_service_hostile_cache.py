"""A hostile cache directory costs a recompute, never a wrong or failed
answer.

Valid JSON of the wrong shape in an entry is corrupt like unparsable
bytes: it is quarantined and read as a miss.  A verdict sidecar of the
wrong shape, or with fields that contradict each other, is quarantined
too; the main extraction entry then answers.  An entry copied to
another key's path is quarantined as well: its recorded key differs
from the one it was looked up under.  Compiled-program blobs
left by earlier versions are counted and evicted but never unpickled.
"""

import json
import os
import pickle
import shutil

import pytest

from repro.engine import BitpackEngine
from repro.gen.faults import random_fault
from repro.gen.mastrovito import generate_mastrovito
from repro.netlist.eqn_io import write_eqn
from repro.service.cache import ResultCache
from repro.service.fingerprint import cone_fingerprints
from repro.service.pipeline import run_mode
from repro.service.runner import CampaignRunner
from repro.synth.pipeline import synthesize

M8 = 0b100011011


def _audit(path, cache_dir):
    record = CampaignRunner(
        mode="audit", engine="bitpack", cache_dir=cache_dir
    ).run([path]).records[0]
    assert record["status"] == "ok", record.get("error")
    return record


def _entry(cache, kind, netlist_path, fingerprint):
    if kind == "files":
        return cache._file_memo_path(netlist_path)
    if kind == "cone":
        cones = cache.file_fingerprint(netlist_path)["cones"]
        # Without the extraction entry the re-run reads the cone tier.
        extraction = cache.path_for("extraction", fingerprint)
        extraction.unlink()
        extraction.with_suffix(".sum").unlink()
        return cache.cone_path_for(cones["z0"])
    if kind == "sidecar":
        return cache.extraction_summary_path(fingerprint)
    return cache.path_for(kind, fingerprint)


@pytest.mark.parametrize("shape", [[1], {"schema": 1}], ids=["list", "bare"])
@pytest.mark.parametrize(
    "kind", ["verification", "extraction", "files", "cone", "sidecar"]
)
def test_a_wrong_shape_entry_is_a_quarantined_miss(tmp_path, kind, shape):
    path = tmp_path / "m8.eqn"
    write_eqn(generate_mastrovito(M8), path)
    cache_dir = tmp_path / "cache"
    first = _audit(path, cache_dir)
    cache = ResultCache(cache_dir)
    entry = _entry(cache, kind, path, first["fingerprint"])
    assert entry.is_file()
    entry.write_text(json.dumps(shape), encoding="utf-8")

    again = _audit(path, cache_dir)
    assert again["polynomial"] == first["polynomial"]
    assert again["equivalent"] is first["equivalent"] is True
    assert again["member_bits"] == first["member_bits"]
    # A memo dict that does not match the file is merely stale.
    stale = kind == "files" and isinstance(shape, dict)
    assert cache.stats().quarantined == (0 if stale else 1)
    # The recomputed artifact replaced the hostile one.
    assert json.loads(entry.read_text(encoding="utf-8")) != shape


@pytest.mark.parametrize(
    "fields",
    [
        {"modulus": 0b100011101},
        {"member_bits": [4, 3, 1, 0]},
        {"member_bits": [0, 1, 3, 4, 8]},
        {"m": 9},
        {"irreducible": 1},
        {"digest": 7},
    ],
    ids=["modulus", "unsorted", "out-of-range", "degree", "int-flag", "digest"],
)
def test_an_inconsistent_sidecar_is_a_quarantined_decode(tmp_path, fields):
    """A well-typed JSON sidecar whose verdict fields contradict each
    other is corrupt: quarantined, and the main entry answers."""
    path = tmp_path / "m8.eqn"
    write_eqn(generate_mastrovito(M8), path)
    cache_dir = tmp_path / "cache"
    first = _audit(path, cache_dir)
    cache = ResultCache(cache_dir)
    sidecar = cache.extraction_summary_path(first["fingerprint"])
    data = json.loads(sidecar.read_text(encoding="utf-8"))
    data.update(fields)
    sidecar.write_text(json.dumps(data), encoding="utf-8")

    again = _audit(path, cache_dir)
    verdict = ("m", "polynomial", "irreducible", "member_bits", "equivalent")
    assert {key: again[key] for key in verdict} == {
        key: first[key] for key in verdict
    }
    assert again["cache"] == "hit"
    assert cache.stats().quarantined == 1
    assert json.loads(sidecar.read_text(encoding="utf-8"))["modulus"] == M8


def test_a_cone_entry_under_another_digest_is_a_quarantined_miss(tmp_path):
    """z1's cone entry copied over z3's path must not answer for z3:
    served, it would recover a reducible P(x) for x^4 + x + 1."""
    netlist = generate_mastrovito(0b10011)
    cache = ResultCache(tmp_path / "cache")

    def extract():
        return run_mode(
            "extract",
            lambda: netlist,
            cache.fingerprint(netlist),
            cache,
            engine="bitpack",
        ).extraction

    first = extract()
    assert first.modulus == 0b10011
    cones = cone_fingerprints(netlist)
    shutil.copyfile(
        cache.cone_path_for(cones["z1"]), cache.cone_path_for(cones["z3"])
    )
    shutil.rmtree(cache.version_dir / "extraction")

    cache = ResultCache(tmp_path / "cache")
    again = extract()
    assert again.modulus == 0b10011 and again.irreducible
    assert again.run.cache_provenance["z3"] == "computed"
    assert cache.corrupt == 1
    assert cache.stats().quarantined == 1
    # The recomputed cone replaced the misplaced one.
    stored = json.loads(
        cache.cone_path_for(cones["z3"]).read_text(encoding="utf-8")
    )
    assert stored["cone"] == cones["z3"]


def test_a_diagnosis_under_another_fingerprint_is_a_quarantined_miss(
    tmp_path,
):
    """A faulty design's diagnosis copied over a clean design's path
    must not answer for the clean one."""
    clean = tmp_path / "clean.eqn"
    write_eqn(generate_mastrovito(0b10011), clean)
    faulty = tmp_path / "faulty.eqn"
    write_eqn(random_fault(generate_mastrovito(0b10011), seed=1)[0], faulty)
    cache_dir = tmp_path / "cache"

    def diagnose(path):
        return CampaignRunner(mode="diagnose", cache_dir=cache_dir).run(
            [path]
        ).records[0]

    first = diagnose(clean)
    assert first["clean"] is True
    assert diagnose(faulty)["clean"] is False
    cache = ResultCache(cache_dir)
    faulty_fingerprint = cache.file_fingerprint(faulty)["fingerprint"]
    shutil.copyfile(
        cache.path_for("diagnosis", faulty_fingerprint),
        cache.path_for("diagnosis", first["fingerprint"]),
    )
    assert cache.get_raw("diagnosis", first["fingerprint"]) is None

    again = diagnose(clean)
    assert again["clean"] is True
    assert again["verdict"] == first["verdict"]
    assert again["cache"] == "miss"
    assert cache.stats().quarantined == 1


class _Tripwire:
    """Unpickling this creates ``flag``."""

    def __init__(self, flag):
        self.flag = str(flag)

    def __reduce__(self):
        return os.mkdir, (self.flag,)


def test_the_cache_directory_is_never_unpickled(tmp_path):
    netlist = synthesize(generate_mastrovito(M8), use_xor_cells=False)
    path = tmp_path / "m8.eqn"
    write_eqn(netlist, path)
    cache_dir = tmp_path / "cache"
    cache = ResultCache(cache_dir)
    flag = tmp_path / "unpickled"
    planted = cache.compiled_path_for(
        netlist, "bitpack", BitpackEngine.compile_schema
    )
    planted.parent.mkdir(parents=True)
    planted.write_bytes(pickle.dumps(("token", _Tripwire(flag))))
    os.utime(planted, (1, 1))  # the oldest entry in the directory

    _audit(path, cache_dir)  # cold
    _audit(path, cache_dir)  # warm
    assert not flag.exists()
    compiled = sorted((cache.version_dir / "compiled").rglob("*"))
    assert [p for p in compiled if p.is_file()] == [planted]

    stats = cache.stats()
    assert stats.entries["compiled"] == 1
    assert cache.prune(max_entries=stats.total_entries - 1) == 1
    assert not planted.exists()
    assert not flag.exists()
