"""A hostile cache directory costs a recompute, never a wrong or failed
answer.

Valid JSON of the wrong shape in an entry is corrupt like unparsable
bytes: it is quarantined and read as a miss.  Compiled-program blobs
left by earlier versions are counted and evicted but never unpickled.
"""

import json
import os
import pickle

import pytest

from repro.engine import BitpackEngine
from repro.gen.mastrovito import generate_mastrovito
from repro.netlist.eqn_io import write_eqn
from repro.service.cache import ResultCache
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
    return cache.path_for(kind, fingerprint)


@pytest.mark.parametrize("shape", [[1], {"schema": 1}], ids=["list", "bare"])
@pytest.mark.parametrize(
    "kind", ["verification", "extraction", "files", "cone"]
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
