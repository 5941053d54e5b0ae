"""Incremental verification under ECO.

Cone fingerprints must be exactly as strash-invariant as the netlist
fingerprint, a fault must dirty exactly its fan-out cones, and a
partial rerun (clean cones from the per-cone cache, dirty cones
rewritten) must be bit-identical to a cold run — across the generator
zoo and engines.
"""

import json
import random

import pytest

from repro.aig import Aig
from repro.gen.faults import flip_gate
from repro.gen.karatsuba import generate_karatsuba
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.schoolbook import generate_schoolbook
from repro.netlist.eqn_io import write_eqn
from repro.netlist.gate import Gate, GateType
from repro.netlist.netlist import Netlist
from repro.rewrite.parallel import extract_expressions
from repro.service.cache import ResultCache
from repro.service.eco import (
    diff_cone_digests,
    eco_reverify,
    fingerprint_file,
)
from repro.service.fingerprint import (
    cone_fingerprints,
    fingerprint_netlist,
    fingerprint_with_cones,
)
from repro.synth.strash import structural_hash

P5 = 0b100101
P8 = 0b100011011


def reorder(netlist: Netlist, seed: int = 7) -> Netlist:
    gates = netlist.gates
    random.Random(seed).shuffle(gates)
    out = Netlist(netlist.name, netlist.inputs, netlist.outputs)
    for gate in gates:
        out.add_gate(gate)
    return out


def rename_internal(netlist: Netlist) -> Netlist:
    ports = set(netlist.inputs) | set(netlist.outputs)
    mapping = {}
    for idx, gate in enumerate(netlist.gates):
        if gate.output not in ports:
            mapping[gate.output] = f"renamed_{idx}"
    out = Netlist(netlist.name, netlist.inputs, netlist.outputs)
    for gate in netlist.gates:
        out.add_gate(
            Gate(
                mapping.get(gate.output, gate.output),
                gate.gtype,
                tuple(mapping.get(net, net) for net in gate.inputs),
            )
        )
    return out


def fanout_outputs(netlist: Netlist, net: str) -> set:
    """Primary outputs whose transitive fan-in contains ``net``."""
    readers = {}
    for gate in netlist.gates:
        for source in gate.inputs:
            readers.setdefault(source, []).append(gate.output)
    outputs = set(netlist.outputs)
    touched, seen, frontier = set(), set(), [net]
    while frontier:
        current = frontier.pop()
        if current in seen:
            continue
        seen.add(current)
        if current in outputs:
            touched.add(current)
        frontier.extend(readers.get(current, ()))
    return touched


class TestConeFingerprintInvariance:
    """Cone digests key the cache: serialization accidents must not
    dirty a cone, structural edits must."""

    def test_deterministic_across_regeneration(self):
        assert cone_fingerprints(
            generate_mastrovito(P8)
        ) == cone_fingerprints(generate_mastrovito(P8))

    def test_gate_reordering_and_renaming_keep_every_digest(self):
        net = generate_montgomery(P5)
        want = cone_fingerprints(net)
        assert cone_fingerprints(reorder(net)) == want
        assert cone_fingerprints(rename_internal(net)) == want

    def test_strash_fixpoint(self):
        net = generate_mastrovito(P5)
        assert cone_fingerprints(structural_hash(net)) == cone_fingerprints(
            net
        )

    def test_one_digest_per_output(self):
        net = generate_mastrovito(P5)
        assert sorted(cone_fingerprints(net)) == sorted(net.outputs)

    def test_fingerprint_with_cones_matches_both_primitives(self):
        net = generate_montgomery(P5)
        fingerprint, cones = fingerprint_with_cones(net)
        assert fingerprint == fingerprint_netlist(net)
        assert cones == cone_fingerprints(net)

    def test_different_modulus_dirties_reduction_cones(self):
        a = cone_fingerprints(generate_mastrovito(0b10011))
        b = cone_fingerprints(generate_mastrovito(0b11001))
        assert any(a[output] != b[output] for output in a)


class TestFaultDirtiesExactFanout:
    """A gate edit must dirty its fan-out cones and nothing else."""

    @pytest.mark.parametrize("position", [0.25, 0.5, 0.9])
    def test_flip_gate(self, position):
        base = generate_mastrovito(P8)
        gate = base.gates[int(len(base.gates) * position)].output
        mutant, _ = flip_gate(base, gate)
        fanout = fanout_outputs(base, gate)
        assert fanout, "picked a dead gate"

        before = cone_fingerprints(base)
        after = cone_fingerprints(mutant)
        dirty = {o for o in before if before[o] != after[o]}
        # Outputs outside the fan-out share an unchanged transitive
        # fan-in, so their Merkle digests cannot move; inside it the
        # flip changes the cone (strash may absorb a flip that is
        # locally redundant, hence <=, but never on every cone here).
        assert dirty <= fanout
        assert dirty


ZOO = [
    ("mastrovito", generate_mastrovito),
    ("montgomery", generate_montgomery),
    ("schoolbook", generate_schoolbook),
    ("karatsuba", generate_karatsuba),
]


def warm_then_partial(tmp_path, net, mutant, engine):
    """Warm the cone cache on ``net``, then extract ``mutant``."""
    cache = ResultCache(tmp_path / f"cache-{engine}")
    extract_expressions(net, engine=engine, cache=cache)
    return extract_expressions(mutant, engine=engine, cache=cache), cache


class TestPartialRerunBitIdentity:
    """The acceptance invariant: clean-from-cache + dirty-recomputed
    must equal a cold run, bit for bit."""

    @pytest.mark.parametrize("name,generator", ZOO)
    def test_across_generator_zoo(self, tmp_path, name, generator):
        base = generator(P5)
        gate = base.gates[len(base.gates) // 2].output
        mutant, _ = flip_gate(base, gate)
        cold = extract_expressions(mutant, engine="bitpack")
        warm, cache = warm_then_partial(tmp_path, base, mutant, "bitpack")
        for output in cold.expressions:
            assert warm.expressions[output] == cold.expressions[output], (
                name,
                output,
            )
        assert set(warm.cache_provenance.values()) <= {
            "cone_hit",
            "computed",
        }
        assert cache.cone_hits > 0

    @pytest.mark.parametrize("engine", ["reference", "bitpack", "vector"])
    def test_across_engines(self, tmp_path, engine):
        base = generate_mastrovito(P8)
        mutant, _ = flip_gate(base, base.gates[40].output)
        cold = extract_expressions(mutant, engine=engine)
        warm, _ = warm_then_partial(tmp_path, base, mutant, engine)
        for output in cold.expressions:
            assert warm.expressions[output] == cold.expressions[output]

    def test_cross_engine_reuse(self, tmp_path):
        """Cone entries are engine-neutral (Theorem 1): a baseline
        extracted by one backend warms another backend's rerun."""
        base = generate_mastrovito(P5)
        mutant, _ = flip_gate(base, base.gates[20].output)
        cache = ResultCache(tmp_path / "cache")
        extract_expressions(base, engine="reference", cache=cache)
        warm = extract_expressions(
            mutant, engine="bitpack", cache=cache
        )
        cold = extract_expressions(mutant, engine="bitpack")
        assert cache.cone_hits > 0
        for output in cold.expressions:
            assert warm.expressions[output] == cold.expressions[output]

    def test_all_clean_skips_every_engine_phase(self, tmp_path):
        """A fully warm rerun never touches the backend at all."""
        net = generate_mastrovito(P5)
        cache = ResultCache(tmp_path / "cache")
        extract_expressions(net, engine="bitpack", cache=cache)
        warm = extract_expressions(net, engine="bitpack", cache=cache)
        assert set(warm.cache_provenance.values()) == {"cone_hit"}
        assert cache.cone_hits == len(net.outputs)


class Killed(RuntimeError):
    pass


class TestKillAndResumeWithConeCache:
    def test_resume_merges_checkpoint_and_cone_provenance(self, tmp_path):
        from repro.service.jobs import (
            ExtractionCheckpoint,
            checkpointed_extract,
        )

        base = generate_mastrovito(P8)
        mutant, _ = flip_gate(base, base.gates[60].output)
        cache = ResultCache(tmp_path / "cache")
        extract_expressions(base, engine="bitpack", cache=cache)
        cold = extract_expressions(mutant, engine="bitpack")

        path = tmp_path / "job.json"
        fingerprint = fingerprint_netlist(mutant)
        checkpoint = ExtractionCheckpoint.load(
            path, fingerprint, "bitpack", None
        )
        count = [0]

        def persist_then_die(output, cone, stats):
            checkpoint.record(output, cone.to_json(), stats)
            count[0] += 1
            if count[0] >= 3:
                raise Killed("simulated kill")

        with pytest.raises(Killed):
            extract_expressions(
                mutant, engine="bitpack", on_result=persist_then_die
            )
        resumed = checkpointed_extract(
            mutant,
            engine="bitpack",
            checkpoint_path=path,
            cache=cache,
        )
        assert len(resumed.resumed_bits) == 3
        for output in cold.expressions:
            assert (
                resumed.run.expressions[output] == cold.expressions[output]
            )
        origins = set(resumed.run.cache_provenance.values())
        assert "checkpoint" in origins
        assert origins <= {"checkpoint", "cone_hit", "computed"}


class TestDiffCones:
    def test_partition_is_exact(self):
        clean, dirty, added, removed = diff_cone_digests(
            {"z0": "a", "z1": "b", "z2": "c"},
            {"z0": "a", "z1": "B", "z3": "d"},
        )
        assert clean == ["z0"]
        assert dirty == ["z1"]
        assert added == ["z3"]
        assert removed == ["z2"]


class TestEcoReverify:
    def _write(self, tmp_path, name, netlist):
        path = tmp_path / f"{name}.eqn"
        write_eqn(netlist, path)
        return path

    def test_jobs_other_than_one_is_rejected(self, tmp_path):
        """``jobs`` survives only as a keyword the benchmark passes as 1."""
        path = self._write(tmp_path, "base", generate_mastrovito(P8))
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ValueError, match="jobs must be 1"):
            eco_reverify(path, path, cache, jobs=2)
        assert eco_reverify(path, path, cache, jobs=1).ok

    def test_gate_flip_reaudit_blames_dirty_cones(self, tmp_path):
        base = generate_mastrovito(P8)
        gate = base.gates[len(base.gates) // 2].output
        mutant, _ = flip_gate(base, gate)
        bpath = self._write(tmp_path, "base", base)
        epath = self._write(tmp_path, "edit", mutant)
        cache = ResultCache(tmp_path / "cache")

        report = eco_reverify(bpath, epath, cache, engine="bitpack")
        assert report.diff.dirty
        assert set(report.diff.dirty) <= fanout_outputs(base, gate)
        assert report.cones_reused == len(report.diff.clean) > 0
        assert not report.ok
        assert report.diagnosis is not None and not report.diagnosis.is_clean

    def test_clean_edit_verifies_and_reuses_everything(self, tmp_path):
        base = generate_mastrovito(P8)
        bpath = self._write(tmp_path, "base", base)
        epath = self._write(tmp_path, "edit", reorder(base))
        cache = ResultCache(tmp_path / "cache")
        report = eco_reverify(bpath, epath, cache, engine="bitpack")
        assert report.diff.identical
        assert report.ok and report.equivalent
        assert report.cones_reused == len(base.outputs)

    def test_warm_rerun_hits_file_memo_and_result_cache(self, tmp_path):
        base = generate_mastrovito(P5)
        mutant, _ = flip_gate(base, base.gates[10].output)
        bpath = self._write(tmp_path, "base", base)
        epath = self._write(tmp_path, "edit", mutant)
        cache = ResultCache(tmp_path / "cache")
        eco_reverify(bpath, epath, cache, engine="bitpack")
        # Unchanged files resolve from the stat-validated memo: no
        # parse, no strash (the returned netlist slot is None).
        known = fingerprint_file(bpath, cache)
        assert known.netlist is None
        assert sorted(known.cones) == sorted(base.outputs)
        second = eco_reverify(bpath, epath, cache, engine="bitpack")
        assert second.baseline_source == "cache"

    def test_baseline_cached_without_cone_entries_backfills(self, tmp_path):
        """A baseline extracted before the cone tier existed still
        warms the per-cone store from its whole-netlist entry."""
        base = generate_mastrovito(P5)
        mutant, _ = flip_gate(base, base.gates[10].output)
        bpath = self._write(tmp_path, "base", base)
        epath = self._write(tmp_path, "edit", mutant)
        cache = ResultCache(tmp_path / "cache")
        from repro.extract.extractor import extract_irreducible_polynomial

        # A whole-netlist entry only: no cone entries.
        cache.put_extraction(base, extract_irreducible_polynomial(base))
        report = eco_reverify(bpath, epath, cache, engine="bitpack")
        assert report.baseline_source == "cache"
        assert report.cones_warmed == len(base.outputs)
        assert report.cones_reused == len(report.diff.clean) > 0


class TestCampaignProvenance:
    def test_jsonl_records_carry_cones_reused(self, tmp_path):
        from repro.service.runner import run_campaign

        base = generate_mastrovito(P5)
        mutant, _ = flip_gate(base, base.gates[10].output)
        netlists = tmp_path / "netlists"
        netlists.mkdir()
        write_eqn(base, netlists / "a_base.eqn")
        write_eqn(mutant, netlists / "b_edit.eqn")
        report_path = tmp_path / "report.jsonl"
        run_campaign(
            str(netlists),
            report_path=str(report_path),
            mode="extract",
            engine="bitpack",
            cache_dir=str(tmp_path / "cache"),
        )
        records = {
            record["netlist"]: record
            for record in map(
                json.loads, report_path.read_text().splitlines()
            )
            if "netlist" in record
        }
        # The baseline runs cold; the edited sibling reuses every cone
        # the single-gate flip left clean.
        assert records["a_base"]["cones_reused"] == 0
        assert records["b_edit"]["cones_reused"] > 0


class TestCli:
    def test_eco_verb(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        base = generate_mastrovito(P5)
        mutant, _ = flip_gate(base, base.gates[10].output)
        bpath = tmp_path / "base.eqn"
        epath = tmp_path / "edit.eqn"
        write_eqn(base, bpath)
        write_eqn(mutant, epath)

        code = main(["eco", str(bpath), str(epath), "--engine", "bitpack"])
        out = capsys.readouterr().out
        assert code == 1  # the mutant must fail its re-audit
        assert "cones dirty" in out and "cached cones" in out

        clean = tmp_path / "clean.eqn"
        write_eqn(base, clean)
        code = main(["audit", str(clean), "--baseline", str(bpath)])
        out = capsys.readouterr().out
        assert code == 0
        assert "identical" in out and "equivalent" in out


def identity_edit(netlist: Netlist, output: str, operand: str) -> Netlist:
    """``z -> AND(z', OR(z', a))``: same function, new cone structure."""
    inner = f"{output}_pre"
    edited = Netlist(netlist.name, netlist.inputs, netlist.outputs)
    for gate in netlist.gates:
        if gate.output == output:
            gate = Gate(inner, gate.gtype, gate.inputs)
        edited.add_gate(gate)
    edited.add_gate(Gate(f"{output}_or", GateType.OR, (inner, operand)))
    edited.add_gate(Gate(output, GateType.AND, (inner, f"{output}_or")))
    return edited


class TestStrashCount:
    def test_fresh_edit_strashes_twice(self, tmp_path, monkeypatch):
        """One strash for the edited netlist (fingerprint, cone
        digests and partition share it) and one for the dirty cone's
        sub-netlist, whose fingerprint keys the compiled program."""
        base = generate_mastrovito(P8)
        paths = {}
        for name, netlist in (
            ("base", base),
            ("first", identity_edit(base, "z2", "a0")),
            ("second", identity_edit(base, "z5", "b3")),
        ):
            paths[name] = tmp_path / f"{name}.eqn"
            write_eqn(netlist, paths[name])
        cache = ResultCache(tmp_path / "cache")
        eco_reverify(paths["base"], paths["first"], cache, engine="bitpack")

        calls = []
        original = Aig.from_netlist.__func__

        def counting(cls, netlist):
            calls.append(sorted(netlist.outputs))
            return original(cls, netlist)

        monkeypatch.setattr(Aig, "from_netlist", classmethod(counting))
        report = eco_reverify(
            paths["base"], paths["second"], cache, engine="bitpack"
        )
        assert report.ok and report.equivalent
        assert report.diff.dirty == ["z5"]
        assert calls == [sorted(base.outputs), ["z5"]]
