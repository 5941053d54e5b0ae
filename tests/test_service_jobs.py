"""Resume through the cone tier: every rewritten bit is stored as it
completes, so a killed or term-limited extraction reruns losslessly."""

import pytest

from repro.extract.extractor import result_from_run
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.rewrite.backward import TermLimitExceeded
from repro.rewrite.parallel import extract_expressions
from repro.service.cache import ResultCache
from repro.service.fingerprint import cone_fingerprints, fingerprint_netlist
from repro.service.jobs import checkpointed_extract
from repro.service.pipeline import run_mode


class Killed(RuntimeError):
    """Stand-in for SIGKILL: aborts the driver between two bits."""


def kill_after(n):
    """A progress hook that dies once n bits have completed."""
    seen = []

    def hook(output, cone, stats):
        seen.append(output)
        if len(seen) >= n:
            raise Killed(f"killed after {n} bits")

    return hook


def killed_run(net, cache, engine, k):
    """Extract ``net`` through the per-bit hook and die after k bits."""
    with pytest.raises(Killed):
        checkpointed_extract(
            net,
            fingerprint=fingerprint_netlist(net),
            progress=kill_after(k),
            engine=engine,
            cache=cache,
        )


def rerun(net, cache, engine):
    return run_mode(
        "extract", lambda: net, fingerprint_netlist(net), cache,
        engine=engine,
    )


@pytest.mark.parametrize("engine", ["reference", "bitpack"])
class TestKillAndResume:
    def test_resume_is_bit_identical_to_cold_run(self, tmp_path, engine):
        """The acceptance scenario: kill mid-extraction, resume, compare."""
        net = generate_mastrovito(0b100011011)  # GF(2^8)
        cold = extract_expressions(net, engine=engine)
        cache = ResultCache(tmp_path / "cache")

        killed_run(net, cache, engine, 3)
        # The kill left exactly the 3 finished bits in the cone tier.
        cones = list((cache.version_dir / "cone").rglob("*.json"))
        assert len(cones) == 3

        resumed = rerun(net, cache, engine)
        assert resumed.cache == "miss"
        assert resumed.cones_reused == 3
        run = resumed.extraction.run
        origins = list(run.cache_provenance.values())
        assert origins.count("computed") == 8 - 3

        # Same per-bit expressions ...
        assert dict(run.expressions.items()) == dict(
            cold.expressions.items()
        )
        # ... and the same P(x) through Algorithm 2.
        cold_result = result_from_run(cold, 8)
        assert resumed.extraction.modulus == cold_result.modulus
        assert resumed.extraction.member_bits == cold_result.member_bits
        assert (
            resumed.extraction.polynomial_str == "x^8 + x^4 + x^3 + x + 1"
        )
        assert not (cache.version_dir / "jobs").exists()

    def test_cross_engine_resume(self, tmp_path, engine):
        """Bits stored by one backend resume under the other: cone
        entries are engine-neutral (Theorem 1)."""
        other = "bitpack" if engine == "reference" else "reference"
        net = generate_montgomery(0b1000011)  # GF(2^6)
        cache = ResultCache(tmp_path / "cache")

        killed_run(net, cache, engine, 2)

        resumed = rerun(net, cache, other)
        assert resumed.cones_reused == 2
        cold = extract_expressions(net, engine=other)
        assert dict(resumed.extraction.run.expressions.items()) == dict(
            cold.expressions.items()
        )


def test_a_term_limited_run_leaves_its_finished_bits_cached(tmp_path):
    """A memory-out at bit k keeps bits < k; the unbounded rerun
    reuses them and is bit-identical to a cold run."""
    net = generate_mastrovito(0b100011011)
    cold = extract_expressions(net, engine="bitpack")
    peaks = [cold.stats[f"z{i}"].peak_terms for i in range(8)]
    # The bit of the largest peak trips a limit set to the largest
    # peak before it; every earlier bit fits.
    k = peaks.index(max(peaks))
    assert k >= 2
    cache = ResultCache(tmp_path / "cache")

    with pytest.raises(TermLimitExceeded):
        run_mode(
            "extract", lambda: net, fingerprint_netlist(net), cache,
            engine="bitpack", term_limit=max(peaks[:k]),
        )

    resumed = rerun(net, cache, "bitpack")
    assert resumed.cones_reused == k
    assert dict(resumed.extraction.run.expressions.items()) == dict(
        cold.expressions.items()
    )


def test_each_cone_is_stored_once_before_its_bit_is_reported(
    tmp_path, monkeypatch
):
    net = generate_mastrovito(0b100011011)
    cache = ResultCache(tmp_path / "cache")
    digests = cone_fingerprints(net)
    puts = []
    put_cone = ResultCache.put_cone

    def spy(self, digest, output, *args, **kwargs):
        puts.append(output)
        return put_cone(self, digest, output, *args, **kwargs)

    monkeypatch.setattr(ResultCache, "put_cone", spy)
    reported = []

    def stored(output, cone, stats):
        reported.append(
            (output, cache.cone_path_for(digests[output]).exists())
        )

    extract_expressions(net, cache=cache, on_result=stored)
    outputs = [f"z{i}" for i in range(8)]
    assert reported == [(output, True) for output in outputs]
    assert puts == outputs
