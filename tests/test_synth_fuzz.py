"""Property-based fuzzing of the synthesis passes on random netlists.

Multiplier-shaped tests cannot reach many pass corner cases (constant
subtrees, MUX folding, dead AOI cones, INV chains into complex cells);
random DAGs do.  Every pass must preserve the simulated function on
every input assignment, and the structural guarantees (never growing,
dead logic removed) must hold for arbitrary inputs.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aig import Aig, balance_xor_trees
from repro.gen.random_logic import generate_random_netlist
from repro.synth.pipeline import synthesize
from repro.synth.strash import structural_hash
from repro.synth.sweep import sweep_dead_gates
from repro.synth.mapping import technology_map

_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _all_assignments(netlist):
    inputs = sorted(netlist.inputs)
    for pattern in range(1 << len(inputs)):
        yield {
            name: (pattern >> idx) & 1
            for idx, name in enumerate(inputs)
        }


def _equivalent(lhs, rhs) -> bool:
    return all(
        lhs.simulate(env) == rhs.simulate(env)
        for env in _all_assignments(lhs)
    )


class TestPassesPreserveFunction:
    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000))
    def test_constprop(self, seed):
        # Constant propagation happens while the AIG is built.
        netlist = generate_random_netlist(seed)
        assert _equivalent(netlist, Aig.from_netlist(netlist).to_netlist())

    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000))
    def test_strash(self, seed):
        netlist = generate_random_netlist(seed)
        assert _equivalent(netlist, structural_hash(netlist))

    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000))
    def test_xor_rebalance(self, seed):
        netlist = generate_random_netlist(seed)
        balanced = balance_xor_trees(Aig.from_netlist(netlist))
        assert _equivalent(netlist, balanced.to_netlist())

    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000))
    def test_technology_map(self, seed):
        netlist = generate_random_netlist(seed)
        assert _equivalent(netlist, technology_map(netlist))

    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000), use_xor=st.booleans())
    def test_full_pipeline(self, seed, use_xor):
        netlist = generate_random_netlist(seed)
        assert _equivalent(
            netlist, synthesize(netlist, use_xor_cells=use_xor)
        )


class TestStructuralGuarantees:
    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000))
    def test_sweep_output_is_fixpoint(self, seed):
        netlist = generate_random_netlist(seed)
        swept = sweep_dead_gates(netlist)
        assert len(sweep_dead_gates(swept)) == len(swept)

    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000))
    def test_strash_never_grows(self, seed):
        netlist = generate_random_netlist(seed)
        assert len(structural_hash(netlist)) <= len(netlist)

    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000))
    def test_sweep_never_grows(self, seed):
        netlist = generate_random_netlist(seed)
        assert len(sweep_dead_gates(netlist)) <= len(netlist)

    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000))
    def test_passes_leave_original_untouched(self, seed):
        netlist = generate_random_netlist(seed)
        before = [str(gate) for gate in netlist.gates]
        synthesize(netlist)
        assert [str(gate) for gate in netlist.gates] == before

    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000))
    def test_generator_deterministic(self, seed):
        lhs = generate_random_netlist(seed)
        rhs = generate_random_netlist(seed)
        assert [str(g) for g in lhs.gates] == [str(g) for g in rhs.gates]
        assert lhs.outputs == rhs.outputs
