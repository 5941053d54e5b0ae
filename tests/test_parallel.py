"""Tests for the per-output-bit extraction driver."""

import pytest

from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.rewrite.backward import TermLimitExceeded
from repro.rewrite.parallel import extract_expressions


class TestSequential:
    def test_all_outputs_extracted(self):
        netlist = generate_mastrovito(0b10011)
        run = extract_expressions(netlist)
        assert set(run.expressions) == {"z0", "z1", "z2", "z3"}

    def test_subset_of_outputs(self):
        netlist = generate_mastrovito(0b10011)
        run = extract_expressions(netlist, outputs=["z2"])
        assert set(run.expressions) == {"z2"}

    def test_aggregate_stats(self):
        # Gate-granular counts: bitpack flattens these cones at compile
        # time and reports zero iterations.
        netlist = generate_mastrovito(0b10011)
        run = extract_expressions(netlist, engine="reference")
        assert run.total_iterations >= len(netlist.outputs)
        assert run.peak_terms >= 1
        assert run.wall_time_s >= 0

    def test_term_limit_raises(self):
        netlist = generate_montgomery(0b10011)
        with pytest.raises(TermLimitExceeded):
            extract_expressions(netlist, term_limit=3)


class TestPerBitSeries:
    def test_series_sorted_by_position(self):
        netlist = generate_mastrovito(0b10011)
        run = extract_expressions(netlist)
        series = run.per_bit_runtimes()
        assert [pos for pos, _ in series] == [0, 1, 2, 3]
        assert all(runtime >= 0 for _, runtime in series)
