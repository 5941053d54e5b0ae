"""Design-choice ablations called out in DESIGN.md.

Two knobs of our substrate affect extraction cost but not function:

* **XOR tree shape** — generators can emit balanced trees (synthesis
  style) or linear chains (naive elaboration style).  Rewriting walks
  gates in reverse topological order either way; the ablation measures
  how much the tree shape moves runtime and peak term counts.
* **Redundancy + synthesis pipeline stages** — from raw decorated
  netlists through the AIG passes (strash with constant propagation,
  XOR balancing, AND balancing) and technology mapping, how does each
  stage change the extraction cost?  (Table III measures the two
  endpoints; this bench fills in the curve.)
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit, sizes
from repro.aig import Aig, balance_and_trees, balance_xor_trees
from repro.analysis.instrument import measure
from repro.analysis.tables import Table
from repro.extract.extractor import extract_irreducible_polynomial
from repro.fieldmath.irreducible import default_irreducible
from repro.fieldmath.polynomial_db import PAPER_POLYNOMIALS
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.redundancy import decorate_with_redundancy
from repro.synth.mapping import technology_map

#: Full paper-scale harness - excluded from quick CI runs.
pytestmark = pytest.mark.slow

SIZES = sizes(
    quick=[8],
    default=[16, 32],
    paper=[64],
)

_TREE_ROWS = []
_STAGE_ROWS = []


def _polynomial_for(m: int) -> int:
    return PAPER_POLYNOMIALS.get(m, default_irreducible(m))


@pytest.mark.parametrize("shape", ["balanced", "chain"])
@pytest.mark.parametrize("m", SIZES)
def test_tree_shape_ablation(benchmark, shape, m):
    modulus = _polynomial_for(m)
    netlist = generate_mastrovito(modulus, balanced=(shape == "balanced"))
    measured = measure(
        lambda: benchmark.pedantic(
            lambda: extract_irreducible_polynomial(netlist, engine="reference"),
            rounds=1,
            iterations=1,
        )
    )
    assert measured.value.modulus == modulus
    _TREE_ROWS.append(
        {
            "shape": shape,
            "m": m,
            "depth": netlist.stats().depth,
            "runtime": measured.value.total_time_s,
            "peak_terms": measured.value.run.peak_terms,
        }
    )


def test_tree_shape_report():
    assert _TREE_ROWS
    table = Table(
        ["tree shape", "m", "depth", "Runtime(s)", "peak terms"],
        title="Ablation: balanced XOR trees vs linear chains "
              "(same function, different netlist shape)",
    )
    for row in sorted(_TREE_ROWS, key=lambda r: (r["m"], r["shape"])):
        table.add_row(
            [row["shape"], row["m"], row["depth"],
             f"{row['runtime']:.3f}", row["peak_terms"]]
        )
    emit("ablation_tree_shape", table.render())

    # Shape: chains are deeper, but extraction cost stays in the same
    # ballpark — peak term count is driven by cone content, not shape.
    for m in {row["m"] for row in _TREE_ROWS}:
        rows = {r["shape"]: r for r in _TREE_ROWS if r["m"] == m}
        assert rows["chain"]["depth"] >= rows["balanced"]["depth"]


def _strashed(net):
    """Decorate, then build the AIG: strash and constprop by construction."""
    return Aig.from_netlist(decorate_with_redundancy(net))


def _balanced(net):
    return balance_and_trees(balance_xor_trees(_strashed(net)))


#: The synthesis pipeline unrolled stage by stage.
_STAGES = [
    ("raw+redundancy", decorate_with_redundancy),
    ("+strash", lambda net: _strashed(net).to_netlist()),
    (
        "+xor-balance",
        lambda net: balance_xor_trees(_strashed(net)).to_netlist(),
    ),
    ("+and-balance", lambda net: _balanced(net).to_netlist()),
    (
        "+tech-map",
        lambda net: technology_map(_balanced(net).to_netlist()),
    ),
]


@pytest.mark.parametrize(
    "stage, pipeline", _STAGES, ids=[name for name, _ in _STAGES]
)
@pytest.mark.parametrize("m", SIZES)
def test_pipeline_stage_ablation(benchmark, stage, pipeline, m):
    modulus = _polynomial_for(m)
    netlist = pipeline(generate_mastrovito(modulus))
    measured = measure(
        lambda: benchmark.pedantic(
            lambda: extract_irreducible_polynomial(netlist, engine="reference"),
            rounds=1,
            iterations=1,
        )
    )
    assert measured.value.modulus == modulus
    _STAGE_ROWS.append(
        {
            "stage": stage,
            "m": m,
            "eqns": len(netlist),
            "runtime": measured.value.total_time_s,
        }
    )


def test_pipeline_stage_report():
    assert _STAGE_ROWS
    order = {name: idx for idx, (name, _) in enumerate(_STAGES)}
    table = Table(
        ["pipeline stage", "m", "#eqns", "Runtime(s)"],
        title="Ablation: extraction cost through the synthesis pipeline "
              "(Table III endpoints, curve filled in)",
    )
    for row in sorted(
        _STAGE_ROWS, key=lambda r: (r["m"], order[r["stage"]])
    ):
        table.add_row(
            [row["stage"], row["m"], row["eqns"], f"{row['runtime']:.3f}"]
        )
    emit("ablation_pipeline_stages", table.render())

    # Shape: strash removes the decoration, so gate count drops
    # sharply between raw+redundancy and +strash at every size.
    for m in {row["m"] for row in _STAGE_ROWS}:
        rows = {r["stage"]: r for r in _STAGE_ROWS if r["m"] == m}
        if {"raw+redundancy", "+strash"} <= set(rows):
            assert rows["+strash"]["eqns"] < rows["raw+redundancy"]["eqns"]
