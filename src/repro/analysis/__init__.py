"""Analysis and reporting utilities for the evaluation harnesses.

``xor_count``
    the Section II-D / Figure 1 analysis: reduction tables and XOR
    cost of candidate irreducible polynomials;
``tables``
    paper-style ASCII tables (Tables I-IV are regenerated in this
    format by the benchmark harnesses);
``instrument``
    runtime/peak-memory measurement helpers shared by the benchmarks;
``predict``
    the quantitative cost model behind Table IV / Figure 4: per-column
    XOR estimates from P(x) alone, polynomial ranking, and the
    predicted-vs-measured correlation.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "figure1_report": "repro.analysis.xor_count",
    "multiplication_example": "repro.analysis.xor_count",
    "xor_cost_comparison": "repro.analysis.xor_count",
    "Table": "repro.analysis.tables",
    "Measurement": "repro.analysis.instrument",
    "measure": "repro.analysis.instrument",
    "cost_correlation": "repro.analysis.predict",
    "predicted_column_cost": "repro.analysis.predict",
    "predicted_total_cost": "repro.analysis.predict",
    "rank_polynomials": "repro.analysis.predict",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
