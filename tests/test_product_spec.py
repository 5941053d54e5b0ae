"""The verifier's spec check read off P(x)'s reduction rows.

``ConeExpression.equals_product`` decides "is this cone output bit i
of A·B mod P(x)?" from a monomial count and a per-monomial test,
without building the specification polynomial.  These tests hold it
to the oracle (``spec_expressions`` and ``Gf2Poly ==``), per bit, for
both cone types: the packed sets bitpack rewrites and the decoded
polynomials a cone-cache hit yields.
"""

import pathlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import Aig, live_aig
from repro.engine import (
    PackedExpression,
    ReferenceExpression,
    SignalInterner,
    get_engine,
)
from repro.fieldmath.irreducible import default_irreducible
from repro.gen.faults import random_fault
from repro.gen.mastrovito import generate_mastrovito
from repro.gf2.polynomial import Gf2Poly
from repro.netlist.eqn_io import read_eqn, write_eqn
from repro.netlist.gate import EVALUATION, EVALUATION_2
from repro.rewrite.backward import BackwardRewriteError
from repro.rewrite.signature import ProductSpec, spec_expressions
from repro.service.cache import ResultCache
from repro.service.eco import eco_reverify
from repro.service.runner import CampaignRunner

from test_verify import ZOO_FORMS, ZOO_GENERATORS, zoo_and_mutants

ROOT = pathlib.Path(__file__).resolve().parent.parent


def packed_cone(monomials, leaves, extra=(), own_leaves=True):
    """A :class:`PackedExpression` of ``monomials`` over the leaf names
    ``leaves`` (then ``extra`` names above them).  With ``own_leaves``
    the leaf region is ``leaves`` alone, as a compiled program's is;
    otherwise it is every interned name."""
    interner = SignalInterner([*leaves, *extra])
    masks = {interner.pack(mono) for mono in monomials}
    if own_leaves:
        return PackedExpression(masks, interner, list(leaves))
    return PackedExpression(masks, interner)


def operand_names(m, seed=0):
    """The a/b leaf names in a shuffled order: nothing may rely on the
    leaf order a program happens to use."""
    names = [f"a{j}" for j in range(m)] + [f"b{k}" for k in range(m)]
    random.Random(seed).shuffle(names)
    return names


def both_cones(monomials, m, extra=()):
    """The same monomials as each cone type (two packed layouts)."""
    leaves = operand_names(m)
    return [
        ReferenceExpression(Gf2Poly.from_monomials(monomials)),
        packed_cone(monomials, leaves, extra),
        packed_cone(monomials, leaves, extra, own_leaves=False),
    ]


def oracle(cone, modulus, bit):
    return cone.decode() == spec_expressions(modulus)[bit]


def other_moduli(m):
    """Degree-m moduli besides the generator's: reducible ones too."""
    return [(1 << m) | 1, (1 << m) | 0b11, (1 << m) | ((1 << m) - 1)]


class TestAgainstTheOracleOverTheZoo:
    """Per bit, for every zoo netlist and its fault mutants, under the
    generator's P(x) and other moduli of the same degree."""

    @pytest.mark.parametrize("m", [5, 8])
    @pytest.mark.parametrize("form", sorted(ZOO_FORMS))
    @pytest.mark.parametrize("name", sorted(ZOO_GENERATORS))
    def test_both_cone_types(self, name, form, m):
        engine = get_engine("bitpack")
        moduli = [default_irreducible(m), *other_moduli(m)]
        specs = {modulus: ProductSpec(modulus) for modulus in moduli}
        checked = 0
        for netlist in zoo_and_mutants(name, form, m):
            for bit in range(m):
                try:
                    packed, _ = engine.rewrite_cone(netlist, f"z{bit}")
                except BackwardRewriteError:
                    continue
                cached = ReferenceExpression.from_json(packed.to_json())
                for modulus in moduli:
                    expected = oracle(cached, modulus, bit)
                    assert packed.equals_product(specs[modulus], bit) is (
                        expected
                    ), (netlist.name, bit, modulus)
                    assert cached.equals_product(specs[modulus], bit) is (
                        expected
                    ), (netlist.name, bit, modulus)
                    checked += expected
        assert checked >= m  # the clean netlist matched its own P(x)


M = 5
MODULUS = default_irreducible(M)


def spec_monomials(bit, modulus=MODULUS):
    return set(spec_expressions(modulus)[bit].monomials)


def pair_with(bit, name):
    """A monomial ``name·b_k`` of the spec of ``bit``."""
    return min(
        (mono for mono in spec_monomials(bit) if name in mono), key=sorted
    )


def replaced(monomials, old, new):
    """``monomials`` with ``old`` swapped for ``new``: same count."""
    assert old in monomials and new not in monomials
    return (monomials - {old}) | {new}


class TestHandMadeCones:
    """Each broken cone must fail on every cone type; most keep the
    spec's monomial count, so the per-monomial test must catch them."""

    bit = 2

    def variants(self):
        bit = self.bit
        spec = spec_monomials(bit)
        some = min(spec, key=sorted)
        rows = [
            degree for degree in range(2 * M - 1)
            if ProductSpec(MODULUS).covers[bit] >> degree & 1
        ]
        uncovered = next(
            frozenset({f"a{j}", f"b{k}"})
            for j in range(M) for k in range(M)
            if j + k not in rows
        )
        one = pair_with(bit, "a1")
        partner = next(name for name in one if name.startswith("b"))
        # a_M·b_k with M + k a covered degree: a naive index sum would
        # accept it.
        high = next(
            frozenset({f"a{M}", f"b{degree - M}"})
            for degree in rows if degree >= M
        )
        # a_j·a_k (and b_j·b_k) with j + k a covered degree.
        j, k = next(
            (j, k) for j in range(M) for k in range(j + 1, M)
            if j + k in rows
        )
        two_a = frozenset({f"a{j}", f"a{k}"})
        two_b = frozenset({f"b{j}", f"b{k}"})
        return {
            "extra": spec | {uncovered},
            "missing": spec - {some},
            "swapped for an uncovered pair": replaced(spec, some, uncovered),
            "constant": replaced(spec, some, frozenset()),
            "one variable": replaced(spec, some, frozenset({"a0"})),
            "three variables": replaced(
                spec, some, some | {next(
                    f"a{j}" for j in range(M) if f"a{j}" not in some
                )}
            ),
            "leftover node variable": replaced(
                spec, some, frozenset({partner, "n7"})
            ),
            "node variable beside a pair": replaced(
                spec, some, some | {"n7"}
            ),
            "a01": replaced(spec, one, frozenset({"a01", partner})),
            f"a{M}": replaced(spec, some, high),
            "two a names": replaced(spec, some, two_a),
            "two b names": replaced(spec, some, two_b),
        }

    def test_the_spec_itself_passes(self):
        for bit in range(M):
            for cone in both_cones(spec_monomials(bit), M):
                assert cone.equals_product(ProductSpec(MODULUS), bit)

    @pytest.mark.parametrize("case", [
        "extra", "missing", "swapped for an uncovered pair", "constant",
        "one variable", "three variables", "leftover node variable",
        "node variable beside a pair", "a01", f"a{M}", "two a names",
        "two b names",
    ])
    def test_broken_cone_fails(self, case):
        monomials = self.variants()[case]
        extra = sorted(
            {name for mono in monomials for name in mono}
            - set(operand_names(M))
        )
        spec = ProductSpec(MODULUS)
        for cone in both_cones(monomials, M, extra):
            assert not oracle(cone, MODULUS, self.bit)
            assert not cone.equals_product(spec, self.bit), (case, cone)

    def test_counts_are_the_spec_sizes(self):
        """The closed-form count, against the oracle's term counts."""
        for modulus in [MODULUS, *other_moduli(M), 0b111, 0b1011]:
            spec = ProductSpec(modulus)
            assert spec.counts == [
                len(poly) for poly in spec_expressions(modulus)
            ]

    def test_leaf_codes_are_built_once_per_leaf_list(self):
        spec = ProductSpec(MODULUS)
        leaves = operand_names(M)
        assert spec.leaf_codes(leaves) is spec.leaf_codes(leaves)
        assert spec.leaf_codes(list(leaves)) == spec.leaf_codes(leaves)


moduli = st.integers(min_value=2, max_value=12).flatmap(
    lambda m: st.integers(min_value=1 << m, max_value=(1 << (m + 1)) - 1)
)


class TestRandomModuli:
    @settings(max_examples=60, deadline=None)
    @given(modulus=moduli, other=st.integers(min_value=0), data=st.data())
    def test_agrees_with_the_oracle(self, modulus, other, data):
        """Over any degree-m modulus, m <= 12, reducible or not: the
        spec passes, a toggled partial product fails, and another
        modulus' spec passes exactly when the oracle says equal."""
        m = modulus.bit_length() - 1
        bit = data.draw(st.integers(min_value=0, max_value=m - 1))
        j = data.draw(st.integers(min_value=0, max_value=m - 1))
        k = data.draw(st.integers(min_value=0, max_value=m - 1))
        second = (1 << m) | (other % (1 << m))
        spec = set(spec_expressions(modulus)[bit].monomials)
        toggled = spec ^ {frozenset({f"a{j}", f"b{k}"})}
        rows, second_rows = ProductSpec(modulus), ProductSpec(second)
        for cone in both_cones(spec, m):
            assert cone.equals_product(rows, bit)
            assert cone.equals_product(second_rows, bit) is oracle(
                cone, second, bit
            )
        for cone in both_cones(toggled, m):
            assert not cone.equals_product(rows, bit)


class TestNoSpecPolynomialOnTheEnginePath:
    """A bitpack audit and an eco re-audit never build the spec."""

    @pytest.fixture
    def no_spec(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("spec_expressions was called")

        monkeypatch.setattr(
            "repro.rewrite.signature.spec_expressions", refuse
        )

    def test_bitpack_audit(self, tmp_path, no_spec):
        path = tmp_path / "m8.eqn"
        write_eqn(generate_mastrovito(default_irreducible(8)), path)
        record = CampaignRunner(
            mode="audit", cache_dir=tmp_path / "cache"
        ).run([path]).records[0]
        assert record["status"] == "ok" and record["equivalent"] is True

    def test_eco_reaudit(self, tmp_path, no_spec):
        base = generate_mastrovito(default_irreducible(8))
        mutant, _ = random_fault(base, seed=7)
        paths = []
        for name, netlist in (("base", base), ("edit", mutant)):
            paths.append(tmp_path / f"{name}.eqn")
            write_eqn(netlist, paths[-1])
        cache = ResultCache(tmp_path / "cache")
        clean = eco_reverify(paths[0], paths[0], cache)
        assert clean.ok and clean.equivalent
        edited = eco_reverify(paths[0], paths[1], cache)
        assert not edited.equivalent

    def test_reference_verification_still_uses_the_oracle(self, no_spec):
        from repro.extract.extractor import extract_irreducible_polynomial
        from repro.extract.verify import verify_multiplier

        netlist = generate_mastrovito(default_irreducible(5))
        result = extract_irreducible_polynomial(netlist)
        with pytest.raises(AssertionError, match="spec_expressions"):
            verify_multiplier(netlist, result, engine="reference")


TWO_OPERAND = sorted(EVALUATION_2, key=lambda gtype: gtype.value)


@pytest.mark.parametrize("gtype", TWO_OPERAND, ids=lambda t: t.value)
def test_fixed_arity_entries_equal_evaluation(gtype):
    rng = random.Random(gtype.value)
    for width in (1, 7, 64, 516):
        mask = (1 << width) - 1
        for _ in range(20):
            a, b = rng.getrandbits(width), rng.getrandbits(width)
            assert EVALUATION_2[gtype](mask, a, b) == EVALUATION[gtype](
                mask, a, b
            )


def perfbench_smoke_netlists(tmp_path):
    """The perfbench smoke inputs of seeds 1-2 (ladder, eco, triage)."""
    pytest.importorskip("numpy")  # perfbench's input generator uses it
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from inputs import ensure_inputs
    finally:
        sys.path.pop(0)
    for seed in (1, 2):
        for kind in ("ladder", "eco", "triage"):
            folder, _ = ensure_inputs(
                tmp_path, kind, seed, smoke=True, edits=2
            )
            for path in sorted(folder.glob("*.eqn")):
                yield read_eqn(str(path))


def assert_same_live_map(netlist):
    swept = Aig.from_netlist(netlist).swept().net_literal
    live = live_aig(netlist).net_literal
    assert list(live.items()) == list(swept.items())


class TestLiveAigNetMap:
    """``live_aig`` builds the swept map from the strash's literal list
    without the unswept map: same content, same order."""

    @pytest.mark.parametrize("form", sorted(ZOO_FORMS))
    @pytest.mark.parametrize("name", sorted(ZOO_GENERATORS))
    def test_zoo(self, name, form):
        for netlist in zoo_and_mutants(name, form, 8):
            assert_same_live_map(netlist)

    def test_perfbench_inputs(self, tmp_path):
        count = 0
        for netlist in perfbench_smoke_netlists(tmp_path):
            assert_same_live_map(netlist)
            count += 1
        assert count > 10
