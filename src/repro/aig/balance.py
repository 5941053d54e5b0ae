"""XOR- and AND-tree rebalancing as AIG→AIG passes.

GF(2^m) multipliers are dominated by XOR trees, and naive elaboration
produces linear-depth chains.  :func:`balance_xor_trees` collects
each maximal single-fanout XOR tree into its leaf multiset, cancels
duplicate leaves mod 2, and re-emits a balanced tree.  On the AIG this
is both simpler and stronger than over named nets:

* fanin complements are already pulled to the edges, so XNOR chains
  participate in the same trees;
* duplicate-leaf cancellation composes with the hash-consed
  constructor's own cancellation (``x ⊕ x = 0`` by construction);
* the rebuilt graph is re-hash-consed, so balancing can only ever
  share more structure, never duplicate it.

:func:`balance_and_trees` is the AND-side counterpart: maximal
single-fanout AND chains (an AND fanin edge must be *uncomplemented*
to dissolve — a complemented edge feeds the child's negation, which is
not part of the product) are collected into their leaf-literal set,
idempotence (``x·x = x``) applied, and re-emitted as a balanced tree.
Multiplier partial-product rows and the AND cones technology mapping
leaves behind get logarithmic depth the same way the XOR trees do.

Both passes are one parametrized rebuild (:func:`_rebuild_balanced`):
the liveness/refs accounting, the tree-dissolve rule and the
leaf-to-literal mapping are shared, and only two decisions differ —
which node kind forms trees, and whether duplicate leaves cancel
mod 2 (XOR) or dedupe (AND).
"""

from __future__ import annotations

from typing import Dict, List

from repro.aig.aig import Aig, lit_complement, lit_node


def balance_xor_trees(aig: Aig) -> Aig:
    """Return a rebuilt AIG with balanced, leaf-cancelled XOR trees.

    >>> aig = Aig()
    >>> a, b = aig.add_input("a"), aig.add_input("b")
    >>> chain = aig.aig_xor(aig.aig_xor(a, b), a)     # a ⊕ b ⊕ a
    >>> aig.add_output("y", chain)
    >>> balanced = balance_xor_trees(aig)
    >>> balanced.simulate({"a": 1, "b": 1})["y"]
    1
    """
    return _rebuild_balanced(aig, tree_kind="xor")


def balance_and_trees(aig: Aig) -> Aig:
    """Return a rebuilt AIG with balanced, deduplicated AND trees.

    >>> aig = Aig()
    >>> a, b, c = (aig.add_input(n) for n in "abc")
    >>> chain = aig.aig_and(aig.aig_and(aig.aig_and(a, b), c), a)
    >>> aig.add_output("y", chain)
    >>> balanced = balance_and_trees(aig)
    >>> balanced.simulate({"a": 1, "b": 1, "c": 1})["y"]
    1
    """
    return _rebuild_balanced(aig, tree_kind="and")


def _rebuild_balanced(aig: Aig, tree_kind: str) -> Aig:
    """Collect maximal single-fanout trees of one kind and re-emit
    them balanced; every other node is rebuilt 1:1 (re-hash-consed).
    """
    xor_trees = tree_kind == "xor"
    is_tree_node = aig.is_xor if xor_trees else aig.is_and
    live = aig.live_nodes()
    live_set = set(live)

    # Reference counts over the live graph (outputs count as refs): a
    # tree-kind node is *internal* — dissolvable into its consumer's
    # tree — when its only consumer is another live node of the same
    # kind reached through an uncomplemented edge (XOR fanins are
    # stored uncomplemented by construction; for AND a complemented
    # edge feeds the child's negation, a different factor) and it is
    # not a PO root.
    refs: Dict[int, int] = {}
    tree_consumers: Dict[int, int] = {}
    for node in live:
        if not (aig.is_and(node) or aig.is_xor(node)):
            continue
        for lit in aig.fanins(node):
            child = lit_node(lit)
            refs[child] = refs.get(child, 0) + 1
            if is_tree_node(node) and not (lit & 1):
                tree_consumers[child] = tree_consumers.get(child, 0) + 1
    for _, lit in aig.outputs:
        node = lit_node(lit)
        refs[node] = refs.get(node, 0) + 1

    def is_internal(node: int) -> bool:
        return (
            is_tree_node(node)
            and node in live_set
            and refs.get(node, 0) == 1
            and tree_consumers.get(node, 0) == 1
        )

    result = Aig(aig.name)
    # Declared inputs first (and in order) so they survive the round
    # trip even when unused; undeclared leaves stay undeclared.
    for name in aig.inputs:
        result.add_input(name)
    new_lit: Dict[int, int] = {0: 0}
    for node in live:
        if aig.is_leaf(node):
            new_lit[node] = result.add_input(
                aig.pi_name[node], declare=False
            )

    def leaf_literals(root: int) -> List[int]:
        # Leaf *literals* of the maximal tree at ``root`` (for AND the
        # complement matters: ``a · ¬b`` keeps both factors distinct;
        # XOR edges carry none).  Duplicates cancel mod 2 for XOR and
        # dedupe for AND.  Explicit stack: the motivating input is a
        # linear-depth chain, which would blow the recursion limit.
        counts: Dict[int, int] = {}
        stack = [root]
        while stack:
            node = stack.pop()
            for lit in aig.fanins(node):
                if not (lit & 1) and is_internal(lit_node(lit)):
                    stack.append(lit_node(lit))
                else:
                    counts[lit] = counts.get(lit, 0) + 1
        if xor_trees:
            return sorted(lit for lit, count in counts.items() if count & 1)
        return sorted(counts)

    for node in live:
        if not (aig.is_and(node) or aig.is_xor(node)):
            continue
        if is_tree_node(node):
            if is_internal(node):
                continue  # absorbed by the root that reaches it
            lits = [
                new_lit[lit_node(lit)] ^ (lit & 1)
                for lit in leaf_literals(node)
            ]
            combine = result.aig_xor_all if xor_trees else result.aig_and_all
            new_lit[node] = combine(lits)
        else:
            f0, f1 = aig.fanins(node)
            rebuild = result.aig_xor if aig.is_xor(node) else result.aig_and
            new_lit[node] = rebuild(
                new_lit[lit_node(f0)] ^ (f0 & 1),
                new_lit[lit_node(f1)] ^ (f1 & 1),
            )

    for name, lit in aig.outputs:
        mapped = new_lit[lit_node(lit)]
        result.add_output(name, lit_complement(mapped) if lit & 1 else mapped)
    return result
