"""Canonical, strash-invariant content hashing of netlists.

The service layer addresses every artifact by *what the netlist
computes structurally*, not by file name or byte content.  Since the
AIG refactor the canonical form **is** the hash-consed And-Inverter
Graph (:mod:`repro.aig`): the netlist is lowered once with
:meth:`~repro.aig.Aig.from_netlist` — CSE, BUF aliasing, INV-pair
removal and constant folding happen by construction — and the Merkle
labels are derived from the node table in a single traversal instead
of a separate strash pass plus relabelling.  The lowering is the
netlist's memoized live graph (:func:`repro.aig.live_aig`), which the
bitpack engine compiles from too, and the fingerprint and cone
digests are memoized next to it: every caller in one request shares a
single strash and a single labelling.  The fingerprint is a
sha256 over that form, with the three documented invariances:

* **gate order** — node labels are computed bottom-up from fan-in and
  the label multiset is sorted, so insertion/serialization order is
  irrelevant;
* **internal net names** — a node's label is derived from its kind
  and its fanins' labels (hash-consing), never from the net name a
  tool happened to pick; primary ports keep their names (the a/b/z
  port contract is part of the key);
* **strash** — structurally redundant forms (shared-structure
  duplicates, buffer chains, inverter pairs, and — stronger than the
  old netlist-level strash — De-Morgan/XNOR recodings of the same
  AND/XOR/complement graph) collapse to the same fingerprint.

The label scheme is exactly a Merkle DAG over the AIG: ``label(PI) =
H("pi:" + name)``, ``label(node) = H(kind, edge labels)`` with edges
sorted (AND/XOR are commutative) and a complemented edge marked with
``!``.  The fingerprint hashes the port signature (input names sorted,
output names *in declaration order* with their edge labels) plus the
sorted label multiset of the live nodes, and is prefixed with the
schema version so canonical-form changes never alias old cache
entries — including this one: the AIG derivation is schema 2.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from repro.aig import Aig, live_aig
from repro.aig.aig import KIND_AND, KIND_PI, KIND_XOR
from repro.netlist.netlist import Netlist

#: Version of the canonical form; bump on any change to the labelling
#: scheme so old cache entries can never be misattributed.  Schema 3:
#: the AIG constructor recognises the NAND/AOI decompositions of
#: XOR/XNOR/MUX, so NAND-lowered netlists strash to first-class XOR
#: nodes and collapse with their unmapped twins' recodings (schema 2:
#: Merkle labels over the hash-consed AIG node table; schema 1:
#: labelled the strashed netlist gate-by-gate).
FINGERPRINT_SCHEMA = 3


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _edge_label(labels: List[str], lit: int) -> str:
    label = labels[lit >> 1]
    return "!" + label if lit & 1 else label


def _canonical_labels(aig: Aig) -> List[str]:
    """Merkle label of every node of a swept graph, by node id, in one
    ascending traversal (:meth:`~repro.aig.Aig.swept` keeps only the
    outputs' fan-in, plus leaves, whose labels the digests ignore)."""
    sha256 = hashlib.sha256
    kinds = aig.kinds
    fanin0 = aig.fanin0
    fanin1 = aig.fanin1
    pi_name = aig.pi_name
    labels: List[str] = [_digest("const0")]
    append = labels.append
    for node in range(1, len(kinds)):
        kind = kinds[node]
        if kind == KIND_PI:
            append(_digest(f"pi:{pi_name[node]}"))
            continue
        f0 = fanin0[node]
        f1 = fanin1[node]
        label0 = labels[f0 >> 1]
        if f0 & 1:
            label0 = "!" + label0
        label1 = labels[f1 >> 1]
        if f1 & 1:
            label1 = "!" + label1
        if label1 < label0:
            label0, label1 = label1, label0
        payload = ("and:" if kind == KIND_AND else "xor:") + label0
        append(sha256((payload + "," + label1).encode()).hexdigest())
    return labels


def _fingerprint_from_labels(
    netlist: Netlist, aig: Aig, labels: List[str]
) -> str:
    ports = [
        "in:" + ",".join(sorted(netlist.inputs)),
        "out:" + ",".join(
            f"{name}={_edge_label(labels, lit)}" for name, lit in aig.outputs
        ),
    ]
    kinds = aig.kinds
    node_labels: List[str] = sorted(
        label
        for label, kind in zip(labels, kinds)
        if kind == KIND_AND or kind == KIND_XOR
    )
    payload = "\n".join(
        [f"schema:{FINGERPRINT_SCHEMA}"] + ports + node_labels
    )
    return f"v{FINGERPRINT_SCHEMA}-{_digest(payload)}"


def _cone_digest(name: str, edge_label: str) -> str:
    return _digest(f"cone:{FINGERPRINT_SCHEMA}:{name}={edge_label}")


def _memoized(netlist: Netlist) -> Tuple[str, Dict[str, str]]:
    """Fingerprint and cone digests, derived once per netlist.

    Both come from one labelling of the netlist's memoized live graph
    (:func:`repro.aig.live_aig`) and are kept in the netlist's memo;
    the labels themselves are dropped once the digests exist.
    """
    memo = netlist.memo()
    if "cones" not in memo:
        aig = live_aig(netlist)
        labels = _canonical_labels(aig)
        memo["fingerprint"] = _fingerprint_from_labels(netlist, aig, labels)
        memo["cones"] = {
            name: _cone_digest(name, _edge_label(labels, lit))
            for name, lit in aig.outputs
        }
    return memo["fingerprint"], memo["cones"]


def fingerprint_netlist(netlist: Netlist) -> str:
    """The content address of a netlist: ``v<schema>-<sha256 hex>``.

    >>> from repro.gen.mastrovito import generate_mastrovito
    >>> a = fingerprint_netlist(generate_mastrovito(0b10011))
    >>> b = fingerprint_netlist(generate_mastrovito(0b10011))
    >>> c = fingerprint_netlist(generate_mastrovito(0b11001))
    >>> a == b, a == c
    (True, False)
    """
    return netlist.memo().get("fingerprint") or _memoized(netlist)[0]


def cone_fingerprints(netlist: Netlist) -> Dict[str, str]:
    """Per-output-cone digests: ``{output name: sha256 hex}``.

    The canonical labels are already a Merkle tree over the AIG, so
    an output's edge label *is* a digest of its entire transitive
    fan-in — one traversal yields every cone's fingerprint.  Each
    digest folds in the output's name (the z-port position is part of
    what a cached per-bit result means) and the fingerprint schema,
    and inherits every invariance of :func:`fingerprint_netlist`:
    editing a gate changes exactly the digests of the cones that see
    it, while strash-equivalent edits (gate reorder, BUF chains,
    inverter pairs, De-Morgan recodings) change none.

    >>> from repro.gen.mastrovito import generate_mastrovito
    >>> cones = cone_fingerprints(generate_mastrovito(0b10011))
    >>> sorted(cones) == ["z0", "z1", "z2", "z3"]
    True
    """
    return dict(_memoized(netlist)[1])


def fingerprint_with_cones(
    netlist: Netlist,
) -> Tuple[str, Dict[str, str]]:
    """``(fingerprint_netlist(n), cone_fingerprints(n))`` from one
    AIG lowering — the ECO path needs both, and the lowering (strash)
    dominates the cost of either."""
    fingerprint, cones = _memoized(netlist)
    return fingerprint, dict(cones)


def remember_fingerprint(
    netlist: Netlist,
    fingerprint: str,
    cones: Optional[Dict[str, str]] = None,
) -> None:
    """Seed the netlist's memo with an externally known fingerprint
    (and cone digests), e.g. from the stat-validated file memo of
    :class:`repro.service.cache.ResultCache`, so the parsed netlist is
    never hashed for them."""
    memo = netlist.memo()
    memo["fingerprint"] = fingerprint
    if cones is not None:
        memo["cones"] = dict(cones)
