"""Signal interning — the name⇄bit-index dictionary of one cone.

The bit-packed engine never touches signal names on its hot path: every
signal occurring in an output cone is *interned* to a small integer bit
index, a monomial becomes a single python ``int`` bitmask, and monomial
multiplication / variable stripping become ``|`` / ``& ~mask``.  The
interner is the only component that still knows the names, so it also
owns the decode direction (mask → :data:`~repro.gf2.monomial.Monomial`)
used at the API boundary.

Index assignment is first-seen order.  The packed engines intern the
netlist's leaves first, in one order every cone shares, and number
the AIG node variables of a cone above them as the backward walk meets
them, so a variable's bit is allocated shortly before its node is
eliminated again, which keeps the live bitmasks compact.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.gf2.monomial import Monomial


class SignalInterner:
    """Bidirectional map between signal names and bit indices."""

    __slots__ = ("_index", "_names")

    def __init__(self, names: Iterable[str] = ()):
        self._index: Dict[str, int] = {}
        self._names: List[str] = []
        for name in names:
            self.index(name)

    @classmethod
    def adopt(
        cls, index: Dict[str, int], names: List[str]
    ) -> "SignalInterner":
        """Wrap already-built interning tables without copying.

        The caller hands over ownership: ``names[index[n]] == n`` must
        hold for every entry, and the tables must not be mutated
        afterwards except through the interner.  The bit-packed engine
        uses this to run its hot loop on raw dict/list locals and only
        materialise the interner for the result.
        """
        interner = cls.__new__(cls)
        interner._index = index
        interner._names = names
        return interner

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    @property
    def names(self) -> List[str]:
        """Interned names in index order (index ``i`` → ``names[i]``)."""
        return list(self._names)

    def index(self, name: str) -> int:
        """Bit index of ``name``, interning it on first sight."""
        idx = self._index.get(name)
        if idx is None:
            idx = len(self._names)
            self._index[name] = idx
            self._names.append(name)
        return idx

    def index_of(self, name: str) -> Optional[int]:
        """Bit index of an already-interned name, else ``None``."""
        return self._index.get(name)

    def pack(self, mono: Monomial) -> int:
        """Pack a monomial into a bitmask, interning new names.

        The constant monomial ``1`` (empty set) packs to ``0``.
        """
        mask = 0
        for name in mono:
            mask |= 1 << self.index(name)
        return mask

    def try_pack(self, mono: Monomial) -> Optional[int]:
        """Pack without interning; ``None`` when a name is unknown.

        Used by membership tests: a monomial over a never-seen signal
        cannot occur in any expression of this cone.
        """
        mask = 0
        index = self._index
        for name in mono:
            idx = index.get(name)
            if idx is None:
                return None
            mask |= 1 << idx
        return mask

    def unpack(self, mask: int) -> Monomial:
        """Decode a bitmask back to a monomial (frozenset of names)."""
        return frozenset(self.names_of(mask))

    def names_of(self, mask: int) -> List[str]:
        """Names of the set bits of ``mask`` (ascending index order)."""
        names = self._names
        out: List[str] = []
        while mask:
            low = mask & -mask
            out.append(names[low.bit_length() - 1])
            mask ^= low
        return out
