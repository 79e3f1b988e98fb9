"""Category vectors: instructions → 64-component counts.

The architecture description file classifies every mnemonic into one of 64
categories (paper §III-C.6, Table II).  A :class:`CategoryVector` is the
per-cost-center count over those categories; the metric generator multiplies
vectors by iteration-domain sizes and sums them into function totals.

Vectors are small numpy int64 arrays: addition and scaling are exact and
fast, which matters because the dynamic substrate accumulates millions of
them (guides: vectorize with NumPy rather than Python loops).
"""

from __future__ import annotations

import numpy as np

from ..compiler.arch import ArchDescription, CATEGORY_NAMES
from .linemap import CostCenter

__all__ = ["CategoryVector", "vector_for_center", "vector_for_mnemonics",
           "NCAT"]

NCAT = len(CATEGORY_NAMES)
_CAT_INDEX = {name: i for i, name in enumerate(CATEGORY_NAMES)}


class CategoryVector:
    """An exact per-category instruction count."""

    __slots__ = ("counts",)

    def __init__(self, counts: np.ndarray | None = None) -> None:
        if counts is None:
            counts = np.zeros(NCAT, dtype=np.int64)
        self.counts = counts

    # -- construction ------------------------------------------------------------
    @staticmethod
    def zero() -> "CategoryVector":
        return CategoryVector()

    @staticmethod
    def from_dict(d: dict) -> "CategoryVector":
        """Inverse of :meth:`as_dict` (serialized-model restoration)."""
        from ..errors import SchemaError

        v = CategoryVector()
        for cat, n in d.items():
            try:
                v.counts[_CAT_INDEX[cat]] = int(n)
            except KeyError:
                raise SchemaError(
                    f"unknown instruction category {cat!r} in serialized "
                    "vector") from None
        return v

    def copy(self) -> "CategoryVector":
        return CategoryVector(self.counts.copy())

    # -- arithmetic ----------------------------------------------------------------
    def __add__(self, other: "CategoryVector") -> "CategoryVector":
        return CategoryVector(self.counts + other.counts)

    def __iadd__(self, other: "CategoryVector") -> "CategoryVector":
        self.counts += other.counts
        return self

    def scaled(self, k: int) -> "CategoryVector":
        return CategoryVector(self.counts * int(k))

    # -- queries --------------------------------------------------------------------
    def total(self) -> int:
        return int(self.counts.sum())

    def get(self, category: str) -> int:
        return int(self.counts[_CAT_INDEX[category]])

    def add_mnemonic(self, mnemonic: str, arch: ArchDescription, n: int = 1) -> None:
        self.counts[_CAT_INDEX[arch.category_of(mnemonic)]] += n

    def as_dict(self, *, nonzero_only: bool = True) -> dict[str, int]:
        """Counts by category name in ``CATEGORY_NAMES`` order, as builtin
        ints (JSON-able); zero categories are dropped unless
        ``nonzero_only`` is false."""
        # One tolist() converts all 64 numpy scalars at C speed.
        pairs = zip(CATEGORY_NAMES, self.counts.tolist())
        if not nonzero_only:
            return dict(pairs)
        return {name: v for name, v in pairs if v}

    def fp_instructions(self, arch: ArchDescription) -> int:
        """PAPI_FP_INS analog: instructions in the FP-arithmetic categories."""
        return sum(int(self.counts[_CAT_INDEX[c]])
                   for c in arch.fp_arith_categories)

    def fp_data_movement(self, arch: ArchDescription) -> int:
        return sum(int(self.counts[_CAT_INDEX[c]])
                   for c in arch.fp_data_categories)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CategoryVector) and \
            bool((self.counts == other.counts).all())

    def __repr__(self) -> str:
        nz = self.as_dict()
        return f"CategoryVector({nz})"


def vector_for_mnemonics(mnemonics: dict[str, int],
                         arch: ArchDescription) -> CategoryVector:
    v = CategoryVector()
    for m, n in mnemonics.items():
        v.add_mnemonic(m, arch, n)
    return v


def vector_for_center(center: CostCenter, arch: ArchDescription) -> CategoryVector:
    """Category vector of one cost center."""
    return vector_for_mnemonics(center.mnemonic_counts(), arch)
