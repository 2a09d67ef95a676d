"""The range limit on indices, and graded dimension tables."""

from __future__ import annotations

from .errors import DomainError, RangeError

# Indices and degrees are kept below 2^32 so that doubling searches can
# never overflow a 64-bit intermediate.
INDEX_LIMIT = 2**32


def check_index(value: int, what: str = "index") -> int:
    if value >= INDEX_LIMIT:
        raise RangeError(f"{what} {value} exceeds 2^32")
    return value


class GradedDims:
    """Finitely supported table mapping an int degree to an int dimension.

    The JSON form, written by to_json and read by exprs.parse_graded_dims,
    is an object keyed by decimal-string degrees, e.g. ``{"0": 1, "2": 1}``;
    absent degrees are zero.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries=None):
        table = {}
        for deg, dim in dict(entries or {}).items():
            if deg < 0:
                raise DomainError(f"negative degree {deg}")
            if dim < 0:
                raise DomainError(f"negative dimension {dim} in degree {deg}")
            if dim:
                table[deg] = dim
        self._entries = table

    def __getitem__(self, degree: int) -> int:
        return self._entries.get(degree, 0)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedDims) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def __repr__(self) -> str:
        return f"GradedDims({dict(self.items())!r})"

    def items(self) -> list[tuple[int, int]]:
        return sorted(self._entries.items())

    @property
    def min_degree(self) -> int | None:
        return min(self._entries) if self._entries else None

    @property
    def max_degree(self) -> int | None:
        return max(self._entries) if self._entries else None

    def to_json(self) -> dict[str, int]:
        return {str(deg): dim for deg, dim in self.items()}

