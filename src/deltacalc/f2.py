"""GF(2) scalar arithmetic and graded dimension tables."""

from __future__ import annotations

from .errors import DomainError, RangeError

# Indices and degrees are kept below 2^32 so that doubling searches can
# never overflow a 64-bit intermediate.
INDEX_LIMIT = 2**32


def check_index(value: int, what: str = "index") -> int:
    if value >= INDEX_LIMIT:
        raise RangeError(f"{what} {value} exceeds 2^32")
    return value


def binom_mod2(n: int, k: int) -> int:
    """Parity of C(n, k): odd exactly when every bit of k is also set in n.

    k > n is allowed and gives 0.
    """
    if n < 0 or k < 0:
        raise DomainError("binom_mod2 takes nonnegative arguments")
    check_index(n, "binomial argument")
    check_index(k, "binomial argument")
    return 1 if k & ~n == 0 else 0


class GradedDims:
    """Finitely supported table mapping degree to dimension.

    The JSON form is an object keyed by decimal-string degrees,
    e.g. ``{"0": 1, "2": 1}``; absent degrees are zero.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries=None):
        table = {}
        for deg, dim in dict(entries or {}).items():
            deg = int(deg)
            dim = int(dim)
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

    @classmethod
    def from_json(cls, source) -> "GradedDims":
        if not isinstance(source, dict):
            raise DomainError("graded dimension table must be a JSON object")
        return cls(source)

