"""First-page dimension tables of the fundamental spectral sequence.

For connected input the (s, t) entry is the dimension of the weight-s
slice, in total degree t, of the free divided power algebra on generators
matching the given homology dimensions; everything above the diagonal
(s > t) vanishes.  The entries are counted by ``gamma.basis_counts``, not
read off a list of basis monomials.
"""

from __future__ import annotations

from .errors import DomainError
from .f2 import GradedDims
from .gamma import basis_counts
from .gamma import s_basis  # noqa: F401  unused here; perfbench/traced_child.py wraps e1.s_basis


class E1Table:
    __slots__ = ("max_t", "entries", "aq_dim", "conn")

    def __init__(self, max_t: int, entries: dict, aq_dim: int | None, conn: int | None):
        self.max_t = max_t
        self.entries = entries  # (s, t) -> dimension, nonzero entries only
        self.aq_dim = aq_dim
        self.conn = conn

    def dim(self, s: int, t: int) -> int:
        return self.entries.get((s, t), 0)

    def to_json(self) -> dict:
        return {
            "aq_dim": self.aq_dim,
            "conn": self.conn,
            "entries": [
                {"s": s, "t": t, "dim": d}
                for (s, t), d in sorted(self.entries.items(), key=lambda kv: (kv[0][1], kv[0][0]))
            ],
        }

    def render_text(self) -> str:
        max_s = max((s for s, _ in self.entries), default=0)
        width = max(3, max(len(str(d)) for d in self.entries.values()) + 1) if self.entries else 3
        header = "t\\s" + "".join(f"{s:>{width}}" for s in range(max_s + 1))
        lines = [header]
        for t in range(self.max_t + 1):
            row = f"{t:>3}" + "".join(
                f"{self.dim(s, t) or '.':>{width}}" for s in range(max_s + 1)
            )
            lines.append(row)
        lines.append(f"aq_dim = {self.aq_dim}   conn = {self.conn}")
        return "\n".join(lines)


def e1_page(hq: GradedDims, max_t: int) -> E1Table:
    """Tabulate the first page from homology dimensions concentrated in degrees >= 1."""
    if hq[0] != 0:
        raise DomainError("input must be connected: degree 0 must vanish")
    entries = basis_counts(hq.items(), max_t)
    aq_dim = hq.max_degree
    conn = hq.min_degree - 1 if hq.min_degree is not None else None
    return E1Table(max_t, entries, aq_dim, conn)
