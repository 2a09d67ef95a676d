"""Shared exception types, the 2^32 range check on indices, and the one size-budget
refusal and work tally."""


class DomainError(ValueError):
    """An operation was applied outside its stated domain."""


class RangeError(ValueError):
    """An integer input exceeds the supported range (indices must stay below 2^32)."""


# Indices and degrees are kept below 2^32 so that doubling searches can
# never overflow a 64-bit intermediate.
INDEX_LIMIT = 2**32


def check_index(value: int, what: str = "index") -> int:
    if value >= INDEX_LIMIT:
        raise RangeError(f"{what} {value} exceeds 2^32")
    return value


class Budget:
    """A size budget: the measure it counts, worded as ``deltacalc --help`` states
    it, and its limit.  Each is declared once, in the module that counts it.

    A budget counted as work goes on is also its own tally: ``charge`` adds to
    ``spent``.  A ``with`` block opens the tally, and only the outermost of
    nested blocks starts it from zero, so a tally spans the outermost call that
    opens it.  A refusal raised inside still closes the block.
    """

    __slots__ = ("measure", "limit", "spent", "_depth")

    def __init__(self, measure: str, limit: int):
        self.measure = measure
        self.limit = limit
        self.spent = 0
        self._depth = 0

    def __enter__(self) -> "Budget":
        if not self._depth:
            self.spent = 0
        self._depth += 1
        return self

    def __exit__(self, *exc) -> None:
        self._depth -= 1

    def charge(self, n: int) -> None:
        """Add n to the tally, then check it (compared here first: this runs per memo miss)."""
        self.spent += n
        if self.spent > self.limit:
            self.check(self.spent)

    def check(self, count: int) -> None:
        """Refuse a count over the limit: the one budget refusal, a DomainError.

        A count of more than 128 bits is named by the power of two below it:
        Python refuses to print an integer of more than 4,300 digits.
        """
        if count > self.limit:
            bits = count.bit_length()
            shown = f"{count:,}" if bits <= 128 else f"at least 2^{bits - 1:,}"
            raise DomainError(f"{self.measure} reached {shown}, over the budget of {self.limit:,}")
