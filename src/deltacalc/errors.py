"""Shared exception types, and the one size-budget refusal."""


class DomainError(ValueError):
    """An operation was applied outside its stated domain."""


class RangeError(ValueError):
    """An integer input exceeds the supported range (indices must stay below 2^32)."""


class Budget:
    """A size budget: the measure it counts, worded as ``deltacalc --help`` states
    it, and its limit.  Each is declared once, in the module that counts it."""

    __slots__ = ("measure", "limit")

    def __init__(self, measure: str, limit: int):
        self.measure = measure
        self.limit = limit

    def check(self, count: int) -> None:
        """Refuse a count over the limit: the one budget refusal, a DomainError.

        A count of more than 128 bits is named by the power of two below it:
        Python refuses to print an integer of more than 4,300 digits.
        """
        if count > self.limit:
            bits = count.bit_length()
            shown = f"{count:,}" if bits <= 128 else f"at least 2^{bits - 1:,}"
            raise DomainError(f"{self.measure} reached {shown}, over the budget of {self.limit:,}")
