"""Compensated summation.

Long accumulations in the package go through CompensatedSum so results are
reproducible bit for bit: terms are always added one at a time in a fixed
order (index order, ascending gamma for zero sums). The one exception is
arithmetic.cesaro_lhs, which sums its weighted table with math.fsum: that sum
is exactly rounded, so it is reproducible in any order and at least as
accurate.
"""

from typing import Iterable

__all__ = ["CompensatedSum", "compensated_sum"]


class CompensatedSum:
    """Neumaier variant of Kahan summation (error <= 2 ulp per add)."""

    __slots__ = ("total", "_comp")

    def __init__(self, start: float = 0.0):
        self.total = float(start)
        self._comp = 0.0

    def add(self, x: float) -> None:
        t = self.total + x
        if abs(self.total) >= abs(x):
            self._comp += (self.total - t) + x
        else:
            self._comp += (x - t) + self.total
        self.total = t

    @property
    def value(self) -> float:
        return self.total + self._comp


def compensated_sum(xs: Iterable[float]) -> float:
    acc = CompensatedSum()
    for x in xs:
        acc.add(x)
    return acc.value
