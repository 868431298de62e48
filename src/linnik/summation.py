"""Compensated summation and deterministic chunked reduction.

Every long accumulation in the package goes through one of these helpers so
results are reproducible bit for bit: terms are always combined in a fixed
order (index order within fixed-size chunks, then chunk order).
"""

from typing import Callable, Iterable, Sequence

__all__ = [
    "CompensatedSum",
    "compensated_sum",
    "compensated_complex_sum",
    "deterministic_map_sum",
]


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


def compensated_complex_sum(xs: Iterable[complex]) -> complex:
    re = CompensatedSum()
    im = CompensatedSum()
    for x in xs:
        re.add(x.real)
        im.add(x.imag)
    return complex(re.value, im.value)


def deterministic_map_sum(
    fn: Callable,
    items: Sequence,
    chunk_size: int = 256,
) -> float:
    """Sum fn(item) over items with a deterministic chunked reduction.

    Items are split into consecutive chunks of fixed size; each chunk is
    compensated-summed in index order, and chunk totals are combined in chunk
    order.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    chunks = [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]

    def chunk_total(chunk):
        acc = CompensatedSum()
        for it in chunk:
            acc.add(fn(it))
        return acc.value

    outer = CompensatedSum()
    for chunk in chunks:
        outer.add(chunk_total(chunk))
    return outer.value
