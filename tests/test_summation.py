import math
import random

from linnik.summation import (
    CompensatedSum,
    compensated_sum,
    deterministic_map_sum,
)


class TestCompensatedSum:
    def test_matches_fsum_on_wide_dynamic_range(self):
        rng = random.Random(42)
        xs = [rng.uniform(-1, 1) * 10 ** rng.randint(-12, 12) for _ in range(5000)]
        exact = math.fsum(xs)
        got = compensated_sum(xs)
        assert abs(got - exact) <= 4e-16 * sum(abs(x) for x in xs)

    def test_cancellation_heavy(self):
        xs = [1e16, 1.0, -1e16, 1.0]
        assert compensated_sum(xs) == 2.0

    def test_streaming_equals_batch(self):
        xs = [math.sin(i) * (1.1 ** (i % 40)) for i in range(1000)]
        acc = CompensatedSum()
        for x in xs:
            acc.add(x)
        assert acc.value == compensated_sum(xs)


class TestDeterministicMapSum:
    def test_chunking_is_part_of_the_contract(self):
        # fixed chunk size means the reduction tree is fixed; repeat runs agree
        items = list(range(999))
        fn = lambda i: (-1.0) ** i / (i + 1)  # noqa: E731
        assert deterministic_map_sum(fn, items) == deterministic_map_sum(fn, items)

    def test_accuracy_against_fsum(self):
        items = list(range(4096))
        fn = lambda i: 10.0 ** ((i % 31) - 15) * math.cos(i)  # noqa: E731
        exact = math.fsum(fn(i) for i in items)
        got = deterministic_map_sum(fn, items, chunk_size=128)
        assert abs(got - exact) <= 1e-12 * sum(abs(fn(i)) for i in items)
