import math
import random

from linnik.summation import CompensatedSum, compensated_sum


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
