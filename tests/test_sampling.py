import numpy as np
import pytest

from dualmod import sampling
from dualmod.core import vector
from dualmod.linalg import realify


def random_vector_by_entry(rng, n, m, lo, hi):
    """random_vector drawn one entry at a time: each head's re and ze parts
    in turn, then the tails; the reference for random_rows's column order."""
    head = [sampling.random_dual(rng, lo, hi) for _ in range(n)]
    return vector(head, [rng.uniform(lo, hi) for _ in range(m)])


@pytest.mark.parametrize("n,m", [(0, 0), (0, 2), (1, 0), (2, 1), (1, 3), (3, 3)])
@pytest.mark.parametrize("count", [0, 1, 5])
def test_random_rows_equal_random_vector_row_by_row(n, m, count):
    for seed, (lo, hi) in zip(range(20), [(-1.0, 1.0), (-2.0, 0.5)] * 10):
        rows, by_vector, by_entry = (np.random.default_rng(seed) for _ in range(3))
        got = sampling.random_rows(rows, n, m, count, lo, hi)
        assert got.shape == (count, 2 * n + m)
        for want in (
            [sampling.random_vector(by_vector, n, m, lo, hi) for _ in range(count)],
            [random_vector_by_entry(by_entry, n, m, lo, hi) for _ in range(count)],
        ):
            assert got.tobytes() == np.array([realify(v) for v in want]).reshape(got.shape).tobytes()
        assert rows.bit_generator.state == by_vector.bit_generator.state == by_entry.bit_generator.state
