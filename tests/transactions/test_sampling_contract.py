"""The draw contract every seeded trace rests on.

``sampling_cdf`` + ``cdf.searchsorted(rng.random(), side="right")`` must
make exactly the draw ``Generator.choice(n, p=p)`` makes, and consume
the generator the same way. If a numpy release changes ``choice``, this
fails loudly instead of letting seeded traces drift.
"""

import numpy as np
import pytest

from repro.errors import InvalidParameter
from repro.transactions.distributions import sampling_cdf
from repro.transactions.ranking import rank_factors_from_degrees

DRAWS = 20_000


def _zipf_weights(n: int, s: float) -> np.ndarray:
    degrees = sorted((i % 9 for i in range(n)), reverse=True)
    return np.array(rank_factors_from_degrees(degrees, s))


WEIGHTS = {
    "uniform": np.ones(50),
    "zipf-s1": _zipf_weights(300, 1.0),
    "zipf-s2": _zipf_weights(300, 2.0),
    "zipf-very-skewed": _zipf_weights(300, 40.0),
    "zeros-inside": np.array([0.0, 3.0, 0.0, 0.0, 1.0, 2.0, 0.0, 5.0, 0.0]),
    "single-mass": np.array([0.0, 0.0, 7.5, 0.0]),
    "single-entry": np.array([2.0]),
    "tiny-and-huge": np.array([1e-300, 1.0, 1e-12, 1e300, 3.0]),
    "random": np.random.default_rng(3).random(1000) ** 4,
}


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_searchsorted_draws_equal_choice(name):
    weights = WEIGHTS[name]
    probs = weights / weights.sum()
    by_choice = np.random.default_rng(2024)
    by_cdf = np.random.default_rng(2024)
    cdf = sampling_cdf(weights, name)
    expected = [by_choice.choice(len(probs), p=probs) for _ in range(DRAWS)]
    drawn = [cdf.searchsorted(by_cdf.random(), side="right") for _ in range(DRAWS)]
    assert drawn == expected
    # Both paths leave the generators in the same state.
    assert by_choice.random() == by_cdf.random()
    # Zero-weight entries are never drawn.
    assert all(weights[i] > 0 for i in set(drawn))


@pytest.mark.parametrize(
    "weights",
    [np.zeros(3), np.array([]), np.array([1.0, -2.0, 4.0]), np.array([np.nan, 1.0])],
)
def test_rejects_what_choice_rejects(weights):
    with pytest.raises(InvalidParameter):
        sampling_cdf(weights, "bad weights")
