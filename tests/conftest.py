import numpy as np
import pytest
from hypothesis import settings

from skirent import DayDistribution

# Every Hypothesis test draws the same examples on every run and keeps no example
# database, so Tier-1 is deterministic and replays no example from an earlier
# run; a test's own settings(...) inherit both.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def random_day_distribution(rng: np.random.Generator, max_day: int = 60,
                            max_atoms: int = 12) -> DayDistribution:
    n = int(rng.integers(1, min(max_atoms, max_day) + 1))
    days = np.sort(rng.choice(np.arange(1, max_day + 1), size=n, replace=False))
    probs = rng.dirichlet(np.ones(n))
    return DayDistribution(tuple(int(d) for d in days), tuple(probs))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)


@pytest.fixture
def worked_example() -> DayDistribution:
    # two-atom horizon used throughout the docs: day 1 w.p. 0.8, day 5 w.p. 0.2
    return DayDistribution((1, 5), (0.8, 0.2))
