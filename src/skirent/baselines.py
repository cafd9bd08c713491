"""Point-prediction-style randomized baselines adapted to distributional inputs."""
from __future__ import annotations

import functools
import math
from enum import Enum

import numpy as np

from .distributions import MAX_DAYS, DayDistribution, survival, _as_b, _as_real
from .errors import InvalidParamsError, InvalidRError, ScaleExceededError
from .randomized import StoppingDistribution


class BaselineKind(str, Enum):
    MAJORITY_BRANCH = "majority_branch"
    MIXTURE = "mixture"


def lambda_from_r(b: int, R: float) -> float:
    """Branch parameter matching robustness R: 1/b - log(1 - (1+1/b)/R).

    Raises InvalidRError (carrying the raw value) when R is not a finite number
    or is at most 1 + 1/b, where the mapping diverges (raw value inf), or when the
    produced parameter falls outside (0, 1].
    """
    b = _as_b(b)
    try:
        R = _as_real(R, "R", above=1.0 + 1.0 / b)
    except InvalidParamsError:
        raise InvalidRError(f"R={R!r} must be a finite number exceeding 1 + 1/b",
                            math.inf) from None
    lam = 1.0 / b - math.log(1.0 - (1.0 + 1.0 / b) / R)  # positive: R > 1 + 1/b
    if not 0.0 < lam <= 1.0:
        raise InvalidRError(f"R={R} maps to branch parameter {lam} outside (0, 1]", lam)
    return lam


def r_from_lambda(b: int, lam: float) -> float:
    """Inverse mapping: the robustness level of a branch parameter in (1/b, 1]."""
    b = _as_b(b)
    lam = _as_real(lam, "lambda", above=1.0 / b, most=1.0)
    return (1.0 + 1.0 / b) / -math.expm1(1.0 / b - lam)


#: Branches of at most this many days are cached.  A cached branch holds four
#: arrays of its length, its days and masses (which its pmf keeps as they are)
#: and its pmf's two running sums, so the cache's 16 branches take at most about 8 MB.
_CACHED_DAYS = 2**14


class _Branch:
    """A branch's days 1..len and their masses, zeros kept, both read-only, and its pmf
    when asked for.

    Weights are ((b-1)/b)^(len-i) with normalizer b(1 - (1-1/b)^len), so a branch
    depends on b and its length alone.
    """

    def __init__(self, b: int, length: int) -> None:
        q = (b - 1.0) / b
        weights = q ** np.arange(length - 1, -1, -1, dtype=float)
        self.masses = weights / (b * (1.0 - q ** length))
        self.days = np.arange(1, length + 1)
        self.masses.flags.writeable = self.days.flags.writeable = False

    @functools.cached_property
    def policy(self) -> StoppingDistribution:
        return StoppingDistribution(self.days, self.masses)


_cached_branch = functools.lru_cache(maxsize=16)(_Branch)


def _branch(b: int, lam: float, high_branch: bool) -> _Branch:
    """The high (long-horizon) branch over {1..k} or the low one over {1..l}.

    The lengths follow the source algorithm, k = floor(lam*b) and
    l = ceil(b/lam), which reproduces the reference consistency figures to
    four decimals; so k <= b <= l.  The length is checked against ``MAX_DAYS``
    before the cache is read, and only short branches are kept in it.
    """
    b = _as_b(b)
    lam = _as_real(lam, "lambda", above=0.0, most=1.0)
    length = max(1, math.floor(lam * b + 1e-9) if high_branch else math.ceil(b / lam - 1e-9))
    if length > MAX_DAYS:  # the low branch spans ceil(b/lam) <= b^2 days
        raise ScaleExceededError(f"branch of {length} days exceeds {MAX_DAYS}")
    return (_cached_branch if length <= _CACHED_DAYS else _Branch)(b, length)


def purohit_branch(b: int, lam: float, high_branch: bool) -> StoppingDistribution:
    """Geometric-weights branch distribution for long (y >= b) or short horizons.

    The pmf is immutable, and a branch of at most 2^14 days is shared between calls.
    """
    return _branch(b, lam, high_branch).policy


def baseline_policy(p_hat: DayDistribution, b: int, R: float,
                    kind: BaselineKind) -> StoppingDistribution:
    """Branch (or blend) the two point-prediction distributions by P[D >= b].

    The majority rule returns only the long-horizon branch when that
    probability strictly exceeds 1/2, and only the short one otherwise: the
    immutable pmf of ``purohit_branch``, which may be shared between calls.  The
    mixture blends the two branches' masses day by day into a pmf of its own.
    """
    try:
        kind = BaselineKind(kind)
    except ValueError:
        raise InvalidParamsError(f"unknown baseline kind {kind!r}") from None
    lam = lambda_from_r(b, _as_real(R, "R"))
    p_high = survival(p_hat, b)
    if kind is BaselineKind.MAJORITY_BRANCH:
        return purohit_branch(b, lam, high_branch=p_high > 0.5)
    # both branches sit on days 1..len, and the high one is never the longer
    high, low = _branch(b, lam, high_branch=True).masses, _branch(b, lam, high_branch=False)
    masses = (1.0 - p_high) * low.masses
    masses[:high.size] += p_high * high
    masses.flags.writeable = False
    # the mixture's days are the low branch's; the pmf drops the days whose masses
    # underflow at the front of a long branch
    return StoppingDistribution(low.days, masses)
