"""Finite discrete distributions over skiing days: construction, metrics, perturbation."""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Any, Iterable, Mapping

import numpy as np
from numpy.typing import ArrayLike

from .errors import EmptySupportError, InvalidParamsError, InvariantError, ScaleExceededError

MASS_TOL = 1e-9        # accepted drift of total mass at construction
RENORM_TRIGGER = 1e-12  # drift beyond this is renormalized away exactly
#: Longest run of days realized as arrays: a uniform, gaussian or geometric
#: family's range, a baseline branch, or the b days a policy is built and checked
#: on.  Each float array of that many days takes 80 MB.
MAX_DAYS = 10**7


class _Pmf:
    """Validated pmf over positive integer days, shared by both distribution classes.

    Days (strictly increasing positive int64) and masses (finite, nonnegative,
    summing to one within ``MASS_TOL``) are checked in bulk and stored as
    read-only arrays; drift beyond ``RENORM_TRIGGER`` is renormalized away and
    zero-mass days are dropped.  ``days``, ``support`` and the subclass's mass
    tuple are views built on demand.  Instances are immutable and thread-safe.
    """

    def __init__(self, days: ArrayLike, masses: ArrayLike) -> None:
        day_arr = np.asarray(days)
        masses = np.asarray(masses, dtype=float)
        if day_arr.ndim != 1 or masses.shape != day_arr.shape:
            raise InvalidParamsError("days and masses must be 1-d and of equal length")
        if not np.all(np.isfinite(masses)) or np.any(masses < 0.0):
            raise InvalidParamsError("masses must be nonnegative and finite")
        keep = masses > 0.0
        if not keep.any():  # checked before the days: numpy reads no days, (), as float64
            raise EmptySupportError("distribution has no support")
        # numpy reads (True, 2) as the int64 days [1, 2], so only a bool left
        # outside an array is still told apart from an int (neither bool type
        # can be subclassed, so comparing types is an isinstance test)
        if (day_arr.dtype.kind not in "iu" or day_arr.dtype.kind == "u" and day_arr.max() >= 2**63
                or not isinstance(days, np.ndarray)
                and not {bool, np.bool_}.isdisjoint(map(type, days))):
            raise InvalidParamsError("days must be integers in the int64 range")
        day_arr = day_arr.astype(np.int64)
        if day_arr[0] < 1 or np.any(day_arr[1:] <= day_arr[:-1]):
            raise InvalidParamsError("days must be strictly increasing positive integers")
        total = float(masses.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise InvalidParamsError(f"masses sum to {total}, not 1")
        if abs(total - 1.0) > RENORM_TRIGGER:
            masses = masses / total
        self._store(_days_arr=day_arr[keep], _mass_arr=masses[keep])
        self._store(_cum=np.cumsum(np.append(0.0, self._mass_arr)))  # [0, F(d_1), F(d_2), ...]

    def _store(self, **arrays: np.ndarray) -> None:
        for name, array in arrays.items():
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        return f"{type(self).__name__}.from_pairs({list(self.support)})"

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]]):
        """Build from ``(day, mass)`` pairs in any order; repeated days add up."""
        pairs = sorted((_as_int(d, "day"), float(m)) for d, m in pairs)
        days, which = np.unique([d for d, _ in pairs], return_inverse=True)
        # bincount adds in input order, so a repeated day's masses add smallest first
        return cls(days, np.bincount(which, [m for _, m in pairs]))

    def _through(self, cum: np.ndarray, x, side: str = "right"):
        """Zero-led running sum ``cum`` through day x (before day x if side="left")."""
        return cum[np.searchsorted(self._days_arr, x, side=side)]

    @cached_property
    def days(self) -> tuple[int, ...]:
        return tuple(self._days_arr.tolist())

    @property
    def support(self) -> tuple[tuple[int, float], ...]:
        return tuple(zip(self.days, self._mass_arr.tolist()))

    @property
    def max_day(self) -> int:
        return int(self._days_arr[-1])

    def cdf(self, x: int | float) -> float:
        """P[day <= x]."""
        return float(self._through(self._cum, x))

    def cdf_at(self, xs: np.ndarray) -> np.ndarray:
        return self._through(self._cum, xs)


class DayDistribution(_Pmf):
    """Probability distribution over positive integer horizons (see ``_Pmf``)."""

    def __init__(self, days: ArrayLike, probs: ArrayLike) -> None:
        super().__init__(days, probs)
        self._store(_day_weighted_cum=np.cumsum(np.append(0.0, self._mass_arr * self._days_arr)))

    @cached_property
    def probs(self) -> tuple[float, ...]:
        return tuple(self._mass_arr.tolist())

    def prob(self, day: int) -> float:
        """Point mass at ``day`` (0 if not in the support)."""
        i = int(np.searchsorted(self._days_arr, day))
        if i < self._days_arr.size and self._days_arr[i] == day:
            return float(self._mass_arr[i])
        return 0.0

    def _masses_on(self, days: np.ndarray) -> np.ndarray:
        """``prob`` at each of the sorted ``days``, by one search."""
        i = np.minimum(np.searchsorted(self._days_arr, days), self._days_arr.size - 1)
        return np.where(self._days_arr[i] == days, self._mass_arr[i], 0.0)

    def mean(self) -> float:
        """E[D]."""
        return float(self._day_weighted_cum[-1])

    def partial_day_sum(self, t: int) -> float:
        """Sum of p(d) * d over days d < t."""
        return float(self._through(self._day_weighted_cum, t, side="left"))

    def to_json(self) -> str:
        return json.dumps({"atoms": [[d, p] for d, p in self.support]})


def survival(p: DayDistribution, t: int) -> float:
    """Tail probability P[D >= t]; equals 1 for t = 1 and is nonincreasing in t."""
    # every day past the support has the same tail, also one past float range
    t = min(_as_int(t, "t", 1), p.max_day + 1)
    return min(1.0, max(0.0, 1.0 - p.cdf(t - 1)))


def expected_opt(p: DayDistribution, b: int) -> float:
    """Expected offline optimum E[min(D, b)] for buy cost b >= 2."""
    b = _as_b(b)
    return p.partial_day_sum(b) + b * survival(p, b)


def wasserstein1(p: DayDistribution, q: DayDistribution) -> float:
    """W1 distance with ground metric |i - j|: sum over x of |CDF_p(x) - CDF_q(x)|.

    Both CDFs are constant between consecutive days of the merged support, so
    each merged day stands for the run of days up to the next one, and both
    CDFs are 1 from the last one on.  A day in both supports adds a zero-length
    run.  O((n + m) log(n + m)) in the support sizes, not in the largest day.
    """
    xs = np.sort(np.concatenate((p._days_arr, q._days_arr)))
    return float(np.abs(p.cdf_at(xs[:-1]) - q.cdf_at(xs[:-1])) @ np.diff(xs))


def total_variation(p: DayDistribution, q: DayDistribution) -> float:
    """Half L1 distance between the two mass functions; lies in [0, 1]."""
    days = np.sort(np.concatenate((p._days_arr, q._days_arr)))
    days = days[np.append(True, days[1:] != days[:-1])]  # np.union1d took 0.1-0.2 s at 2e5 days
    # Python's sum adds the gaps in day order, as a loop over prob() would
    return 0.5 * sum(np.abs(p._masses_on(days) - q._masses_on(days)).tolist())


class _Draws:
    """The draws ``np.random.default_rng(seed)`` makes for ``integers``.

    Reads the PCG64 bit generator's raw 64-bit outputs in blocks, as Python
    ints, and redoes numpy's arithmetic on them, so the stream stays numpy's
    bit for bit without a ``Generator`` call per draw.  Bounds up to 2^32 take
    32-bit words, each raw output split low half first with the high half kept
    in ``half`` for the next one; larger bounds take whole outputs, which leave
    ``half`` alone.  ``perturb_wasserstein`` takes the common case inline and
    hands the rest to ``below`` and ``settle``, the one copy of Lemire's method.
    """

    def __init__(self, seed: int) -> None:
        pcg = np.random.default_rng(seed).bit_generator
        blocks = iter(lambda: pcg.random_raw(1024).tolist(), None)
        self.raw = itertools.chain.from_iterable(blocks).__next__  # the next raw output
        self.half: int | None = None  # the kept high half of the last split output

    def below(self, n: int) -> int:
        """``integers(n)`` for n >= 1, by Lemire's method; n = 1 consumes no draw."""
        if n == 1:
            return 0
        return self.settle(self._word(n) * n, n)

    def settle(self, m: int, n: int) -> int:
        """Finish ``below(n)`` from m, the product of its first word and n."""
        bits = 32 if n <= 2**32 else 64
        mask = (1 << bits) - 1
        # numpy computes the rejection threshold only when the low word is below n
        while m & mask < n and m & mask < (mask + 1 - n) % n:
            m = self._word(n) * n
        return m >> bits

    def _word(self, n: int) -> int:
        """The next word drawn for a bound of n: 32 bits up to 2^32, else 64."""
        if n > 2**32:
            return self.raw()
        if self.half is None:
            raw = self.raw()
            self.half = raw >> 32
            return raw & 0xFFFFFFFF
        word, self.half = self.half, None
        return word


def perturb_wasserstein(p: DayDistribution, eta: float, seed: int) -> DayDistribution:
    """Randomly transport mass of ``p`` with total transport cost at most ``eta``.

    Repeatedly moves a random sliver of mass from a random atom over a random
    integer shift, debiting mass * distance from the budget, until the budget
    is spent or a move cap is reached.  Deterministic for a given seed, and the
    result always satisfies W1(p, result) <= eta.
    """
    seed = _as_int(seed, "the seed", 0)
    _check_finite(eta, "eta")
    if eta < 0:
        raise InvalidParamsError("eta must be >= 0")
    if eta == 0:
        return p
    moves = 10 * p._days_arr.size
    max_shift = max(1, math.ceil(eta))
    # moved mass can move again, so a day can drift by up to moves * max_shift
    if p.max_day + moves * max_shift >= 2**63:
        raise InvalidParamsError(f"eta={eta} could shift days past the int64 range")
    draws = _Draws(seed)
    next_raw = draws.raw
    narrow = 2 <= max_shift <= 2**32  # 1 draws nothing, wider bounds take whole outputs
    mass = dict(zip(p._days_arr.tolist(), p._mass_arr.tolist()))
    atoms = list(mass)  # the days of positive mass, in insertion order
    budget = float(eta)
    half = None  # draws.half, held in a local between hand-offs
    # Each move draws what Generator's integers(len(atoms)), integers(1,
    # max_shift + 1), integers(2) and uniform(0, cap) would.  A 32-bit draw
    # below n keeps the high word of its first product with n unless the low
    # word is below n; that rare case goes to draws.settle.
    for _ in range(moves):
        if budget <= 1e-12:
            break
        n = len(atoms)  # below 2^32: a longer list would not fit in memory
        if n == 1:
            src = atoms[0]
        else:
            if half is None:
                raw = next_raw()
                m, half = (raw & 0xFFFFFFFF) * n, raw >> 32
            else:
                m, half = half * n, None
            if m & 0xFFFFFFFF >= n:
                src = atoms[m >> 32]
            else:
                draws.half = half
                src = atoms[draws.settle(m, n)]
                half = draws.half
        if narrow:
            if half is None:
                raw = next_raw()
                m, half = (raw & 0xFFFFFFFF) * max_shift, raw >> 32
            else:
                m, half = half * max_shift, None
            if m & 0xFFFFFFFF >= max_shift:
                shift = 1 + (m >> 32)
            else:
                draws.half = half
                shift = 1 + draws.settle(m, max_shift)
                half = draws.half
        else:
            shift = 1 + draws.below(max_shift)  # leaves draws.half alone
        # integers(2) is the word's top bit: Lemire's method never rejects a power of two
        if half is None:
            raw = next_raw()
            negative, half = raw & 0x80000000, raw >> 32
        else:
            negative, half = half >> 31, None
        if negative:
            dest = src - shift
            if dest < 1:
                dest = 1
            dist = src - dest
            if dist == 0:
                continue
        else:
            dest = src + shift
            dist = shift
        cap = budget / dist
        left = mass[src]
        if left < cap:
            cap = left
        # uniform(0, cap): the top 53 bits of one whole output, scaled
        delta = cap * ((next_raw() >> 11) * 2.0**-53)
        if delta <= 0.0:
            continue
        left -= delta
        mass[src] = left
        old = mass.get(dest)
        if old is None:
            atoms.append(dest)
            mass[dest] = delta
        else:
            mass[dest] = old + delta
        if left == 0.0 or old == 0.0:
            # rare: a zeroed day leaves the list, a revived one keeps its old place
            atoms = [d for d, m in mass.items() if m > 0.0]
        budget -= delta * dist
    days = sorted(d for d, m in mass.items() if m > 0.0)  # unique Python ints
    out = DayDistribution(np.array(days), np.array([mass[d] for d in days]))
    moved = wasserstein1(p, out)
    if moved > eta + 1e-9:
        raise InvariantError(f"perturbation overshot the budget: {moved} > {eta}")
    return out


class Family(str, Enum):
    UNIFORM = "uniform"
    GAUSSIAN_DISCRETIZED = "gaussian_discretized"
    GEOMETRIC_TRUNCATED = "geometric_truncated"
    TWO_POINT = "two_point"
    ONE_HOT = "one_hot"
    CUSTOM = "custom"


@dataclass(frozen=True)
class FamilySpec:
    """A named distribution family plus the parameters needed to realize it."""

    family: Family
    params: Mapping[str, Any]


def _as_b(b: Any) -> int:
    """The buy cost as an int under ``_as_int``'s rule, in [2, 2^63), the int64 range days have.

    A plain int, as nearly every call passes, costs one call: no ``_as_int`` frame.
    """
    if type(b) is not int:
        b = _as_int(b, "buy cost b")
    if not 2 <= b < 2**63:
        raise InvalidParamsError(f"buy cost b must be an integer in [2, 2^63), got {b!r}")
    return b


def _is_finite(value: Any) -> bool:
    """``math.isfinite``, but False for a non-number instead of a TypeError."""
    try:
        return math.isfinite(value)
    except TypeError:
        return False


def _check_finite(value: float, what: str) -> None:
    """Reject NaN, infinities, bools and non-numbers; NaN would slip past every range check."""
    if isinstance(value, (bool, np.bool_)) or not _is_finite(value):
        raise InvalidParamsError(f"{what} must be a finite number, got {value!r}")


def _need(params: Mapping[str, Any], key: str) -> Any:
    if key not in params:
        raise InvalidParamsError(f"missing parameter {key!r}")
    return params[key]


def _float_param(params: Mapping[str, Any], key: str) -> float:
    value = _need(params, key)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InvalidParamsError(f"parameter {key!r} must be a number, got {value!r}") from None


def _as_int(value: Any, what: str, least: int | None = None) -> int:
    """The one integer rule: ``value`` as an int, at least ``least`` when given.

    An int, a numpy integer or an integral float is accepted; a bool, a string,
    None, a fraction, NaN or an infinity raises InvalidParamsError.
    """
    if isinstance(value, float) and value.is_integer():
        n = int(value)
    elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        n = int(value)
    else:
        raise InvalidParamsError(f"{what} must be an integer, got {value!r}")
    if least is not None and n < least:
        raise InvalidParamsError(f"{what} must be an integer >= {least}, got {value!r}")
    return n


def _int_param(params: Mapping[str, Any], key: str, default: int | None = None) -> int:
    value = params.get(key, default)
    if value is None:
        raise InvalidParamsError(f"missing parameter {key!r}")
    return _as_int(value, f"parameter {key!r}")


def _day_range(params: Mapping[str, Any], family: str) -> np.ndarray:
    """The days low..high of a ranged family, as an int64 array."""
    low = _int_param(params, "low", 1)
    high = _int_param(params, "high")
    if not 1 <= low <= high < 2**63:
        raise InvalidParamsError(f"{family} needs 1 <= low <= high < 2^63")
    if high - low >= MAX_DAYS:
        raise ScaleExceededError(f"{family} spans {high - low + 1} days, over {MAX_DAYS}")
    return np.arange(low, high + 1)


def _parse_atoms(entries: Any) -> list[tuple[int, float]]:
    """Read a decoded ``[[day, mass], ...]`` list with float masses; the pmf checks the values."""
    if not isinstance(entries, list) or not entries:
        raise InvalidParamsError("expected a non-empty list of [day, mass] pairs")
    pairs = []
    for entry in entries:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise InvalidParamsError("each entry must be a [day, mass] pair")
        day, mass = entry
        try:
            mass = float(mass)
        except (TypeError, ValueError):
            raise InvalidParamsError(f"mass {mass!r} is not a number") from None
        pairs.append((day, mass))
    return pairs


def make_distribution(spec: FamilySpec) -> DayDistribution:
    """Realize a family specification as a normalized DayDistribution."""
    try:
        family = Family(spec.family)
    except ValueError:
        raise InvalidParamsError(f"unknown family {spec.family!r}") from None
    params = spec.params
    if not isinstance(params, Mapping):
        raise InvalidParamsError("family params must be an object")
    if family is Family.UNIFORM:
        days = _day_range(params, "uniform")
        return DayDistribution(days, np.full(days.size, 1.0 / days.size))
    if family is Family.GAUSSIAN_DISCRETIZED:
        mean = _float_param(params, "mean")
        stddev = _float_param(params, "stddev")
        if stddev <= 0:
            raise InvalidParamsError("stddev must be > 0")
        days = _day_range(params, "gaussian")
        weights = np.exp(-0.5 * ((days - mean) / stddev) ** 2)
        total = float(weights.sum())
        if total <= 0.0:
            raise EmptySupportError("all gaussian mass truncated away")
        return DayDistribution(days, weights / total)
    if family is Family.GEOMETRIC_TRUNCATED:
        rate = _float_param(params, "rate")
        if not 0.0 < rate < 1.0:
            raise InvalidParamsError("rate must lie in (0, 1)")
        days = _day_range(params, "geometric")
        weights = (1.0 - rate) ** (days - 1)
        total = float(weights.sum())
        if total <= 0.0:
            raise EmptySupportError("all geometric mass truncated away")
        return DayDistribution(days, weights / total)
    if family is Family.TWO_POINT:
        atoms = _parse_atoms(_need(params, "atoms"))
        if len(atoms) != 2:
            raise InvalidParamsError("two_point needs exactly two atoms")
        weight_total = sum(w for _, w in atoms)
        if abs(weight_total - 1.0) > MASS_TOL:
            raise InvalidParamsError("two_point weights must sum to 1")
        return DayDistribution.from_pairs(atoms)
    if family is Family.ONE_HOT:
        return DayDistribution((_as_int(_need(params, "y"), "parameter 'y'", 1),), (1.0,))
    if family is Family.CUSTOM:
        return DayDistribution.from_pairs(_parse_atoms(_need(params, "atoms")))
    raise InvalidParamsError(f"unknown family {spec.family!r}")


def parse_distribution(source: str | Mapping[str, Any]) -> DayDistribution:
    """Parse a distribution from JSON text or an already-decoded mapping.

    Accepts either ``{"atoms": [[day, prob], ...]}`` or a family spec
    ``{"family": name, "params": {...}}``.  Non-integral days, NaN and negative
    probabilities, and unknown families are rejected.
    """
    if isinstance(source, str):
        try:
            obj = json.loads(source)
        except json.JSONDecodeError as exc:
            raise InvalidParamsError(f"invalid distribution JSON: {exc}") from exc
    else:
        obj = source
    if not isinstance(obj, Mapping):
        raise InvalidParamsError("distribution JSON must be an object")
    if "atoms" in obj:
        return DayDistribution.from_pairs(_parse_atoms(obj["atoms"]))
    if "family" in obj:
        return make_distribution(FamilySpec(obj["family"], obj.get("params", {})))
    raise InvalidParamsError("distribution JSON needs an 'atoms' or 'family' key")
