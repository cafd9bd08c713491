"""Finite discrete distributions over skiing days: construction, metrics, perturbation."""
from __future__ import annotations

import bisect
import functools
import json
import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Any, Iterable, Iterator, Mapping, NamedTuple

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

    Days (strictly increasing positive int64) and masses (finite, nonnegative
    numbers, not bools, summing to one within ``MASS_TOL``) are checked in
    bulk and stored as read-only arrays by ``_frozen``'s rule: an array that
    already is one is kept, any other is copied.  Drift beyond
    ``RENORM_TRIGGER`` is renormalized away and zero-mass days are dropped,
    both into new arrays, so a kept input is never written to.  ``days``,
    ``support`` and the subclass's mass tuple are views built on demand.
    Instances are immutable and thread-safe.
    """

    def __init__(self, days: ArrayLike, masses: ArrayLike) -> None:
        day_arr, mass_arr = np.asarray(days), np.asarray(masses)
        if day_arr.ndim != 1 or mass_arr.shape != day_arr.shape:
            raise InvalidParamsError("days and masses must be 1-d and of equal length")
        # ``_as_real``'s rule in bulk: a numeric dtype and no bool, then finite values
        if mass_arr.dtype.kind not in "iuf" or _holds_bool(masses):
            raise InvalidParamsError("masses must be finite numbers >= 0")
        masses = _frozen(mass_arr, np.float64)
        least = masses.min(initial=math.inf)  # NaN if any mass is NaN
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, or past float range
            total = float(masses.sum())
        if not (least >= 0.0 and total < math.inf):
            raise InvalidParamsError("masses must be finite numbers >= 0, with a finite sum")
        if total == 0.0:  # checked before the days: numpy reads no days, (), as float64
            raise EmptySupportError("distribution has no support")
        if (day_arr.dtype.kind not in "iu" or day_arr.dtype.kind == "u" and day_arr.max() >= 2**63
                or _holds_bool(days)):
            raise InvalidParamsError("days must be integers in the int64 range")
        day_arr = _frozen(day_arr, np.int64)
        # compared, not differenced: a step from a day to one 2^63 below it wraps in np.diff
        if day_arr[0] < 1 or (day_arr[1:] <= day_arr[:-1]).any():
            raise InvalidParamsError("days must be strictly increasing positive integers")
        if abs(total - 1.0) > MASS_TOL:
            raise InvalidParamsError(f"masses sum to {total}, not 1")
        if least == 0.0:  # zero-mass days are dropped
            keep = masses > 0.0
            day_arr, masses = day_arr[keep], masses[keep]
        if abs(total - 1.0) > RENORM_TRIGGER:
            masses = masses / total
        self._store(_days_arr=day_arr, _mass_arr=masses,
                    _cum=_running_sum(masses))  # [0, F(d_1), F(d_2), ...]

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
        pairs = sorted((_as_int(d, "day"), _as_real(m, "mass")) for d, m in pairs)
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
        self._store(_day_weighted_cum=_running_sum(self._mass_arr * self._days_arr))

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


_BLOCK = 1024  # raw outputs read at once
#: A batch is decoded from at least this many outputs: a block's last few go on to
#: the next block rather than into a batch of their own, which costs as many numpy calls.
_CARRY = 64
#: The first batch's moves at most.  The batches double from there: a small budget
#: runs out within a few hundred moves, and decoding the rest of a block is waste.
_FIRST_BATCH = 128
#: The most low words that Lemire's method may reject for a 32-bit shift bound, one
#: in 64, before its batches would end within a few moves at a rejected word.  A
#: bound that rejects more has each batch laid out over the words it rejects.
_FEW_REJECTS = 2**32 // 64


class _Layout(NamedTuple):
    """Where a batch's moves read their draws, as offsets from its first output.

    Word offsets count the 32-bit words of the batch's outputs, low half first.
    ``starts`` and ``halves`` give the stream at each move's start and after the
    last one: the output offset, and the word offset of the kept half (-1 for the
    half kept when the batch began, which is no word of the batch; -2 for none).
    """

    starts: list[int]
    halves: list[int]
    ends: list[int]  # per move: the outputs read by its end, its uniform's last
    words: np.ndarray  # per move: the source word, the sign word, then a 32-bit shift's word
    outputs: np.ndarray  # per move: the uniform's output, then a wider shift's output


def _layout(shift_bits: int, kept: bool, size: int, taken: list[bool] | None = None,
            most: int = _BLOCK + _CARRY) -> _Layout:
    """The layout of the first ``most`` moves, or those that fit in ``size`` outputs, from
    a start with a half kept or not, for a shift drawn from nothing (a bound of 1:
    ``shift_bits`` 0), a word (32) or a whole output (64).

    A move reads its source word, its shift and its sign word, as
    ``_Draws._word`` takes words, and then one whole output for its uniform.  A
    32-bit shift reads on past the words that Lemire's method rejects, those
    with ``taken[i]`` false; without ``taken`` it rejects none, and the layout
    repeats every two moves (five outputs) for 32-bit shifts and every move
    otherwise.  ``taken`` must end in a true entry, past the ``size`` outputs.
    """
    pos, half = 0, -1 if kept else -2
    starts, halves, rows = [], [], []  # rows: each move's source, sign, shift and uniform
    while len(rows) < 4 * most and pos < size:
        start = pos, half
        if half == -2:  # the source word: the next output's low half, its high half kept
            src, half, pos = 2 * pos, 2 * pos + 1, pos + 1
        else:  # or the kept half
            src, half = half, -2
        shift = 0
        if shift_bits == 32:
            # the words run on from the kept half, else from the next output's low half
            shift = 2 * pos if half == -2 else half
            while taken is not None and not taken[shift]:
                shift += 1
            pos, half = shift // 2 + 1, -2 if shift % 2 else shift + 1
        elif shift_bits == 64:
            shift, pos = pos, pos + 1
        if half == -2:  # the sign word, read as the source word is
            sign, half, pos = 2 * pos, 2 * pos + 1, pos + 1
        else:
            sign, half = half, -2
        if pos >= size:  # no room for the uniform: the next batch starts with this move
            pos, half = start
            break
        starts.append(start[0])
        halves.append(start[1])
        rows += src, sign, shift, pos
        pos += 1
    src, sign, shift, unit = np.array(rows, np.intp).reshape(-1, 4).T
    return _Layout(starts + [pos], halves + [half], (unit + 1).tolist(),
                   np.column_stack([src, sign] + [shift] * (shift_bits == 32)),
                   np.column_stack([unit] + [shift] * (shift_bits == 64)))


@functools.lru_cache(maxsize=6)  # a shift of 0, 32 or 64 bits, with a half kept or not
def _regular_layout(shift_bits: int, kept: bool) -> _Layout:
    """``_layout`` with every shift word taken, for the longest block, ``_BLOCK + _CARRY``."""
    return _layout(shift_bits, kept, _BLOCK + _CARRY)


def _high_product(x: np.ndarray, n: int) -> np.ndarray:
    """The high 64 bits of each x * n, for uint64 x and n < 2^64, from 32-bit halves."""
    n_low, n_high = np.uint64(n & 0xFFFFFFFF), np.uint64(n >> 32)
    x_low, x_high = x & 0xFFFFFFFF, x >> 32
    middle = (x_low * n_low >> 32) + (x_high * n_low & 0xFFFFFFFF) + x_low * n_high
    return x_high * n_high + (x_high * n_low >> 32) + (middle >> 32)


class _Draws:
    """The draws ``np.random.default_rng(seed)`` makes for ``integers`` and ``uniform``.

    Reads the PCG64 bit generator's raw 64-bit outputs a block at a time and
    redoes numpy's arithmetic on them, so the stream stays numpy's bit for bit
    without a ``Generator`` call per draw.  Bounds up to 2^32 take 32-bit words,
    each output split low half first with the high half kept in ``half`` for the
    next word; larger bounds and uniforms take whole outputs, which leave
    ``half`` alone.

    ``moves`` decodes a batch of ``perturb_wasserstein``'s moves from the rest of
    a block at once, with numpy.  A move that reads its draws otherwise calls
    ``redo``, which reads them one at a time through ``below``, the one copy of
    Lemire's method, and ends the batch there.
    """

    def __init__(self, seed: int) -> None:
        self._pcg = np.random.PCG64(seed)  # default_rng(seed)'s bit generator
        self._load(self._block())
        self.half: int | None = None  # the kept high half of the last split output
        self._longest = _FIRST_BATCH  # the next batch's moves at most

    def _block(self) -> np.ndarray:
        """The next ``_BLOCK`` raw outputs."""
        return self._pcg.random_raw(_BLOCK)

    def _load(self, outs: np.ndarray) -> None:
        self._outs, self._pos = outs, 0
        self._words = outs.astype("<u8", copy=False).view("<u4")

    def raw(self) -> int:
        """The next raw output."""
        if self._pos == self._outs.size:
            self._load(self._block())
        self._pos += 1
        return int(self._outs[self._pos - 1])

    @staticmethod
    def _unit(out):
        """uniform(0, 1)'s draw from raw output(s) ``out``: the top 53 bits, scaled."""
        return (out >> 11) * 2.0**-53

    def unit(self) -> float:
        return self._unit(self.raw())

    def below(self, n: int) -> int:
        """``integers(n)`` for n >= 1, by Lemire's method; n = 1 consumes no draw."""
        if n == 1:
            return 0
        bits = 32 if n <= 2**32 else 64
        mask = (1 << bits) - 1
        m = self._word(n) * n
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

    def moves(self, max_shift: int, limit: int) -> Iterator[tuple[int, int, float]]:
        """The next at most ``limit`` moves' draws, decoded from the rest of the block.

        Each is a source word, a shift drawn as ``1 + below(max_shift)`` and
        signed by the sign word's top bit (``below(2)``: Lemire's method never
        rejects a power of two), and a uniform(0, 1) draw.  Where Lemire's
        method rejects the shift's word, the source word reads 0, which no
        caller may take for a regular one.  The stream moves past the batch.
        """
        bits = 0 if max_shift == 1 else 32 if max_shift <= 2**32 else 64
        rejects = (1 << bits) % max_shift  # the low words that Lemire's method rejects
        most = min(limit, self._longest)
        reach = 8 * most  # words to lay out over rejections: twice what most moves read at odds 1/2
        carry = self._outs.size - self._pos < _CARRY
        while True:
            if carry:  # the unread outputs go on to the front of the next block
                self._load(np.concatenate((self._outs[self._pos:], self._block())))
            outs, start, half = self._outs, self._pos, self.half
            words = self._words[2 * start:]
            if bits == 32 and rejects > _FEW_REJECTS:
                span = words[:reach]
                taken = (span * np.uint64(max_shift) & np.uint64(0xFFFFFFFF) >= rejects).tolist()
                layout = _layout(bits, half is not None, span.size // 2, taken + [True], most)
            else:
                layout = _regular_layout(bits, half is not None)
            count = min(most, bisect.bisect(layout.ends, outs.size - start))
            if count:
                break
            carry, reach = True, 2 * reach  # not one move fits: read on
        self._longest *= 2
        drawn = words[layout.words[:count]]
        if half is not None:
            drawn[0, 0] = half  # in place of what offset -1 gathered
        read = outs[start:][layout.outputs[:count]]
        negative = drawn[:, 1] >= 2**31
        if bits == 0:
            shifts = np.where(negative, -1, 1)
        else:
            if bits == 32:
                m = drawn[:, 2].astype(np.uint64) * np.uint64(max_shift)
                high, low = m >> 32, m & 0xFFFFFFFF
            else:
                high, low = _high_product(read[:, 1], max_shift), read[:, 1] * np.uint64(max_shift)
            if rejects:
                drawn[low < rejects, 0] = 0
            shifts = (high + 1).view(np.int64)
            np.negative(shifts, out=shifts, where=negative)

        def state_at(k: int) -> tuple[int, int | None]:
            """The stream at the start of the batch's move k: the next output, the kept half."""
            at = layout.halves[k]
            kept = None if at == -2 else half if at == -1 else int(words[at])
            return start + layout.starts[k], kept

        self._pos, self.half = state_at(count)
        self._state_at, self._srcs = state_at, drawn[:, 0].tolist()
        self._unread = iter(self._srcs)
        return zip(self._unread, shifts.tolist(), self._unit(read[:, 0]).tolist())

    @property
    def batch_size(self) -> int:
        """The moves of the last batch, up to a redone one."""
        return len(self._srcs)

    def redo(self, n: int, max_shift: int) -> tuple[int, int]:
        """The current move's ``below(n)`` and signed shift, drawn one at a time from its
        start; the stream stops just past its sign, and the batch ends with it.

        Only a batch's own block is read before a redo, so its moves' starts are
        in the current block.
        """
        k = len(self._srcs) - operator.length_hint(self._unread) - 1  # zip has taken move k
        del self._srcs[k + 1:]
        self._pos, self.half = self._state_at(k)
        src = self.below(n)
        shift = 1 + self.below(max_shift)
        return src, -shift if self.below(2) else shift


def perturb_wasserstein(p: DayDistribution, eta: float, seed: int) -> DayDistribution:
    """Randomly transport mass of ``p`` with total transport cost at most ``eta``.

    Repeatedly moves a random sliver of mass from a random atom over a random
    integer shift, debiting mass * distance from the budget, until the budget
    is spent or a move cap is reached.  Deterministic for a given seed, and the
    result always satisfies W1(p, result) <= eta.
    """
    seed = _as_int(seed, "the seed", 0)
    eta = _as_real(eta, "eta", least=0.0)
    if eta == 0:
        return p
    moves = 10 * p._days_arr.size
    max_shift = max(1, math.ceil(eta))
    # moved mass can move again, so a day can drift by up to moves * max_shift
    if p.max_day + moves * max_shift >= 2**63:
        raise InvalidParamsError(f"eta={eta} could shift days past the int64 range")
    draws = _Draws(seed)
    mass = dict(zip(p._days_arr.tolist(), p._mass_arr.tolist()))
    atoms = list(mass)  # the days of positive mass, in insertion order
    n = len(atoms)  # below 2^32: a longer list would not fit in memory
    # the least low word of a source word's product with n that the loop takes as is:
    # n, and none at n = 1, which draws no source word
    least = n if n > 1 else 2**32
    budget = eta
    # Each move draws what Generator's integers(len(atoms)), integers(1,
    # max_shift + 1), integers(2) and uniform(0, cap) would, decoded a batch at a
    # time by draws.moves.  A move that draws otherwise is redone a draw at a
    # time: one at n = 1, which draws no source; one whose source word Lemire's
    # method could reject for n, or whose shift word it rejects; and one from
    # day 1 back, which moves nothing and so draws no uniform.
    while moves and budget > 1e-12:
        for word, shift, unit in draws.moves(max_shift, moves):
            if budget <= 1e-12:
                break
            m = word * n
            if m & 0xFFFFFFFF >= least:
                src = atoms[m >> 32]
            else:
                index, shift = draws.redo(n, max_shift)
                src = atoms[index]
                if src == 1 and shift < 0:
                    continue  # moves nothing, and draws no uniform
                unit = draws.unit()
            if shift < 0:
                dest = src + shift
                if dest < 1:
                    if src == 1:  # the batch read a uniform that this move does not draw
                        draws.redo(n, max_shift)
                        continue
                    dest = 1
                dist = src - dest
            else:
                dest = src + shift
                dist = shift
            cap = budget / dist
            left = mass[src]
            if left < cap:
                cap = left
            delta = cap * unit
            if delta <= 0.0:
                continue
            left -= delta
            mass[src] = left
            old = mass.get(dest)
            if old is None:
                atoms.append(dest)
                n = least = n + 1
                mass[dest] = delta
            else:
                mass[dest] = old + delta
            if left == 0.0 or old == 0.0:
                # rare: a zeroed day leaves the list, a revived one keeps its old place
                atoms = [d for d, m in mass.items() if m > 0.0]
                n = len(atoms)
                least = n if n > 1 else 2**32
            budget -= delta * dist
        moves -= draws.batch_size
    days = np.fromiter(mass, np.int64, len(mass))
    masses = np.fromiter(mass.values(), float, len(mass))
    days, masses = days[masses > 0.0], masses[masses > 0.0]
    order = np.argsort(days)  # the days are unique
    days, masses = days[order], masses[order]
    days.flags.writeable = masses.flags.writeable = False  # kept by the pmf, not copied
    out = DayDistribution(days, masses)
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


def _need(params: Mapping[str, Any], key: str) -> Any:
    if key not in params:
        raise InvalidParamsError(f"missing parameter {key!r}")
    return params[key]


def _holds_bool(values: ArrayLike) -> bool:
    """Whether a tuple or list holds a bool, which numpy reads as the number 0 or 1.

    Neither bool type can be subclassed, so comparing types is an isinstance test.
    """
    return not isinstance(values, np.ndarray) and not {bool, np.bool_}.isdisjoint(map(type, values))


def _frozen(values: ArrayLike, dtype: type) -> np.ndarray:
    """``values`` itself if it is a read-only ``np.ndarray`` of ``dtype`` owning its
    memory, else a read-only copy of it as ``dtype``.

    The one storage rule of pmfs and cost-function columns: an array that is
    kept is shared, so whoever froze it must not write to it through another view.
    """
    if (type(values) is np.ndarray and values.dtype == dtype and values.base is None
            and not values.flags.writeable):
        return values
    values = np.array(values, dtype=dtype)
    values.flags.writeable = False
    return values


def _running_sum(values: np.ndarray) -> np.ndarray:
    """The zero-led running sum [0, v_1, v_1 + v_2, ...], bit for bit
    ``np.cumsum(np.append(0.0, values))`` without the appended copy."""
    out = np.empty(values.size + 1)
    out[0] = 0.0
    values.cumsum(out=out[1:])
    return out


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


def _as_real(value: Any, what: str, *, above: float = -math.inf, least: float = -math.inf,
             below: float = math.inf, most: float = math.inf) -> float:
    """The one real-number rule: ``value`` as a finite Python float within the bounds.

    An int, a float or a numpy integer or floating value is accepted; a bool, a
    string, None, any other type, NaN, an infinity, or a value not above
    ``above``, not below ``below``, under ``least`` or over ``most`` raises
    InvalidParamsError.  A plain float takes no conversion: R is read so on
    every check of the level bisection.
    """
    number = value
    if type(value) is not float:
        if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
            number = math.nan
        else:
            try:
                number = float(value)
            except OverflowError:  # an int past float range
                number = math.inf
    # the strict infinite defaults reject NaN and both infinities too
    if not (above < number < below and least <= number <= most):
        bounds = [f"{op} {bound}" for op, bound in ((">", above), (">=", least), ("<", below),
                                                     ("<=", most)) if math.isfinite(bound)]
        raise InvalidParamsError(f"{what} must be a finite number{' ' if bounds else ''}"
                                 f"{' and '.join(bounds)}, got {value!r}")
    return number


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


def _parse_atoms(entries: Any) -> list:
    """A decoded ``[[day, mass], ...]`` list, checked for shape; ``from_pairs`` reads the values."""
    if not isinstance(entries, list) or not entries:
        raise InvalidParamsError("expected a non-empty list of [day, mass] pairs")
    if not all(isinstance(entry, (list, tuple)) and len(entry) == 2 for entry in entries):
        raise InvalidParamsError("each entry must be a [day, mass] pair")
    return entries


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
        mean = _as_real(_need(params, "mean"), "parameter 'mean'")
        stddev = _as_real(_need(params, "stddev"), "parameter 'stddev'", above=0.0)
        days = _day_range(params, "gaussian")
        weights = np.exp(-0.5 * ((days - mean) / stddev) ** 2)
        total = float(weights.sum())
        if total <= 0.0:
            raise EmptySupportError("all gaussian mass truncated away")
        return DayDistribution(days, weights / total)
    if family is Family.GEOMETRIC_TRUNCATED:
        rate = _as_real(_need(params, "rate"), "parameter 'rate'", above=0.0, below=1.0)
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
        return DayDistribution.from_pairs(atoms)
    if family is Family.ONE_HOT:
        return DayDistribution((_as_int(_need(params, "y"), "parameter 'y'", 1),), (1.0,))
    return DayDistribution.from_pairs(_parse_atoms(_need(params, "atoms")))  # the family left: custom


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
