"""The exact refine LP of water filling, and the primal simplex that solves it.

Over the candidate days t of a cost function
(``randomized._FillTable.candidates``), with costs c_t, the LP minimises
sum c_t f_t subject to
  row x = 1..b-1:  sum_{t <= x} (t-1+b-x) f_t + s_x = (R-1) x,
  the tail row:    sum_t (t-1) f_t + s_T = (R-1) b,
  the mass row:    sum_t f_t = 1,        with f, s >= 0.
Its rows are prefix sums along the day, a staircase (Fourer, "Solving staircase
linear programs by the simplex method", Math. Programming, 1982).  A basis is
the set S of candidates whose f is basic and the set X of rows whose slack is
nonbasic (zero), with |S| = |X| + 1.  Below b every day x is of one of three
kinds: A (in S and X, as on a fill's runs), G (in neither, a gap) or C (in S
only, like a fill's last day).

The lemma that leaves three kinds: rows x - 1 and x differ by one recurrence,
s_x = s_{x-1} + (R-1) + F_{x-1} - (b-1) f_x with F_x the mass bought by day x,
so at any feasible point a row below b whose day holds no mass has slack at
least R - 1 > 0, and a tight row's day holds mass at least (R-1)/(b-1).  The
warm start makes a row tight only on a support day, and a pivot only turns a
day A or G into C, C back into A or G, or the entering day into the other of
A and G; so no basis has a fourth kind, in X only.  Nor can an A day's mass or
a gap's slack reach zero along a step, save on the entering day: the ratio
test and the feasibility check look only at the C days, the masses from day b
on, a basic tail slack and the entering day's other variable.

The simplex keeps the basis as its pieces, the runs of one kind, from pivot to
pivot: a pivot splits or merges the pieces next to the at most two days that
change kind.  A step costs O(pieces + cost rows) in plain Python, with a few
numpy calls on per-piece columns and no per-day array; the O(b + n) tables
it reads are built once per solve.

``randomized`` imports this module only when exact water filling runs.
"""
from __future__ import annotations

import bisect
import math
import warnings
from typing import NamedTuple

import numpy as np

from .randomized import (CostFunction, StoppingDistribution, _fill_table, _log_gamma,
                         expected_policy_cost)

_G, _C, _A = 0, 1, 3  # S + 2 X on a day below b
MAX_PIVOTS_PER_ROW = 20  # the simplex stops after this many pivots per LP row


def _solve_unknowns(rows: list, known: int) -> list[list[float]]:
    """The unknowns that zero a pass's equations, one list per known column.

    Each row is an equation over the pass's columns: ``known`` right-hand sides
    first, then one column per unknown.  By the lemma a basis leaves one
    unknown, two when the tail row is tight: the C days and the S candidates
    from day b on in a primal pass, lam and y_T in a dual one.  Gaussian
    elimination with partial pivoting, written out for those two sizes.
    """
    k = len(rows)
    if k not in (1, 2) or any(len(row) != k + known for row in rows):
        raise ArithmeticError("the basis is not square")
    if k == 1:  # a fill's basis, and most others
        if rows[0][known] == 0.0:
            raise ArithmeticError("singular basis")
        return [[-v / rows[0][known]] for v in rows[0][:known]]
    top, low = rows
    if abs(low[known]) > abs(top[known]):
        top, low = low, top
    pivot, upper = top[known:]
    if pivot == 0.0:
        raise ArithmeticError("singular basis")
    top_rhs, low_rhs = [-v for v in top[:known]], [-v for v in low[:known]]
    rest = low[known + 1]
    factor = low[known] / pivot
    if factor:
        rest -= factor * upper
        low_rhs = [u - factor * v for u, v in zip(low_rhs, top_rhs)]
    if rest == 0.0:
        raise ArithmeticError("singular basis")
    out = []
    for u, v in zip(top_rhs, low_rhs):
        second = v / rest
        out.append([(u - upper * second) / pivot, second])
    if not all(math.isfinite(v) for col in out for v in col):
        raise ArithmeticError("singular basis")
    return out


def _taken(prices: list[float], cut: float, bland: bool) -> int:
    """The first price below ``cut`` with ``bland``, else the least if below it;
    -1 if there is none."""
    if bland:
        return next((k for k, price in enumerate(prices) if price < cut), -1)
    least = min(prices, default=cut)
    return prices.index(least) if least < cut else -1


class _Basis(NamedTuple):
    """A basis as pieces: the maximal runs of one kind over days 1..b-1, each C day
    alone.  No two neighbours share a kind other than C: ``warm_basis`` puts a gap
    between runs, and ``_set_bit`` merges a changed day into a neighbour of its kind."""

    pieces: list  # (kind, first day, last day), in day order
    starts: list[int]  # the pieces' first days
    end: list[int]  # the S candidates from day b on, in order
    tail_tight: bool  # whether the tail row is in X


def _set_bit(pieces: list, starts: list[int], day: int, bit: int, on: bool) -> None:
    """Set or clear ``bit`` of ``day``'s kind: split its piece there, and merge the
    day into a run next to it of its new kind."""
    i = bisect.bisect_right(starts, day) - 1
    old, s, e = pieces[i]
    kind = old | bit if on else old & ~bit
    new = [(old, s, day - 1), (kind, day, day)] if s < day else [(kind, day, day)]
    if day < e:
        new.append((old, day + 1, e))
    lo, hi = i, i + 1
    if s == day and i and pieces[i - 1][0] == kind != _C:
        lo = i - 1
        new[0] = (kind, pieces[lo][1], day)
    if e == day and hi < len(pieces) and pieces[hi][0] == kind != _C:
        new[-1] = (kind, new[-1][1], pieces[hi][2])
        hi += 1
    pieces[lo:hi] = new
    starts[lo:hi] = [first for _, first, _ in new]


class _Vertex(NamedTuple):
    """A basic solution piece by piece, and the basic variables that can block a step.

    ``value`` holds, per piece, the first day's f (A) or scaled slack (gap),
    then per piece its rise a day, then f and scaled slack on each C day, then
    the tail's scaled slack; ``end`` holds f on the S candidates from day b on
    (``end_ids``).  Slacks are divided by b - 1, their rows' scale.
    ``blocking`` holds (value, change per unit of the entering variable,
    variable number) for each basic variable that can reach zero, in day
    order: f and slack on each C day, the entering day's other variable, f on
    the candidates from day b on, and the tail's slack when basic.
    """

    pieces: list
    value: list
    end: list
    end_ids: list[int]
    blocking: list


class _Dual(NamedTuple):
    """The basic dual of ``basis``: lam, y_T, and W and E at each piece's last day."""

    basis: _Basis
    lam: float
    y_T: float
    W: list[float]
    E: list[float]


class Staircase:
    """The exact refine LP, with basis solves by substitution along its rows.

    The prefix rows make every basis a chain in the day: below b the state
    U_x = s_x + (b-1) F_x, with F_x the mass bought by day x, grows by
    F_{x-1} + R - 1 a day, so a primal solve runs forward and a dual solve
    backward, with one closed form per piece of equal kind.  A C day and an S
    candidate from day b on each add an unknown, the mass row and a tight tail
    row an equation; a pass runs once per unknown and solves for them at its
    end.  Bases carry one or two unknowns, so a solve costs O(pieces).
    Pricing costs O(pieces + cost rows): along a stretch of one piece and one
    cost row each price is linear or geometric in the day, so its ends
    decide it.
    """

    def __init__(self, g: CostFunction, b: int, R: float) -> None:
        self.b, self.R = b, R
        self.t, self.c = _fill_table(g, b).candidates(g)
        self.log_gamma = lg = _log_gamma(b)
        days = np.arange(b - 1)
        inv_growth = np.exp(-lg * (days + 1))  # gamma^-x on days 1..b-1
        # H[x] = sum_{x <= u < b} gamma^u (c_{u+1} - c_u) / (b-1): along an A run
        # the dual's W_x = gamma W_{x+1} + (c_{x+1} - c_x) / (b-1)
        h = np.diff(self.c[:b]) / (inv_growth * (b - 1.0))
        H = np.zeros(b + 1)
        np.cumsum(h[::-1], out=H[b - 1:0:-1])
        # day by day reads, each a Python float
        self.t_at, self.c_at, self.H = memoryview(self.t), memoryview(self.c), memoryview(H)
        self.inv_growth, self.expm1 = memoryview(inv_growth), memoryview(np.expm1(days * lg))
        # the days next to each change of the cost's row below b, and the tail
        cuts = g.hi[:np.searchsorted(g.hi, b - 1.0)].astype(np.int64)
        near = np.zeros(b, dtype=bool)
        near[cuts - 1] = near[cuts] = near[cuts + 1] = True
        self.marks = (np.flatnonzero(near[1:]) + 1).tolist()
        self._probed = {}  # ``_ends`` by piece, as most pieces outlive a pivot
        self.tail_c, self.tail_t = self.c[b - 1:].tolist(), self.t[b - 1:].tolist()

    def warm_basis(self, fill: StoppingDistribution) -> _Basis | None:
        """The basis of a level fill: its days in S, and the rows of its days below b in X
        but for a last day there, which completes the mass.

        A fill is a vertex: a partial fill leaves no moment budget for a tail day
        once its run reaches day b, so only one day from b on is in S.  The pieces
        are the fill's runs below b and the gaps between them.  None if a fill day
        is not a candidate day.
        """
        b, days, tail = self.b, fill._days_arr, self.tail_t
        early = int(np.searchsorted(days, b))  # days are sorted
        end = []
        for day in days[early:].tolist():  # day b is candidate b - 1
            k = bisect.bisect_left(tail, day)
            if k == len(tail) or tail[k] != day:
                return None
            end.append(b - 1 + k)
        pieces, day = [], 1
        if early:  # the runs of fill days below b, each but the last ending on a jump
            head = days[:early]
            jumps = np.flatnonzero(head[1:] - head[:-1] != 1)
            for first, last in zip(head[np.concatenate(((0,), jumps + 1))].tolist(),
                                   head[np.concatenate((jumps, (early - 1,)))].tolist()):
                pieces += [(_G, day, first - 1)] * (day < first) + [(_A, first, last)]
                day = last + 1
        if early == days.size:  # the fill's last day is below b: a C day
            _, first, last = pieces.pop()
            pieces += [(_A, first, last - 1)] * (first < last) + [(_C, last, last)]
        pieces += [(_G, day, b - 1)] * (day < b)
        return _Basis(pieces, [s for _, s, _ in pieces], end, False)

    def pivot(self, basis: _Basis, entering: int, leaving: int) -> _Basis:
        """The basis with variable ``entering`` in place of ``leaving``.

        Variables are numbered as in ``primal``.  A day's f joins S as it
        enters and leaves S as it leaves; a row's slack leaves X as it enters
        and joins X as it leaves.  At most two days change kind.
        """
        b, n = self.b, self.t.size
        pieces, starts, end = basis.pieces[:], basis.starts[:], basis.end
        tail_tight = basis.tail_tight
        # entering first: a day whose two variables swap passes through C
        for var, enters in ((entering, True), (leaving, False)):
            if var < b - 1:  # f on a day below b: S is bit 1 of its kind
                _set_bit(pieces, starts, var + 1, 1, enters)
            elif var < n:
                end = sorted(end + [var]) if enters else [v for v in end if v != var]
            elif var < n + b - 1:  # a row's slack: X is bit 2
                _set_bit(pieces, starts, var - n + 1, 2, not enters)
            else:
                tail_tight = not enters
        return _Basis(pieces, starts, end, tail_tight)

    def primal(self, basis: _Basis, entering: int = -1) -> _Vertex:
        """Basic solution and its change per unit of variable ``entering``.

        Variables are numbered f_0..f_{n-1}, then the slacks s_1..s_{b-1}, s_T.
        """
        b, n, lg = self.b, self.t.size, self.log_gamma
        q = entering
        day = q + 1 if q < b - 1 else q - n + 1 if n <= q < n + b - 1 else 0
        pieces = list(basis.pieces)
        j = len(pieces)  # the entering day's piece
        if day:  # the entering day is a piece of its own
            i = bisect.bisect_right(basis.starts, day) - 1
            kind, s, e = pieces[i]
            pieces[i:i + 1] = ([(kind, s, day - 1)] * (s < day) + [(kind, day, day)]
                               + [(kind, day + 1, e)] * (day < e))
            j = i + (s < day)
        grow = [math.expm1((e - s) * lg) for _, s, e in pieces]  # f's rise along an A run
        t_end = [self.t_at[i] for i in basis.end]
        tight = basis.tail_tight
        c_pieces = [i for i, (kind, _, _) in enumerate(pieces) if kind == _C]
        # one pass per column: the solution, the direction, then a unit of each
        # unknown, f on a C day or on an S candidate from day b on; a unit
        # column is zero up to its day's piece, so its pass starts there
        forward = self._forward
        columns = [forward(pieces, grow, t_end, tight, 0, 0, self.R - 1.0, 1.0, 0, 0, 0.0)]
        lead = bisect.bisect_left(c_pieces, j)
        if q < b - 1:
            columns.append(forward(pieces, grow, t_end, tight, j, lead, 0.0, 0.0, day, 0, 0.0))
        elif q < n:
            columns.append(forward(pieces, grow, t_end, tight, j, lead, 0.0, 0.0, 0, 0,
                                   self.t_at[q]))
        else:
            columns.append(forward(pieces, grow, t_end, tight, j, lead, 0.0, 0.0, 0, day or b,
                                   0.0))
        columns += [forward(pieces, grow, t_end, tight, i, k, 0.0, 0.0, pieces[i][1], 0, 0.0)
                    for k, i in enumerate(c_pieces)]
        columns += [forward(pieces, grow, t_end, tight, len(pieces), len(c_pieces), 0.0, 0.0,
                            0, 0, t) for t in t_end]
        known = _solve_unknowns(list(zip(*(col[0] for col in columns))), 2)
        coef = np.array([[1.0, 0.0] + known[0], [0.0, 1.0] + known[1]])
        value, change = (coef @ np.array([col[1] for col in columns])).tolist()
        end_value, end_change = (col[len(col) - len(t_end):] for col in known)
        # f and slack on each C day and the entering day's other variable, f on A
        # and slack on G, in day order
        blocking, k = [], 2 * len(pieces)
        for i in sorted(c_pieces + [j]) if day else c_pieces:
            kind, s, _ = pieces[i]
            if kind == _C:
                blocking += [(value[k], change[k], s - 1),
                             (value[k + 1], change[k + 1], n + s - 1)]
                k += 2
            else:
                blocking.append((value[i], change[i], s - 1 if kind == _A else n + s - 1))
        blocking += zip(end_value, end_change, basis.end)
        if not tight:
            blocking.append((value[-1], change[-1], n + b - 1))
        return _Vertex(pieces, value, end_value, basis.end, blocking)

    def _forward(self, pieces: list, grow: list, t_end: list, tail_tight: bool, start: int,
                 c_start: int, rho: float, mass: float, f_day: int, s_day: int,
                 f_end: float) -> tuple[list[float], list[float]]:
        """One column of a primal solve, from day 1 up.

        The column has R - 1 = ``rho`` and the mass ``mass``, and a unit of f
        on day ``f_day`` (a C day's unknown or an entering gap day) or on day
        ``f_end`` from b on, or of slack on row ``s_day`` (b for the tail).
        Returns the residuals of the mass row and a tight tail row, and per
        piece the first day's f (A) or scaled slack (gap), then per piece its
        rise per day, then f and scaled slack on each C day and the tail's
        slack.  The pass starts at piece ``start``, with ``c_start`` C days
        before it: a column with rho = 0 is 0.0 before its unit's day.
        """
        b = self.b
        count = len(pieces)
        out = [0.0] * (2 * count) + [0.0, 0.0] * c_start
        U = F = 0.0
        for i in range(start, count):
            kind, s, e = pieces[i]
            last = F
            U += F + rho
            if kind == _A:  # tight: F_x = (U_x - s_x) / (b-1); then f grows by gamma a day
                F = (U - (s == s_day)) / (b - 1.0)
                out[i] = F - last
                out[count + i] = (F + rho) / (b - 1.0)
                if e > s:
                    F += grow[i] * (F + rho)
                    U = (b - 1.0) * F
                continue
            if s == f_day:
                F += 1.0
            slack = U / (b - 1.0) - F
            if kind == _C:
                out += (F - last, slack)
            else:  # a gap's slack grows by F + R - 1 a day
                out[i] = slack
                out[count + i] = (F + rho) / (b - 1.0)
                U += (e - s) * (F + rho)
        tail = rho + U - (b - 2.0) * F - max(f_end - 1.0, 0.0)
        out.append(tail / (b - 1.0))
        if tail_tight:
            return [F + (f_end > 0.0) - mass, tail - (s_day == b)], out
        return [F + (f_end > 0.0) - mass], out

    def feasible(self, v: _Vertex) -> bool:
        """Whether no basic variable of ``v`` that can block falls below -1e-9; by
        the lemma the A days' masses and the gaps' slacks are then positive."""
        return min((value for value, _, _ in v.blocking), default=0.0) >= -1e-9

    def leaving(self, v: _Vertex) -> tuple[int, float]:
        """The ratio test: the blocking variable that first reaches zero as the
        entering one grows, and that step.

        Ties go to the smallest variable number on a degenerate step, else to the
        steepest fall.
        """
        ratios = [((value if value > 1e-13 else 0.0) / -change, change, number)
                  for value, change, number in v.blocking if change < -1e-12]
        if not ratios:
            raise ArithmeticError("unbounded step")
        theta = min(r[0] for r in ratios)
        ties = [r for r in ratios if r[0] <= theta * (1.0 + 1e-12)]
        if theta == 0.0:
            return min(r[2] for r in ties), theta
        return min(ties, key=lambda r: r[1])[2], theta

    def masses(self, v: _Vertex) -> np.ndarray:
        """f on every candidate day at the basic solution of ``v``."""
        b, count = self.b, len(v.pieces)
        kinds, starts, ends = (np.array(col) for col in zip(*v.pieces))
        value = np.array(v.value)
        lengths = ends - starts + 1
        piece = np.repeat(np.arange(count), lengths)
        off = np.arange(b - 1) - (starts - 1)[piece]
        f = np.where(off == 0, value[piece],
                     value[count + piece] * np.exp((off - 1) * self.log_gamma))
        f[(kinds != _A)[piece]] = 0.0
        mass = np.zeros(self.t.size)
        mass[:b - 1] = f
        c_days = starts[kinds == _C]
        mass[c_days - 1] = value[2 * count:len(value) - 1:2]
        mass[v.end_ids] = v.end
        return np.clip(mass, 0.0, None)

    def dual(self, basis: _Basis) -> _Dual:
        """Basic dual of ``basis``: lam, y_T, and W and E at each piece's last day.

        The dual makes every S day's reduced cost zero and puts y = 0 off X: lam
        prices the mass row, y_x row x and y_T the tail row.
        """
        pieces, end = basis.pieces[::-1], basis.end
        t_end, c_end = [self.t_at[i] for i in end], [self.c_at[i] for i in end]
        # one pass per column: the costs, then a unit of each unknown
        backward = self._backward
        columns = [backward(pieces, t_end, c_end, True, 0.0, 0.0),
                   backward(pieces, t_end, c_end, False, 1.0, 0.0)]
        if basis.tail_tight:
            columns.append(backward(pieces, t_end, c_end, False, 0.0, 1.0))
        coef = np.array([1.0] + _solve_unknowns(list(zip(*(col[0] for col in columns))), 1)[0])
        count = len(pieces)
        # W, then E, from day 1 up
        rec = (coef @ np.array([col[1] for col in columns]))[::-1].tolist()
        return _Dual(basis, float(coef[1]), float(coef[2]) if basis.tail_tight else 0.0,
                     rec[:count], rec[count:])

    def _backward(self, pieces: list, t_end: list, c_end: list, costs: bool, lam: float,
                  y_T: float) -> tuple[list, list]:
        """One column of a dual solve, from day b down.

        The column has the costs if ``costs``, and the given lam and y_T.  With
        W_t = y_T + sum_{x >= t} y_x and Z_t = sum_{x >= t} (b-x) y_x, day t's
        reduced cost is c_t + E_t where E_t = (t-1) W_t + Z_t - lam falls by
        W_{t+1} from day t+1 to t and rises by (b-1) y_t.  Returns the residuals
        of the S candidates from day b on and of the C days, then W and E at
        each piece's last day, from the top.
        """
        b, lg, c, H = self.b, self.log_gamma, self.c_at, self.H
        W, E = y_T, (b - 1.0) * y_T - lam
        residuals = [E + (t - b) * W + (cost if costs else 0.0) for t, cost in zip(t_end, c_end)]
        rec_W, rec_E = [], []
        for kind, s, e in pieces:
            if kind == _A:  # r_x = 0, with y_x free
                cost = c[e - 1] if costs else 0.0
                W += (W - E - cost) / (b - 1.0)
                E = -cost
            else:
                E -= W
                if kind == _C:
                    residuals.append(E + (c[e - 1] if costs else 0.0))
            rec_W.append(W)
            rec_E.append(E)
            if e > s:
                if kind == _A:  # W_s = gamma^(e-s) W_e + gamma^-s (H_s - H_e)
                    W *= 1.0 + math.expm1((e - s) * lg)
                    if costs:
                        W += math.exp(-s * lg) * (H[s] - H[e])
                    E = -c[s - 1] if costs else 0.0
                else:
                    E -= (e - s) * W
        return residuals, rec_E + rec_W

    def _prices(self, dual: _Dual, i: int, days) -> list[float]:
        """Prices on ``days`` of piece i: f's, c_t + E - (e - t) W, off an A run;
        along one the slack's, (b-1) y_x = (b-1) (W_x - W_{x+1}), with each W
        by the run's closed form, W_b = y_T, and W_{e+1} the next piece's W: that
        piece is no A run (``_Basis``), so W is constant along it."""
        kind, _, e = dual.basis.pieces[i]
        b, W = self.b, dual.W[i]
        if kind != _A:
            c, E = self.c_at, dual.E[i]
            return [c[t - 1] + (E - (e - t) * W) for t in days]
        expm1, inv_growth, H = self.expm1, self.inv_growth, self.H
        H_e = H[e]
        after = dual.W[i + 1] if e < b - 1 else dual.y_T
        return [(b - 1.0) * (W + (expm1[e - x] * W + inv_growth[x - 1] * (H[x] - H_e))
                             - (W + (expm1[e - x - 1] * W + inv_growth[x] * (H[x + 1] - H_e))
                                if x < e else after)) for x in days]

    def _ends(self, s: int, e: int, kind: int) -> list[int]:
        """Days s and e of piece (kind, s, e), e - 1 on an A run, and each day of it
        next to a change of cost row.

        f on a gap day t prices c_t + E - (e - t) W, linear in t along one cost
        row; the slack on an A day x prices (b-1) y_x = W_{x+1} + c_{x+1} - c_x,
        geometric in x while x + 1 shares x's row, and day e reads the next
        piece.  So every stretch of monotone prices ends on these days, and two
        of them with days between them are the ends of one stretch.
        """
        days = self._probed.get((s, e, kind))
        if days is None:
            marks = self.marks
            days = marks[bisect.bisect_left(marks, s):bisect.bisect_right(marks, e)]
            if not days or days[0] != s:
                days.insert(0, s)
            if days[-1] != e:
                days.append(e)
            if kind == _A and e - 1 > s and days[-2] != e - 1:
                days.insert(-1, e - 1)
            self._probed[s, e, kind] = days
        return days

    def _tail_prices(self, dual: _Dual) -> list[float]:
        """f's price on each candidate from day b on: c_t - lam + (t - 1) y_T."""
        lam, y_T = dual.lam, dual.y_T
        if y_T:
            return [cost - lam + (t - 1.0) * y_T for cost, t in zip(self.tail_c, self.tail_t)]
        return [cost - lam for cost in self.tail_c]

    def entering(self, dual: _Dual, tol: float, bland: bool) -> int:
        """The entering variable, -1 if every price is at least -``tol``: the least
        price (Dantzig), or with ``bland`` the first below -``tol``; exact ties go
        to the lowest variable number.

        Variables are priced in their order: f on the gaps, f from day b on,
        the slacks on the A runs, the tail's slack; gaps and runs on ``_ends``'
        days alone, and ``_settle`` finds the stretch's first day to match the
        one taken.
        """
        b, n, c, pieces = self.b, self.t.size, self.c_at, dual.basis.pieces
        cut, found = -tol, None  # prices below cut are taken; (piece, offset, low, day)
        for i, (kind, s, e) in enumerate(pieces):
            if kind == _G:  # f on gap day t prices c_t + E - (e - t) W, as in _prices
                W, E, low = dual.W[i], dual.E[i], s - 1
                for t in self._ends(s, e, kind):
                    price = c[t - 1] + (E - (e - t) * W)
                    if price < cut:
                        if bland:
                            return self._settle(dual, i, -1, low, t, cut, bland)
                        cut, found = price, (i, -1, low, t)
                    low = t
        prices = self._tail_prices(dual)
        for var in dual.basis.end:
            prices[var - b + 1] = math.inf
        k = _taken(prices, cut, bland)
        if k >= 0:
            if bland:
                return b - 1 + k
            cut, found = prices[k], (-1, b - 1, k - 1, k)
        for i, (kind, s, e) in enumerate(pieces):
            if kind == _A:
                days = self._ends(s, e, kind)
                prices = self._prices(dual, i, days)
                k = _taken(prices, cut, bland)
                if k >= 0:
                    low = days[k - 1] if k else s - 1
                    if bland:
                        return self._settle(dual, i, n - 1, low, days[k], cut, bland)
                    cut, found = prices[k], (i, n - 1, low, days[k])
        if dual.basis.tail_tight and (b - 1.0) * dual.y_T < cut:
            return n + b - 1
        return self._settle(dual, *found, cut, bland) if found else -1

    def _settle(self, dual: _Dual, i: int, offset: int, low: int, day: int, cut: float,
                bland: bool) -> int:
        """The variable of the first day in (low, day] of piece i taken as day is:
        below ``cut`` (Bland), or at most ``cut``, day's price (Dantzig).  Day low
        is not; if it ends day's stretch the days between may be, and a bisection
        finds the first, the stretch's prices being monotone."""
        while day - low > 1:
            mid = (low + day) // 2
            price = self._prices(dual, i, (mid,))[0]
            low, day = (low, mid) if (price < cut if bland else price <= cut) else (mid, day)
        return offset + day

    def bound(self, dual: _Dual) -> float:
        """Weak-duality lower bound on every robust policy's cost, from a dual and its
        reduced costs r.

        A robust policy f costs sum r_t f_t + lam - sum_x y_x L_x(f) - y_T L_T(f),
        where row x reads L_x(f) <= (R-1) x and the tail L_T(f) <= (R-1) b.  As
        sum f = 1 and L >= 0, that is at least lam + min(0, min r) minus (R-1)
        times the rows' right-hand sides weighted by the positive prices alone,
        whatever the signs of y and r; so a dual whose complementary slackness
        holds only up to rounding cannot make the bound unsafe.  O(b + n).
        """
        b, pieces = self.b, dual.basis.pieces
        least, moments = min(self._tail_prices(dual)), b * max(dual.y_T, 0.0)
        for i, (kind, s, e) in enumerate(pieces):
            prices = self._prices(dual, i, range(s, e + 1))
            if kind == _A:  # f's reduced cost is zero; the slacks' prices are (b-1) y
                moments += math.fsum(x * max(p, 0.0) for x, p in enumerate(prices, s)) / (b - 1.0)
            else:
                least = min(least, min(prices))
        return dual.lam + min(0.0, least) - (self.R - 1.0) * moments


def refine(g: CostFunction, b: int, R: float,
           fill: StoppingDistribution) -> StoppingDistribution:
    """The optimum of the LP for costs ``g``, by a primal simplex from ``fill``.

    The simplex is warm-started from the basis of ``fill``, a level fill, and
    priced with that basis's dual.  It stops when every reduced cost is at
    least -1e-12 (1 + max c), a zero-gap certificate up to that tolerance;
    when the fill's own pricing passes, ``fill`` is returned at once, with no
    pivot and no primal solve.  After a degenerate step it follows Bland's
    rule until a step moves.  If it reaches its pivot cap
    (``MAX_PIVOTS_PER_ROW`` per row) or a solve breaks down, a RuntimeWarning
    names the pivots and the gap left to the dual bound, and the last vertex
    reached is kept.  Returns ``fill`` itself unless that vertex costs less.
    """
    lp = Staircase(g, b, R)
    tol = 1e-12 * (1.0 + float(np.abs(lp.c).max()))
    basis = lp.warm_basis(fill)
    best = dual = None  # the last vertex whose solution held, and the last dual
    pivots, bland, reason = 0, False, ""
    try:
        if basis is None:
            raise ArithmeticError("a fill day is not a candidate day")
        while True:
            dual = lp.dual(basis)
            q = lp.entering(dual, tol, bland)
            if q < 0 and best is None:  # the fill's own pricing proves it optimal
                return fill
            vertex = lp.primal(basis, q)
            if not lp.feasible(vertex):
                raise ArithmeticError("basic solution infeasible")
            best = vertex
            if q < 0:
                break
            if pivots >= MAX_PIVOTS_PER_ROW * (b + 1):
                reason = "its pivot cap"
                break
            leave, theta = lp.leaving(vertex)
            basis = lp.pivot(basis, q, leave)
            pivots += 1
            bland = theta == 0.0
    except ArithmeticError as err:
        reason = f"a numerical breakdown ({err})"
    refined = fill
    if best is not None:
        mass = lp.masses(best)
        mass /= mass.sum()
        keep = mass > 1e-14
        days, mass = lp.t[keep].astype(np.int64), mass[keep]
        days.flags.writeable = mass.flags.writeable = False  # kept by the pmf, not copied
        refined = StoppingDistribution(days, mass)
    objective = expected_policy_cost(refined, g)
    if reason:
        gap = objective - lp.bound(dual) if dual is not None else math.inf
        warnings.warn(f"exact refine LP stopped after {pivots} pivots on {reason}, "
                      f"{gap:.3g} above its dual bound; keeping the best policy it reached",
                      RuntimeWarning, stacklevel=4)
    return refined if objective < expected_policy_cost(fill, g) else fill
