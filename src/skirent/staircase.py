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


class _Layout(NamedTuple):
    """A basis as pieces: the runs of one kind over days 1..b-1, each C day alone."""

    kinds: list[int]
    starts: list[int]  # first days
    ends: list[int]  # last days
    end: np.ndarray  # the S candidates from day b on
    piece: np.ndarray  # per day 1..b-1: its piece
    below: np.ndarray  # per day: days to its piece's last day
    on_a: np.ndarray  # per day: an A day


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
    end_ids: np.ndarray
    blocking: list


class Staircase:
    """The exact refine LP, with basis solves by substitution along its rows.

    The prefix rows make every basis a chain in the day: below b the state
    U_x = s_x + (b-1) F_x, with F_x the mass bought by day x, grows by
    F_{x-1} + R - 1 a day, so a primal solve runs forward and a dual solve
    backward, with one closed form per piece of equal kind.  A C day and an S
    candidate from day b on each add an unknown, the mass row and a tight tail
    row an equation; a pass runs once per unknown and solves for them at its
    end.  Bases carry one or two unknowns, so a solve costs O(b + n).
    """

    def __init__(self, g: CostFunction, b: int, R: float) -> None:
        self.b, self.R = b, R
        self.t, self.c = _fill_table(g, b).candidates(g)
        self.log_gamma = _log_gamma(b)
        self.days = np.arange(1, b)
        self.inv_growth = np.exp(-self.log_gamma * self.days)  # gamma^-x on days 1..b-1
        # H[x] = sum_{x <= u < b} gamma^u (c_{u+1} - c_u) / (b-1): along an A run
        # the dual's W_x = gamma W_{x+1} + (c_{x+1} - c_x) / (b-1)
        h = np.diff(self.c[:b]) / (self.inv_growth * (b - 1.0))
        self.H = np.zeros(b + 1)
        np.cumsum(h[::-1], out=self.H[b - 1:0:-1])

    def warm_basis(self, fill: StoppingDistribution) -> tuple[np.ndarray, np.ndarray] | None:
        """The basis of a level fill: its days in S, and the rows of its days below b in X
        but for a last day there, which completes the mass.

        A fill is a vertex: a partial fill leaves no moment budget for a tail day
        once its run reaches day b, so only one day from b on is in S.  None if a
        fill day is not a candidate day.
        """
        b, n, days = self.b, self.t.size, fill._days_arr
        idx = days - 1  # day d up to b is candidate d - 1
        early, far = np.searchsorted(days, [b, b + 1])  # days are sorted
        if far < days.size:
            idx[far:] = np.minimum(np.searchsorted(self.t, days[far:]), n - 1)
            if np.any(self.t[idx[far:]] != days[far:]):
                return None
        S = np.zeros(n, dtype=bool)
        S[idx] = True
        X = np.zeros(b, dtype=bool)  # X[b-1] is the tail row
        X[idx[:early]] = True
        if days[-1] < b:
            X[days[-1] - 1] = False
        return S, X

    def layout(self, S: np.ndarray, X: np.ndarray) -> _Layout:
        """The pieces of the basis (S, X)."""
        b = self.b
        early_S, early_X = S[:b - 1], X[:b - 1]
        kind = early_S.view(np.int8) + 2 * early_X.view(np.int8)
        alone = kind == _C
        new = np.empty(b - 1, dtype=bool)
        new[0] = True
        np.not_equal(kind[1:], kind[:-1], out=new[1:])
        new[1:] |= alone[1:] | alone[:-1]
        starts = new.nonzero()[0]
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:]
        ends[-1] = b - 1
        piece = np.repeat(np.arange(starts.size), ends - starts)
        return _Layout(kind[starts].tolist(), (starts + 1).tolist(), ends.tolist(),
                       S[b - 1:].nonzero()[0] + (b - 1), piece, ends[piece] - self.days,
                       early_S & early_X)

    def primal(self, layout: _Layout, X: np.ndarray, entering: int = -1) -> _Vertex:
        """Basic solution and its change per unit of variable ``entering``.

        Variables are numbered f_0..f_{n-1}, then the slacks s_1..s_{b-1}, s_T.
        """
        b, n = self.b, self.t.size
        kinds, starts, ends, end = layout[:4]
        q = entering
        day = q + 1 if q < b - 1 else q - n + 1 if n <= q < n + b - 1 else 0
        pieces = list(zip(kinds, starts, ends))
        if day:  # the entering day is a piece of its own
            i = bisect.bisect_right(starts, day) - 1
            kind, s, e = pieces[i]
            pieces[i:i + 1] = ([(kind, s, day - 1)] * (s < day) + [(kind, day, day)]
                               + [(kind, day + 1, e)] * (day < e))
        t_end = self.t[end].tolist()
        tight = bool(X[b - 1])
        # one pass per column: the solution, the direction, then a unit of each
        # unknown, f on a C day or on an S candidate from day b on
        columns = [self._forward(pieces, t_end, tight, rho=self.R - 1.0, mass=1.0)]
        if q < b - 1:
            columns.append(self._forward(pieces, t_end, tight, f_day=day))
        elif q < n:
            columns.append(self._forward(pieces, t_end, tight, f_end=float(self.t[q])))
        else:
            columns.append(self._forward(pieces, t_end, tight, s_day=day or b))
        columns += [self._forward(pieces, t_end, tight, f_day=s)
                    for kind, s, _ in pieces if kind == _C]
        columns += [self._forward(pieces, t_end, tight, f_end=t) for t in t_end]
        known = _solve_unknowns(list(zip(*(col[0] for col in columns))), 2)
        coef = np.array([[1.0, 0.0] + known[0], [0.0, 1.0] + known[1]])
        value, change = (coef @ np.array([col[1] for col in columns])).tolist()
        end_value, end_change = (col[len(col) - len(t_end):] for col in known)
        c_days = iter(range(2 * len(pieces), len(value) - 1, 2))
        blocking = []
        for i, (kind, s, _) in enumerate(pieces):
            if kind == _C:
                j = next(c_days)
                blocking += [(value[j], change[j], s - 1),
                             (value[j + 1], change[j + 1], n + s - 1)]
            elif s == day:  # the entering day's other variable: f on A, slack on G
                blocking.append((value[i], change[i], s - 1 if kind == _A else n + s - 1))
        blocking += zip(end_value, end_change, end.tolist())
        if not tight:
            blocking.append((value[-1], change[-1], n + b - 1))
        return _Vertex(pieces, value, end_value, end, blocking)

    def _forward(self, pieces: list, t_end: list, tail_tight: bool, rho: float = 0.0,
                 mass: float = 0.0, f_day: int = 0, s_day: int = 0,
                 f_end: float = 0.0) -> tuple[list[float], list[float]]:
        """One column of a primal solve, from day 1 up.

        The column has R - 1 = ``rho`` and the mass ``mass``, and a unit of f
        on day ``f_day`` (a C day's unknown or an entering gap day) or on day
        ``f_end`` from b on, or of slack on row ``s_day`` (b for the tail).
        Returns the residuals of the mass row and a tight tail row, and per
        piece the first day's f (A) or scaled slack (gap) and its rise per
        day, then f and scaled slack on each C day and the tail's slack.
        """
        b, lg = self.b, self.log_gamma
        U = F = 0.0
        first, rise, both = [], [], []
        for kind, s, e in pieces:
            last = F
            U += F + rho
            if kind == _A:  # tight: F_x = (U_x - s_x) / (b-1); then f grows by gamma a day
                F = (U - (s == s_day)) / (b - 1.0)
                first.append(F - last)
                rise.append((F + rho) / (b - 1.0))
                if e > s:
                    F += math.expm1((e - s) * lg) * (F + rho)
                    U = (b - 1.0) * F
                continue
            if s == f_day:
                F += 1.0
            slack = U / (b - 1.0) - F
            if kind == _C:
                both += [F - last, slack]
                first.append(0.0)
                rise.append(0.0)
            else:  # a gap's slack grows by F + R - 1 a day
                first.append(slack)
                rise.append((F + rho) / (b - 1.0))
                U += (e - s) * (F + rho)
        tail = rho + U - (b - 2.0) * F - max(f_end - 1.0, 0.0)
        residuals = [F + (f_end > 0.0) - mass]
        if tail_tight:
            residuals.append(tail - (s_day == b))
        return residuals, first + rise + both + [tail / (b - 1.0)]

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

    def dual(self, layout: _Layout,
             tail_tight: bool) -> tuple[float, np.ndarray, float, np.ndarray]:
        """Basic dual (lam, y, y_T) and the reduced costs of the candidate days.

        The dual makes every S day's reduced cost zero and puts y = 0 off X: lam
        prices the mass row, y[x-1] row x and y_T the tail row.
        """
        b, c = self.b, self.c
        kinds, starts, ends, end, piece, below, on_a = layout
        pieces = list(zip(kinds, starts, ends))[::-1]
        t_end, c_end = (self.t[end].tolist(), c[end].tolist()) if end.size else ([], [])
        # one pass per column: the costs, then a unit of each unknown
        columns = [self._backward(pieces, t_end, c_end, costs=True),
                   self._backward(pieces, t_end, c_end, lam=1.0)]
        if tail_tight:
            columns.append(self._backward(pieces, t_end, c_end, y_T=1.0))
        coef = np.array([1.0] + _solve_unknowns(list(zip(*(col[0] for col in columns))), 1)[0])
        lam = float(coef[1])
        y_T = float(coef[2]) if tail_tight else 0.0
        count = len(pieces)
        rec = (coef @ np.array([col[1] for col in columns]))[::-1]  # W, then E, from day 1 up
        W_day = rec[piece]
        along = (np.expm1(below * self.log_gamma) * W_day
                 + self.inv_growth * (self.H[1:b] - self.H[self.days + below]))
        W_day = np.where(on_a, W_day + along, W_day)
        reduced = np.empty(c.size)
        reduced[b - 1:] = c[b - 1:] - lam
        if y_T:
            reduced[b - 1:] += (self.t[b - 1:] - 1.0) * y_T
        # on gaps E falls by W a day; A days' reduced costs are zero
        reduced[:b - 1] = np.where(on_a, 0.0, c[:b - 1] + (rec[count + piece] - below * W_day))
        y = W_day
        y[:-1] -= W_day[1:]
        y[-1] -= y_T
        return lam, y, y_T, reduced

    def _backward(self, pieces: list, t_end: list, c_end: list, costs: bool = False,
                  lam: float = 0.0, y_T: float = 0.0) -> tuple[list, list]:
        """One column of a dual solve, from day b down.

        The column has the costs if ``costs``, and the given lam and y_T.  With
        W_t = y_T + sum_{x >= t} y_x and Z_t = sum_{x >= t} (b-x) y_x, day t's
        reduced cost is c_t + E_t where E_t = (t-1) W_t + Z_t - lam falls by
        W_{t+1} from day t+1 to t and rises by (b-1) y_t.  Returns the residuals
        of the S candidates from day b on and of the C days, then W and E at
        each piece's last day, from the top.
        """
        b, lg, c, H = self.b, self.log_gamma, self.c, self.H
        W, E = y_T, (b - 1.0) * y_T - lam
        residuals = [E + (t - b) * W + (cost if costs else 0.0) for t, cost in zip(t_end, c_end)]
        rec_W, rec_E = [], []
        for kind, s, e in pieces:
            if kind == _A:  # r_x = 0, with y_x free
                cost = float(c[e - 1]) if costs else 0.0
                W += (W - E - cost) / (b - 1.0)
                E = -cost
            else:
                E -= W
                if kind == _C:
                    residuals.append(E + (float(c[e - 1]) if costs else 0.0))
            rec_W.append(W)
            rec_E.append(E)
            if e > s:
                if kind == _A:  # W_s = gamma^(e-s) W_e + gamma^-s (H_s - H_e)
                    W *= 1.0 + math.expm1((e - s) * lg)
                    if costs:
                        W += math.exp(-s * lg) * float(H[s] - H[e])
                    E = -float(c[s - 1]) if costs else 0.0
                else:
                    E -= (e - s) * W
        return residuals, rec_E + rec_W

    def bound(self, lam: float, y: np.ndarray, y_T: float, reduced: np.ndarray) -> float:
        """Weak-duality lower bound on every robust policy's cost, from a dual and its
        reduced costs r.

        A robust policy f costs sum r_t f_t + lam - sum_x y_x L_x(f) - y_T L_T(f),
        where row x reads L_x(f) <= (R-1) x and the tail L_T(f) <= (R-1) b.  As
        sum f = 1 and L >= 0, that is at least lam + min(0, min r) minus (R-1)
        times the rows' right-hand sides weighted by the positive prices alone,
        whatever the signs of y and r; so a dual whose complementary slackness
        holds only up to rounding cannot make the bound unsafe.
        """
        moments = float(self.days @ np.maximum(y, 0.0)) + self.b * max(y_T, 0.0)
        return lam + min(0.0, float(reduced.min())) - (self.R - 1.0) * moments


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
    n = lp.t.size
    tol = 1e-12 * (1.0 + float(np.abs(lp.c).max()))
    basis = lp.warm_basis(fill)
    best = dual = None  # the last vertex whose solution held, and the last dual
    pivots, bland, reason = 0, False, ""
    try:
        if basis is None:
            raise ArithmeticError("a fill day is not a candidate day")
        S, X = basis
        while True:
            layout = lp.layout(S, X)
            dual = lp.dual(layout, bool(X[b - 1]))
            lam, y, y_T, reduced = dual
            price = np.concatenate((np.where(S, np.inf, reduced),
                                    np.where(X[:b - 1], (b - 1.0) * y, np.inf),
                                    [(b - 1.0) * y_T if X[b - 1] else np.inf]))
            q = -1
            if price.min() < -tol:
                q = int(np.argmax(price < -tol) if bland else np.argmin(price))
            elif best is None:  # the fill's own pricing proves it optimal
                return fill
            vertex = lp.primal(layout, X, q)
            if not lp.feasible(vertex):
                raise ArithmeticError("basic solution infeasible")
            best = vertex
            if q < 0:
                break
            if pivots >= MAX_PIVOTS_PER_ROW * (b + 1):
                reason = "its pivot cap"
                break
            leave, theta = lp.leaving(vertex)
            if leave < n:
                S[leave] = False
            else:
                X[leave - n] = True
            if q < n:
                S[q] = True
            else:
                X[q - n] = False
            pivots += 1
            bland = theta == 0.0
    except ArithmeticError as err:
        reason = f"a numerical breakdown ({err})"
    refined = fill
    if best is not None:
        mass = lp.masses(best)
        mass /= mass.sum()
        keep = mass > 1e-14
        refined = StoppingDistribution(lp.t[keep].astype(np.int64), mass[keep])
    objective = expected_policy_cost(refined, g)
    if reason:
        gap = objective - lp.bound(*dual) if dual is not None else math.inf
        warnings.warn(f"exact refine LP stopped after {pivots} pivots on {reason}, "
                      f"{gap:.3g} above its dual bound; keeping the best policy it reached",
                      RuntimeWarning, stacklevel=4)
    return refined if objective < expected_policy_cost(fill, g) else fill
