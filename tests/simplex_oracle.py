"""Bounded-variable primal simplex: the independent oracle for the optimizer.

Production solves the per-slot LP with a closed-form knapsack fill. This
module solves the same LP by a different method and shares no code with
``harvestsim``: it reads only the instance's data (``row``, ``objective``,
``budget_base``, ``weights``). The tests compare the two.

There is one equality constraint and every variable is box-bounded, so the
basis is a single variable: all others sit at 0 or 1 and the basic one
absorbs the rest of the budget. Bounds are handled natively (no slack rows,
no variable splitting). Phase 1 fills in index order to a feasible vertex;
phase 2 pivots to optimality by Bland's rule.
"""

from __future__ import annotations

from dataclasses import dataclass

FEAS_TOL = 1e-9

AT_LOWER = 0
AT_UPPER = 1


@dataclass(frozen=True)
class OracleResult:
    utility: float
    alphas: tuple[float, ...]
    delta: float


@dataclass
class Tableau:
    """Bounded-variable simplex state for the single-constraint LP.

    ``basic`` is the index of the one basic variable; every other variable
    is pinned at a bound per ``status``. ``rhs`` is the budget to spend.
    """

    a: tuple[float, ...]
    c: tuple[float, ...]
    upper: tuple[float, ...]
    rhs: float
    basic: int
    status: list[int]

    def nonbasic_spend(self) -> float:
        return sum(
            self.a[j] * self.upper[j]
            for j in range(len(self.a))
            if j != self.basic and self.status[j] == AT_UPPER
        )

    def basic_value(self) -> float:
        return (self.rhs - self.nonbasic_spend()) / self.a[self.basic]

    def values(self) -> list[float]:
        xs = [
            self.upper[j] if self.status[j] == AT_UPPER else 0.0
            for j in range(len(self.a))
        ]
        xs[self.basic] = self.basic_value()
        return xs

    def dual(self) -> float:
        return self.c[self.basic] / self.a[self.basic]

    def reduced_cost(self, j: int) -> float:
        return self.c[j] - self.dual() * self.a[j]


def _snap(x: float, upper: float) -> float:
    """Pull values that strayed marginally outside the box back onto a bound."""
    if -FEAS_TOL <= x < 0.0:
        return 0.0
    if upper < x <= upper + FEAS_TOL:
        return upper
    if x < -FEAS_TOL or x > upper + FEAS_TOL:
        raise ArithmeticError(f"basic value {x} escaped [0, {upper}]")
    return x


def _phase1(a: tuple[float, ...], c: tuple[float, ...], budget: float) -> Tableau:
    """Deterministic index-order fill producing a primal-feasible tableau."""
    n = len(a)
    status = [AT_LOWER] * n
    remaining = budget
    basic = 0
    for j in range(n):
        if remaining <= FEAS_TOL:
            basic = j
            break
        step = a[j] * 1.0
        if step <= remaining + FEAS_TOL and j < n - 1:
            status[j] = AT_UPPER
            remaining -= step
            basic = j + 1
        else:
            basic = j
            remaining = 0.0
            break
    t = Tableau(a=a, c=c, upper=(1.0,) * n, rhs=budget, basic=basic, status=status)
    t.status[basic] = AT_LOWER  # placeholder; basic entry ignored
    _snap(t.basic_value(), 1.0)
    return t


def _phase2(t: Tableau) -> Tableau:
    """Primal simplex to optimality with Bland's rule (lowest eligible index)."""
    n = len(t.a)
    guard = 0
    while True:
        guard += 1
        if guard > 4 * n * n + 16:
            raise ArithmeticError("simplex failed to terminate")
        entering = -1
        sigma = 0
        for j in range(n):
            if j == t.basic:
                continue
            d = t.reduced_cost(j)
            if t.status[j] == AT_LOWER and d > FEAS_TOL:
                entering, sigma = j, +1
                break
            if t.status[j] == AT_UPPER and d < -FEAS_TOL:
                entering, sigma = j, -1
                break
        if entering < 0:
            return t
        coef = t.a[entering] / t.a[t.basic]
        drift = -sigma * coef  # d(basic)/d(step in entering direction)
        x_b = t.basic_value()
        t_enter = t.upper[entering]
        if drift < 0:
            t_basic = x_b / (-drift)
        else:
            t_basic = (t.upper[t.basic] - x_b) / drift
        if t_basic < t_enter - FEAS_TOL:
            # Basic variable leaves at the bound it hit; entering becomes basic.
            t.status[t.basic] = AT_LOWER if drift < 0 else AT_UPPER
            t.basic = entering
            t.status[entering] = AT_LOWER
            _snap(t.basic_value(), t.upper[entering])
        else:
            # Bound flip: entering crosses to its other bound, basis unchanged.
            t.status[entering] = AT_UPPER if sigma > 0 else AT_LOWER
            _snap(t.basic_value(), t.upper[t.basic])


def simplex_solve(lp, v: float) -> OracleResult:
    """Optimum of ``lp`` when residual ``v`` must stay unspent."""
    a, c = tuple(lp.row), tuple(lp.objective)
    if not (-FEAS_TOL <= v <= lp.budget_base + FEAS_TOL):
        raise ValueError(f"residual target {v} outside [0, {lp.budget_base}]")
    budget = lp.budget_base - v
    if budget > sum(a) + FEAS_TOL:
        raise ValueError(f"budget {budget} exceeds the maximum spend {sum(a)}")
    t = _phase2(_phase1(a, c, budget))
    xs = t.values()
    xs[t.basic] = _snap(xs[t.basic], t.upper[t.basic])
    return OracleResult(
        utility=sum(cj * xj for cj, xj in zip(c, xs)),
        alphas=tuple(xs[: len(lp.weights)]),
        delta=xs[len(lp.weights)],
    )
