"""Utility / residual-energy trade-off kernel.

The per-slot planning problem is a linear program over morphing factors
``alpha_i`` (one per policy) and the duty factor ``delta``::

    maximize    sum(w_i * alpha_i) + w_delta * delta
    subject to  sum(E_i * alpha_i) + E_dc * delta = X - V
                0 <= alpha_i <= 1,   0 <= delta <= 1

where ``X`` is the slot's energy budget and ``V`` the residual energy the
node wants left over. With one equality constraint and box bounds this is a
fractional knapsack, so a closed form is optimal (Dantzig 1957): fill the
variables in descending utility-per-microjoule order, each to 1 while it
fits, and let the first one that does not fit absorb the rest of the spend.
Every other variable sits at 0. Ties in that ratio fund the lower index
first.

``parametric_sweep`` traces the optimal value as ``V`` grows. The same fill
order holds for every ``V``, so the curve is piecewise linear and concave,
and its breakpoints lie where the spend ``X - V`` equals a cumulative cost
of that order.

The test suite checks both against an independent bounded-simplex solver.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import compress
from operator import mul

FEAS_TOL = 1e-9


class OptimizerError(Exception):
    """Base class for optimizer errors."""


class DimensionMismatch(OptimizerError):
    """Utility weights and energy costs have different lengths."""


class NonPositiveCost(OptimizerError):
    """Every energy coefficient must be strictly positive."""


class Infeasible(OptimizerError):
    """The requested spend exceeds what the variables can absorb."""


class OutOfDomain(OptimizerError):
    """Curve evaluated outside its swept V range."""


@dataclass(frozen=True)
class PolicyLp:
    """One slot's optimization instance.

    Variables are ordered policies-first, duty factor last. ``budget_base``
    is the slot budget X; a solve at residual ``v`` spends ``X - v``. What
    derives from the other fields alone (the objective and constraint rows,
    the largest spend and the fill order) is computed when the instance is
    built.
    """

    weights: tuple[float, ...]
    costs: tuple[float, ...]
    duty_energy: float
    duty_weight: float
    budget_base: float
    objective: tuple[float, ...] = field(init=False, repr=False, compare=False)
    row: tuple[float, ...] = field(init=False, repr=False, compare=False)
    # Largest budget the instance can absorb (all variables at 1).
    max_spend: float = field(init=False, repr=False, compare=False)
    # Variable indices by descending utility per microjoule, lowest index
    # first on ties.
    fill_order: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        c = self.weights + (self.duty_weight,)
        a = self.costs + (self.duty_energy,)
        derived = self.__dict__
        derived["objective"], derived["row"] = c, a
        derived["max_spend"] = sum(self.costs) + self.duty_energy
        derived["fill_order"] = tuple(sorted(range(len(a)), key=lambda j: (-(c[j] / a[j]), j)))

    @property
    def n_vars(self) -> int:
        return len(self.weights) + 1

    def fill(self, spend: float) -> list[float]:
        """The knapsack fill's controls (policies, then duty) for a ``spend``
        the caller keeps in ``[0, max_spend]``; :func:`solve_for_v` fills so."""
        a = self.row
        order = self.fill_order
        xs = [0.0] * len(a)
        remaining = spend
        basic = order[-1]
        for j in order[:-1]:
            if a[j] > remaining + FEAS_TOL:
                basic = j
                break
            xs[j] = 1.0
            remaining -= a[j]
        # Recompute the basic value from the spend, summing the full variables
        # in index order rather than reusing ``remaining``: that fixes the
        # rounding, so the result equals the test oracle's bit for bit.
        full_spend = sum(compress(a, xs))
        xs[basic] = _snap((spend - full_spend) / a[basic], 1.0)
        return xs


def default_duty_weight(weights: tuple[float, ...], costs: tuple[float, ...], duty_energy: float) -> float:
    """Duty utility priced at a tenth of the cheapest policy's utility rate.

    The duty factor has no intrinsic utility in the planning model; giving
    it a small positive rate makes it soak up budget only after every policy
    is saturated, so it rises exactly when energy is abundant.
    """
    if not weights:
        return 1.0
    min_rate = min(w / c for w, c in zip(weights, costs))
    return 0.1 * min_rate * duty_energy


def build_opt(
    weights,
    costs,
    e_dc: float,
    w_delta: float | None,
    x_k: float,
) -> PolicyLp:
    """Validate and assemble a PolicyLp; ``w_delta=None`` picks the default rate."""
    weights = tuple(float(w) for w in weights)
    costs = tuple(float(c) for c in costs)
    if len(weights) != len(costs):
        raise DimensionMismatch(
            f"{len(weights)} weights vs {len(costs)} costs"
        )
    if any(c <= 0 or not math.isfinite(c) for c in costs):
        raise NonPositiveCost(f"costs must be > 0, got {costs}")
    if e_dc <= 0 or not math.isfinite(e_dc):
        raise NonPositiveCost(f"duty energy must be > 0, got {e_dc}")
    if any(w < 0 or not math.isfinite(w) for w in weights):
        raise ValueError(f"weights must be >= 0, got {weights}")
    if x_k < 0 or not math.isfinite(x_k):
        raise ValueError(f"budget base must be >= 0, got {x_k}")
    if w_delta is None:
        w_delta = default_duty_weight(weights, costs, e_dc)
    elif w_delta < 0 or not math.isfinite(w_delta):
        raise ValueError(f"duty weight must be finite and >= 0, got {w_delta}")
    return PolicyLp(
        weights=weights,
        costs=costs,
        duty_energy=float(e_dc),
        duty_weight=float(w_delta),
        budget_base=float(x_k),
    )


@dataclass(frozen=True)
class OptResult:
    """Optimal controls for one solve: utility, morphing factors, duty factor."""

    utility: float
    alphas: tuple[float, ...]
    delta: float


def _snap(x: float, upper: float) -> float:
    """Pull values that strayed marginally outside the box back onto a bound.

    Interior values pass through untouched, so tiny legitimate allocations
    survive; anything beyond tolerance is an internal error.
    """
    if -FEAS_TOL <= x < 0.0:
        return 0.0
    if upper < x <= upper + FEAS_TOL:
        return upper
    if x < -FEAS_TOL or x > upper + FEAS_TOL:
        raise ArithmeticError(f"basic value {x} escaped [0, {upper}]")
    return x


def solve_for_v(lp: PolicyLp, v: float) -> OptResult:
    """Optimal controls when the slot must leave residual ``v`` unspent.

    Raises :class:`Infeasible` when the implied spend ``X - v`` exceeds the
    instance's total absorbing capacity (too much energy to burn), rather
    than clamping silently.
    """
    if not (-FEAS_TOL <= v <= lp.budget_base + FEAS_TOL):
        raise ValueError(
            f"residual target {v} outside [0, {lp.budget_base}]"
        )
    budget = lp.budget_base - v
    if budget > lp.max_spend + FEAS_TOL:
        raise Infeasible(
            f"budget {budget} exceeds the instance's maximum spend {lp.max_spend}"
        )
    xs = lp.fill(budget)
    return OptResult(
        utility=sum(map(mul, lp.objective, xs)),
        alphas=tuple(xs[:-1]),
        delta=xs[-1],
    )


@dataclass(frozen=True)
class TradeoffCurve:
    """Piecewise-linear optimal utility versus residual energy.

    ``breakpoints`` hold ascending (V, U) pairs; ``controls[i]`` are the
    (alphas, delta) realizing breakpoint i; ``intervals`` lists the V span
    of each linear piece between consecutive breakpoints.
    """

    breakpoints: tuple[tuple[float, float], ...]
    controls: tuple[tuple[tuple[float, ...], float], ...] = field(repr=False)
    intervals: tuple[tuple[float, float], ...] = field(repr=False)

    @property
    def v_lo(self) -> float:
        return self.breakpoints[0][0]

    @property
    def v_hi(self) -> float:
        return self.breakpoints[-1][0]

    def csv_rows(self) -> list[list[str]]:
        n_alpha = len(self.controls[0][0]) if self.controls else 0
        header = ["v_microjoules", "u"] + [f"alpha_{i + 1}" for i in range(n_alpha)] + ["delta"]
        rows = [header]
        for (v, u), (alphas, delta) in zip(self.breakpoints, self.controls):
            rows.append([repr(v), repr(u)] + [repr(a) for a in alphas] + [repr(delta)])
        return rows


def parametric_sweep(lp: PolicyLp, v_lo: float, v_hi: float) -> TradeoffCurve:
    """Trace the optimal curve over residual targets ``[v_lo, v_hi]``.

    The slope changes only where the spend ``X - V`` crosses a cumulative
    cost of the fill order. Those ``V`` inside the range, with its two ends,
    are the breakpoints; the controls at each come from :func:`solve_for_v`.
    """
    if not (-FEAS_TOL <= v_lo <= v_hi <= lp.budget_base + FEAS_TOL):
        raise ValueError(
            f"sweep range [{v_lo}, {v_hi}] invalid for budget base {lp.budget_base}"
        )
    a = lp.row
    cuts = []
    spent = 0.0
    for j in lp.fill_order:
        spent += a[j]
        cuts.append(lp.budget_base - spent)
    vs = [v_lo]
    for v in reversed(cuts):
        if vs[-1] + FEAS_TOL < v < v_hi - FEAS_TOL:
            vs.append(v)
    if v_lo < v_hi:
        vs.append(v_hi)
    results = [solve_for_v(lp, v) for v in vs]
    return TradeoffCurve(
        breakpoints=tuple((v, r.utility) for v, r in zip(vs, results)),
        controls=tuple((r.alphas, r.delta) for r in results),
        intervals=tuple(zip(vs, vs[1:])),
    )


def evaluate_curve(curve: TradeoffCurve, v: float) -> float:
    """Interpolate the utility at ``v``; exact at breakpoints."""
    if v < curve.v_lo - FEAS_TOL or v > curve.v_hi + FEAS_TOL:
        raise OutOfDomain(f"{v} outside [{curve.v_lo}, {curve.v_hi}]")
    vs = [bp[0] for bp in curve.breakpoints]
    if len(vs) == 1:
        return curve.breakpoints[0][1]
    i = bisect_right(vs, v) - 1
    if i < 0:
        i = 0
    if i >= len(vs) - 1:
        i = len(vs) - 2
    (v0, u0), (v1, u1) = curve.breakpoints[i], curve.breakpoints[i + 1]
    if v1 == v0:
        return u0
    w = (v - v0) / (v1 - v0)
    return u0 + w * (u1 - u0)

