"""Harvest prediction: exponential smoothing and a seasonal trend model.

Two one-step-ahead predictors over per-slot energy series:

* plain exponentially weighted moving average (EWMA): the next forecast is
  ``eps * measured + (1 - eps) * previous_forecast``;
* multiplicative triple smoothing (level, trend, seasonal-index ring), which
  tracks series shaped like ``(a + b*t) * s(t mod l)`` and therefore adapts
  to diurnal shape and day-to-day weather swings that defeat the EWMA.

Both are pure functions over explicit state values: a step returns the next
prediction together with the successor state, leaving its input untouched.
The weights live only in :class:`PredictorSettings`, which checks their
bounds once; a state holds just the values that evolve (the EWMA's
prediction; the seasonal level, trend, index ring and ring position), and
the kernels :func:`ewma_step` and :func:`hw_step` take the settings first.
:func:`step` is the one online predictor that a scenario's settings drive.
The EWMA seeds on its first sample and predicts it. The seasonal model warms
up first: a :class:`Warmup` state predicts the mean of the samples so far,
and at ``2 * period`` samples :func:`hw_init` bootstraps the model from them.
Every seasonal prediction, one step or a horizon ahead, is one formula,
``(level + k*trend) * seasonal[(position + k - 1) mod period]``, written in
:func:`_ahead` alone.

Zero measurements (night slots) freeze the seasonal-model state: updating the
level against a zero sample would geometrically collapse it within a handful
of slots and poison the ratio updates at sunrise, so the ring position
advances while level/trend/indices are retained.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bounds import FRACTION, FRACTION_OR_ZERO, Bounded, enum, int_min

EPS_FLOOR = 1e-9


class ForecastError(Exception):
    """Base class for predictor errors."""


class HistoryTooShort(ForecastError):
    """Initialization needs at least two full seasonal periods."""


class DivisionDegenerate(ForecastError):
    """A level or seasonal index underflowed the epsilon floor before division."""


@dataclass(frozen=True)
class PredictorSettings(Bounded):
    """A scenario's predictor: ``kind`` is ``ewma`` or ``hw`` (seasonal),
    ``horizon`` the number of slots planning looks ahead.

    ``epsilon`` smooths the EWMA and the seasonal level, ``beta`` the
    seasonal indices (0 freezes the ring) and ``gamma`` the trend (0 freezes
    the trend); the predictor states carry none of these weights.
    """

    kind: str = field(default="hw", metadata=enum("ewma", "hw"))
    epsilon: float = field(default=0.906, metadata=FRACTION)
    beta: float = field(default=0.1, metadata=FRACTION_OR_ZERO)
    gamma: float = field(default=0.650, metadata=FRACTION_OR_ZERO)
    period: int = field(default=24, metadata=int_min(2))
    horizon: int = field(default=2, metadata=int_min(2))


@dataclass(frozen=True)
class EwmaState:
    """Scalar smoothing state: the current one-step prediction."""

    prediction: float


def ewma_step(
    settings: PredictorSettings, state: EwmaState, measured: float
) -> tuple[float, EwmaState]:
    """Consume one measurement; return the next-slot prediction and new state."""
    pred = settings.epsilon * measured + (1.0 - settings.epsilon) * state.prediction
    return pred, EwmaState(pred)


@dataclass(frozen=True)
class HwState:
    """Level/trend/seasonal state for the multiplicative model.

    ``seasonal`` holds one index per period position; ``position`` is the
    ring slot of the *next* measurement to be consumed.
    """

    level: float
    trend: float
    seasonal: tuple[float, ...]
    position: int = 0

    def __post_init__(self) -> None:
        if len(self.seasonal) < 2:
            raise ValueError("seasonal ring needs length >= 2")
        if any(i <= 0 for i in self.seasonal):
            raise ValueError("seasonal indices must be positive")
        if not (0 <= self.position < len(self.seasonal)):
            raise ValueError("position outside seasonal ring")

    @property
    def period(self) -> int:
        return len(self.seasonal)


def hw_init(history: list[float] | tuple[float, ...], period: int) -> HwState:
    """Bootstrap the state from at least two full periods of history.

    Level is the first-period mean, trend the per-slot drift between the
    first two period means, and each seasonal index the mean of its phase
    over the whole history relative to the grand mean (normalized to average
    one, floored at EPS_FLOOR so all-dark phases stay usable as divisors).
    """
    if period < 2:
        raise ValueError("period must be >= 2")
    if len(history) < 2 * period:
        raise HistoryTooShort(
            f"need at least {2 * period} samples for period {period}, got {len(history)}"
        )
    first = sum(history[:period]) / period
    second = sum(history[period : 2 * period]) / period
    grand = sum(history) / len(history)
    if grand <= 0:
        raise DivisionDegenerate("history mean is zero; seasonal ratios undefined")
    raw = []
    for i in range(period):
        phase = history[i::period]
        raw.append((sum(phase) / len(phase)) / grand)
    mean_index = sum(raw) / period
    seasonal = tuple(max(r / mean_index, EPS_FLOOR) for r in raw)
    return HwState(
        level=first,
        trend=(second - first) / period,
        seasonal=seasonal,
        position=len(history) % period,
    )


def _ahead(state: HwState, k: int) -> float:
    """The seasonal model's forecast ``k`` slots past ``state``."""
    period = state.period
    return (state.level + k * state.trend) * state.seasonal[(state.position + k - 1) % period]


def hw_step(
    settings: PredictorSettings, state: HwState, measured: float
) -> tuple[float, HwState]:
    """Consume one measurement and return (next prediction, new state).

    The measurement belongs to ring slot ``state.position``. Zero (or
    negative) measurements advance the position but freeze level, trend and
    the seasonal ring. The new state skips :class:`HwState`'s checks, which
    it passes: the updated index stays >= ``(1 - beta) * EPS_FLOOR > 0``.
    """
    pos = state.position
    next_pos = (pos + 1) % state.period
    new = object.__new__(HwState)
    if measured <= 0.0:
        new.__dict__.update(vars(state), position=next_pos)
        return _ahead(new, 1), new

    eps, beta, gamma = settings.epsilon, settings.beta, settings.gamma
    idx_old = state.seasonal[pos]
    if idx_old < EPS_FLOOR:
        raise DivisionDegenerate(f"seasonal index at position {pos} underflowed")
    level_new = eps * (measured / idx_old) + (1.0 - eps) * (state.level + state.trend)
    trend_new = gamma * (level_new - state.level) + (1.0 - gamma) * state.trend
    if level_new < EPS_FLOOR:
        raise DivisionDegenerate("level underflowed before seasonal update")
    idx_new = beta * (measured / level_new) + (1.0 - beta) * idx_old
    seasonal = list(state.seasonal)
    seasonal[pos] = idx_new
    new.__dict__.update(level=level_new, trend=trend_new, seasonal=tuple(seasonal), position=next_pos)
    return _ahead(new, 1), new


@dataclass(frozen=True)
class Warmup:
    """Seasonal warm-up: the samples seen before two full periods."""

    history: tuple[float, ...]

    @property
    def mean(self) -> float:
        return sum(self.history) / len(self.history)


def step(
    settings: PredictorSettings, state: EwmaState | Warmup | HwState | None, measured: float
) -> tuple[float, EwmaState | Warmup | HwState]:
    """Consume one measurement; return the next-slot prediction and new state.

    ``state`` is ``None`` before the first sample. Errors of the seasonal
    model (:class:`DivisionDegenerate`) propagate to the caller.
    """
    if settings.kind == "ewma":
        if state is None:
            state = EwmaState(float(measured))
            return state.prediction, state
        return ewma_step(settings, state, measured)
    if state is None or isinstance(state, Warmup):
        history = (state.history if state else ()) + (measured,)
        if len(history) < 2 * settings.period:
            warm = Warmup(history)
            return warm.mean, warm
        hw = hw_init(history, settings.period)
        return _ahead(hw, 1), hw
    return hw_step(settings, state, measured)


def predict_horizon(state: EwmaState | Warmup | HwState, h: int) -> list[float]:
    """Forecast the next ``h`` slots without mutating state.

    The EWMA has no trend or season, so it repeats its single prediction, as
    a warm-up repeats its mean; the seasonal model extrapolates each slot
    by the one-step formula (:func:`_ahead`).
    """
    if h < 1:
        raise ValueError("horizon must be >= 1")
    if isinstance(state, EwmaState):
        return [state.prediction] * h
    if isinstance(state, Warmup):
        return [state.mean] * h
    return [_ahead(state, k) for k in range(1, h + 1)]
