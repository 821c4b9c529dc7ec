"""The synthetic diurnal trace, slot by slot: the independent oracle for
``scenario.synth_trace``.

This is the loop ``synth_trace`` ran before it computed the half-sine day
shape once per phase and the weather and trend factors once per day: every
slot splits into (day, phase), evaluates its own sine, and applies the
day's factors. It shares no code with ``harvestsim``; the profile is only
read (``period_slots``, ``day_fraction``, ``amplitude_w``,
``cloudy_attenuation``, ``switch_probability``, ``trend_per_day``,
``seed``). The tests compare the two sample for sample, bit for bit.
"""

from __future__ import annotations

import math
import random


def synth_powers(spec, n_slots: int) -> list[float]:
    """The power samples of ``spec``'s synthetic trace over ``n_slots`` slots."""
    day_slots = spec.period_slots * spec.day_fraction
    rng = random.Random(f"synth:{spec.seed}")
    n_days = n_slots // spec.period_slots + 2
    cloudy = [rng.random() < spec.switch_probability for _ in range(n_days)]
    powers = []
    for slot in range(n_slots):
        day, phase = divmod(slot, spec.period_slots)
        if phase < day_slots:
            base = spec.amplitude_w * math.sin(math.pi * phase / day_slots)
        else:
            base = 0.0
        level = base * (spec.cloudy_attenuation if cloudy[day] else 1.0)
        level *= 1.0 + spec.trend_per_day * day
        powers.append(max(level, 0.0))
    return powers
