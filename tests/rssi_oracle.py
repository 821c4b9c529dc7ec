"""A neighbour's energy level decoded from received signal strength: the
independent oracle for ``routing.hear_frame``.

Each live level sends at its own power, so a listener can tell a sender's
level from how much weaker its frames arrive than its beacons, which ride the
fixed reference power. The listener smooths each sender's beacons into a
reference RSSI (:func:`calibrate`) and matches the attenuation of any other
frame below that reference to the nearest power step, the lower level on a
tie (:func:`decode`). Over links whose mean received power is fixed and
linear in the transmit power, this decode returns the level of the power the
frame was sent at, which is what ``routing.hear_frame`` reads directly. It
shares no code with ``harvestsim``: the powers are written out here, and the
levels are plain numbers (1 to 3 for E1 to E3).
"""

from __future__ import annotations

REFERENCE_TX_POWER_DBM = 0
REFERENCE_SMOOTHING = 0.2
# Each live level's transmit power (dBm), ascending by level.
TX_POWER_BY_LEVEL = {1: -10, 2: -5, 3: 0}


def calibrate(reference: float | None, observed_dbm: float) -> float:
    """Fold a beacon's received power into the smoothed reference RSSI
    (dBm), seeded by the first beacon."""
    if reference is None:
        return float(observed_dbm)
    return reference + REFERENCE_SMOOTHING * (observed_dbm - reference)


def decode(observed_dbm: float, reference: float) -> int:
    """The level whose power step below the reference power is nearest the
    frame's attenuation below the reference RSSI; the lower level on ties."""
    attenuation = reference - observed_dbm
    best_level = best_err = None
    for level, power in TX_POWER_BY_LEVEL.items():
        err = abs(attenuation - (REFERENCE_TX_POWER_DBM - power))
        if best_err is None or err < best_err:
            best_level, best_err = level, err
    return best_level
