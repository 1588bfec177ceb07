"""Closed-form test-circuit frequencies: the independent oracle for the
simulator and the estimators.

The paper's X/XX and Bell tests have exact frequencies in their noise
parameters. Each formula here is written out by hand from the channel
conventions of `noisekit.noise`; it calls none of the package's channels.
"""
from __future__ import annotations

from noisekit.errors import OutOfRange
from noisekit.outcomes import Distribution


def _check_prob(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise OutOfRange(f"{name}={value} is not a probability")


def predicted_x_test_frequencies(p0: float, p1: float, p_x: float) -> tuple[float, float]:
    """Closed-form frequencies of observing 0 in the X and XX test circuits.

    Single X gate (ideal outcome 1) followed by asymmetric readout, and two
    X gates (ideal outcome 0), each gate carrying a depolarizing channel
    with parameter p_x.
    """
    _check_prob(p0, "p0")
    _check_prob(p1, "p1")
    _check_prob(p_x, "p_x")
    q = 2.0 * p_x / 3.0
    g_x_0 = q * (1.0 - p0) + p1 * (1.0 - q)
    g_xx_0 = (1.0 - p0) * ((1.0 - q) ** 2 + q ** 2) + p1 * (2.0 * q * (1.0 - q))
    return g_x_0, g_xx_0


def bell_frequencies(p_cnot: float) -> Distribution:
    """Outcome frequencies of the noisy Bell-state test with ideal readout.

    Each qubit of the cnot carries an independent depolarizing channel with
    the same parameter.
    """
    _check_prob(p_cnot, "p_cnot")
    same = 0.5 - (2.0 / 3.0) * p_cnot + (4.0 / 9.0) * p_cnot ** 2
    diff = (2.0 / 3.0) * p_cnot - (4.0 / 9.0) * p_cnot ** 2
    return Distribution({"00": same, "01": diff, "10": diff, "11": same})
