"""Damped-Newton X/XX solve: the independent oracle for the closed form.

Solves the two X/XX test-frequency equations for (p1, p_x) by damped Newton
iteration with a central-difference Jacobian, from the initial guess
(g_x_0, 0.001), to a residual infinity-norm of 1e-10. The forward model is
written out here rather than imported, so it shares no code with
`noisekit.estimation.solve_aro_system`.
"""
from __future__ import annotations

import numpy as np


class NewtonFailure(Exception):
    """The iteration stalled, met a singular Jacobian or ran out of steps."""


def x_test_frequencies(p0: float, p1: float, p_x: float) -> tuple[float, float]:
    """P(observe 0) in the X and XX tests, without domain checks, so the
    iteration may pass through infeasible points."""
    q = 2.0 * p_x / 3.0
    g_x_0 = q * (1.0 - p0) + p1 * (1.0 - q)
    g_xx_0 = (1.0 - p0) * ((1.0 - q) ** 2 + q**2) + p1 * (2.0 * q * (1.0 - q))
    return g_x_0, g_xx_0


def damped_newton_2x2(residual_fn, x0, residual_tol=1e-10, max_iter=200, fd_step=1e-7):
    """Solve residual_fn(x) = 0 for 2-vectors; each step is halved until the
    residual infinity-norm decreases. Returns (x, residual norm, iterations)."""
    x = np.asarray(x0, dtype=float)
    for iteration in range(max_iter):
        r = np.asarray(residual_fn(x), dtype=float)
        r_norm = np.max(np.abs(r))
        if r_norm <= residual_tol:
            return x, r_norm, iteration
        jac = np.empty((2, 2))
        for col in range(2):
            bump = np.zeros(2)
            bump[col] = fd_step
            jac[:, col] = (
                np.asarray(residual_fn(x + bump)) - np.asarray(residual_fn(x - bump))
            ) / (2 * fd_step)
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise NewtonFailure(f"singular Jacobian at {x.tolist()}") from exc
        scale = 1.0
        while scale > 1e-10:
            if np.max(np.abs(residual_fn(x + scale * step))) < r_norm:
                break
            scale /= 2.0
        else:
            raise NewtonFailure(f"damping stalled at {x.tolist()}")
        x = x + scale * step
    raise NewtonFailure(f"residual tolerance not reached after {max_iter} steps")


def solve_x_xx(g_x_0: float, g_xx_0: float, p0: float) -> tuple[float, float]:
    """Raw (p1, p_x) that reproduce the observed X and XX frequencies."""

    def residual(theta):
        pred_x, pred_xx = x_test_frequencies(p0, theta[0], theta[1])
        return np.array([pred_x - g_x_0, pred_xx - g_xx_0])

    solution, _, _ = damped_newton_2x2(residual, (g_x_0, 0.001))
    return float(solution[0]), float(solution[1])
