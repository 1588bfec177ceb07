"""Iterative solvers: the independent oracles for the closed-form estimators.

- X/XX system: solves the two X/XX test-frequency equations for (p1, p_x) by
  damped Newton iteration with a central-difference Jacobian, from the
  initial guess (g_x_0, 0.001), to a residual infinity-norm of 1e-10.
- Hadamard decay: minimises the least-squares misfit of the survival
  1/2 + 1/2 (1 - 4p/3)^L over p in [0, 1] with a bounded scalar minimiser
  (coarse scan, golden section, finite-difference Newton polish).
- Bell-test stderr: the delta-method stderr of the cnot rate, with each
  readout rate's derivative of the Bell line taken as the line at rate 1
  minus the line at rate 0 (the line is affine in each rate), the line
  read out through the Kronecker product of the two 2x2 stochastic matrices.

Each forward model is written out here rather than imported, so the oracles
share no code with `noisekit.estimation.solve_aro_system`,
`noisekit.estimation.estimate_hadamard_error` or `noisekit.noise.read_out`.
"""
from __future__ import annotations

import math

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


def minimize_bounded(fn, lo, hi, param_tol=1e-10, coarse=65, max_newton=80):
    """Minimize a smooth scalar function on [lo, hi].

    Coarse scan to bracket the global minimum, golden-section refinement,
    then Newton polish on the (finite-differenced) derivative; falls back to
    the golden-section result whenever Newton misbehaves. Returns
    (minimizer, fn(minimizer), iterations).
    """
    grid = np.linspace(lo, hi, coarse)
    values = [fn(g) for g in grid]
    best = int(np.argmin(values))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, coarse - 1)]
    iterations = coarse

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > 1e-8:
        iterations += 1
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)

    step_h = 1e-6
    newton_steps = 0
    while lo + step_h <= x <= hi - step_h and newton_steps < max_newton:
        newton_steps += 1
        iterations += 1
        f0, fp, fm = fn(x), fn(x + step_h), fn(x - step_h)
        d1 = (fp - fm) / (2 * step_h)
        d2 = (fp - 2 * f0 + fm) / step_h**2
        if d2 <= 0.0 or not math.isfinite(d2):
            break
        nxt = min(hi, max(lo, x - d1 / d2))
        moved = abs(nxt - x)
        if fn(nxt) > f0:
            break
        x = nxt
        if moved <= param_tol:
            break
    # exact boundary minima beat any interior resolution limit
    fx = fn(x)
    for endpoint in (lo, hi):
        fe = fn(endpoint)
        if fe <= fx:
            x, fx = endpoint, fe
    return float(x), float(fx), iterations


def hadamard_ssr(p: float, targets: dict[int, float]) -> float:
    """Squared misfit of the depolarized survival against readout-corrected
    targets {length: P(0)}."""
    return sum((0.5 + 0.5 * (1.0 - 4.0 * p / 3.0) ** l - t) ** 2 for l, t in targets.items())


def fit_hadamard(targets: dict[int, float]) -> tuple[float, float]:
    """(p, SSR) of the bounded least-squares Hadamard fit on [0, 1]."""
    p, ssr, _ = minimize_bounded(lambda v: hadamard_ssr(v, targets), 0.0, 1.0)
    return p, ssr


def bell_line(rates: np.ndarray) -> np.ndarray:
    """Rows (base, slope) of the read-out Bell law base + s * slope, for
    rates [[p0_j, p0_k], [p1_j, p1_k]]."""
    channel = np.kron(*([[1.0 - p0, p1], [p0, 1.0 - p1]] for p0, p1 in zip(*rates)))
    return np.array([[0.5, 0.0, 0.0, 0.5], [-1.0, 1.0, 1.0, -1.0]]) @ channel.T


def pcnot_stderr(observed, shots: int, rates: np.ndarray, readout_stderrs) -> float:
    """Stderr of the Bell-test cnot rate for observed frequencies over
    00, 01, 10, 11, readout rates [[p0_j, p0_k], [p1_j, p1_k]] and the
    readout stderrs (p0_j, p1_j, p0_k, p1_k)."""
    observed = np.asarray(observed, dtype=float)
    base, slope = bell_line(rates)
    norm2 = float(slope @ slope)
    resid = observed - base
    s_raw = float(slope @ resid) / norm2
    obs_terms = slope / norm2 * np.sqrt(observed * (1.0 - observed) / shots)
    var = float(obs_terms @ obs_terms)
    for sigma, entry in zip(readout_stderrs, ((0, 0), (1, 0), (0, 1), (1, 1))):
        at_zero, at_one = rates.copy(), rates.copy()
        at_zero[entry], at_one[entry] = 0.0, 1.0
        d_base, d_slope = bell_line(at_one) - bell_line(at_zero)
        ds_dparam = (d_slope @ resid - slope @ d_base - 2.0 * s_raw * (slope @ d_slope)) / norm2
        var += (ds_dparam * sigma) ** 2
    return 1.5 / math.sqrt(1.0 - 4.0 * s_raw) * math.sqrt(var)
