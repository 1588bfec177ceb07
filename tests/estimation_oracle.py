"""Iterative solvers: the independent oracles for the closed-form estimators.

- X/XX system: solves the two X/XX test-frequency equations for (p1, p_x) by
  damped Newton iteration with a central-difference Jacobian, from the
  initial guess (g_x_0, 0.001), to a residual infinity-norm of 1e-10.
- Hadamard decay: generalised least squares of the sequence frequencies,
  iterated to its fixed point, each round's weighted misfit minimised over
  p in [0, 3/4] by a bounded scalar minimiser (coarse scan, golden section,
  finite-difference Newton polish).
- Bell-test fit: the least-squares line of the four Bell frequencies, read
  out through the Kronecker product of the two 2x2 stochastic matrices. Its
  delta-method stderr takes the four frequencies as one multinomial and
  each readout rate's derivative of the line as the line at rate 1 minus
  the line at rate 0 (the line is affine in each rate).
- Per-element fits: the closed-form X/XX, Hadamard and Bell estimators
  written for one qubit or coupling at a time, and `fit_estimates`, which
  fits an archive element by element in the order `fit_composite` reports
  errors: every qubit's p0 and X/XX system, then every Hadamard decay, then
  every coupling. The stacked estimators in `noisekit.estimation` must give
  the same estimates, stderrs, residuals and errors.

Each forward model is written out here rather than imported, so the oracles
share no code with `noisekit.estimation` (beyond its result type) or
`noisekit.noise.read_out`.
"""
from __future__ import annotations

import math

import numpy as np

from noisekit.errors import InsufficientLengths, NoConvergence, OutOfRange, WrongKind
from noisekit.estimation import EstimationResult
from noisekit.noise import VARIANTS


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


def hadamard_fixed_point(observed: dict[int, float], shots: dict[int, int], p0: float,
                         p1: float, readout_stderrs=(0.0, 0.0), tol: float = 1e-9,
                         rounds: int = 50) -> float:
    """p_h where the generalised least-squares fit of the sequence
    frequencies {length: P(0)} stops moving: each round holds the lengths'
    covariance (binomial variance floored at one count, plus the readout
    stderrs' shared terms) at the last round's p, taken first at the
    observed frequencies, and minimises the weighted misfit over p in
    [0, 3/4] with `minimize_bounded`, until p moves by at most `tol` (the
    minimiser resolves p to a few 1e-10). The score of that fixed point is
    the estimating equation that one scoring step solves to first order."""
    lengths = sorted(observed)
    f = np.array([observed[l] for l in lengths])
    n = np.array([shots[l] for l in lengths], dtype=float)

    def law(p):
        survival = 0.5 + 0.5 * (1.0 - 4.0 * p / 3.0) ** np.array(lengths, dtype=float)
        return (1.0 - p0) * survival + p1 * (1.0 - survival), survival

    def precision(q, survival):
        cov = np.diag(np.maximum(q * (1.0 - q), 1.0 / n) / n)
        for sd, column in zip(readout_stderrs, (survival, 1.0 - survival)):
            cov += sd**2 * np.outer(column, column)
        return np.linalg.inv(cov)

    def fit(weights) -> float:
        misfit = lambda v: float((f - law(v)[0]) @ weights @ (f - law(v)[0]))
        return minimize_bounded(misfit, 0.0, 0.75)[0]

    p = fit(precision(f, np.clip((f - p1) / (1.0 - p0 - p1), 0.0, 1.0)))
    for _ in range(rounds):
        p, last = fit(precision(*law(p))), p
        if abs(p - last) <= tol:
            return p
    raise NewtonFailure(f"generalised least squares still moves after {rounds} rounds")


def bell_line(rates: np.ndarray) -> np.ndarray:
    """Rows (base, slope) of the read-out Bell law base + s * slope, for
    rates [[p0_j, p0_k], [p1_j, p1_k]]."""
    channel = np.kron(*([[1.0 - p0, p1], [p0, 1.0 - p1]] for p0, p1 in zip(*rates)))
    return np.array([[0.5, 0.0, 0.0, 0.5], [-1.0, 1.0, 1.0, -1.0]]) @ channel.T


def pcnot_stderr(observed, shots: int, rates: np.ndarray, readout_stderrs) -> float:
    """Stderr of the Bell-test cnot rate for observed frequencies over
    00, 01, 10, 11, readout rates [[p0_j, p0_k], [p1_j, p1_k]] and the
    readout stderrs (p0_j, p1_j, p0_k, p1_k).

    The frequencies' covariance is the multinomial (diag f - f f') / n. The
    fit's weights g on them are a parity contrast, so g' C g is floored at
    one count as a binomial frequency is: at g'g / n^2."""
    observed = np.asarray(observed, dtype=float)
    base, slope = bell_line(rates)
    norm2 = float(slope @ slope)
    resid = observed - base
    s_raw = float(slope @ resid) / norm2
    weights = slope / norm2
    cov = (np.diag(observed) - np.outer(observed, observed)) / shots
    var = max(float(weights @ cov @ weights), float(weights @ weights) / shots**2)
    for sigma, entry in zip(readout_stderrs, ((0, 0), (1, 0), (0, 1), (1, 1))):
        at_zero, at_one = rates.copy(), rates.copy()
        at_zero[entry], at_one[entry] = 0.0, 1.0
        d_base, d_slope = bell_line(at_one) - bell_line(at_zero)
        ds_dparam = (d_slope @ resid - slope @ d_base - 2.0 * s_raw * (slope @ d_slope)) / norm2
        var += (ds_dparam * sigma) ** 2
    return 1.5 / math.sqrt(1.0 - 4.0 * s_raw) * math.sqrt(var)


# -- per-element closed forms ----------------------------------------------------

def binomial_sd(freq: float, shots: int | None) -> float:
    if not shots:
        return 0.0
    v = min(1.0, max(0.0, freq))
    return math.sqrt(v * (1.0 - v) / shots)


def _clamped(name: str, raw: float, stderr: float = 0.0,
             residual_norm: float = 0.0) -> EstimationResult:
    value = min(1.0, max(0.0, raw))
    return EstimationResult(name, value, raw, stderr, value == raw, residual_norm)


def aro_per_element(g_x_0, g_xx_0, p0, shots=None, p0_stderr=0.0, qubit=None):
    """(p1, p_x) results of one qubit's X/XX system given p0."""
    for name, value in (("g_x_0", g_x_0), ("g_xx_0", g_xx_0), ("p0", p0)):
        if not (0.0 <= value <= 1.0):
            raise OutOfRange(f"{name}={value} is not a probability")
    a = 1.0 - p0
    gap_x, gap_xx = a - g_x_0, a - g_xx_0
    if abs(gap_x) < 1e-12:
        raise NoConvergence("X test frequency equals 1 - p0: p_x is unidentifiable",
                            {"g_x_0": g_x_0, "p0": p0})
    q = gap_xx / (2.0 * gap_x)
    if abs(1.0 - q) < 1e-12:
        raise NoConvergence("X/XX frequencies imply q = 1: p1 is unidentifiable",
                            {"g_x_0": g_x_0, "g_xx_0": g_xx_0, "p0": p0})
    p1_raw = (g_x_0 - q * a) / (1.0 - q)
    px_raw = 1.5 * q

    stderr_p1 = stderr_px = 0.0
    if shots:
        sigma = np.array([binomial_sd(g_x_0, shots[0]), binomial_sd(g_xx_0, shots[1]),
                          p0_stderr])
        grad_q = np.array([q / gap_x, -0.5 / gap_x, (gap_xx - gap_x) / (2.0 * gap_x**2)])
        grad_p1 = (np.array([1.0, 0.0, q]) + (p1_raw - a) * grad_q) / (1.0 - q)
        stderr_p1 = float(np.linalg.norm(grad_p1 * sigma))
        stderr_px = 1.5 * float(np.linalg.norm(grad_q * sigma))

    tag = f":q{qubit}" if qubit is not None else ""
    return _clamped(f"p1{tag}", p1_raw, stderr_p1), _clamped(f"p_x{tag}", px_raw, stderr_px)


def _frequency(records, row: int, outcome: int) -> float:
    """A record's frequency of the outcome with index `outcome`."""
    return (records.counts[row, outcome] / records.shots[row]).item()


def _hadamard_variance(law: float, shots: int) -> float:
    """A frequency's binomial variance, floored at one count."""
    return max(law * (1.0 - law), 1.0 / shots) / shots


def hadamard_per_element(records, p0: float, p1: float, rows=None,
                         readout_stderrs=(0.0, 0.0)) -> tuple[EstimationResult, bool]:
    """(p_h result, include-in-model flag) of one qubit's sequence tests (the
    table `rows`, all of them by default), read out with rates (p0, p1) of
    stderrs `readout_stderrs`: the start (2 u_L)^(1/L) of each length,
    averaged with weights g_L^2 / var(f_L) at its own decay, then one
    scoring step with the covariance diag(var) + sd0^2 S S^T + sd1^2 (1-S)(1-S)^T."""
    rows = range(len(records.tests)) if rows is None else rows
    for row in rows:
        if records.tests[row].kind != "hseq":
            raise WrongKind(f"expected hseq tests, got {records.tests[row].kind}")
    lengths = sorted({records.tests[row].length for row in rows})
    if len(lengths) < 2:
        raise InsufficientLengths(f"need >=2 distinct sequence lengths, got {lengths}")
    denom = 1.0 - p0 - p1
    if abs(denom) < 1e-9:
        raise NoConvergence("readout too noisy to invert for survival correction")
    by_length = {records.tests[row].length: row for row in rows}
    observed = [_frequency(records, by_length[l], 0) for l in lengths]
    shots = [int(records.shots[by_length[l]]) for l in lengths]
    u = [(f - p1) / denom - 0.5 for f in observed]
    slope = lambda decay, l: denom * l / 2.0 * decay ** (l - 1)

    own = [max(2.0 * v, 0.0) ** (1.0 / l) for v, l in zip(u, lengths)]
    weight = [slope(r, l) ** 2 / _hadamard_variance(f, n)
              for r, l, f, n in zip(own, lengths, observed, shots)]
    start = sum(w * r for w, r in zip(weight, own)) / sum(weight) if sum(weight) > 0 else 0.0
    start = min(1.0, max(0.0, start))

    survival = np.array([0.5 + 0.5 * start**l for l in lengths])
    law = p1 + denom * survival
    sd0, sd1 = readout_stderrs
    cov = (np.diag([_hadamard_variance(q, n) for q, n in zip(law, shots)])
           + sd0**2 * np.outer(survival, survival)
           + sd1**2 * np.outer(1.0 - survival, 1.0 - survival))
    g = np.array([slope(start, l) for l in lengths])
    info = float(g @ np.linalg.solve(cov, g))
    score = float(g @ np.linalg.solve(cov, np.array(observed) - law))
    decay = min(1.0, max(0.0, start + (score / info if info > 0.0 else 0.0)))
    value = 0.75 * (1.0 - decay)
    stderr = 0.75 / math.sqrt(info) if 0.0 < value < 0.75 else 0.0
    residual = math.sqrt(sum((0.5 * decay**l - v) ** 2 for l, v in zip(lengths, u)))

    result = EstimationResult(f"p_h:q{records.tests[rows[0]].qubit}", value, value, stderr,
                              residual_norm=residual)
    return result, 10.0 * stderr < value < 0.75


def pcnot_per_element(records, row: int, rates: np.ndarray,
                      readout_stderrs=(0.0,) * 4) -> EstimationResult:
    """One coupling's Bell fit, from table row `row`, for readout rates
    [[p0_j, p0_k], [p1_j, p1_k]]."""
    test = records.tests[row]
    if test.kind != "bell":
        raise WrongKind(f"fit_pcnot needs a bell test, got {test.kind}")
    j, k = test.coupling
    name = f"p_cnot:q{j}-q{k}"
    observed = np.array([_frequency(records, row, outcome) for outcome in range(4)])
    base, slope = bell_line(rates)
    norm2 = float(slope @ slope)
    if norm2 < 1e-18:
        raise NoConvergence("readout too noisy to resolve the Bell test")
    resid = observed - base
    s_raw = float(slope @ resid) / norm2
    if s_raw >= 0.25:
        return EstimationResult(name, 0.75, 0.75, feasible=s_raw == 0.25,
                                residual_norm=float(np.linalg.norm(resid - 0.25 * slope)))
    return _clamped(name, 0.75 * (1.0 - math.sqrt(1.0 - 4.0 * s_raw)),
                    pcnot_stderr(observed, records.shots[row], rates, readout_stderrs),
                    float(np.linalg.norm(resid - max(s_raw, 0.0) * slope)))


def fit_estimates(records, variant: str, subset=None) -> tuple[dict, dict]:
    """Every estimate of a per-element fit of a count table, as (name ->
    result, qubit -> Hadamard include flag), fitted one element at a time.
    Errors come from the first element that fails: qubits in order for p0
    and X/XX, then for the Hadamard decay, then couplings in order. Coverage
    is not checked."""
    readout_mode, gate_dp = VARIANTS[variant]
    by_kind, hseqs = {}, {}
    for row, test in enumerate(records.tests):
        if test.kind == "bell":
            by_kind[("bell", test.coupling)] = row
        elif test.kind == "hseq":
            hseqs.setdefault(test.qubit, []).append(row)
        else:
            by_kind[(test.kind, test.qubit)] = row
    couplings = sorted(c for kind, c in by_kind if kind == "bell")
    if subset:
        qubits = sorted(subset)
        couplings = [c for c in couplings if c[0] in subset and c[1] in subset]
    else:
        qubits = sorted({q for kind, q in by_kind if kind != "bell"}
                        | set(hseqs) | {q for c in couplings for q in c})

    estimates, include, rates, sigmas = {}, {}, {}, {}
    for q in qubits:
        init = by_kind[("init", q)]
        p0 = _frequency(records, init, 1)
        p0_sd = binomial_sd(p0, records.shots[init])
        estimates[f"p0:q{q}"] = EstimationResult(f"p0:q{q}", p0, p0, p0_sd)
        rates[q], sigmas[q] = (p0, p0), (p0_sd, p0_sd)
        if readout_mode == "aro" or gate_dp:
            x, xx = by_kind[("x", q)], by_kind[("xx", q)]
            p1, p_x = aro_per_element(_frequency(records, x, 0), _frequency(records, xx, 0), p0,
                                      (records.shots[x], records.shots[xx]), p0_sd, q)
            estimates[p1.name], estimates[p_x.name] = p1, p_x
            if readout_mode == "aro":
                rates[q], sigmas[q] = (p0, p1.value), (p0_sd, p1.stderr)
        if readout_mode == "off":
            rates[q], sigmas[q] = (0.0, 0.0), (0.0, 0.0)
    if gate_dp:
        for q in qubits:
            if q in hseqs:
                result, include[q] = hadamard_per_element(records, *rates[q], hseqs[q], sigmas[q])
                estimates[result.name] = result
        for j, k in couplings:
            pair = np.array([[rates[j][0], rates[k][0]], [rates[j][1], rates[k][1]]])
            result = pcnot_per_element(records, by_kind[("bell", (j, k))], pair,
                                       sigmas[j] + sigmas[k])
            estimates[result.name] = result
    return estimates, include
