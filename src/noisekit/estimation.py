"""Parameter estimation from characterization records.

Every test circuit has closed-form frequencies, so every estimator is exact
and none iterates: readout-of-0 error is a frequency, the coupled (p1, p_x)
system of the X/XX tests is solved in closed form, the Bell-test
least-squares fit of the cnot depolarizing parameter is quadratic in
s = 2p/3 - 4p^2/9, and the Hadamard survival decay's least squares is a
polynomial root problem in r^2 = (1 - 4p/3)^2. Readout enters only through
`noise.read_out`, the channel the simulator uses. Standard errors propagate
each record's binomial counting noise (and upstream readout stderrs) through
analytic gradients (delta method); estimates that land outside [0,1] are
clamped and flagged infeasible rather than rejected.

Every element of a family (each qubit's X/XX system or Hadamard decay, each
coupling's Bell fit) is the same closed form applied to other numbers, so
`fit_composite` fits each family once, across all its elements, as array
arithmetic; the Hadamard roots of all qubits sharing a set of lengths come
from one root isolation of their sparse derivative polynomials on [0, 1]
(`_sparse_roots`). The public one-element estimators are one-row calls into
the same code.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .characterization import Characterization
from .errors import (
    ConfigError,
    InsufficientLengths,
    MissingCoverage,
    NoConvergence,
    OutOfRange,
    WrongKind,
)
from .noise import (
    PER_ELEMENT,
    REGISTER_AVERAGE,
    SUBSET_AVERAGE,
    VARIANTS,
    CompositeNoiseModel,
    ReadoutModel,
    apply_readout_to_distribution,  # noqa: F401  (perfbench counts calls to it here)
    read_out,
)


@dataclass(frozen=True)
class EstimationResult:
    """One fitted parameter with its pre-clamp raw value and diagnostics."""

    name: str
    value: float
    raw_value: float
    stderr: float = 0.0
    feasible: bool = True
    residual_norm: float = 0.0
    iterations: int = 0

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise OutOfRange(f"{self.name}: clamped value {self.value} outside [0,1]")
        if self.stderr < 0:
            raise OutOfRange(f"{self.name}: negative stderr")


def binomial_stderr(freq, shots):
    """Binomial counting stderr sqrt(f (1 - f) / shots) of observed
    frequencies, elementwise over arrays; 0 where there are no shots."""
    v = np.minimum(1.0, np.maximum(0.0, freq))
    return np.sqrt(v * (1.0 - v) / np.where(shots, shots, np.inf))


def _results(names, raw, stderr, residual_norm, flagged=False) -> list[EstimationResult]:
    """One result per element, clamped into [0, 1]. An element is feasible
    when the clamp left its raw value alone and it is not `flagged`."""
    value = np.minimum(1.0, np.maximum(0.0, raw))
    feasible = (value == raw) & ~np.asarray(flagged)
    return [EstimationResult(*row) for row in zip(
        names, value.tolist(), raw.tolist(), stderr.tolist(),
        feasible.tolist(), residual_norm.tolist())]


def _raise_first(checks) -> None:
    """Raise the error of the first element that fails any check: `checks`
    lists (mask over elements, error for element i) in the order one
    element's checks run, so each family raises what fitting its elements
    one at a time would raise."""
    failed = np.logical_or.reduce([mask for mask, _ in checks])
    if failed.any():
        i = int(np.argmax(failed))
        raise next(error(i) for mask, error in checks if mask[i])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, one per row, by stacked matmul: with
    numpy's BLAS each row rounds as a one-row `a @ b` does, where an einsum
    or a product sum may not."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm(x: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(x, x))


def _one(value) -> np.ndarray:
    return np.array([value], dtype=float)


# -- closed-form estimators, one family at a time ------------------------------------

def _p0_fits(chars) -> list[EstimationResult]:
    for char in chars:
        if char.kind.kind != "init":
            raise WrongKind(f"estimate_p0 needs an init test, got {char.kind.kind}")
    freq = np.array([char.counts.frequency("1") for char in chars])
    stderr = binomial_stderr(freq, np.array([char.counts.shots for char in chars]))
    names = [f"p0:q{char.kind.qubit}" for char in chars]
    return _results(names, freq, stderr, np.zeros(len(chars)))


def estimate_p0(char: Characterization) -> EstimationResult:
    """Readout-of-0 flip rate from the init-measure test: the observed
    frequency of outcome 1. Doubles as p_sro for the symmetric model."""
    return _p0_fits([char])[0]


def _aro_fits(g_x, g_xx, p0, sigma, tags):
    """(p1 results, p_x results) of the X/XX systems of several qubits.

    All arguments are arrays over qubits; sigma has shape (qubits, 3): the
    stderrs of (g_x, g_xx, p0), zero where none is propagated."""
    values = (("g_x_0", g_x), ("g_xx_0", g_xx), ("p0", p0))
    a = 1.0 - p0
    gap_x, gap_xx = a - g_x, a - g_xx
    with np.errstate(divide="ignore", invalid="ignore"):
        q = gap_xx / (2.0 * gap_x)
    _raise_first([
        *((~((0.0 <= v) & (v <= 1.0)),
           lambda i, name=name, v=v: OutOfRange(f"{name}={v[i].item()} is not a probability"))
          for name, v in values),
        (np.abs(gap_x) < 1e-12, lambda i: NoConvergence(
            "X test frequency equals 1 - p0: p_x is unidentifiable",
            {"g_x_0": g_x[i].item(), "p0": p0[i].item()})),
        (np.abs(1.0 - q) < 1e-12, lambda i: NoConvergence(
            "X/XX frequencies imply q = 1: p1 is unidentifiable",
            {"g_x_0": g_x[i].item(), "g_xx_0": g_xx[i].item(), "p0": p0[i].item()})),
    ])
    p1_raw = (g_x - q * a) / (1.0 - q)
    px_raw = 1.5 * q
    # gradients with respect to (g_x, g_xx, p0), one row per qubit
    grad_q = np.stack([q / gap_x, -0.5 / gap_x, (gap_xx - gap_x) / (2.0 * gap_x**2)], axis=-1)
    grad_p1 = (np.stack([np.ones_like(q), np.zeros_like(q), q], axis=-1)
               + (p1_raw - a)[:, None] * grad_q) / (1.0 - q)[:, None]
    stderr_p1 = _norm(grad_p1 * sigma)
    stderr_px = 1.5 * _norm(grad_q * sigma)
    zero = np.zeros(len(q))
    return (_results([f"p1{t}" for t in tags], p1_raw, stderr_p1, zero),
            _results([f"p_x{t}" for t in tags], px_raw, stderr_px, zero))


def solve_aro_system(
    g_x_0: float,
    g_xx_0: float,
    p0: float,
    shots: tuple[int, int] | None = None,
    p0_stderr: float = 0.0,
    qubit: int | None = None,
) -> tuple[EstimationResult, EstimationResult]:
    """Recover (p1, p_x) from the X / XX test frequencies given p0.

    With a = 1 - p0 and q = 2 p_x / 3 the test frequencies are
    g_x = q a + p1 (1 - q) and g_xx = a - 2 q (a - g_x), so
    q = (a - g_xx) / (2 (a - g_x)) and p1 = (g_x - q a) / (1 - q).
    Given the (X, XX) shot counts, the stderrs propagate both tests' binomial
    noise and p0_stderr through the exact gradient. Raw solutions outside [0,1] (possible for near-noiseless
    registers) are clamped and flagged.
    """
    sigma = np.zeros((1, 3))
    if shots:
        sigma[0] = (binomial_stderr(g_x_0, shots[0]), binomial_stderr(g_xx_0, shots[1]),
                    p0_stderr)
    (p1,), (p_x,) = _aro_fits(_one(g_x_0), _one(g_xx_0), _one(p0), sigma,
                              [f":q{qubit}" if qubit is not None else ""])
    return p1, p_x


def hadamard_survival(length: int, p_h: float) -> float:
    """Probability of the ideal outcome 0 after an even Hadamard train where
    every gate carries a depolarizing channel with parameter p_h."""
    return 0.5 + 0.5 * (1.0 - 4.0 * p_h / 3.0) ** length


@dataclass(frozen=True)
class HadamardFit:
    result: EstimationResult
    include_in_model: bool


def _hadamard_fits(rows, p0: np.ndarray, p1: np.ndarray) -> list[HadamardFit]:
    """One fit per row of sequence tests, row i corrected for readout rates
    (p0[i], p1[i]). Rows with the same set of lengths are solved together:
    one `_sparse_roots` call finds the roots of all their derivative
    polynomials."""
    denom = 1.0 - p0 - p1
    tables, kinds = [], []
    for chars in rows:
        kinds.append(next((c.kind.kind for c in chars if c.kind.kind != "hseq"), None))
        tables.append({} if kinds[-1] else {c.kind.length: c.counts for c in chars})
    lengths = [sorted(table) for table in tables]
    _raise_first([
        (np.array([k is not None for k in kinds]),
         lambda i: WrongKind(f"expected hseq tests, got {kinds[i]}")),
        (np.array([len(ls) < 2 for ls in lengths]), lambda i: InsufficientLengths(
            f"need >=2 distinct sequence lengths, got {lengths[i]}")),
        (np.abs(denom) < 1e-9, lambda _: NoConvergence(
            "readout too noisy to invert for survival correction")),
    ])
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, ls in enumerate(lengths):
        groups.setdefault(tuple(ls), []).append(i)

    value, stderr, residual = (np.zeros(len(rows)) for _ in range(3))
    for key, members in groups.items():
        value[members], stderr[members], residual[members] = _hadamard_group(
            np.array(key), [tables[i] for i in members], denom[members], p1[members])
    fits = _results([f"p_h:q{chars[0].kind.qubit}" for chars in rows], value, stderr,
                    residual)
    include = (10.0 * stderr < value) & (value < 0.75)
    return [HadamardFit(fit, flag) for fit, flag in zip(fits, include.tolist())]


# Root isolation starts from this grid on [0, 1]. A cell that no
# certificate settles is split until it is narrower than _MIN_CELL, or
# until its row has more than _MAX_CELLS such cells, and is then taken as a
# root at its midpoint: there the polynomial is a cluster or multiple root,
# flat to rounding, and so is the misfit.
_GRID = np.linspace(0.0, 1.0, 257)
_MIN_CELL = 2.0**-50
_MAX_CELLS = 1024
_MAX_NEWTON = 100


def _monotone_parts(exponents: np.ndarray, coef: np.ndarray):
    """(powers, weights) splitting each row's f(s) = sum_e coef[e] s^e and
    its derivative into parts with nonnegative coefficients, f = P - N and
    f' = P' - N', each nondecreasing on [0, 1]. Both have rows [P, N, P', N']:
    `powers` (4, terms) the monomials' exponents, `weights` (rows, 4, terms)
    their coefficients."""
    powers = np.array([exponents, exponents, exponents - 1, exponents - 1], dtype=float)
    split = np.stack([np.maximum(coef, 0.0), np.maximum(-coef, 0.0)], axis=1)
    return np.maximum(powers, 0.0), np.concatenate([split, exponents * split], axis=1)


def _parts(powers: np.ndarray, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """[P, N, P', N'] at the points x, shape (rows, points, 4), for weights
    (rows, 4, terms) and x (rows or 1, points)."""
    monomials = x[:, None, None, :] ** powers[..., None]  # (rows or 1, 4, terms, points)
    return (weights[:, :, None, :] @ monomials)[:, :, 0].transpose(0, 2, 1)


def _sparse_roots(exponents: np.ndarray, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, root) arrays: every sign-changing root in (0, 1) of each row's
    polynomial f(s) = sum_e coef[row, e] s^exponents[e], plus (to about one
    ulp) any point of the grid or its subdivisions where f evaluates to
    exactly 0, and the midpoint of every unresolved cell.

    With f = P - N split into nondecreasing parts, on a cell [a, b]
    P(a) - N(b) <= f <= P(b) - N(a), and likewise for f'. A cell is settled
    when f is certified of one sign on it (no root) or f' is (at most one
    root, which lies in (a, b] when f(b) = 0 or f changes sign across the
    cell); any other cell is split in two. So no pair of close roots hides
    in a cell without a sign change. Each root is then polished by Newton
    steps that fall back to bisection outside the cell's bracket, to about
    one ulp.
    """
    rows = len(coef)
    # s^k with k the least exponent only adds a root at 0, which is no
    # concern here and would keep the cells next to 0 from settling
    powers, weights = _monotone_parts(exponents - exponents[0], coef)
    grid = _parts(powers, weights, _GRID[None])  # (rows, points, 4)
    row = np.repeat(np.arange(rows), len(_GRID) - 1)
    a, b = np.tile(_GRID[:-1], rows), np.tile(_GRID[1:], rows)
    fa, fb = grid[:, :-1].reshape(-1, 4), grid[:, 1:].reshape(-1, 4)
    found_row, found, brackets = [], [], []
    while row.size:
        one_sign = (fa[:, 0] > fb[:, 1]) | (fb[:, 0] < fa[:, 1])
        monotone = (fa[:, 2] > fb[:, 3]) | (fb[:, 2] < fa[:, 3])
        f_a, f_b = fa[:, 0] - fa[:, 1], fb[:, 0] - fb[:, 1]
        # a zero at an end counts for the cell left of it; s = 1 is a
        # candidate anyway
        root = (np.sign(f_a) * np.sign(f_b) < 0.0) | ((f_b == 0.0) & (b < 1.0))
        inside = monotone & ~one_sign & root
        brackets.append((row[inside], a[inside], b[inside], f_a[inside] < 0.0))
        split = ~(one_sign | monotone)
        crowded = np.bincount(row[split], minlength=rows)[row] > _MAX_CELLS
        unresolved = split & ((b - a < _MIN_CELL) | crowded)
        split &= ~unresolved
        unresolved &= (a > 0.0) & (b < 1.0)  # s = 0 and s = 1 are candidates anyway
        found_row.append(row[unresolved])
        found.append(0.5 * (a[unresolved] + b[unresolved]))
        row, a, b, fa, fb = row[split], a[split], b[split], fa[split], fb[split]
        mid = 0.5 * (a + b)
        fm = _parts(powers, weights[row], mid[:, None])[:, 0]
        row, a, b = np.tile(row, 2), np.concatenate([a, mid]), np.concatenate([mid, b])
        fa, fb = np.concatenate([fa, fm]), np.concatenate([fm, fb])
    row, lo, hi, rising = (np.concatenate(arrays) for arrays in zip(*brackets))
    found_row.append(row)
    found.append(_newton(powers, weights[row], lo, hi, rising))
    return np.concatenate(found_row), np.concatenate(found)


def _newton(powers, weights, lo, hi, rising) -> np.ndarray:
    """The root in each bracket (lo, hi] of a function monotone on it, with
    f(lo) < 0 where `rising`: Newton steps, bisecting whenever a step leaves
    the bracket, until the Newton step is at most one ulp (or after
    _MAX_NEWTON steps, still inside the bracket)."""
    x = 0.5 * (lo + hi)
    active = np.arange(len(x))
    for _ in range(_MAX_NEWTON):
        if not active.size:
            break
        xa = x[active]
        p, n, dp, dn = _parts(powers, weights[active], xa[:, None])[:, 0].T
        f = p - n
        right = (f < 0.0) == rising[active]  # the root lies right of xa
        la = lo[active] = np.where(right, xa, lo[active])
        ha = hi[active] = np.where(right, hi[active], xa)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = f / (dp - dn)
        done = ~(np.abs(newton) > np.spacing(xa))
        step = xa - newton
        step = np.where((la <= step) & (step <= ha), step, 0.5 * (la + ha))
        x[active] = np.where(done, xa, step)
        active = active[~done]
    return x


def _hadamard_group(length: np.ndarray, tables, denom: np.ndarray, p1: np.ndarray):
    """(p_h, stderr, residual norm) arrays for rows sharing the lengths."""
    observed = np.array([[table[l].frequency("0") for l in length.tolist()]
                         for table in tables])
    shots = np.array([[table[l].shots for l in length.tolist()] for table in tables])
    u = (observed - p1[:, None]) / denom[:, None] - 0.5
    rows = len(tables)

    # the derivative's nonzero coefficients, at exponents L - 1 and L/2 - 1
    exponents = np.union1d(length - 1, length // 2 - 1)
    derivative = np.zeros((rows, exponents.size))
    derivative[:, np.searchsorted(exponents, length - 1)] += length / 2.0
    derivative[:, np.searchsorted(exponents, length // 2 - 1)] -= length * u
    root_row, root = _sparse_roots(exponents, derivative)
    # candidates: s = 0 and s = 1 for every row, and each row's roots
    row = np.concatenate([np.arange(rows), np.arange(rows), root_row])
    s = np.concatenate([np.zeros(rows), np.ones(rows), root])
    ssr = ((s[:, None] ** (length / 2.0) / 2.0 - u[row]) ** 2).sum(axis=-1)
    # per row the least misfit and, among equal misfits, the largest s, so
    # a tie goes to the least p
    order = np.lexsort((-s, ssr, row))
    best = order[np.searchsorted(row[order], np.arange(rows))]
    s_best, best_ssr = s[best], ssr[best]
    decay = np.sqrt(s_best)
    value = 0.75 * (1.0 - decay)

    stderr = np.zeros(rows)
    inside = np.flatnonzero((0.0 < value) & (value < 0.75))
    if inside.size:
        # The optimum solves sum_l (S_l - t_l) S_l' = 0, with S_l the survival
        # and t_l the corrected target: dp/dt_l = S_l' / sum_l (S_l'^2 + (S_l - t_l) S_l'').
        d = decay[inside, None]
        d1 = -(2.0 * length / 3.0) * d ** (length - 1)
        d2 = (8.0 / 9.0) * length * (length - 1) * d ** (length - 2)
        curvature = _dot(d1, d1) + _dot(d**length / 2.0 - u[inside], d2)
        spread = d1 * binomial_stderr(observed[inside], shots[inside])
        stderr[inside] = (_norm(spread)
                          / np.abs(denom[inside] * curvature))
    return value, stderr, np.sqrt(best_ssr)


def estimate_hadamard_error(
    chars: list[Characterization], readout: ReadoutModel
) -> HadamardFit:
    """Per-gate Hadamard depolarizing rate from even-length sequence tests.

    Least squares of readout-corrected survival t_L against
    1/2 + 1/2 (1 - 4p/3)^L. Every length is even, so with s = (1 - 4p/3)^2
    and u_L = t_L - 1/2 the misfit sum_L (s^(L/2) / 2 - u_L)^2 depends on s
    alone: p and 3/2 - p fit equally well, and the search is p in [0, 3/4],
    i.e. s in [0, 1]. The misfit's s-derivative is proportional to the
    polynomial sum_L (L/2) s^(L-1) - L u_L s^(L/2-1), so the optimum is the
    best of s = 0, s = 1 and the roots in (0, 1) where that polynomial
    changes sign (the only interior minima); ties go to the least p. The
    stderr propagates each record's binomial noise through the
    implicit-function derivative of the optimum. On the bounds
    p = 0 and p = 3/4 (fully mixed, where dp/ds diverges) the fit does not
    move with the data, so no stderr is reported and the channel is left out
    of the model; inside, the include flag drops the channel when the rate
    is indistinguishable from zero (<= 10 stderr).
    """
    return _hadamard_fits([chars], _one(readout.p0), _one(readout.p1))[0]


BELL_OUTCOMES = ("00", "01", "10", "11")
_BELL_LINE = np.array([[0.5, 0.0, 0.0, 0.5], [-1.0, 1.0, 1.0, -1.0]])


def _bell_line(rates: np.ndarray) -> np.ndarray:
    """Readout-transformed Bell frequencies as rows (base, slope), the law at
    s = 2p/3 - 4p^2/9 being base + s * slope, for rates of shape (..., 2, 2);
    leading axes stack couplings.

    Before readout the law over BELL_OUTCOMES is [1/2, 0, 0, 1/2] +
    s [-1, 1, 1, -1]; readout is linear, so `read_out` with the per-bit
    rates [[p0_j, p0_k], [p1_j, p1_k]] maps each row.
    """
    line = np.tile(_BELL_LINE, (*rates.shape[:-2], 1, 1))
    read_out(line, rates[..., 0, :], rates[..., 1, :])
    return line


def _bell_line_derivatives(rates: np.ndarray) -> np.ndarray:
    """Derivatives of `_bell_line(rates)` in p0_j, p1_j, p0_k, p1_k, shape
    (..., 4, 2, 4).

    Readout is affine in each rate, so each derivative is `_bell_line` with
    that rate set to 1 minus `_bell_line` with it set to 0.
    """
    ends = np.repeat(rates[..., None, :, :], 8, axis=-3)
    for i, (rate, bit) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
        ends[..., 2 * i, rate, bit], ends[..., 2 * i + 1, rate, bit] = 1.0, 0.0
    lines = _bell_line(ends)
    return lines[..., 0::2, :, :] - lines[..., 1::2, :, :]


def _pcnot_fits(chars, rates: np.ndarray, readout_stderrs: np.ndarray) -> list[EstimationResult]:
    """Bell fits of several couplings: rates has shape (couplings, 2, 2),
    [[p0_j, p0_k], [p1_j, p1_k]] per coupling, and readout_stderrs shape
    (couplings, 4), the stderrs of (p0_j, p1_j, p0_k, p1_k)."""
    kinds = [char.kind.kind for char in chars]
    line = _bell_line(rates)
    base, slope = line[:, 0], line[:, 1]
    # |slope| = 2 |(1 - p0_j - p1_j)(1 - p0_k - p1_k)|
    norm2 = _dot(slope, slope)
    _raise_first([
        (np.array([k != "bell" for k in kinds]),
         lambda i: WrongKind(f"fit_pcnot needs a bell test, got {kinds[i]}")),
        (norm2 < 1e-18, lambda _: NoConvergence("readout too noisy to resolve the Bell test")),
    ])
    observed = np.array([[char.counts.frequency(key) for key in BELL_OUTCOMES]
                         for char in chars])
    shots = np.array([char.counts.shots for char in chars])
    resid = observed - base
    s_raw = _dot(slope, resid) / norm2
    mixed = s_raw >= 0.25  # beyond the most-mixed Bell law: p = 3/4, no stderr
    root = np.sqrt(np.where(mixed, 1.0, 1.0 - 4.0 * s_raw))

    obs_terms = slope / norm2[:, None] * binomial_stderr(observed, shots[:, None])
    var = _dot(obs_terms, obs_terms)
    # (p0_j, p1_j, p0_k, p1_k) against the four readout stderrs
    derivs = _bell_line_derivatives(rates)
    d_base, d_slope = derivs[:, :, 0], derivs[:, :, 1]
    apply = lambda m, v: (m @ v[:, :, None])[:, :, 0]
    ds_dparams = (apply(d_slope, resid) - apply(d_base, slope)
                  - 2.0 * s_raw[:, None] * apply(d_slope, slope)) / norm2[:, None]
    for column in (ds_dparams * readout_stderrs).T:  # term by term, as a scalar sum adds
        var = var + column**2

    s_fit = np.where(mixed, 0.25, np.maximum(s_raw, 0.0))
    resid -= s_fit[:, None] * slope
    names = [f"p_cnot:q{j}-q{k}" for j, k in (char.kind.coupling for char in chars)]
    return _results(names, np.where(mixed, 0.75, 0.75 * (1.0 - root)),
                    np.where(mixed, 0.0, 1.5 / root * np.sqrt(var)),
                    _norm(resid), flagged=mixed & (s_raw != 0.25))


def fit_pcnot(
    char: Characterization,
    readout_j: ReadoutModel,
    readout_k: ReadoutModel,
    readout_stderrs: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0),
) -> EstimationResult:
    """Least-squares cnot depolarizing rate from a Bell-state test.

    The squared residual between the observed frequencies and base + s *
    slope is quadratic in s, minimised at s* = <slope, obs - base> / |slope|^2,
    and p = 3/4 (1 - sqrt(1 - 4 s*)). An s* < 0 gives a negative raw p,
    clamped to 0 and flagged; an s* > 1/4 lies beyond the most-mixed Bell
    law, so p is clamped to 3/4 and flagged. The stderr propagates the
    record's binomial noise and the four readout stderrs (p0_j, p1_j, p0_k,
    p1_k) through dp/ds * ds/d(input); at p = 3/4, where dp/ds diverges, no
    stderr is reported.
    """
    rates = np.array([[[readout_j.p0, readout_k.p0], [readout_j.p1, readout_k.p1]]])
    return _pcnot_fits([char], rates, np.array([readout_stderrs], dtype=float))[0]

# -- composite orchestration ----------------------------------------------------

@dataclass(frozen=True)
class FitConfig:
    variant: str = "aro+dp"
    granularity: str = PER_ELEMENT
    subset: tuple[int, ...] | None = None
    window: str = ""
    provenance: str = ""

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; pick from {sorted(VARIANTS)}")
        if self.granularity == SUBSET_AVERAGE and not self.subset:
            raise ConfigError("subset_average fitting requires a nonempty subset")


@dataclass(frozen=True)
class CompositeFit:
    model: CompositeNoiseModel
    estimates: dict[str, EstimationResult] = field(default_factory=dict)
    variant: str = "aro+dp"

    def diagnostics_dict(self) -> dict:
        return {
            "variant": self.variant,
            "parameters": {
                name: {
                    "value": r.value,
                    "raw_value": r.raw_value,
                    "stderr": r.stderr,
                    "feasible": r.feasible,
                    "residual_norm": r.residual_norm,
                    "iterations": r.iterations,
                }
                for name, r in sorted(self.estimates.items())
            },
        }


def fit_composite(chars: list[Characterization], config: FitConfig) -> CompositeFit:
    """Compose a noise model from characterization records.

    Per qubit: p0 from the init test and (p1, p_x) from the X/XX system.
    Per coupling: p_cnot refit against the variant's own readout model, so
    e.g. the SRO+DP and ARO+DP depolarizing parameters differ. Averaged
    granularities fit per element first and then average the parameters.
    """
    readout_mode, gate_dp = VARIANTS[config.variant]
    if config.variant == "noiseless":
        model = replace(
            CompositeNoiseModel.noiseless(),
            window=config.window,
            provenance=config.provenance,
        )
        return CompositeFit(model, {}, config.variant)

    by_kind: dict[tuple, Characterization] = {}
    hseqs: dict[int, list[Characterization]] = {}
    covered_qubits: set[int] = set()
    covered_couplings: set[tuple[int, int]] = set()
    for char in chars:
        kind = char.kind
        if kind.kind == "bell":
            covered_couplings.add(kind.coupling)
            covered_qubits.update(kind.coupling)
            by_kind[("bell", kind.coupling)] = char
        elif kind.kind == "hseq":
            hseqs.setdefault(kind.qubit, []).append(char)
            covered_qubits.add(kind.qubit)
        else:
            covered_qubits.add(kind.qubit)
            by_kind[(kind.kind, kind.qubit)] = char

    if config.granularity == SUBSET_AVERAGE:
        qubits = sorted(config.subset)
        couplings = sorted(
            c for c in covered_couplings if c[0] in config.subset and c[1] in config.subset
        )
    else:
        qubits = sorted(covered_qubits)
        couplings = sorted(covered_couplings)

    missing = [f"init:q{q}" for q in qubits if ("init", q) not in by_kind]
    need_x_system = readout_mode == "aro" or gate_dp
    if need_x_system:
        for q in qubits:
            missing.extend(
                label
                for kind, label in (("x", f"x:q{q}"), ("xx", f"xx:q{q}"))
                if (kind, q) not in by_kind
            )
    if gate_dp and not couplings:
        missing.append("bell:<any coupling>")
    if missing:
        raise MissingCoverage(
            "characterization does not cover the requested fit: " + ", ".join(missing),
            missing,
        )

    # Each family is fitted once, across all its elements; index i of every
    # per-qubit array is qubits[i].
    p0_fits = _p0_fits([by_kind[("init", q)] for q in qubits])
    p0 = np.array([r.value for r in p0_fits])
    p0_sd = np.array([r.stderr for r in p0_fits])
    per_qubit = [p0_fits]
    if need_x_system:
        x_counts = [by_kind[("x", q)].counts for q in qubits]
        xx_counts = [by_kind[("xx", q)].counts for q in qubits]
        g_x = np.array([c.frequency("0") for c in x_counts])
        g_xx = np.array([c.frequency("0") for c in xx_counts])
        sigma = np.stack([binomial_stderr(g_x, np.array([c.shots for c in x_counts])),
                          binomial_stderr(g_xx, np.array([c.shots for c in xx_counts])),
                          p0_sd], axis=-1)
        p1_fits, px_fits = _aro_fits(g_x, g_xx, p0, sigma, [f":q{q}" for q in qubits])
        per_qubit += [p1_fits, px_fits]
    estimates = {r.name: r for fits in zip(*per_qubit) for r in fits}

    # each qubit's readout rates (p0, p1) and their stderrs under the
    # variant, as columns of (2, qubits) arrays
    if readout_mode == "aro":
        rates = np.array([p0, [r.value for r in p1_fits]])
        rate_sds = np.array([p0_sd, [r.stderr for r in p1_fits]])
    elif readout_mode == "sro":
        rates, rate_sds = np.array([p0, p0]), np.array([p0_sd, p0_sd])
    else:
        rates = rate_sds = np.zeros((2, len(qubits)))

    ph_fits: dict[int, HadamardFit] = {}
    pcnot_fits: list[EstimationResult] = []
    if gate_dp:
        rows = [i for i, q in enumerate(qubits) if q in hseqs]
        if rows:
            fits = _hadamard_fits([hseqs[qubits[i]] for i in rows], *rates[:, rows])
            ph_fits = {qubits[i]: fit for i, fit in zip(rows, fits)}
            estimates.update((fit.result.name, fit.result) for fit in fits)
        index = {q: i for i, q in enumerate(qubits)}
        pair = np.array([[index[j], index[k]] for j, k in couplings])
        pcnot_fits = _pcnot_fits(
            [by_kind[("bell", c)] for c in couplings],
            rates[:, pair].transpose(1, 0, 2),  # [[p0_j, p0_k], [p1_j, p1_k]]
            rate_sds[:, pair].transpose(1, 2, 0).reshape(-1, 4),  # p0_j, p1_j, p0_k, p1_k
        )
        estimates.update((r.name, r) for r in pcnot_fits)

    include_x = gate_dp and readout_mode != "off"
    x_map = {q: r.value for q, r in zip(qubits, px_fits)} if include_x else {}
    h_map = {
        q: fit.result.value for q, fit in ph_fits.items() if fit.include_in_model
    }
    readout_map = (
        {q: ReadoutModel(*r) for q, r in zip(qubits, rates.T.tolist())}
        if readout_mode != "off" else {}
    )
    cnot_map = {c: r.value for c, r in zip(couplings, pcnot_fits)}

    if config.granularity == PER_ELEMENT:
        model = CompositeNoiseModel(
            granularity=PER_ELEMENT,
            readout=readout_map,
            x_gate=x_map,
            h_gate=h_map,
            cnot=cnot_map,
            readout_on=readout_mode != "off",
            cnot_dp_on=gate_dp,
            window=config.window,
            provenance=config.provenance,
        )
    else:
        mean = lambda vals: float(np.mean(list(vals))) if vals else 0.0
        avg_p0 = mean(p0.tolist())
        avg_p1 = mean(rates[1].tolist()) if readout_mode == "aro" else avg_p0
        model = CompositeNoiseModel(
            granularity=config.granularity,
            subset=tuple(sorted(config.subset)) if config.subset else None,
            avg_readout=(
                ReadoutModel(avg_p0, avg_p1)
                if readout_mode != "off"
                else ReadoutModel.ideal()
            ),
            avg_x=mean(list(x_map.values())),
            avg_h=mean(list(h_map.values())),
            avg_cnot=mean(list(cnot_map.values())),
            readout_on=readout_mode != "off",
            cnot_dp_on=gate_dp,
            window=config.window,
            provenance=config.provenance,
        )
    return CompositeFit(model, estimates, config.variant)
