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
"""
from __future__ import annotations

import math
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


def _clamped(name, raw, stderr=0.0, residual_norm=0.0) -> EstimationResult:
    value = min(1.0, max(0.0, raw))
    return EstimationResult(
        name=name,
        value=value,
        raw_value=raw,
        stderr=stderr,
        feasible=(value == raw),
        residual_norm=residual_norm,
    )


def binomial_stderr(freq: float, shots: int | None) -> float:
    if not shots:
        return 0.0
    v = min(1.0, max(0.0, freq))
    return math.sqrt(v * (1.0 - v) / shots)


# -- closed-form estimators ------------------------------------------------------

def estimate_p0(char: Characterization) -> EstimationResult:
    """Readout-of-0 flip rate from the init-measure test: the observed
    frequency of outcome 1. Doubles as p_sro for the symmetric model."""
    if char.kind.kind != "init":
        raise WrongKind(f"estimate_p0 needs an init test, got {char.kind.kind}")
    freq = char.counts.frequency("1")
    return EstimationResult(
        name=f"p0:q{char.kind.qubit}",
        value=freq,
        raw_value=freq,
        stderr=binomial_stderr(freq, char.counts.shots),
    )


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
        sigma = np.array([binomial_stderr(g_x_0, shots[0]),
                          binomial_stderr(g_xx_0, shots[1]), p0_stderr])
        # gradients with respect to (g_x, g_xx, p0)
        grad_q = np.array([q / gap_x, -0.5 / gap_x, (gap_xx - gap_x) / (2.0 * gap_x**2)])
        grad_p1 = (np.array([1.0, 0.0, q]) + (p1_raw - a) * grad_q) / (1.0 - q)
        stderr_p1 = float(np.linalg.norm(grad_p1 * sigma))
        stderr_px = 1.5 * float(np.linalg.norm(grad_q * sigma))

    tag = f":q{qubit}" if qubit is not None else ""
    return (
        _clamped(f"p1{tag}", p1_raw, stderr_p1),
        _clamped(f"p_x{tag}", px_raw, stderr_px),
    )


def hadamard_survival(length: int, p_h: float) -> float:
    """Probability of the ideal outcome 0 after an even Hadamard train where
    every gate carries a depolarizing channel with parameter p_h."""
    return 0.5 + 0.5 * (1.0 - 4.0 * p_h / 3.0) ** length


@dataclass(frozen=True)
class HadamardFit:
    result: EstimationResult
    include_in_model: bool


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
    best of s = 0, s = 1 and that polynomial's real roots in [0, 1]; ties go
    to the least p. The stderr propagates each record's binomial noise
    through the implicit-function derivative of the optimum. On the bounds
    p = 0 and p = 3/4 (fully mixed, where dp/ds diverges) the fit does not
    move with the data, so no stderr is reported and the channel is left out
    of the model; inside, the include flag drops the channel when the rate
    is indistinguishable from zero (<= 10 stderr).
    """
    for char in chars:
        if char.kind.kind != "hseq":
            raise WrongKind(f"expected hseq tests, got {char.kind.kind}")
    lengths = sorted({char.kind.length for char in chars})
    if len(lengths) < 2:
        raise InsufficientLengths(
            f"need >=2 distinct sequence lengths, got {lengths}"
        )
    denom = 1.0 - readout.p0 - readout.p1
    if abs(denom) < 1e-9:
        raise NoConvergence("readout too noisy to invert for survival correction")
    by_length = {char.kind.length: char for char in chars}
    observed = [by_length[l].counts.frequency("0") for l in lengths]
    length = np.array(lengths)
    u = (np.array(observed) - readout.p1) / denom - 0.5

    derivative = np.zeros(lengths[-1])  # coefficients of s^0 .. s^(L_max - 1)
    derivative[length - 1] += length / 2.0
    derivative[length // 2 - 1] -= length * u
    roots = np.polynomial.polynomial.polyroots(derivative)
    real = roots.real[np.abs(roots.imag) < 1e-9]
    s = np.sort(np.concatenate(([0.0, 1.0], real[(real >= 0.0) & (real <= 1.0)])))[::-1]
    ssr = ((s[:, None] ** (length / 2.0) / 2.0 - u) ** 2).sum(axis=1)
    best = int(np.argmin(ssr))  # s descends, so a tie goes to the least p
    decay = math.sqrt(s[best])
    value = 0.75 * (1.0 - decay)

    stderr = 0.0
    if 0.0 < value < 0.75:
        # The optimum solves sum_l (S_l - t_l) S_l' = 0, with S_l the survival
        # and t_l the corrected target: dp/dt_l = S_l' / sum_l (S_l'^2 + (S_l - t_l) S_l'').
        d1 = -(2.0 * length / 3.0) * decay ** (length - 1)
        d2 = (8.0 / 9.0) * length * (length - 1) * decay ** (length - 2)
        curvature = float(d1 @ d1 + (decay**length / 2.0 - u) @ d2)
        sigma = [binomial_stderr(f, by_length[l].counts.shots)
                 for l, f in zip(lengths, observed)]
        stderr = float(np.linalg.norm(d1 * sigma)) / abs(denom * curvature)

    qubit = chars[0].kind.qubit
    result = EstimationResult(
        name=f"p_h:q{qubit}",
        value=value,
        raw_value=value,
        stderr=stderr,
        residual_norm=math.sqrt(ssr[best]),
    )
    return HadamardFit(result, include_in_model=10.0 * stderr < value < 0.75)


BELL_OUTCOMES = ("00", "01", "10", "11")


def _bell_line(rates: np.ndarray) -> np.ndarray:
    """Readout-transformed Bell frequencies as rows (base, slope), the law at
    s = 2p/3 - 4p^2/9 being base + s * slope.

    Before readout the law over BELL_OUTCOMES is [1/2, 0, 0, 1/2] +
    s [-1, 1, 1, -1]; readout is linear, so `read_out` with the per-bit
    rates [[p0_j, p0_k], [p1_j, p1_k]] maps each row.
    """
    line = np.array([[0.5, 0.0, 0.0, 0.5], [-1.0, 1.0, 1.0, -1.0]])
    read_out(line, *rates)
    return line


# d/dp0 and d/dp1 of one bit's readout, acting on that bit's (t0, t1):
# (-t0, t0) and (t1, -t1), as rows [rate, read value]
_READOUT_STEP = np.array([[-1.0, 1.0], [1.0, -1.0]])


def _bell_line_derivatives(rates: np.ndarray) -> np.ndarray:
    """Derivatives of `_bell_line(rates)` in p0_j, p1_j, p0_k, p1_k, shape
    (4, 2, 4).

    Each bit's readout is affine in its two rates and acts on its own axis,
    so the derivative in one bit's p0 (p1) is the line read out by the other
    bit's channel only, with this bit's 0-row (1-row) mass moved across.
    """
    only_k, only_j = rates.copy(), rates.copy()
    only_k[:, 0] = 0.0
    only_j[:, 1] = 0.0
    by_k = _bell_line(only_k).reshape(2, 2, 2)  # (row, bit j, bit k)
    by_j = _bell_line(only_j).reshape(2, 2, 2)
    # d[rate, row, j', k] = step[rate, j'] * by_k[row, rate, k], and likewise for k
    d_j = by_k.transpose(1, 0, 2)[:, :, None, :] * _READOUT_STEP[:, None, :, None]
    d_k = by_j.transpose(2, 0, 1)[:, :, :, None] * _READOUT_STEP[:, None, None, :]
    return np.concatenate([d_j, d_k]).reshape(4, 2, 4)


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
    if char.kind.kind != "bell":
        raise WrongKind(f"fit_pcnot needs a bell test, got {char.kind.kind}")
    j, k = char.kind.coupling
    name = f"p_cnot:q{j}-q{k}"
    observed = np.array([char.counts.frequency(key) for key in BELL_OUTCOMES])
    rates = np.array([[readout_j.p0, readout_k.p0], [readout_j.p1, readout_k.p1]])
    base, slope = _bell_line(rates)
    # |slope| = 2 |(1 - p0_j - p1_j)(1 - p0_k - p1_k)|
    norm2 = float(slope @ slope)
    if norm2 < 1e-18:
        raise NoConvergence("readout too noisy to resolve the Bell test")
    resid = observed - base
    s_raw = float(slope @ resid) / norm2
    if s_raw >= 0.25:
        return EstimationResult(
            name, value=0.75, raw_value=0.75, feasible=s_raw == 0.25,
            residual_norm=float(np.linalg.norm(resid - 0.25 * slope)),
        )
    root = math.sqrt(1.0 - 4.0 * s_raw)

    obs_terms = slope / norm2 * [binomial_stderr(f, char.counts.shots) for f in observed]
    var = float(obs_terms @ obs_terms)
    # (p0_j, p1_j, p0_k, p1_k) against the four readout stderrs
    d_base, d_slope = _bell_line_derivatives(rates).transpose(1, 0, 2)
    ds_dparams = (d_slope @ resid - d_base @ slope - 2.0 * s_raw * (d_slope @ slope)) / norm2
    for term in ds_dparams * readout_stderrs:
        var += term**2

    return _clamped(
        name,
        0.75 * (1.0 - root),
        stderr=1.5 / root * math.sqrt(var),
        residual_norm=float(np.linalg.norm(resid - max(s_raw, 0.0) * slope)),
    )

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

    estimates: dict[str, EstimationResult] = {}
    p0_results: dict[int, EstimationResult] = {}
    p1_results: dict[int, EstimationResult] = {}
    px_results: dict[int, EstimationResult] = {}
    ph_results: dict[int, HadamardFit] = {}

    for q in qubits:
        p0_res = estimate_p0(by_kind[("init", q)])
        p0_results[q] = p0_res
        estimates[p0_res.name] = p0_res
        if need_x_system:
            x_counts = by_kind[("x", q)].counts
            xx_counts = by_kind[("xx", q)].counts
            p1_res, px_res = solve_aro_system(
                x_counts.frequency("0"), xx_counts.frequency("0"), p0_res.value,
                shots=(x_counts.shots, xx_counts.shots),
                p0_stderr=p0_res.stderr, qubit=q,
            )
            p1_results[q] = p1_res
            px_results[q] = px_res
            estimates[p1_res.name] = p1_res
            estimates[px_res.name] = px_res

    def readout_of(q: int) -> ReadoutModel:
        if readout_mode == "aro":
            return ReadoutModel(p0_results[q].value, p1_results[q].value)
        if readout_mode == "sro":
            return ReadoutModel.symmetric(p0_results[q].value)
        return ReadoutModel.ideal()

    def readout_stderrs_of(q: int) -> tuple[float, float]:
        if readout_mode == "aro":
            return (p0_results[q].stderr, p1_results[q].stderr)
        if readout_mode == "sro":
            return (p0_results[q].stderr, p0_results[q].stderr)
        return (0.0, 0.0)

    for q in qubits:
        if q in hseqs and gate_dp:
            ph_results[q] = estimate_hadamard_error(hseqs[q], readout_of(q))
            estimates[ph_results[q].result.name] = ph_results[q].result

    pcnot_results: dict[tuple[int, int], EstimationResult] = {}
    if gate_dp:
        for coupling in couplings:
            j, k = coupling
            res = fit_pcnot(
                by_kind[("bell", coupling)],
                readout_of(j),
                readout_of(k),
                readout_stderrs=readout_stderrs_of(j) + readout_stderrs_of(k),
            )
            pcnot_results[coupling] = res
            estimates[res.name] = res

    include_x = gate_dp and readout_mode != "off"
    x_map = {q: px_results[q].value for q in qubits} if include_x else {}
    h_map = {
        q: fit.result.value for q, fit in ph_results.items() if fit.include_in_model
    }
    readout_map = {q: readout_of(q) for q in qubits} if readout_mode != "off" else {}
    cnot_map = {c: r.value for c, r in pcnot_results.items()}

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
        avg_p0 = mean([p0_results[q].value for q in qubits])
        avg_p1 = (
            mean([p1_results[q].value for q in qubits])
            if readout_mode == "aro"
            else avg_p0
        )
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
