import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from closed_forms import bell_frequencies, predicted_x_test_frequencies
from estimation_oracle import (
    bell_line,
    fit_estimates,
    fit_hadamard,
    hadamard_per_element,
    hadamard_ssr,
    pcnot_stderr,
    solve_x_xx,
)

from noisekit.backend import MockBackend, MockGroundTruth
from noisekit.characterization import (
    Characterization,
    SuiteConfig,
    TestKind,
    build_suite,
    run_suite,
)
from noisekit import estimation
from noisekit.devices import line, uniform_truth
from noisekit.errors import (
    InsufficientLengths,
    MissingCoverage,
    NoConvergence,
    OutOfRange,
    WrongKind,
)
from noisekit.estimation import (
    BELL_OUTCOMES,
    EstimationResult,
    FitConfig,
    _bell_line,
    binomial_stderr,
    estimate_hadamard_error,
    estimate_p0,
    fit_composite,
    fit_pcnot,
    hadamard_survival,
    solve_aro_system,
)
from noisekit.noise import (
    PER_ELEMENT,
    SUBSET_AVERAGE,
    VARIANTS,
    ReadoutModel,
    apply_readout_to_distribution,
)
from noisekit.outcomes import Counts

EXACT_SHOTS = 9_000_000  # large enough that rounded counts are exact to ~1e-7


def _char(kind: TestKind, counts: dict, shots: int) -> Characterization:
    return Characterization(kind, Counts(counts, shots))


def _char_from_freqs(kind: TestKind, freqs: dict) -> Characterization:
    counts = {k: round(v * EXACT_SHOTS) for k, v in freqs.items() if v > 0}
    first = next(iter(counts))
    counts[first] += EXACT_SHOTS - sum(counts.values())
    return _char(kind, counts, EXACT_SHOTS)


class _Frequencies:
    """Counts stand-in with arbitrary real frequencies, so the estimators
    can be differentiated numerically."""

    def __init__(self, freqs: dict, shots: int):
        self.freqs, self.shots = dict(freqs), shots

    def frequency(self, key: str) -> float:
        return self.freqs.get(key, 0.0)


def _record(kind: TestKind, freqs: dict, shots: int = 8192) -> SimpleNamespace:
    return SimpleNamespace(kind=kind, counts=_Frequencies(freqs, shots))


def _central_gradient(fn, x, step):
    """Central-difference gradient of the scalar fn at the vector x."""
    x = np.asarray(x, dtype=float)
    grad = np.empty(len(x))
    for i in range(len(x)):
        hi, lo = x.copy(), x.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (fn(hi) - fn(lo)) / (2 * step)
    return grad


# -- estimate_p0 -----------------------------------------------------------------

def test_p0_zero_error():
    res = estimate_p0(_char(TestKind("init", qubit=0), {"0": 8192}, 8192))
    assert res.value == 0.0 and res.feasible


def test_p0_direct_division():
    res = estimate_p0(_char(TestKind("init", qubit=0), {"0": 8020, "1": 172}, 8192))
    assert res.value == pytest.approx(0.02099609375, abs=1e-12)
    assert res.stderr == pytest.approx((res.value * (1 - res.value) / 8192) ** 0.5)


def test_p0_boundary():
    res = estimate_p0(_char(TestKind("init", qubit=0), {"1": 8192}, 8192))
    assert res.value == 1.0 and res.feasible


def test_p0_wrong_kind():
    with pytest.raises(WrongKind):
        estimate_p0(_char(TestKind("x", qubit=0), {"1": 10}, 10))


# -- solve_aro_system -------------------------------------------------------------

def test_aro_forward_model_roundtrip():
    g_x_0, g_xx_0 = predicted_x_test_frequencies(0.02, 0.07, 0.003)
    p1, p_x = solve_aro_system(g_x_0, g_xx_0, 0.02)
    assert p1.value == pytest.approx(0.07, abs=1e-8)
    assert p_x.value == pytest.approx(0.003, abs=1e-8)
    assert p1.feasible and p_x.feasible
    assert p1.residual_norm <= 1e-10


def test_aro_zero_gate_noise_limit():
    p0, p1_true = 0.03, 0.08
    p1, p_x = solve_aro_system(p1_true, 1 - p0, p0)
    assert p1.value == pytest.approx(p1_true, abs=1e-9)
    assert p_x.value == pytest.approx(0.0, abs=1e-9)


def test_aro_infeasible_clamped():
    # g_xx_0 above the p_x = 0 ceiling forces a negative raw p_x.
    p1, p_x = solve_aro_system(0.06, min(1.0, (1 - 0.02) + 0.003), 0.02)
    assert not p_x.feasible
    assert p_x.raw_value < 0.0
    assert p_x.value == 0.0


def test_aro_rejects_bad_inputs():
    with pytest.raises(OutOfRange):
        solve_aro_system(1.2, 0.5, 0.0)


def test_aro_stderr_propagation():
    g_x_0, g_xx_0 = predicted_x_test_frequencies(0.02, 0.07, 0.003)
    _, p_x_exact = solve_aro_system(g_x_0, g_xx_0, 0.02)
    p1, p_x = solve_aro_system(g_x_0, g_xx_0, 0.02, shots=(8192, 8192), p0_stderr=0.0016)
    assert p_x_exact.stderr == 0.0
    assert p1.stderr > 0 and p_x.stderr > 0
    # sanity scale: g uncertainties ~3e-3 map to parameter scales of the same order
    assert 1e-4 < p1.stderr < 2e-2
    assert 1e-4 < p_x.stderr < 2e-2


def _noisy_x_xx(rng, shots=8192):
    """Binomially drawn X/XX frequencies and p0 for a random truth."""
    p0, p1 = (float(v) for v in rng.uniform(0, 0.15, size=2))
    p_x = float(rng.uniform(0, 0.02))
    g_x_0, g_xx_0 = predicted_x_test_frequencies(p0, p1, p_x)
    draw = lambda f: rng.binomial(shots, f) / shots
    return draw(g_x_0), draw(g_xx_0), draw(p0)


def test_aro_closed_form_matches_newton_oracle():
    """The closed form reproduces the damped-Newton solve's raw values on
    noisy frequencies, infeasible solutions included."""
    rng = np.random.default_rng(2024)
    infeasible = 0
    for _ in range(500):
        g_x_0, g_xx_0, p0 = _noisy_x_xx(rng)
        p1, p_x = solve_aro_system(g_x_0, g_xx_0, p0)
        p1_oracle, px_oracle = solve_x_xx(g_x_0, g_xx_0, p0)
        assert p1.raw_value == pytest.approx(p1_oracle, abs=1e-9)
        assert p_x.raw_value == pytest.approx(px_oracle, abs=1e-9)
        infeasible += not (p1.feasible and p_x.feasible)
    assert infeasible > 0  # the clamp path was exercised


def test_aro_stderr_matches_central_differences():
    """Analytic stderrs equal the delta method over central differences of
    the estimator, with distinct X and XX shot counts."""
    rng = np.random.default_rng(31)
    for _ in range(100):
        g_x_0, g_xx_0, p0 = _noisy_x_xx(rng)
        shots = (1024, 8192)
        p0_stderr = binomial_stderr(p0, 4096)
        sigma = np.array([binomial_stderr(g_x_0, shots[0]),
                          binomial_stderr(g_xx_0, shots[1]), p0_stderr])
        p1, p_x = solve_aro_system(g_x_0, g_xx_0, p0, shots=shots, p0_stderr=p0_stderr)
        for index, res in enumerate((p1, p_x)):
            grad = _central_gradient(
                lambda v: solve_aro_system(*v)[index].raw_value, (g_x_0, g_xx_0, p0), 1e-6
            )
            assert res.stderr == pytest.approx(np.linalg.norm(grad * sigma), rel=1e-4)


@pytest.mark.parametrize("g_x_0, g_xx_0, p0", [
    (0.9, 0.5, 0.1),    # g_x = 1 - p0: p_x drops out of the X test
    (0.5, 0.1, 0.1),    # q = 1: p1 drops out of both tests
])
def test_aro_singular_system_raises(g_x_0, g_xx_0, p0):
    with pytest.raises(NoConvergence):
        solve_aro_system(g_x_0, g_xx_0, p0)


# -- estimate_hadamard_error -------------------------------------------------------

def _hseq_chars(p_h, lengths, readout=ReadoutModel.ideal()):
    chars = []
    for length in lengths:
        survival = hadamard_survival(length, p_h)
        observed = (1 - readout.p0) * survival + readout.p1 * (1 - survival)
        kind = TestKind("hseq", qubit=0, length=length)
        chars.append(_char_from_freqs(kind, {"0": observed, "1": 1 - observed}))
    return chars


def test_hadamard_roundtrip_exact():
    fit = estimate_hadamard_error(_hseq_chars(0.001, (2, 4, 8, 16, 32, 64)),
                                  ReadoutModel.ideal())
    assert fit.result.value == pytest.approx(0.001, abs=1e-6)


def test_hadamard_roundtrip_with_readout():
    readout = ReadoutModel(0.02, 0.07)
    fit = estimate_hadamard_error(_hseq_chars(0.002, (2, 8, 32), readout), readout)
    assert fit.result.value == pytest.approx(0.002, abs=1e-6)


def test_hadamard_ideal_sequences():
    chars = [
        _char(TestKind("hseq", qubit=0, length=l), {"0": 8192}, 8192) for l in (2, 4)
    ]
    fit = estimate_hadamard_error(chars, ReadoutModel.ideal())
    assert fit.result.value == 0.0
    assert not fit.include_in_model


def test_hadamard_small_error_excluded_when_unresolvable(line2):
    """With short sequences at N_s=8192 a 1e-3-per-gate rate sits inside the
    10-sigma exclusion band, so the channel is recommended out of the model
    (the regime behind treating Hadamard noise as negligible)."""
    truth = uniform_truth(line2)
    truth = type(truth)(
        **{**truth.__dict__, "h_gate": {q: 0.001 for q in range(2)}}
    )
    backend = MockBackend(line2, MockGroundTruth(truth))
    plan = build_suite(
        line2, SuiteConfig(hadamard_lengths=(2, 4, 8), shots=8192, seed=3)
    )
    chars = [c for c in run_suite(plan, backend) if c.kind.kind == "hseq"
             and c.kind.qubit == 0]
    fit = estimate_hadamard_error(chars, ReadoutModel(0.0212, 0.0681))
    assert fit.result.value < 10 * fit.result.stderr
    assert not fit.include_in_model


def test_hadamard_long_sequences_resolve_small_error(line2):
    """The geometric length ladder up to 64 makes the same 1e-3 rate
    statistically visible, so the data-driven rule keeps it."""
    truth = uniform_truth(line2)
    truth = type(truth)(
        **{**truth.__dict__, "h_gate": {q: 0.001 for q in range(2)}}
    )
    backend = MockBackend(line2, MockGroundTruth(truth))
    plan = build_suite(
        line2, SuiteConfig(hadamard_lengths=(2, 4, 8, 16, 32, 64), shots=8192, seed=3)
    )
    chars = [c for c in run_suite(plan, backend) if c.kind.kind == "hseq"
             and c.kind.qubit == 0]
    fit = estimate_hadamard_error(chars, ReadoutModel(0.0212, 0.0681))
    assert fit.result.value == pytest.approx(0.001, abs=5e-4)
    assert fit.include_in_model


def test_hadamard_needs_two_lengths():
    with pytest.raises(InsufficientLengths):
        estimate_hadamard_error(_hseq_chars(0.001, (8,)), ReadoutModel.ideal())


HSEQ_LENGTHS = (2, 4, 8, 16, 32)


def _hseq_records(observed: dict, shots: dict) -> list:
    return [_record(TestKind("hseq", qubit=0, length=l),
                    {"0": observed[l], "1": 1 - observed[l]}, shots[l])
            for l in observed]


def test_hadamard_stderr_matches_central_differences():
    """The implicit-function stderr equals the delta method over central
    differences of the bounded fit, with a different shot count per length."""
    rng = np.random.default_rng(5)
    shots = dict(zip(HSEQ_LENGTHS, (1024, 2048, 4096, 8192, 16384)))
    for _ in range(10):
        readout = ReadoutModel(float(rng.uniform(0, 0.05)), float(rng.uniform(0, 0.1)))
        p_h = float(rng.uniform(0.003, 0.01))
        observed = {}
        for l in HSEQ_LENGTHS:
            s = hadamard_survival(l, p_h)
            exact = (1 - readout.p0) * s + readout.p1 * (1 - s)
            observed[l] = rng.binomial(shots[l], exact) / shots[l]
        fit = estimate_hadamard_error(_hseq_records(observed, shots), readout)
        assert 0.0 < fit.result.value < 1.0
        grad = _central_gradient(
            lambda v: estimate_hadamard_error(
                _hseq_records(dict(zip(HSEQ_LENGTHS, v)), shots), readout
            ).result.value,
            [observed[l] for l in HSEQ_LENGTHS], 1e-5,
        )
        sigma = [binomial_stderr(observed[l], shots[l]) for l in HSEQ_LENGTHS]
        assert fit.result.stderr == pytest.approx(np.linalg.norm(grad * sigma), rel=1e-4)


def test_hadamard_stderr_zero_on_bound():
    """Survival above the noiseless ceiling pins p_h to 0, where the bounded
    fit does not move with the data."""
    observed = {l: 0.999 for l in HSEQ_LENGTHS}
    fit = estimate_hadamard_error(
        _hseq_records(observed, dict.fromkeys(HSEQ_LENGTHS, 8192)), ReadoutModel(0.02, 0.0)
    )
    assert fit.result.value == 0.0 and fit.result.stderr == 0.0
    assert not fit.include_in_model


def test_hadamard_fully_mixed_point_is_a_bound():
    """Survival at or below 1/2 at every length puts the fit at p_h = 3/4, the
    fully mixed point, where dp/ds diverges: like p_h = 0 it is a bound, with
    no stderr, and the channel stays out of the model."""
    counts = {2: 4071, 4: 4088, 8: 4080}  # P(0) = 0.497, 0.499, 0.498
    chars = [_char(TestKind("hseq", qubit=0, length=l), {"0": n, "1": 8192 - n}, 8192)
             for l, n in counts.items()]
    fit = estimate_hadamard_error(chars, ReadoutModel.ideal())
    assert fit.result.value == 0.75 and fit.result.stderr == 0.0
    assert not fit.include_in_model


@pytest.mark.parametrize("lengths", [(2, 4, 8, 16, 32, 64), tuple(range(2, 66, 2))])
def test_hadamard_roundtrip_exact_long_ladders(lengths):
    """Exact survival frequencies, readout included, give back p_h to 1e-12
    across the whole [0, 0.7] range."""
    for readout in (ReadoutModel.ideal(), ReadoutModel(0.02, 0.07)):
        for p_h in np.linspace(0.0, 0.7, 36):
            observed = {}
            for l in lengths:
                s = hadamard_survival(l, p_h)
                observed[l] = (1 - readout.p0) * s + readout.p1 * (1 - s)
            fit = estimate_hadamard_error(
                _hseq_records(observed, dict.fromkeys(lengths, 8192)), readout
            )
            assert fit.result.value == pytest.approx(p_h, abs=1e-12)


def _corrected(observed: dict, readout: ReadoutModel) -> dict:
    return {l: (f - readout.p1) / (1 - readout.p0 - readout.p1) for l, f in observed.items()}


def test_hadamard_matches_bounded_minimiser_oracle():
    """On suite-like records (8192-shot binomials, subsets of the geometric
    ladder) the closed form never leaves more misfit than the bounded scalar
    minimiser, and where the minimiser's optimum is unique (p < 1/2) the two
    agree on p_h."""
    rng = np.random.default_rng(21)
    for _ in range(200):
        lengths = sorted(rng.choice((2, 4, 8, 16, 32, 64), size=rng.integers(2, 7),
                                    replace=False).tolist())
        readout = ReadoutModel(float(rng.uniform(0, 0.05)), float(rng.uniform(0, 0.1)))
        p_h = float(rng.uniform(0.001, 0.05))
        observed = {}
        for l in lengths:
            s = hadamard_survival(l, p_h)
            observed[l] = rng.binomial(8192, (1 - readout.p0) * s + readout.p1 * (1 - s)) / 8192
        fit = estimate_hadamard_error(
            _hseq_records(observed, dict.fromkeys(lengths, 8192)), readout
        )
        targets = _corrected(observed, readout)
        p_oracle, ssr_oracle = fit_hadamard(targets)
        assert hadamard_ssr(fit.result.value, targets) <= ssr_oracle + 1e-15
        if p_oracle < 0.5:
            assert fit.result.value == pytest.approx(p_oracle, abs=1e-7)


def test_hadamard_misfit_never_above_oracle_on_noisy_targets():
    """Arbitrary even lengths up to 40, strong decay and target noise, where
    the misfit can be flat in p: the closed form's misfit is still never
    above the bounded minimiser's."""
    rng = np.random.default_rng(22)
    for _ in range(300):
        lengths = sorted(rng.choice(np.arange(2, 42, 2), size=rng.integers(2, 8),
                                    replace=False).tolist())
        p_h = float(rng.uniform(0.0, 0.3))
        observed = {l: float(np.clip(hadamard_survival(l, p_h) + rng.normal(0, 0.01), 0, 1))
                    for l in lengths}
        fit = estimate_hadamard_error(
            _hseq_records(observed, dict.fromkeys(lengths, 8192)), ReadoutModel.ideal()
        )
        _, ssr_oracle = fit_hadamard(observed)
        assert hadamard_ssr(fit.result.value, observed) <= ssr_oracle + 1e-15
        assert 0.0 <= fit.result.value <= 0.75


# -- Hadamard root isolation ---------------------------------------------------------

GEOMETRIC = (2, 4, 8, 16, 32, 64)
ISOLATION_LADDERS = {"2-4": (2, 4), "geometric-32": GEOMETRIC[:-1], "geometric-64": GEOMETRIC,
                     "even-2-64": tuple(range(2, 66, 2))}


def _assert_hadamard_matches_oracle(rows, readout: ReadoutModel, residual_floor=1e-15):
    """Each stacked row's fit equals the polyroots oracle's within 1e-12
    relative (floor 1e-15) in p_h, stderr and residual, with the same flag."""
    p0, p1 = (np.full(len(rows), rate) for rate in (readout.p0, readout.p1))
    for chars, fit in zip(rows, estimation._hadamard_fits(rows, p0, p1)):
        want, include = hadamard_per_element(chars, readout.p0, readout.p1)
        got = fit.result
        assert got.value == pytest.approx(want.value, rel=1e-12, abs=1e-15)
        assert got.stderr == pytest.approx(want.stderr, rel=1e-12, abs=1e-15)
        assert got.residual_norm == pytest.approx(want.residual_norm, rel=1e-12,
                                                  abs=residual_floor)
        assert fit.include_in_model == include


@pytest.mark.parametrize("lengths", [*ISOLATION_LADDERS.values(), None],
                         ids=[*ISOLATION_LADDERS, "random-even-lengths"])
def test_root_isolation_matches_polyroots_oracle(lengths):
    """Stacks of five rows, with p_h from 1e-6 to 0.7 and readout, drawn at
    8192 shots, exact, or with wide target noise that gives the derivative
    several roots. At exact frequencies the residual is rounding noise, so
    it is compared to 1e-14."""
    rng = np.random.default_rng(len(lengths or ()))
    for trial in range(30):
        ladder = lengths or tuple(sorted(rng.choice(np.arange(2, 66, 2), size=rng.integers(2, 9),
                                                    replace=False).tolist()))
        readout = ReadoutModel(float(rng.uniform(0, 0.05)), float(rng.uniform(0, 0.1)))
        mode = ("drawn", "exact", "wide")[trial % 3]
        rows = []
        for _ in range(5):
            p_h = 10 ** rng.uniform(-6, np.log10(0.7))
            observed = {}
            for l in ladder:
                s = hadamard_survival(l, p_h)
                f = (1 - readout.p0) * s + readout.p1 * (1 - s)
                observed[l] = {"drawn": rng.binomial(8192, f) / 8192, "exact": f,
                               "wide": f + rng.normal(0, 0.3)}[mode]
            rows.append(_hseq_records(observed, dict.fromkeys(ladder, 8192)))
        _assert_hadamard_matches_oracle(rows, readout, 1e-14 if mode == "exact" else 1e-15)


def _spied_isolation(monkeypatch) -> list:
    """Each later `_sparse_roots` call as ((exponents, coef), (row, root))."""
    isolate, calls = estimation._sparse_roots, []
    monkeypatch.setattr(estimation, "_sparse_roots",
                        lambda *args: calls.append((args, isolate(*args))) or calls[-1][1])
    return calls


def _targets_with_roots(lengths, roots, fixed=0.25) -> dict:
    """Readout-free survival targets {L: 1/2 + u_L} whose misfit derivative
    sum_L (L/2) s^(L-1) - L u_L s^(L/2-1) vanishes at each of `roots`: the
    first len(roots) u_L solve those linear equations, the others are
    `fixed`."""
    length, k = np.array(lengths, dtype=float), len(roots)
    r = np.array(roots)[:, None]
    u = np.full(len(lengths), fixed)
    rhs = ((length / 2) * r ** (length - 1)).sum(axis=1) - (
        length[k:] * u[k:] * r ** (length[k:] / 2 - 1)).sum(axis=1)
    u[:k] = np.linalg.solve(length[:k] * r ** (length[:k] / 2 - 1), rhs)
    return {l: 0.5 + v for l, v in zip(lengths, u.tolist())}


# (lengths, roots): a close pair inside one grid cell, on its own and among
# others; three roots inside one cell, where f changes sign across it but a
# minimum, a maximum and a minimum hide in it; as many roots in (0, 1) as
# Descartes' rule allows (one fewer than the derivative's terms); three
# roots of a 48-term derivative
CONSTRUCTED_ROOTS = {
    "close-pair": ((2, 4), (0.2, 0.2005)),
    "three-in-one-cell": ((2, 4, 8), (0.598, 0.5985, 0.6015)),
    "close-pair-among-five": (GEOMETRIC[:-1], (0.1, 0.2, 0.2005, 0.6, 0.9)),
    "descartes-2-4": ((2, 4), (0.3, 0.8)),
    "descartes-geometric-32": (GEOMETRIC[:-1], (0.15, 0.35, 0.55, 0.75, 0.95)),
    "descartes-geometric-64": (GEOMETRIC, (0.15, 0.35, 0.55, 0.7, 0.85, 0.95)),
    "even-2-64": (tuple(range(2, 66, 2)), (0.3, 0.6, 0.9)),
}


@pytest.mark.parametrize("lengths, roots", CONSTRUCTED_ROOTS.values(), ids=CONSTRUCTED_ROOTS)
def test_root_isolation_finds_constructed_roots(lengths, roots, monkeypatch):
    """The isolation returns every constructed root, and the fit is the
    oracle's."""
    calls = _spied_isolation(monkeypatch)
    targets = _targets_with_roots(lengths, roots)
    rows = [_hseq_records(targets, dict.fromkeys(lengths, 8192))]
    _assert_hadamard_matches_oracle(rows, ReadoutModel.ideal())
    (_, (_, got)), = calls
    # the rounded coefficients move the close pair by ~1e-9
    assert np.sort(got)[:len(roots)] == pytest.approx(roots, rel=1e-7)
    if lengths != tuple(range(2, 66, 2)):
        assert len(got) == len(roots)


def _exact_sign(exponents, coef, s: float) -> int:
    """The sign of sum_e coef[e] s^exponents[e] in rational arithmetic, with
    the float coefficients and s taken exactly."""
    x = Fraction(s)
    value = sum(Fraction(c) * x ** int(e) for e, c in zip(exponents.tolist(), coef.tolist()))
    return (value > 0) - (value < 0)


def _changes_sign_within_one_ulp(exponents, coef, s: float) -> bool:
    below, above = math.nextafter(s, 0.0), math.nextafter(s, 1.0)
    return _exact_sign(exponents, coef, below) * _exact_sign(exponents, coef, above) <= 0


def test_isolated_roots_are_exact_to_one_ulp(monkeypatch):
    """Every root the isolation returns has the derivative polynomial, with
    its float coefficients taken exactly, change sign within one ulp of it.
    The dense companion eigenvalues (`polyroots`) that the oracle starts
    from miss that at some of these p_h (by up to ~100 ulps, ~1e-9 of p_h
    near 1e-6), which is why `hadamard_per_element` polishes them."""
    calls = _spied_isolation(monkeypatch)
    rng = np.random.default_rng(11)
    eigen_misses = 0
    for lengths in ISOLATION_LADDERS.values():
        for p_h in (1e-6, 3e-6, 1e-4, 1e-3, 0.1, 0.5):
            exact = {l: hadamard_survival(l, p_h) for l in lengths}
            noisy = {l: t + rng.normal(0, 0.3) for l, t in exact.items()}
            rows = [_hseq_records(targets, dict.fromkeys(lengths, 8192))
                    for targets in (exact, noisy)]
            estimation._hadamard_fits(rows, np.zeros(2), np.zeros(2))
            (exponents, coef), (row, roots) = calls.pop()
            assert all(_changes_sign_within_one_ulp(exponents, coef[r], s)
                       for r, s in zip(row.tolist(), roots.tolist()))
            dense = np.zeros(exponents[-1] + 1)
            dense[exponents] = coef[0]
            eigen = np.polynomial.polynomial.polyroots(dense)
            eigen = eigen.real[(np.abs(eigen.imag) < 1e-9) & (eigen.real > 0) & (eigen.real < 1)]
            eigen_misses += sum(not _changes_sign_within_one_ulp(exponents, coef[0], s)
                                for s in eigen.tolist())
    assert eigen_misses > 0


@pytest.mark.parametrize("multiplicity", [4, 10])
def test_root_isolation_near_multiple_root(multiplicity, monkeypatch):
    """Lengths 2..64 with the targets that give the derivative an m-fold
    root at s = 1/2 (the least-norm u for its first m derivatives there),
    so it is flat to rounding on a whole region: the isolation stops
    splitting (a bounded number of candidates, not one cell per ulp) and
    leaves no more misfit than the oracle."""
    lengths = np.arange(2, 66, 2)
    falling = lambda e, j: np.prod(e - np.arange(j)) * 0.5 ** (e - j) if j <= e else 0.0
    a = np.array([[-l * falling(l // 2 - 1, j) for l in lengths] for j in range(multiplicity)])
    b = -np.array([sum(l / 2 * falling(l - 1, j) for l in lengths)
                   for j in range(multiplicity)])
    u = np.linalg.lstsq(a, b, rcond=None)[0]
    records = _hseq_records({int(l): 0.5 + v for l, v in zip(lengths, u)},
                            dict.fromkeys(lengths.tolist(), 8192))
    calls = _spied_isolation(monkeypatch)
    fit = estimate_hadamard_error(records, ReadoutModel.ideal())
    want, _ = hadamard_per_element(records, 0.0, 0.0)
    (_, (_, roots)), = calls
    assert len(roots) <= 4 * estimation._MAX_CELLS
    assert fit.result.residual_norm <= want.residual_norm * (1 + 1e-12)


def test_root_isolation_root_on_a_grid_point(monkeypatch):
    """u_2 = 3/8 and u_4 = 0 give the derivative 2 s^3 + s - 3/4, which is 0
    at s = 1/2, a point of the starting grid, also in floating point: the
    root is found though f changes sign across neither cell beside it."""
    calls = _spied_isolation(monkeypatch)
    records = _hseq_records({2: 0.875, 4: 0.5}, dict.fromkeys((2, 4), 8192))
    _assert_hadamard_matches_oracle([records], ReadoutModel.ideal())
    (_, (_, roots)), = calls
    assert roots.tolist() == pytest.approx([0.5], rel=1e-15)


@pytest.mark.parametrize("targets", [
    {2: 0.5, 4: 0.75, 8: 0.6},  # u_2 = 0 and u_4 = 1/4: a double root at s = 0
    {2: 0.5, 4: 0.6, 8: 0.55},  # a simple root at s = 0
    dict.fromkeys((2, 4, 8, 16), 1.0),  # every u = 1/2: a root at s = 1
    {2: 0.9, 4: 0.95, 8: 1.0, 16: 1.025},  # sum_L L (1 - t_L) = 0: a root at s = 1
], ids=["double-at-0", "at-0", "at-1", "at-1-mixed"])
def test_root_isolation_roots_at_the_ends(targets):
    """Roots exactly at s = 0 or s = 1, where both ends are candidates
    anyway, give the oracle's fit: an unresolved cell at 0 adds no root at
    4e-16, which would read as p_h = 0.75 - 1.5e-8."""
    lengths = tuple(targets)
    _assert_hadamard_matches_oracle([_hseq_records(targets, dict.fromkeys(lengths, 8192))],
                                    ReadoutModel.ideal())


# -- fit_pcnot ---------------------------------------------------------------------

BELL_KIND = TestKind("bell", coupling=(0, 1))


def test_pcnot_forward_model_roundtrip():
    readout = ReadoutModel(0.02, 0.07)
    target = apply_readout_to_distribution(bell_frequencies(0.05), [readout] * 2)
    char = _char_from_freqs(BELL_KIND, dict(target.items()))
    res = fit_pcnot(char, readout, readout)
    assert res.value == pytest.approx(0.05, abs=1e-6)
    assert res.feasible


def test_pcnot_ideal_bell():
    char = _char(BELL_KIND, {"00": 4096, "11": 4096}, 8192)
    res = fit_pcnot(char, ReadoutModel.ideal(), ReadoutModel.ideal())
    assert res.value == pytest.approx(0.0, abs=1e-6)


def test_pcnot_uniform_full_mixing():
    char = _char(BELL_KIND, {k: 2048 for k in ("00", "01", "10", "11")}, 8192)
    res = fit_pcnot(char, ReadoutModel.ideal(), ReadoutModel.ideal())
    assert res.value == pytest.approx(0.75, abs=1e-3)


def test_pcnot_degenerate_single_outcome_still_fits():
    char = _char(BELL_KIND, {"01": 8192}, 8192)
    res = fit_pcnot(char, ReadoutModel.ideal(), ReadoutModel.ideal())
    assert 0.0 <= res.value <= 1.0
    assert res.residual_norm > 0.1  # lack of fit is visible in diagnostics


def test_pcnot_wrong_kind():
    with pytest.raises(WrongKind):
        fit_pcnot(_char(TestKind("init", qubit=0), {"0": 1}, 1),
                  ReadoutModel.ideal(), ReadoutModel.ideal())


def test_bell_line_matches_readout_of_bell_frequencies():
    """The array line base + s * slope, s = 2p/3 - 4p^2/9, reproduces the
    readout-transformed closed-form Bell law at every p."""
    rng = np.random.default_rng(31)
    for _ in range(100):
        rates = rng.uniform(0, 0.3, size=(2, 2))  # [[p0_j, p0_k], [p1_j, p1_k]]
        base, slope = _bell_line(rates)
        readouts = [ReadoutModel(float(rates[0, b]), float(rates[1, b])) for b in range(2)]
        for p in rng.uniform(0, 0.75, size=3):
            law = apply_readout_to_distribution(bell_frequencies(float(p)), readouts)
            s = 2 * p / 3 - 4 * p**2 / 9
            np.testing.assert_allclose(base + s * slope,
                                       [law.prob(k) for k in BELL_OUTCOMES], atol=1e-15)


def _stochastic(readout):
    return np.array([[1.0 - readout.p0, readout.p1], [readout.p0, 1.0 - readout.p1]])


def test_pcnot_grid_scan_oracle():
    """The closed-form fit agrees with a dense grid scan of the objective.

    The scan reads the Bell law out through the Kronecker product of the two
    2x2 stochastic matrices, not through the channel the fit uses. The best
    p alone would not tell the two qubits' readouts apart (the Bell law is
    symmetric in 01/10), so the fit's residual must also equal the scan's."""
    rng = np.random.default_rng(42)
    keys = ("00", "01", "10", "11")
    grid = np.arange(0.0, 1.0 + 1e-4, 1e-4)
    bell = np.array([[bell_frequencies(p).prob(k) for k in keys] for p in grid])
    for _ in range(20):
        readout_j = ReadoutModel(float(rng.uniform(0, 0.1)), float(rng.uniform(0, 0.12)))
        readout_k = ReadoutModel(float(rng.uniform(0, 0.1)), float(rng.uniform(0, 0.12)))
        raw = rng.dirichlet((8, 1, 1, 8))
        counts = {k: int(round(v * 100000)) for k, v in zip(keys, raw)}
        counts["00"] += 100000 - sum(counts.values())
        char = _char(BELL_KIND, counts, 100000)
        fitted = fit_pcnot(char, readout_j, readout_k)

        observed = np.array([char.counts.frequency(k) for k in keys])
        model = bell @ np.kron(_stochastic(readout_j), _stochastic(readout_k)).T
        ssr = ((model - observed) ** 2).sum(axis=1)
        best = int(np.argmin(ssr))
        assert abs(fitted.value - grid[best]) <= 2e-4
        assert abs(fitted.residual_norm - np.sqrt(ssr[best])) <= 1e-6


def _bell_record(freqs, shots=8192):
    return _record(BELL_KIND, dict(zip(BELL_OUTCOMES, freqs)), shots)


def test_pcnot_stderr_matches_central_differences():
    """The analytic stderr, readout terms included, equals the delta method
    over central differences of the estimator in the four frequencies and
    the four readout parameters."""
    rng = np.random.default_rng(8)
    for _ in range(40):
        p = [float(v) for v in rng.uniform(0.01, 0.12, size=4)]  # p0_j, p1_j, p0_k, p1_k
        exact = apply_readout_to_distribution(
            bell_frequencies(float(rng.uniform(0.01, 0.2))),
            [ReadoutModel(p[0], p[1]), ReadoutModel(p[2], p[3])],
        )
        observed = rng.multinomial(8192, [exact.prob(k) for k in BELL_OUTCOMES]) / 8192
        readout_stderrs = tuple(binomial_stderr(v, 8192) for v in p)

        def raw(v):
            model_j, model_k = ReadoutModel(v[4], v[5]), ReadoutModel(v[6], v[7])
            return fit_pcnot(_bell_record(v[:4]), model_j, model_k).raw_value

        res = fit_pcnot(_bell_record(observed), ReadoutModel(p[0], p[1]),
                        ReadoutModel(p[2], p[3]), readout_stderrs)
        assert res.feasible
        grad = _central_gradient(raw, [*observed, *p], 1e-6)
        sigma = [*(binomial_stderr(f, 8192) for f in observed), *readout_stderrs]
        assert res.stderr == pytest.approx(np.linalg.norm(grad * sigma), rel=1e-4)


def test_pcnot_stderr_matches_oracle():
    """The stacked Bell fit's stderr equals the oracle's on random rates,
    readout stderrs (zeros included) and Bell counts. Both take each readout
    term's line derivative as the line at that rate 1 minus at 0; the fit
    reads the line out through `read_out` and the oracle through a
    Kronecker product of 2x2 channels."""
    rng = np.random.default_rng(29)
    for _ in range(200):
        rates = rng.uniform(0, 0.3, size=(2, 2))  # [[p0_j, p0_k], [p1_j, p1_k]]
        sigmas = rng.uniform(0, 0.02, size=4) * (rng.uniform(size=4) < 0.8)
        shots = int(rng.integers(64, 100_000))
        p = rng.uniform(0, 0.5)
        base, slope = bell_line(rates)
        counts = rng.multinomial(shots, base + (2 * p / 3 - 4 * p**2 / 9) * slope)
        res = fit_pcnot(_char(BELL_KIND, dict(zip(BELL_OUTCOMES, counts.tolist())), shots),
                        ReadoutModel(*rates[:, 0]), ReadoutModel(*rates[:, 1]), tuple(sigmas))
        if res.raw_value >= 0.75:
            continue
        expected = pcnot_stderr(counts / shots, shots, rates, sigmas)
        assert res.stderr == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_pcnot_infeasible_s_flagged():
    """A least-squares s* below 0 gives a negative raw p, clamped to 0; one
    beyond the uniform law's 1/4 is clamped to p = 3/4. Both are flagged."""
    readout = ReadoutModel(0.05, 0.05)
    # fewer odd-parity outcomes than readout alone produces: s* < 0
    res = fit_pcnot(_char(BELL_KIND, {"00": 4096, "11": 4096}, 8192), readout, readout)
    assert res.raw_value < 0.0 and res.value == 0.0 and not res.feasible
    assert res.stderr > 0.0
    # only odd parity: s* = 1/2
    res = fit_pcnot(_char(BELL_KIND, {"01": 8192}, 8192),
                    ReadoutModel.ideal(), ReadoutModel.ideal())
    assert res.value == 0.75 and not res.feasible


# -- round-trip identifiability and stderr scaling -----------------------------------

def test_roundtrip_identifiability_exact():
    """All estimators recover ground truth from exact forward-model
    frequencies, over 100 random parameter sets."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        p0 = float(rng.uniform(0, 0.15))
        p1 = float(rng.uniform(0, 0.15))
        p_x = float(rng.uniform(0, 0.02))
        p_cnot = float(rng.uniform(0, 0.15))

        init = _char_from_freqs(TestKind("init", qubit=0), {"0": 1 - p0, "1": p0})
        p0_res = estimate_p0(init)
        assert p0_res.value == pytest.approx(p0, abs=1e-6)

        g_x_0, g_xx_0 = predicted_x_test_frequencies(p0, p1, p_x)
        p1_res, px_res = solve_aro_system(g_x_0, g_xx_0, p0)
        assert p1_res.value == pytest.approx(p1, abs=1e-6)
        assert px_res.value == pytest.approx(p_x, abs=1e-6)

        readout = ReadoutModel(p0, p1)
        bell = apply_readout_to_distribution(bell_frequencies(p_cnot), [readout] * 2)
        pc_res = fit_pcnot(_char_from_freqs(BELL_KIND, dict(bell.items())),
                           readout, readout)
        assert pc_res.value == pytest.approx(p_cnot, abs=1e-6)


def test_stderr_scales_inverse_sqrt_shots():
    freq = 0.0212
    results = {}
    for shots in (2**10, 2**13, 2**16):
        ones = round(freq * shots)
        char = _char(TestKind("init", qubit=0), {"0": shots - ones, "1": ones}, shots)
        results[shots] = estimate_p0(char).stderr
    assert results[2**10] / results[2**13] == pytest.approx(8**0.5, rel=0.05)
    assert results[2**13] / results[2**16] == pytest.approx(8**0.5, rel=0.05)


def test_clamping_never_alters_feasible_solutions():
    rng = np.random.default_rng(12)
    for _ in range(50):
        g_x_0 = float(rng.uniform(0, 0.3))
        g_xx_0 = float(rng.uniform(0.7, 1.0))
        p0 = float(rng.uniform(0, 0.1))
        p1_res, px_res = solve_aro_system(g_x_0, g_xx_0, p0)
        for res in (p1_res, px_res):
            if res.feasible:
                assert res.raw_value == res.value


# -- fit_composite -----------------------------------------------------------------

def test_fit_composite_roundtrip(line4, mock_backend):
    plan = build_suite(line4, SuiteConfig(shots=8192, seed=101))
    chars = run_suite(plan, mock_backend)
    fit = fit_composite(chars, FitConfig(variant="aro+dp"))
    truth = {"p0": 0.0212, "p1": 0.0681, "p_x": 0.0033, "p_cnot": 0.02}
    for name, res in fit.estimates.items():
        target = truth[name.split(":")[0]]
        assert abs(res.value - target) <= 4 * max(res.stderr, 1e-4), name


def test_fit_composite_stderr_uses_each_records_shots():
    """An archive mixing 8192-shot records (qubit 0, listed first) with
    1024-shot ones (qubit 1) at identical frequencies: every qubit-1 stderr
    is sqrt(8) times its qubit-0 twin."""
    per_1024 = {  # outcome counts per 1024 shots
        "init": {"0": 1002, "1": 22},
        "x": {"0": 72, "1": 952},
        "xx": {"0": 995, "1": 29},
        2: {"0": 973, "1": 51},
        8: {"0": 962, "1": 62},
        32: {"0": 921, "1": 103},
    }
    chars = []
    for qubit, scale in ((0, 8), (1, 1)):
        for test, counts in per_1024.items():
            kind = (TestKind("hseq", qubit=qubit, length=test) if isinstance(test, int)
                    else TestKind(test, qubit=qubit))
            chars.append(_char(kind, {k: v * scale for k, v in counts.items()},
                               1024 * scale))
    chars.append(_char(BELL_KIND, {"00": 480, "01": 32, "10": 40, "11": 472}, 1024))
    fit = fit_composite(chars, FitConfig(variant="aro+dp"))
    for param in ("p0", "p1", "p_x", "p_h"):
        q0, q1 = fit.estimates[f"{param}:q0"], fit.estimates[f"{param}:q1"]
        assert q1.value == q0.value
        assert q1.stderr == pytest.approx(8**0.5 * q0.stderr, rel=1e-9), param


def test_fit_composite_noiseless():
    fit = fit_composite([], FitConfig(variant="noiseless"))
    assert fit.model.x_for(0) == 0.0
    assert not fit.model.readout_on and not fit.model.cnot_dp_on


def test_fit_composite_subset_three_parameters(line4, mock_backend):
    plan = build_suite(line4, SuiteConfig(shots=8192, seed=55))
    chars = run_suite(plan, mock_backend)
    fit = fit_composite(
        chars,
        FitConfig(variant="aro+dp", granularity="subset_average", subset=(0, 1)),
    )
    model = fit.model
    assert model.granularity == "subset_average"
    assert model.avg_readout is not None and model.avg_cnot is not None
    # broadcast lookups work outside the subset
    assert model.readout_for(3) == model.avg_readout
    assert model.cnot_for(2, 3) == model.avg_cnot


def test_fit_composite_missing_bell_coverage(line4, mock_backend):
    plan = build_suite(line4, SuiteConfig(shots=1024, seed=5))
    chars = [c for c in run_suite(plan, mock_backend) if c.kind.kind != "bell"]
    with pytest.raises(MissingCoverage) as err:
        fit_composite(chars, FitConfig(variant="aro+dp"))
    assert any("bell" in m for m in err.value.missing)


def test_fit_composite_sro_vs_aro_pcnot_differs(line4, mock_backend):
    """The depolarizing parameter is refit per readout variant."""
    plan = build_suite(line4, SuiteConfig(shots=8192, seed=77))
    chars = run_suite(plan, mock_backend)
    sro_dp = fit_composite(chars, FitConfig(variant="sro+dp"))
    aro_dp = fit_composite(chars, FitConfig(variant="aro+dp"))
    assert sro_dp.model.cnot != aro_dp.model.cnot
    assert sro_dp.model.readout[0].is_symmetric
    assert not aro_dp.model.readout[0].is_symmetric


def test_estimation_result_invariants():
    with pytest.raises(OutOfRange):
        EstimationResult("p", value=1.2, raw_value=1.2)
    with pytest.raises(OutOfRange):
        EstimationResult("p", value=0.5, raw_value=0.5, stderr=-1.0)


# -- stacked families against the per-element oracle ---------------------------------

def _drawn(rng, kind: TestKind, shots: int, probs: dict) -> Characterization:
    keys = list(probs)
    p = np.clip([probs[k] for k in keys], 0.0, None)
    draw = rng.multinomial(shots, p / p.sum())
    return Characterization(kind, Counts({k: int(n) for k, n in zip(keys, draw) if n}, shots))


def _random_archive(rng, topo, lengths_of) -> list[Characterization]:
    """Every test on `topo`, drawn around a random truth. Qubit q's sequence
    tests have lengths_of(q) and, by q % 3, survival 1 (p_h = 0), a random
    decay, or below 1/2 (p_h = 3/4); every fourth qubit's XX frequency sits
    above its p_x = 0 ceiling (p_x clamped); Bell tests by coupling index
    show even parity only (s* < 0), odd parity only (s* >= 1/4) or a
    readout-transformed depolarized Bell law."""
    one_bit = lambda f: {"0": f, "1": 1.0 - f}
    chars, rates = [], {}
    for q in range(topo.num_qubits):
        p0, p1 = (float(v) for v in rng.uniform(0.0, 0.12, size=2))
        p_x = float(rng.uniform(0.0, 0.02))
        rates[q] = ReadoutModel(p0, p1)
        shots = int(rng.choice([1024, 4096, 8192]))
        g_x, g_xx = predicted_x_test_frequencies(p0, p1, p_x)
        if q % 4 == 3:
            g_xx = min(1.0, 1.0 - p0 + 0.01)
        for kind, f in (("init", 1.0 - p0), ("x", g_x), ("xx", g_xx)):
            chars.append(_drawn(rng, TestKind(kind, qubit=q), shots, one_bit(f)))
        p_h = float(rng.uniform(0.002, 0.05))
        for length in lengths_of(q):
            survival = hadamard_survival(length, p_h)
            observed = [1.0, (1 - p0) * survival + p1 * (1 - survival), 0.45][q % 3]
            chars.append(_drawn(rng, TestKind("hseq", qubit=q, length=length), shots,
                                one_bit(observed)))
    for index, (j, k) in enumerate(sorted(topo.undirected_edges())):
        law = apply_readout_to_distribution(bell_frequencies(float(rng.uniform(0.0, 0.1))),
                                            [rates[j], rates[k]])
        probs = [{"00": 0.5, "11": 0.5}, {"01": 0.5, "10": 0.5}, dict(law.items())][index % 3]
        chars.append(_drawn(rng, TestKind("bell", coupling=(j, k)),
                            int(rng.choice([2048, 8192])), probs))
    return chars


def _assert_matches_oracle(fit, expected: dict) -> None:
    assert list(fit.estimates) == list(expected)
    for name, want in expected.items():
        got = fit.estimates[name]
        assert got.feasible == want.feasible, name
        for attr in ("value", "raw_value", "stderr", "residual_norm"):
            assert getattr(got, attr) == pytest.approx(getattr(want, attr), rel=1e-12,
                                                       abs=1e-15), (name, attr)


@pytest.mark.parametrize("seed", range(4))
def test_stacked_fits_match_the_per_element_oracle(seed, ladder20):
    """Every variant, per element and on a subset, gives the estimates,
    stderrs, residuals and feasibility flags of fitting one element at a
    time, on archives with two sets of Hadamard lengths and with estimates
    on every bound."""
    rng = np.random.default_rng(seed)
    topo = ladder20 if seed % 2 else line(7)
    chars = _random_archive(rng, topo, lambda q: (2, 4, 8, 16) if q % 2 else (2, 8, 32))
    for variant, (_, gate_dp) in VARIANTS.items():
        if variant == "noiseless":
            continue
        for subset in (None, (0, 2, 3, 5)):
            config = FitConfig(variant=variant, subset=subset,
                               granularity=SUBSET_AVERAGE if subset else PER_ELEMENT)
            fit = fit_composite(chars, config)
            expected, include = fit_estimates(chars, variant, subset)
            _assert_matches_oracle(fit, expected)
            if not subset and gate_dp:
                assert set(fit.model.h_gate) == {q for q, keep in include.items() if keep}

    # the archive reached every regime it was built for
    fit = fit_composite(chars, FitConfig(variant="aro+dp"))
    p_h = [r.value for n, r in fit.estimates.items() if n.startswith("p_h")]
    pcnot = [r for n, r in fit.estimates.items() if n.startswith("p_cnot")]
    assert 0.0 in p_h and 0.75 in p_h and any(0.0 < v < 0.75 for v in p_h)
    assert any(r.raw_value < 0.0 and r.value == 0.0 for r in pcnot)  # s* < 0
    assert any(r.value == 0.75 and not r.feasible for r in pcnot)  # s* >= 1/4
    assert any(not r.feasible for n, r in fit.estimates.items() if n.startswith("p_x"))


def _edited(chars, edits: dict) -> list[Characterization]:
    """`chars` with records replaced ({label: counts}) or dropped ({label: None})."""
    out = []
    for char in chars:
        if char.label not in edits:
            out.append(char)
        elif edits[char.label] is not None:
            out.append(Characterization(char.kind, Counts(edits[char.label], 1024)))
    return out


# Exact binary frequencies at 1024 shots: init p0 = 1/8 gives a = 7/8; an X
# frequency of 7/8 makes the X test blind to p_x, and X/XX frequencies
# (1/2, 1/8) imply q = 1.
_P0_EIGHTH = {"0": 896, "1": 128}
_P0_HALF = {"0": 512, "1": 512}
_Q_IS_ONE = {"init:q1": _P0_EIGHTH, "x:q1": {"0": 512, "1": 512},
             "xx:q1": {"0": 128, "1": 896}}
_GAP_X_ZERO = {"init:q3": _P0_EIGHTH, "x:q3": {"0": 896, "1": 128}}
_ONE_LENGTH = lambda q: {f"hseq:q{q}:len8": None, f"hseq:q{q}:len32": None}

RAISE_FIRST = {
    # q1 fails a later check than q3, but it is the earlier qubit
    "aro-by-qubit": ("aro", {**_Q_IS_ONE, **_GAP_X_ZERO}),
    "aro-before-hadamard": ("aro+dp", {**_ONE_LENGTH(0), **_GAP_X_ZERO}),
    "hadamard-readout-first": ("sro+dp", {"init:q1": _P0_HALF, **_ONE_LENGTH(3)}),
    "hadamard-lengths-first": ("sro+dp", {**_ONE_LENGTH(1), "init:q3": _P0_HALF}),
    "hadamard-before-bell": ("sro+dp", {"init:q2": _P0_HALF, "hseq:q2:len2": None,
                                        **_ONE_LENGTH(2), **_ONE_LENGTH(4)}),
    "bell": ("sro+dp", {"init:q2": _P0_HALF, "hseq:q2:len2": None, **_ONE_LENGTH(2)}),
}


@pytest.mark.parametrize("variant, edits", RAISE_FIRST.values(), ids=RAISE_FIRST.keys())
def test_fit_composite_raises_what_the_per_element_fit_raises(variant, edits):
    """When several elements fail, the error is the one fitting element by
    element meets first: same type, message and diagnostics."""
    rng = np.random.default_rng(3)
    chars = _edited(_random_archive(rng, line(5), lambda q: (2, 8, 32)), edits)
    with pytest.raises(Exception) as want:
        fit_estimates(chars, variant)
    with pytest.raises(type(want.value)) as got:
        fit_composite(chars, FitConfig(variant=variant))
    assert str(got.value) == str(want.value)
    assert getattr(got.value, "diagnostics", None) == getattr(want.value, "diagnostics", None)


def test_fit_composite_fits_each_family_once(ladder20, monkeypatch):
    """On a 20-qubit archive with two sets of Hadamard lengths, the fit makes
    one root isolation per set, no eigenvalue call and no call into the
    one-element estimators."""
    plan = build_suite(ladder20, SuiteConfig(hadamard_lengths=(2, 4, 8, 16, 32), shots=256,
                                             seed=9))
    truth = MockGroundTruth(type(uniform_truth(ladder20))(
        **{**uniform_truth(ladder20).__dict__, "h_gate": dict.fromkeys(range(20), 0.004)}))
    chars = [c for c in run_suite(plan, MockBackend(ladder20, truth))
             if not (c.kind.kind == "hseq" and c.kind.qubit < 8 and c.kind.length == 32)]

    def forbidden(*args, **kwargs):
        raise AssertionError("fit_composite called a one-element estimator or eigvals")

    for name in ("estimate_p0", "solve_aro_system", "estimate_hadamard_error", "fit_pcnot"):
        monkeypatch.setattr(estimation, name, forbidden)
    monkeypatch.setattr(np.linalg, "eigvals", forbidden)
    calls = _spied_isolation(monkeypatch)

    fit = fit_composite(chars, FitConfig(variant="aro+dp"))
    # the derivative's exponents L - 1 and L/2 - 1 of lengths 2..16 and 2..32
    assert sorted((len(coef), exponents.tolist()) for (exponents, coef), _ in calls) == [
        (8, [0, 1, 3, 7, 15]), (12, [0, 1, 3, 7, 15, 31])]
    assert len(fit.estimates) == 4 * 20 + len(ladder20.undirected_edges())
