from types import SimpleNamespace

import numpy as np
import pytest
from estimation_oracle import bell_line, fit_hadamard, hadamard_ssr, pcnot_stderr, solve_x_xx

from noisekit.backend import MockBackend, MockGroundTruth
from noisekit.characterization import (
    Characterization,
    SuiteConfig,
    TestKind,
    build_suite,
    run_suite,
)
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
    ReadoutModel,
    apply_readout_to_distribution,
    bell_frequencies,
    predicted_x_test_frequencies,
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
    """The readout terms from the closed-form line derivatives give the
    stderr that the rate-1-minus-rate-0 derivatives give, on random rates,
    readout stderrs (zeros included) and Bell counts."""
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
