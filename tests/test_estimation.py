import math

import numpy as np
import pytest
from closed_forms import bell_frequencies, predicted_x_test_frequencies
from count_tables import exact_records, frequency_records, records_of, rows_where
from estimation_oracle import (
    bell_line,
    fit_estimates,
    hadamard_fixed_point,
    hadamard_per_element,
    pcnot_stderr,
    solve_x_xx,
)

from noisekit.backend import MockBackend, MockGroundTruth
from noisekit.characterization import (
    Records,
    TestKind,
    archive_dict,
    build_suite,
    read_archive,
    run_suite,
)
from noisekit import estimation
from noisekit.devices import jittered_truth, line, uniform_truth
from noisekit.errors import (
    ConfigError,
    InsufficientLengths,
    MissingCoverage,
    NoConvergence,
    OutOfRange,
    WrongKind,
    write_json_file,
)
from noisekit.estimation import (
    BELL_OUTCOMES,
    EstimationResult,
    binomial_stderr,
    estimate_hadamard_error,
    estimate_p0,
    fit_composite,
    fit_pcnot,
    hadamard_survival,
    solve_aro_system,
)
from noisekit.noise import (
    GRANULARITIES,
    PER_ELEMENT,
    SUBSET_AVERAGE,
    VARIANTS,
    CompositeNoiseModel,
    ReadoutModel,
    apply_readout_to_distribution,
)
from noisekit.outcomes import Counts

def _one_row(test: TestKind, counts: dict, shots: int):
    return records_of([(test, counts, shots)])


def _aro_records(g_x_0, g_xx_0, p0, shots=(8192, 8192, 8192)):
    """One qubit's init, X and XX tests at the given frequencies of
    outcome 1, 0 and 0, with (X, XX, init) shots."""
    return frequency_records((TestKind("init", qubit=0), {"0": 1.0 - p0, "1": p0}, shots[2]),
                             (TestKind("x", qubit=0), {"0": g_x_0, "1": 1.0 - g_x_0}, shots[0]),
                             (TestKind("xx", qubit=0), {"0": g_xx_0, "1": 1.0 - g_xx_0}, shots[1]))


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
    res = estimate_p0(_one_row(TestKind("init", qubit=0), {"0": 8192}, 8192))
    assert res.value == 0.0 and res.feasible


def test_p0_direct_division():
    res = estimate_p0(_one_row(TestKind("init", qubit=0), {"0": 8020, "1": 172}, 8192))
    assert res.value == pytest.approx(0.02099609375, abs=1e-12)
    assert res.stderr == pytest.approx((res.value * (1 - res.value) / 8192) ** 0.5)


def test_p0_boundary():
    res = estimate_p0(_one_row(TestKind("init", qubit=0), {"1": 8192}, 8192))
    assert res.value == 1.0 and res.feasible


def test_p0_wrong_kind():
    with pytest.raises(WrongKind):
        estimate_p0(_one_row(TestKind("x", qubit=0), {"1": 10}, 10))


# -- solve_aro_system -------------------------------------------------------------

def test_aro_forward_model_roundtrip():
    g_x_0, g_xx_0 = predicted_x_test_frequencies(0.02, 0.07, 0.003)
    p1, p_x = solve_aro_system(_aro_records(g_x_0, g_xx_0, 0.02))
    assert p1.value == pytest.approx(0.07, abs=1e-8)
    assert p_x.value == pytest.approx(0.003, abs=1e-8)
    assert p1.feasible and p_x.feasible
    assert p1.residual_norm <= 1e-10


def test_aro_zero_gate_noise_limit():
    p0, p1_true = 0.03, 0.08
    p1, p_x = solve_aro_system(_aro_records(p1_true, 1 - p0, p0))
    assert p1.value == pytest.approx(p1_true, abs=1e-9)
    assert p_x.value == pytest.approx(0.0, abs=1e-9)


def test_aro_infeasible_clamped():
    # g_xx_0 above the p_x = 0 ceiling forces a negative raw p_x.
    p1, p_x = solve_aro_system(_aro_records(0.06, min(1.0, (1 - 0.02) + 0.003), 0.02))
    assert not p_x.feasible
    assert p_x.raw_value < 0.0
    assert p_x.value == 0.0


def test_aro_rejects_bad_inputs():
    with pytest.raises(OutOfRange):
        solve_aro_system(_aro_records(1.2, 0.5, 0.0))


def test_aro_stderr_propagation():
    """The stderrs shrink as 1/sqrt(shots) of the three tests."""
    g_x_0, g_xx_0 = predicted_x_test_frequencies(0.02, 0.07, 0.003)
    p1, p_x = solve_aro_system(_aro_records(g_x_0, g_xx_0, 0.02))
    wide = solve_aro_system(_aro_records(g_x_0, g_xx_0, 0.02, shots=(8 * 8192,) * 3))
    for res, more_shots in zip((p1, p_x), wide):
        assert res.stderr == pytest.approx(8**0.5 * more_shots.stderr, rel=1e-9)
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
        p1, p_x = solve_aro_system(_aro_records(g_x_0, g_xx_0, p0))
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
        shots = (1024, 8192, 4096)  # X, XX, init
        sigma = np.array([binomial_stderr(g_x_0, shots[0]),
                          binomial_stderr(g_xx_0, shots[1]), binomial_stderr(p0, shots[2])])
        p1, p_x = solve_aro_system(_aro_records(g_x_0, g_xx_0, p0, shots))
        for index, res in enumerate((p1, p_x)):
            grad = _central_gradient(
                lambda v: solve_aro_system(_aro_records(*v, shots))[index].raw_value,
                (g_x_0, g_xx_0, p0), 1e-6
            )
            assert res.stderr == pytest.approx(np.linalg.norm(grad * sigma), rel=1e-4)


@pytest.mark.parametrize("g_x_0, g_xx_0, p0", [
    (0.9, 0.5, 0.1),    # g_x = 1 - p0: p_x drops out of the X test
    (0.5, 0.1, 0.1),    # q = 1: p1 drops out of both tests
])
def test_aro_singular_system_raises(g_x_0, g_xx_0, p0):
    with pytest.raises(NoConvergence):
        solve_aro_system(_aro_records(g_x_0, g_xx_0, p0))


# -- estimate_hadamard_error -------------------------------------------------------

def _hseq_exact(p_h, lengths, readout=ReadoutModel.ideal()):
    rows = []
    for length in lengths:
        survival = hadamard_survival(length, p_h)
        observed = (1 - readout.p0) * survival + readout.p1 * (1 - survival)
        rows.append((TestKind("hseq", qubit=0, length=length), {"0": observed, "1": 1 - observed}))
    return exact_records(*rows)


def test_hadamard_roundtrip_exact():
    fit = estimate_hadamard_error(_hseq_exact(0.001, (2, 4, 8, 16, 32, 64)),
                                  ReadoutModel.ideal())
    assert fit.result.value == pytest.approx(0.001, abs=1e-6)


def test_hadamard_roundtrip_with_readout():
    readout = ReadoutModel(0.02, 0.07)
    fit = estimate_hadamard_error(_hseq_exact(0.002, (2, 8, 32), readout), readout)
    assert fit.result.value == pytest.approx(0.002, abs=1e-6)


def test_hadamard_ideal_sequences():
    records = records_of([(TestKind("hseq", qubit=0, length=l), {"0": 8192}, 8192)
                          for l in (2, 4)])
    fit = estimate_hadamard_error(records, ReadoutModel.ideal())
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
    plan = build_suite(line2, hadamard_lengths=(2, 4, 8), shots=8192, seed=3)
    records = rows_where(run_suite(plan, backend), lambda t: t.kind == "hseq" and t.qubit == 0)
    fit = estimate_hadamard_error(records, ReadoutModel(0.0212, 0.0681))
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
    plan = build_suite(line2, hadamard_lengths=(2, 4, 8, 16, 32, 64), shots=8192, seed=3)
    records = rows_where(run_suite(plan, backend), lambda t: t.kind == "hseq" and t.qubit == 0)
    fit = estimate_hadamard_error(records, ReadoutModel(0.0212, 0.0681))
    assert fit.result.value == pytest.approx(0.001, abs=5e-4)
    assert fit.include_in_model


def test_hadamard_needs_two_lengths():
    with pytest.raises(InsufficientLengths):
        estimate_hadamard_error(_hseq_exact(0.001, (8,)), ReadoutModel.ideal())


HSEQ_LENGTHS = (2, 4, 8, 16, 32)


def _hseq_records(observed: dict, shots: dict):
    return frequency_records(*((TestKind("hseq", qubit=0, length=l),
                                {"0": observed[l], "1": 1 - observed[l]}, shots[l])
                               for l in observed))


def test_hadamard_stderr_matches_central_differences():
    """With known readout, the stderr 0.75 / sqrt(g^T Sigma^-1 g) is the delta
    method over central differences of the fit, with a different shot count
    per length, to 1e-2: the step's own slope in the frequencies is that of
    the fixed point only to first order."""
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
        assert fit.result.stderr == pytest.approx(np.linalg.norm(grad * sigma), rel=1e-2)


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
    records = records_of([(TestKind("hseq", qubit=0, length=l), {"0": n, "1": 8192 - n}, 8192)
                          for l, n in counts.items()])
    fit = estimate_hadamard_error(records, ReadoutModel.ideal())
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


def test_hadamard_matches_bounded_minimiser_oracle():
    """On suite-like records (binomial draws at the paper's 8192 shots,
    subsets of the geometric ladder, readout rates with stderrs) the
    one-step fit lies within 0.15 of its stderr of the fixed point of
    generalised least squares, found with the bounded scalar minimiser. The
    stderrs are independent, one error term of their own each. The
    gap shrinks as 1/sqrt(shots): at 1024 shots it reaches about 0.3."""
    rng = np.random.default_rng(21)
    for _ in range(100):
        lengths = sorted(rng.choice((2, 4, 8, 16, 32, 64), size=rng.integers(2, 7),
                                    replace=False).tolist())
        readout = ReadoutModel(float(rng.uniform(0, 0.05)), float(rng.uniform(0, 0.1)))
        stderrs = tuple(float(v) for v in rng.uniform(0.0, 0.004, size=2))
        p_h = float(rng.uniform(0.001, 0.05))
        shots = dict.fromkeys(lengths, 8192)
        observed = {}
        for l in lengths:
            s = hadamard_survival(l, p_h)
            observed[l] = rng.binomial(8192, (1 - readout.p0) * s + readout.p1 * (1 - s)) / 8192
        records = _hseq_records(observed, shots)
        (fit,) = estimation._hadamard_fits(records, [list(range(len(lengths)))],
                                           [[readout.p0], [readout.p1]],
                                           np.diag(stderrs)[:, None])
        oracle = hadamard_fixed_point(observed, shots, readout.p0, readout.p1, stderrs)
        assert fit.result.stderr > 0.0
        assert abs(fit.result.value - oracle) <= 0.15 * fit.result.stderr + 1e-8


def _suite_laws(topo, p_h=None, lengths=()) -> tuple[list, np.ndarray]:
    """The tests of a suite on `topo` and their laws over the four outcomes,
    from the closed forms of `jittered_truth(topo, 42)` with Hadamard rates
    p_h[q] at `lengths`: init, X, XX and sequence tests per qubit, a Bell
    test per coupling."""
    truth = jittered_truth(topo, 42)
    tests, laws = [], []
    for q in range(topo.num_qubits):
        readout = truth.readout_for(q)
        g_x, g_xx = predicted_x_test_frequencies(readout.p0, readout.p1, truth.x_for(q))
        observed = [1.0 - readout.p0, g_x, g_xx]
        for length in lengths:
            s = hadamard_survival(length, p_h[q])
            observed.append((1.0 - readout.p0) * s + readout.p1 * (1.0 - s))
        tests += [TestKind("init", qubit=q), TestKind("x", qubit=q), TestKind("xx", qubit=q),
                  *(TestKind("hseq", qubit=q, length=l) for l in lengths)]
        laws += [[f, 1.0 - f, 0.0, 0.0] for f in observed]
    for j, k in sorted(topo.undirected_edges()):
        law = apply_readout_to_distribution(bell_frequencies(truth.cnot[j, k]),
                                            [truth.readout_for(j), truth.readout_for(k)])
        tests.append(TestKind("bell", coupling=(j, k)))
        laws.append([dict(law.items()).get(o, 0.0) for o in BELL_OUTCOMES])
    return tests, np.array(laws)


def _drawn_fits(topo, suites: int, variant: str, p_h=None, lengths=()) -> list[dict]:
    """The `variant` estimates of `suites` suites of `_suite_laws` drawn at
    8192 shots."""
    shots, (tests, laws) = 8192, _suite_laws(topo, p_h, lengths)
    rng = np.random.default_rng(5)
    counts = np.stack([rng.multinomial(shots, law, size=suites) for law in laws], axis=1)
    return [fit_composite(Records(tuple(tests), table, np.full(len(tests), shots)),
                          variant).estimates for table in counts]


def _assert_stderr_covers_the_spread(fits: list[dict], names) -> None:
    """Each parameter's mean stderr is its empirical sd over the fits within
    4 sd of a sample sd, 4 (2 (K - 1))^(-1/2)."""
    band = 4.0 / math.sqrt(2 * (len(fits) - 1))
    for name in names:
        value, stderr = np.array([(f[name].value, f[name].stderr) for f in fits]).T
        assert np.mean(stderr) / np.std(value, ddof=1) == pytest.approx(1.0, abs=band), name


@pytest.mark.parametrize("variant", ["aro+dp", "sro+dp"])
def test_hadamard_stderr_covers_the_spread_of_p_h(variant):
    """Over 400 suites drawn on line(3) (p_h 0.004, 0.006 and 0.008, lengths
    2, 4, 8, 16) the p_h stderr covers its spread: it carries the readout
    estimates' error as well as the trains' counting noise."""
    fits = _drawn_fits(line(3), 400, variant, (0.004, 0.006, 0.008), (2, 4, 8, 16))
    _assert_stderr_covers_the_spread(fits, [f"p_h:q{q}" for q in range(3)])


@pytest.mark.parametrize("variant", ["aro+dp", "sro+dp"])
def test_pcnot_stderr_covers_the_spread_of_p_cnot(variant):
    """Over 1,000 suites drawn on line(4) the p_cnot stderr covers its
    spread: the four Bell frequencies are one multinomial, so the fit's
    counting noise is the odd-parity frequency's binomial variance, and the
    readout estimates' error enters with its p0-p1 covariance."""
    fits = _drawn_fits(line(4), 1000, variant)
    _assert_stderr_covers_the_spread(fits, [f"p_cnot:q{q}-q{q + 1}" for q in range(3)])


@pytest.mark.parametrize("variant", ["aro+dp", "sro+dp"])
def test_pcnot_stderr_is_the_delta_method_over_every_record_it_reads(variant):
    """On line(2) at 8192 shots, `fit_composite`'s p_cnot stderr is the
    delta method over every row the Bell fit depends on: both qubits' init,
    X and XX rows and the Bell row, each a multinomial of covariance
    (diag f - f f') / n, differentiated by central differences. So the
    readout estimates' error enters with its p0-p1 covariance: ARO solves
    p1 from p0, and SRO reads p0 as both rates."""
    shots, (tests, laws) = 8192, _suite_laws(line(2))

    def fit(freqs):
        table = np.reshape(freqs, laws.shape) * shots
        records = Records(tuple(tests), table, np.full(len(tests), shots))
        return fit_composite(records, variant).estimates["p_cnot:q0-q1"]

    grad = _central_gradient(lambda v: fit(v).raw_value, laws.ravel(), 1e-6)
    cov = np.zeros((laws.size, laws.size))
    for row, f in enumerate(laws):
        block = slice(4 * row, 4 * row + 4)
        cov[block, block] = (np.diag(f) - np.outer(f, f)) / shots
    assert fit(laws.ravel()).stderr == pytest.approx(math.sqrt(grad @ cov @ grad), rel=1e-6)


# -- stacked Hadamard trains ---------------------------------------------------------

GEOMETRIC = (2, 4, 8, 16, 32, 64)
LADDERS = {"2-4": (2, 4), "geometric-32": GEOMETRIC[:-1], "geometric-64": GEOMETRIC,
           "even-2-64": tuple(range(2, 66, 2))}


def _stacked(trains: list[dict]):
    """One table of the trains, {length: frequency of outcome 0} at 8192
    shots each, train i on qubit i; and each train's rows."""
    records = frequency_records(*((TestKind("hseq", qubit=i, length=l), {"0": f, "1": 1 - f}, 8192)
                                  for i, train in enumerate(trains) for l, f in train.items()))
    return records, [[records.index["hseq", i, l] for l in train]
                     for i, train in enumerate(trains)]


def _assert_hadamard_matches_oracle(trains, readout: ReadoutModel, stderrs=(0.0, 0.0),
                                    residual_floor=1e-15):
    """Each stacked train's fit equals the per-element oracle's within 1e-12
    relative (floor 1e-15) in p_h, stderr and residual, with the same flag.
    The readout stderrs are independent, one error term of their own each."""
    records, rows = _stacked(trains)
    rates = [[v] * len(rows) for v in (readout.p0, readout.p1)]
    terms = np.diag(stderrs)
    fits = estimation._hadamard_fits(records, rows, rates,
                                     np.repeat(terms[:, None], len(rows), axis=1))
    for train, fit in zip(rows, fits):
        want, include = hadamard_per_element(records, readout.p0, readout.p1, train, terms)
        got = fit.result
        assert got.value == pytest.approx(want.value, rel=1e-12, abs=1e-15)
        assert got.stderr == pytest.approx(want.stderr, rel=1e-12, abs=1e-15)
        assert got.residual_norm == pytest.approx(want.residual_norm, rel=1e-12,
                                                  abs=residual_floor)
        assert fit.include_in_model == include


@pytest.mark.parametrize("lengths", [*LADDERS.values(), None],
                         ids=[*LADDERS, "random-even-lengths"])
def test_hadamard_stacks_match_the_per_element_oracle(lengths):
    """Stacks of five trains, with p_h from 1e-6 to 0.7, readout rates and
    their stderrs, drawn at 8192 shots, exact, or with wide target noise;
    with random lengths each train has its own, so the stack is padded. At
    exact frequencies the residual is rounding noise, so it is compared to
    1e-14."""
    rng = np.random.default_rng(len(lengths or ()))
    for trial in range(30):
        readout = ReadoutModel(float(rng.uniform(0, 0.05)), float(rng.uniform(0, 0.1)))
        stderrs = tuple(float(v) for v in rng.uniform(0.0, 0.004, size=2))
        mode = ("drawn", "exact", "wide")[trial % 3]
        rows = []
        for _ in range(5):
            ladder = lengths or sorted(rng.choice(np.arange(2, 66, 2), size=rng.integers(2, 9),
                                                  replace=False).tolist())
            p_h = 10 ** rng.uniform(-6, np.log10(0.7))
            observed = {}
            for l in ladder:
                s = hadamard_survival(l, p_h)
                f = (1 - readout.p0) * s + readout.p1 * (1 - s)
                observed[l] = {"drawn": rng.binomial(8192, f) / 8192, "exact": f,
                               "wide": f + rng.normal(0, 0.3)}[mode]
            rows.append(observed)
        _assert_hadamard_matches_oracle(rows, readout, stderrs,
                                        1e-14 if mode == "exact" else 1e-15)


@pytest.mark.parametrize("targets", [
    {2: 0.5, 4: 0.75, 8: 0.6},
    {2: 0.5, 4: 0.6, 8: 0.55},
    dict.fromkeys((2, 4, 8, 16), 1.0),
    {2: 0.9, 4: 0.95, 8: 1.0, 16: 1.025},
], ids=["double-at-0", "at-0", "at-1", "at-1-mixed"])
def test_hadamard_edge_targets_match_the_per_element_oracle(targets):
    """Targets with survival 1/2 at some lengths (a start of decay 0 there)
    or survival 1 and above (a start at or beyond p_h = 0) give the
    oracle's fit."""
    _assert_hadamard_matches_oracle([targets], ReadoutModel.ideal())


# -- fit_pcnot ---------------------------------------------------------------------

BELL_KIND = TestKind("bell", coupling=(0, 1))


def test_pcnot_forward_model_roundtrip():
    readout = ReadoutModel(0.02, 0.07)
    target = apply_readout_to_distribution(bell_frequencies(0.05), [readout] * 2)
    res = fit_pcnot(exact_records((BELL_KIND, dict(target.items()))), readout, readout)
    assert res.value == pytest.approx(0.05, abs=1e-6)
    assert res.feasible


def test_pcnot_ideal_bell():
    records = _one_row(BELL_KIND, {"00": 4096, "11": 4096}, 8192)
    res = fit_pcnot(records, ReadoutModel.ideal(), ReadoutModel.ideal())
    assert res.value == pytest.approx(0.0, abs=1e-6)


def test_pcnot_uniform_full_mixing():
    records = _one_row(BELL_KIND, {k: 2048 for k in ("00", "01", "10", "11")}, 8192)
    res = fit_pcnot(records, ReadoutModel.ideal(), ReadoutModel.ideal())
    assert res.value == pytest.approx(0.75, abs=1e-3)


def test_pcnot_degenerate_single_outcome_still_fits():
    records = _one_row(BELL_KIND, {"01": 8192}, 8192)
    res = fit_pcnot(records, ReadoutModel.ideal(), ReadoutModel.ideal())
    assert 0.0 <= res.value <= 1.0
    assert res.residual_norm > 0.1  # lack of fit is visible in diagnostics


def test_pcnot_wrong_kind():
    with pytest.raises(WrongKind):
        fit_pcnot(_one_row(TestKind("init", qubit=0), {"0": 1}, 1),
                  ReadoutModel.ideal(), ReadoutModel.ideal())


def test_bell_line_matches_readout_of_bell_frequencies():
    """The oracle's line base + s * slope, s = 2p/3 - 4p^2/9, reproduces the
    readout-transformed closed-form Bell law at every p."""
    rng = np.random.default_rng(31)
    for _ in range(100):
        rates = rng.uniform(0, 0.3, size=(2, 2))  # [[p0_j, p0_k], [p1_j, p1_k]]
        base, slope = bell_line(rates)
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
        fitted = fit_pcnot(_one_row(BELL_KIND, counts, 100000), readout_j, readout_k)

        observed = np.array([counts[k] / 100000 for k in keys])
        model = bell @ np.kron(_stochastic(readout_j), _stochastic(readout_k)).T
        ssr = ((model - observed) ** 2).sum(axis=1)
        best = int(np.argmin(ssr))
        assert abs(fitted.value - grid[best]) <= 2e-4
        assert abs(fitted.residual_norm - np.sqrt(ssr[best])) <= 1e-6


def _bell_record(freqs, shots=8192):
    return frequency_records((BELL_KIND, dict(zip(BELL_OUTCOMES, freqs)), shots))


def _pcnot_with_readout_stderrs(records, rates, stderrs) -> EstimationResult:
    """The Bell fit of a one-row table read out with rates [[p0_j, p0_k],
    [p1_j, p1_k]] whose stderrs (p0_j, p1_j, p0_k, p1_k) are independent,
    one error term of their own each."""
    sds = np.reshape(np.asarray(stderrs, dtype=float), (2, 2)).T  # [[p0_j, p0_k], [p1_j, p1_k]]
    terms = np.eye(2)[:, None, None, :] * sds[:, None, :, None]
    (fit,) = estimation._pcnot_fits(records, [0], np.asarray(rates, dtype=float)[:, None], terms)
    return fit


def test_pcnot_stderr_matches_central_differences():
    """The analytic stderr, readout terms included, equals the delta method
    over central differences of the estimator in the four frequencies and
    the four readout parameters, the frequencies being one multinomial."""
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

        res = _pcnot_with_readout_stderrs(_bell_record(observed),
                                          [[p[0], p[2]], [p[1], p[3]]], readout_stderrs)
        assert res.feasible
        grad = _central_gradient(raw, [*observed, *p], 1e-6)
        cov = np.zeros((8, 8))
        cov[:4, :4] = (np.diag(observed) - np.outer(observed, observed)) / 8192
        cov[4:, 4:] = np.diag(np.square(readout_stderrs))
        assert res.stderr == pytest.approx(math.sqrt(grad @ cov @ grad), rel=1e-4)


def test_pcnot_stderr_matches_oracle():
    """The Bell fit's stderr, a closed form in the odd-parity frequency,
    equals the oracle's on random rates, readout stderrs (zeros included)
    and Bell counts. The oracle fits the least-squares line of all four
    frequencies, read out through a Kronecker product of 2x2 channels, with
    their multinomial covariance and each readout term's line derivative
    taken as the line at that rate 1 minus at 0."""
    rng = np.random.default_rng(29)
    for _ in range(200):
        rates = rng.uniform(0, 0.3, size=(2, 2))  # [[p0_j, p0_k], [p1_j, p1_k]]
        sigmas = rng.uniform(0, 0.02, size=4) * (rng.uniform(size=4) < 0.8)
        shots = int(rng.integers(64, 100_000))
        p = rng.uniform(0, 0.5)
        base, slope = bell_line(rates)
        counts = rng.multinomial(shots, base + (2 * p / 3 - 4 * p**2 / 9) * slope)
        res = _pcnot_with_readout_stderrs(
            _one_row(BELL_KIND, dict(zip(BELL_OUTCOMES, counts.tolist())), shots), rates, sigmas)
        if res.raw_value >= 0.75:
            continue
        expected = pcnot_stderr(counts / shots, shots, rates, np.diag(sigmas))
        assert res.stderr == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("counts", [{"00": 4096, "11": 4096}, {"00": 4095, "01": 1, "11": 4096}],
                         ids=["no-odd-count", "one-odd-count"])
def test_pcnot_stderr_floors_the_odd_parity_at_one_count(counts):
    """With at most one odd-parity count the counting noise is floored at
    one count, as the oracle floors it: 0.75 / n without readout error."""
    ideal = ReadoutModel.ideal()
    res = fit_pcnot(_one_row(BELL_KIND, counts, 8192), ideal, ideal)
    observed = np.array([counts.get(k, 0) for k in BELL_OUTCOMES]) / 8192
    expected = pcnot_stderr(observed, 8192, np.zeros((2, 2)), np.zeros((4, 1)))
    assert res.stderr == pytest.approx(expected, rel=1e-12, abs=0.0)
    if "01" not in counts:
        assert res.stderr == pytest.approx(0.75 / 8192, rel=1e-12)


def test_pcnot_infeasible_s_flagged():
    """A least-squares s* below 0 gives a negative raw p, clamped to 0; one
    beyond the uniform law's 1/4 is clamped to p = 3/4. Both are flagged."""
    readout = ReadoutModel(0.05, 0.05)
    # fewer odd-parity outcomes than readout alone produces: s* < 0
    res = fit_pcnot(_one_row(BELL_KIND, {"00": 4096, "11": 4096}, 8192), readout, readout)
    assert res.raw_value < 0.0 and res.value == 0.0 and not res.feasible
    assert res.stderr > 0.0
    # only odd parity: s* = 1/2
    res = fit_pcnot(_one_row(BELL_KIND, {"01": 8192}, 8192),
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

        init = exact_records((TestKind("init", qubit=0), {"0": 1 - p0, "1": p0}))
        p0_res = estimate_p0(init)
        assert p0_res.value == pytest.approx(p0, abs=1e-6)

        g_x_0, g_xx_0 = predicted_x_test_frequencies(p0, p1, p_x)
        p1_res, px_res = solve_aro_system(_aro_records(g_x_0, g_xx_0, p0))
        assert p1_res.value == pytest.approx(p1, abs=1e-6)
        assert px_res.value == pytest.approx(p_x, abs=1e-6)

        readout = ReadoutModel(p0, p1)
        bell = apply_readout_to_distribution(bell_frequencies(p_cnot), [readout] * 2)
        pc_res = fit_pcnot(exact_records((BELL_KIND, dict(bell.items()))),
                           readout, readout)
        assert pc_res.value == pytest.approx(p_cnot, abs=1e-6)


def test_stderr_scales_inverse_sqrt_shots():
    freq = 0.0212
    results = {}
    for shots in (2**10, 2**13, 2**16):
        ones = round(freq * shots)
        records = _one_row(TestKind("init", qubit=0), {"0": shots - ones, "1": ones}, shots)
        results[shots] = estimate_p0(records).stderr
    assert results[2**10] / results[2**13] == pytest.approx(8**0.5, rel=0.05)
    assert results[2**13] / results[2**16] == pytest.approx(8**0.5, rel=0.05)


def test_clamping_never_alters_feasible_solutions():
    rng = np.random.default_rng(12)
    for _ in range(50):
        g_x_0 = float(rng.uniform(0, 0.3))
        g_xx_0 = float(rng.uniform(0.7, 1.0))
        p0 = float(rng.uniform(0, 0.1))
        p1_res, px_res = solve_aro_system(_aro_records(g_x_0, g_xx_0, p0))
        for res in (p1_res, px_res):
            if res.feasible:
                assert res.raw_value == res.value


# -- fit_composite -----------------------------------------------------------------

def test_fit_composite_roundtrip(line4, mock_backend):
    plan = build_suite(line4, shots=8192, seed=101)
    records = run_suite(plan, mock_backend)
    fit = fit_composite(records, "aro+dp")
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
    rows = []
    for qubit, scale in ((0, 8), (1, 1)):
        for test, counts in per_1024.items():
            kind = (TestKind("hseq", qubit=qubit, length=test) if isinstance(test, int)
                    else TestKind(test, qubit=qubit))
            rows.append((kind, {k: v * scale for k, v in counts.items()}, 1024 * scale))
    rows.append((BELL_KIND, {"00": 480, "01": 32, "10": 40, "11": 472}, 1024))
    fit = fit_composite(records_of(rows), "aro+dp")
    for param in ("p0", "p1", "p_x", "p_h"):
        q0, q1 = fit.estimates[f"{param}:q0"], fit.estimates[f"{param}:q1"]
        assert q1.value == q0.value
        assert q1.stderr == pytest.approx(8**0.5 * q0.stderr, rel=1e-9), param


def test_fit_composite_noiseless():
    fit = fit_composite([], "noiseless")
    assert fit.model.x_for(0) == 0.0
    assert not fit.model.readout_on and not fit.model.cnot_dp_on


@pytest.mark.parametrize("granularity", [g for g in GRANULARITIES if g != SUBSET_AVERAGE])
@pytest.mark.parametrize("subset", [(0, 1), ()])
def test_fit_config_takes_a_subset_only_for_subset_average(granularity, subset):
    """A subset goes with subset_average and only with it, so no other
    granularity can write a subset into its model or ignore it. The
    settings are checked before the table is read: a valid setting on an
    empty table meets the table's missing coverage instead."""
    with pytest.raises(ConfigError):
        fit_composite(records_of([]), granularity=granularity, subset=subset)
    for empty in (None, ()):
        with pytest.raises(ConfigError):
            fit_composite(records_of([]), granularity=SUBSET_AVERAGE, subset=empty)
    with pytest.raises(MissingCoverage):
        fit_composite(records_of([]), granularity=SUBSET_AVERAGE, subset=(1, 0))


@pytest.mark.parametrize("subset", [(-1, 0), (0, 0), (2, 1, 2)])
def test_fit_config_rejects_a_negative_or_repeated_subset_qubit(subset):
    with pytest.raises(ConfigError, match="negative or repeated"):
        fit_composite(records_of([]), granularity=SUBSET_AVERAGE, subset=subset)


def test_fit_composite_rejects_an_unknown_variant_before_the_table():
    with pytest.raises(ConfigError, match="unknown variant 'nope'"):
        fit_composite(None, "nope")


def test_fit_composite_subset_three_parameters(line4, mock_backend):
    plan = build_suite(line4, shots=8192, seed=55)
    records = run_suite(plan, mock_backend)
    fit = fit_composite(records, "aro+dp", granularity="subset_average", subset=(0, 1))
    model = fit.model
    assert model.granularity == "subset_average"
    assert model.avg_readout is not None and model.avg_cnot is not None
    # broadcast lookups work outside the subset
    assert model.readout_for(3) == model.avg_readout
    assert model.cnot_for(2, 3) == model.avg_cnot


def test_fit_composite_missing_bell_coverage(line4, mock_backend):
    plan = build_suite(line4, shots=1024, seed=5)
    records = rows_where(run_suite(plan, mock_backend), lambda t: t.kind != "bell")
    with pytest.raises(MissingCoverage) as err:
        fit_composite(records, "aro+dp")
    assert any("bell" in m for m in err.value.missing)


def test_fit_composite_sro_vs_aro_pcnot_differs(line4, mock_backend):
    """The depolarizing parameter is refit per readout variant."""
    plan = build_suite(line4, shots=8192, seed=77)
    records = run_suite(plan, mock_backend)
    sro_dp = fit_composite(records, "sro+dp")
    aro_dp = fit_composite(records, "aro+dp")
    assert sro_dp.model.cnot != aro_dp.model.cnot
    assert sro_dp.model.readout[0].is_symmetric
    assert not aro_dp.model.readout[0].is_symmetric


def test_estimation_result_invariants():
    with pytest.raises(OutOfRange):
        EstimationResult("p", value=1.2, raw_value=1.2)
    with pytest.raises(OutOfRange):
        EstimationResult("p", value=0.5, raw_value=0.5, stderr=-1.0)


# -- stacked families against the per-element oracle ---------------------------------

def _drawn(rng, kind: TestKind, shots: int, probs: dict) -> tuple:
    keys = list(probs)
    p = np.clip([probs[k] for k in keys], 0.0, None)
    draw = rng.multinomial(shots, p / p.sum())
    return kind, {k: int(n) for k, n in zip(keys, draw) if n}, shots


def _random_rows(rng, topo, lengths_of) -> list[tuple]:
    """Every test on `topo`, drawn around a random truth, as `records_of`
    rows. Qubit q's sequence tests have lengths_of(q) and, by q % 3,
    survival 1 (p_h = 0), a random
    decay, or below 1/2 (p_h = 3/4); every fourth qubit's XX frequency sits
    above its p_x = 0 ceiling (p_x clamped); Bell tests by coupling index
    show even parity only (s* < 0), odd parity only (s* >= 1/4) or a
    readout-transformed depolarized Bell law."""
    one_bit = lambda f: {"0": f, "1": 1.0 - f}
    rows, rates = [], {}
    for q in range(topo.num_qubits):
        p0, p1 = (float(v) for v in rng.uniform(0.0, 0.12, size=2))
        p_x = float(rng.uniform(0.0, 0.02))
        rates[q] = ReadoutModel(p0, p1)
        shots = int(rng.choice([1024, 4096, 8192]))
        g_x, g_xx = predicted_x_test_frequencies(p0, p1, p_x)
        if q % 4 == 3:
            g_xx = min(1.0, 1.0 - p0 + 0.01)
        for kind, f in (("init", 1.0 - p0), ("x", g_x), ("xx", g_xx)):
            rows.append(_drawn(rng, TestKind(kind, qubit=q), shots, one_bit(f)))
        p_h = float(rng.uniform(0.002, 0.05))
        for length in lengths_of(q):
            survival = hadamard_survival(length, p_h)
            observed = [1.0, (1 - p0) * survival + p1 * (1 - survival), 0.45][q % 3]
            rows.append(_drawn(rng, TestKind("hseq", qubit=q, length=length), shots,
                               one_bit(observed)))
    for index, (j, k) in enumerate(sorted(topo.undirected_edges())):
        law = apply_readout_to_distribution(bell_frequencies(float(rng.uniform(0.0, 0.1))),
                                            [rates[j], rates[k]])
        probs = [{"00": 0.5, "11": 0.5}, {"01": 0.5, "10": 0.5}, dict(law.items())][index % 3]
        rows.append(_drawn(rng, TestKind("bell", coupling=(j, k)),
                           int(rng.choice([2048, 8192])), probs))
    return rows


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
    records = records_of(_random_rows(rng, topo,
                                      lambda q: (2, 4, 8, 16) if q % 2 else (2, 8, 32)))
    for variant, (_, gate_dp) in VARIANTS.items():
        if variant == "noiseless":
            continue
        for subset in (None, (0, 2, 3, 5)):
            fit = fit_composite(records, variant, subset=subset,
                                granularity=SUBSET_AVERAGE if subset else PER_ELEMENT)
            expected, include = fit_estimates(records, variant, subset)
            _assert_matches_oracle(fit, expected)
            if not subset and gate_dp:
                assert set(fit.model.h_gate) == {q for q, keep in include.items() if keep}

    # the archive reached every regime it was built for
    fit = fit_composite(records, "aro+dp")
    p_h = [r.value for n, r in fit.estimates.items() if n.startswith("p_h")]
    pcnot = [r for n, r in fit.estimates.items() if n.startswith("p_cnot")]
    assert 0.0 in p_h and 0.75 in p_h and any(0.0 < v < 0.75 for v in p_h)
    assert any(r.raw_value < 0.0 and r.value == 0.0 for r in pcnot)  # s* < 0
    assert any(r.value == 0.75 and not r.feasible for r in pcnot)  # s* >= 1/4
    assert any(not r.feasible for n, r in fit.estimates.items() if n.startswith("p_x"))


def _flat(data: dict, path: str = "") -> dict:
    """A nested JSON dict as {path: leaf}."""
    if not isinstance(data, dict):
        return {path: data}
    return {k: v for key, value in data.items() for k, v in _flat(value, f"{path}/{key}").items()}


def _assembled(records, variant: str, granularity: str, subset) -> CompositeNoiseModel:
    """The model of a fit, assembled by hand from the per-element oracle's
    estimates and Hadamard include flags."""
    readout_mode, gate_dp = VARIANTS[variant]
    estimates, include = fit_estimates(records, variant, subset)
    value = lambda name: estimates[name].value
    qubits = sorted(int(name[len("p0:q"):]) for name in estimates if name.startswith("p0:"))
    p1 = "p1" if readout_mode == "aro" else "p0"  # sro reads p0 as both rates
    readout = {q: ReadoutModel(value(f"p0:q{q}"), value(f"{p1}:q{q}"))
               for q in qubits} if readout_mode != "off" else {}
    x_gate = {q: value(f"p_x:q{q}") for q in qubits} if gate_dp and readout_mode != "off" else {}
    h_gate = {q: value(f"p_h:q{q}") for q, keep in include.items() if keep}
    cnot = {tuple(int(q) for q in name[len("p_cnot:q"):].split("-q")): r.value
            for name, r in estimates.items() if name.startswith("p_cnot:")}
    flags = dict(readout_on=readout_mode != "off", cnot_dp_on=gate_dp, provenance="p")
    if granularity == PER_ELEMENT:
        return CompositeNoiseModel(PER_ELEMENT, readout=readout, x_gate=x_gate, h_gate=h_gate,
                                   cnot=cnot, **flags)
    mean = lambda values: float(np.mean(values)) if values else 0.0
    # without readout the average readout is ideal
    average = ReadoutModel(mean([r.p0 for r in readout.values()]),
                           mean([r.p1 for r in readout.values()]))
    return CompositeNoiseModel(granularity, subset=subset, avg_readout=average,
                               avg_x=mean(list(x_gate.values())),
                               avg_h=mean(list(h_gate.values())),
                               avg_cnot=mean(list(cnot.values())), **flags)


@pytest.mark.parametrize("seed", range(2))
def test_fit_composite_model_is_assembled_from_its_estimates(seed):
    """For every variant and granularity, the fitted model is the one built
    by hand from the per-element estimates: the per-element maps (p_x only
    with readout and gate noise, p_h only where its include flag is set, no
    readout map with readout off), or their averages, flags and subset."""
    rng = np.random.default_rng(100 + seed)
    records = records_of(_random_rows(rng, line(7),
                                      lambda q: (2, 4, 8, 16) if q % 2 else (2, 8, 32)))
    for variant in VARIANTS:
        for granularity in GRANULARITIES:
            subset = (0, 2, 3, 5) if granularity == SUBSET_AVERAGE else None
            fit = fit_composite(records, variant, granularity=granularity, subset=subset,
                                provenance="p")
            got = _flat(fit.model.to_json_dict())
            if variant == "noiseless":
                want = _flat(dict(CompositeNoiseModel.noiseless().to_json_dict(), provenance="p"))
            else:
                want = _flat(_assembled(records, variant, granularity, subset).to_json_dict())
            assert got.keys() == want.keys(), (variant, granularity)
            for path, leaf in want.items():
                if isinstance(leaf, float):
                    assert got[path] == pytest.approx(leaf, rel=1e-12, abs=1e-15), path
                else:
                    assert got[path] == leaf, (variant, granularity, path)
    # the archive reaches both include flags
    assert set(fit_estimates(records, "aro+dp")[1].values()) == {True, False}


def _edited(rows, edits: dict):
    """The table of `rows` with records replaced ({label: counts at 1024
    shots}) or dropped ({label: None})."""
    out = []
    for test, counts, shots in rows:
        if test.label not in edits:
            out.append((test, counts, shots))
        elif edits[test.label] is not None:
            out.append((test, edits[test.label], 1024))
    return records_of(out)


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
    records = _edited(_random_rows(rng, line(5), lambda q: (2, 8, 32)), edits)
    with pytest.raises(Exception) as want:
        fit_estimates(records, variant)
    with pytest.raises(type(want.value)) as got:
        fit_composite(records, variant)
    assert str(got.value) == str(want.value)
    assert getattr(got.value, "diagnostics", None) == getattr(want.value, "diagnostics", None)


def test_archive_to_fit_builds_no_counts(tmp_path, line4, mock_backend, monkeypatch):
    """`read_archive` fills the count table straight from the archive's
    count maps, and every variant fits from its columns: no `Counts` is
    built on the way."""
    plan = build_suite(line4, hadamard_lengths=(2, 4), shots=512, seed=3)
    path = tmp_path / "archive.json"
    write_json_file(path, archive_dict(plan, run_suite(plan, mock_backend)))

    def refuse(*args, **kwargs):
        raise AssertionError("a Counts was built")

    monkeypatch.setattr(Counts, "__init__", refuse)
    monkeypatch.setattr(Counts, "from_arrays", refuse)
    _, records = read_archive(path)
    for variant in VARIANTS:
        fit_composite(records, variant)


def test_fit_composite_fits_each_family_once(ladder20, monkeypatch):
    """On a 20-qubit archive with two sets of Hadamard lengths, the fit makes
    one Hadamard family call for all its trains, no eigenvalue call and no
    call into the one-element estimators."""
    plan = build_suite(ladder20, hadamard_lengths=(2, 4, 8, 16, 32), shots=256, seed=9)
    truth = MockGroundTruth(type(uniform_truth(ladder20))(
        **{**uniform_truth(ladder20).__dict__, "h_gate": dict.fromkeys(range(20), 0.004)}))
    records = rows_where(run_suite(plan, MockBackend(ladder20, truth)),
                         lambda t: not (t.kind == "hseq" and t.qubit < 8 and t.length == 32))

    def forbidden(*args, **kwargs):
        raise AssertionError("fit_composite called a one-element estimator or eigvals")

    for name in ("estimate_p0", "solve_aro_system", "estimate_hadamard_error", "fit_pcnot"):
        monkeypatch.setattr(estimation, name, forbidden)
    monkeypatch.setattr(np.linalg, "eigvals", forbidden)
    hadamard, calls = estimation._hadamard_fits, []
    monkeypatch.setattr(estimation, "_hadamard_fits",
                        lambda records, trains, *args: calls.append(len(trains))
                        or hadamard(records, trains, *args))

    fit = fit_composite(records, "aro+dp")
    assert calls == [20]
    assert len(fit.estimates) == 4 * 20 + len(ladder20.undirected_edges())
