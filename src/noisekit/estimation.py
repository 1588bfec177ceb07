"""Parameter estimation from characterization records.

Every test circuit has closed-form frequencies, so every estimator is a
closed form: readout-of-0 error is a frequency, the coupled (p1, p_x)
system of the X/XX tests is solved in closed form, the cnot depolarizing
parameter is a closed form in the Bell test's odd-parity frequency, and the
Hadamard survival decay is a closed-form start from each length's own decay
plus one Fisher-scoring step, which makes it efficient without iterating.
Readout is the per-bit flip channel of `noise`, so each estimator inverts it
in closed form on its own frequencies; the Bell fit's residual reads the
fitted law out through `noise.read_out`, the channel the simulator uses.
Standard errors propagate each record's binomial counting noise (and
upstream readout stderrs) through analytic gradients (delta method);
estimates that land outside [0,1] are clamped and flagged infeasible rather
than rejected.

Every element of a family (each qubit's X/XX system or Hadamard decay, each
coupling's Bell fit) is the same closed form applied to other numbers, so
`fit_composite` fits each family once, across all its elements, as array
arithmetic; the Hadamard trains of all qubits are padded to one width.
Each family reads whole columns of the count table
(`characterization.Records`): the p0 column, the X/XX column-0 frequencies,
the Hadamard trains grouped by qubit and the Bell odd-parity column. A family's
fits are kept on the read-only table, once per key of what the family reads
(its qubits; the Hadamard and Bell fits also their readout mode), so the
fits of one table share them. The public
one-element estimators are calls into the same code on a one-row (or
one-qubit) table.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .characterization import Records, TestKind
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


def _count_variance(freq, shots):
    """A frequency's binomial variance, floored at one count."""
    return np.maximum(freq * (1.0 - freq), 1.0 / shots) / shots


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


# -- closed-form estimators, one family at a time ------------------------------------

def _rows(records: Records, kind: str, estimator: str) -> range:
    """Every row of a one-element estimator's table, all `kind` tests."""
    wrong = [test.kind for test in records.tests if test.kind != kind]
    if wrong:
        raise WrongKind(f"{estimator} needs {kind} tests, got {wrong[0]}")
    return range(len(records.tests))


def _p0_fits(records: Records, rows) -> list[EstimationResult]:
    freq = records.frequencies()[rows, 1]
    stderr = binomial_stderr(freq, records.shots[rows])
    names = [f"p0:q{records.tests[row].qubit}" for row in rows]
    return _results(names, freq, stderr, np.zeros(len(rows)))


def estimate_p0(records: Records) -> EstimationResult:
    """Readout-of-0 flip rate from a one-row table of the init-measure test:
    the observed frequency of outcome 1. Doubles as p_sro for the symmetric
    model."""
    (fit,) = _p0_fits(records, _rows(records, "init", "estimate_p0"))
    return fit


def _aro_fits(records: Records, qubits, p0: np.ndarray, p0_sd: np.ndarray):
    """(p1 results, p_x results) of the X/XX systems of the qubits, given
    their p0 estimates and stderrs as arrays over qubits. The stderrs
    propagate the binomial noise of both tests and p0's stderr."""
    freq, shots = records.frequencies(), records.shots
    x, xx = ([records.index[kind, q, None] for q in qubits] for kind in ("x", "xx"))
    g_x, g_xx = freq[x, 0], freq[xx, 0]
    sigma = np.stack([binomial_stderr(g_x, shots[x]), binomial_stderr(g_xx, shots[xx]), p0_sd],
                     axis=-1)
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
    return (_results([f"p1:q{q}" for q in qubits], p1_raw, stderr_p1, zero),
            _results([f"p_x:q{q}" for q in qubits], px_raw, stderr_px, zero))


def solve_aro_system(records: Records) -> tuple[EstimationResult, EstimationResult]:
    """Recover (p1, p_x) of one qubit from a table of its init, X and XX
    tests.

    With a = 1 - p0 and q = 2 p_x / 3 the X / XX test frequencies of
    outcome 0 are g_x = q a + p1 (1 - q) and g_xx = a - 2 q (a - g_x), so
    q = (a - g_xx) / (2 (a - g_x)) and p1 = (g_x - q a) / (1 - q), p0 being
    the init test's estimate. The stderrs propagate the three tests'
    binomial noise through the exact gradient. Raw solutions outside [0,1]
    (possible for near-noiseless registers) are clamped and flagged.
    """
    qubit = records.tests[0].qubit
    (p0,) = _p0_fits(records, [records.index["init", qubit, None]])
    (p1,), (p_x,) = _aro_fits(records, [qubit], np.array([p0.value]), np.array([p0.stderr]))
    return p1, p_x


def hadamard_survival(length: int, p_h: float) -> float:
    """Probability of the ideal outcome 0 after an even Hadamard train where
    every gate carries a depolarizing channel with parameter p_h."""
    return 0.5 + 0.5 * (1.0 - 4.0 * p_h / 3.0) ** length


@dataclass(frozen=True)
class HadamardFit:
    result: EstimationResult
    include_in_model: bool


def _hadamard_fits(records: Records, trains, rates, rate_sds) -> list[HadamardFit]:
    """One fit per train, the table rows of one qubit's sequence tests,
    train i read out with rates (p0, p1) = rates[:, i] whose stderrs are
    rate_sds[:, i]. The trains are padded to one width by repeating their
    first length, and the padding weighs nothing."""
    p0, p1, p0_sd, p1_sd = (np.asarray(v, dtype=float)[:, None] for v in (*rates, *rate_sds))
    denom = 1.0 - p0 - p1
    by_length = [{records.tests[row].length: row for row in train} for train in trains]
    lengths = [sorted(rows) for rows in by_length]
    _raise_first([
        (np.array([len(ls) < 2 for ls in lengths]), lambda i: InsufficientLengths(
            f"need >=2 distinct sequence lengths, got {lengths[i]}")),
        (np.abs(denom[:, 0]) < 1e-9, lambda _: NoConvergence(
            "readout too noisy to invert for survival correction")),
    ])
    width = max(map(len, lengths))
    padded = lambda lists: np.array([v + v[:1] * (width - len(v)) for v in lists])
    length = padded(lengths)
    rows = padded([[train[l] for l in ls] for train, ls in zip(by_length, lengths)])
    used = np.arange(width) < np.array([len(ls) for ls in lengths])[:, None]
    observed, shots = records.frequencies()[rows, 0], records.shots[rows]
    u = (observed - p1) / denom - 0.5
    slope = lambda decay: used * denom * length / 2.0 * decay ** (length - 1)  # d law / d decay
    ratio = lambda a, b, where: np.divide(a, b, out=np.zeros_like(a), where=where)

    # start: each length's decay (2 u)^(1/L), weighted by its delta-method
    # inverse variance
    own = np.maximum(2.0 * u, 0.0) ** (1.0 / length)
    weight = slope(own) ** 2 / _count_variance(observed, shots)
    total = weight.sum(axis=1)
    start = np.clip(ratio(_dot(weight, own), total, total > 0.0), 0.0, 1.0)[:, None]

    # one scoring step from it, under the lengths' covariance: their binomial
    # variance plus the readout error that every length shares
    survival = 0.5 + 0.5 * start**length
    law = p1 + denom * survival
    shared = used[..., None] * np.stack([p0_sd * survival, p1_sd * (1.0 - survival)], axis=-1)
    cov = shared @ shared.swapaxes(1, 2)
    cov[:, range(width), range(width)] += np.where(used, _count_variance(law, shots), 1.0)
    g = slope(start)
    solved = np.linalg.solve(cov, np.stack([g, used * (observed - law)], axis=-1))
    info, score = (g[:, None, :] @ solved)[:, 0].T
    decay = np.clip(start[:, 0] + ratio(score, info, info > 0.0), 0.0, 1.0)
    value = 0.75 * (1.0 - decay)
    inside = (0.0 < value) & (value < 0.75)
    stderr = ratio(np.full_like(info, 0.75), np.sqrt(info), inside)
    residual = _norm(used * (0.5 * decay[:, None] ** length - u))

    fits = _results([f"p_h:q{records.tests[train[0]].qubit}" for train in trains], value,
                    stderr, residual)
    include = (10.0 * stderr < value) & (value < 0.75)
    return [HadamardFit(fit, flag) for fit, flag in zip(fits, include.tolist())]


def estimate_hadamard_error(records: Records, readout: ReadoutModel) -> HadamardFit:
    """Per-gate Hadamard depolarizing rate from a table of one qubit's
    even-length sequence tests, given the qubit's readout rates (taken as
    exact here; `fit_composite` also passes their stderrs).

    The frequency of 0 after a train of length L is
    law_L = p1 + (1 - p0 - p1) (1/2 + r^L / 2), with decay r = 1 - 4p/3.
    Every length is even, so p and 3/2 - p give the same law, and the fit
    keeps p in [0, 3/4], i.e. r in [0, 1]. Each length alone gives the
    decay (2 u_L)^(1/L), u_L being its readout-corrected survival minus
    1/2; the start averages these with their delta-method inverse
    variances. One Fisher-scoring step from the start then makes the
    estimate efficient to first order: r += g' C^-1 (f - law) / g' C^-1 g,
    with g = d law / dr and C the lengths' covariance, each length's
    binomial variance (floored at one count) plus the readout stderrs'
    shared terms sd0^2 S S' + sd1^2 (1 - S)(1 - S)', S the survivals. The
    stderr is 0.75 / sqrt(g' C^-1 g). On the bounds p = 0 and p = 3/4 the
    fit does not move with the data, so no stderr is reported and the
    channel is left out of the model; inside, the include flag drops the
    channel when the rate is indistinguishable from zero (<= 10 stderr).
    The residual norm is the corrected survivals' misfit at the estimate.
    """
    train = _rows(records, "hseq", "estimate_hadamard_error")
    return _hadamard_fits(records, [train], [[readout.p0], [readout.p1]], np.zeros((2, 1)))[0]


BELL_OUTCOMES = ("00", "01", "10", "11")


def _pcnot_fits(records: Records, rows, rates: np.ndarray,
                rate_sds: np.ndarray) -> list[EstimationResult]:
    """Bell fits of the couplings of table `rows`, coupling i read out with
    rates (p0, p1) = rates[:, i] over its bits (j, k), whose stderrs are
    rate_sds[:, i]; both have shape (2, couplings, 2)."""
    p0, p1 = rates
    a, c = 1.0 - p0 - p1, p1 - p0  # each bit reads its z = +-1 out as a z + c on average
    gain = a[:, 0] * a[:, 1]
    if (np.abs(gain) < 5e-10).any():
        raise NoConvergence("readout too noisy to resolve the Bell test")
    freq, shots = records.frequencies()[rows], records.shots[rows]
    odd = freq[:, 1] + freq[:, 2]
    # the parity z_j z_k reads out as gain * t + c_j c_k
    t = (1.0 - 2.0 * odd - c[:, 0] * c[:, 1]) / gain
    mixed = t <= 0.0  # at or beyond the most-mixed Bell law: p = 3/4, no stderr
    root = np.sqrt(np.where(mixed, 1.0, t))

    # gain * dt / d(p0, p1) of each bit is t a + c and t a - c of the other bit
    t_a, c_other = t[:, None] * a[:, ::-1], c[:, ::-1]
    readout_terms = np.stack([t_a + c_other, t_a - c_other]) * rate_sds
    var = (4.0 * _count_variance(odd, shots) + (readout_terms**2).sum(axis=(0, 2))) / gain**2

    fitted = (np.clip(t, 0.0, 1.0)[:, None] * [1.0, -1.0, -1.0, 1.0] + 1.0) / 4.0
    read_out(fitted, p0, p1)
    names = [f"p_cnot:q{j}-q{k}" for j, k in (records.tests[row].coupling for row in rows)]
    return _results(names, np.where(mixed, 0.75, 0.75 * (1.0 - root)),
                    np.where(mixed, 0.0, 0.375 / root * np.sqrt(var)),
                    _norm(freq - fitted), flagged=mixed & (t != 0.0))


def fit_pcnot(
    records: Records,
    readout_j: ReadoutModel,
    readout_k: ReadoutModel,
    readout_stderrs: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0),
) -> EstimationResult:
    """Cnot depolarizing rate from a one-row table of a Bell-state test.

    Before readout the Bell law is (1 + t z_j z_k) / 4 over z = +-1, with
    t = (1 - 4p/3)^2. Readout maps each bit's z to a z + c on average, with
    a = 1 - p0 - p1 and c = p1 - p0, so the odd-parity frequency f_odd =
    f01 + f10 gives t = (1 - 2 f_odd - c_j c_k) / (a_j a_k) and
    p = 3/4 (1 - sqrt(t)). This is the least-squares fit of all four
    frequencies, whose read-out slope in t is parallel to the parity
    contrast. A t > 1 gives a negative raw p, clamped to 0 and flagged; a
    t < 0 lies beyond the most-mixed Bell law, so p is clamped to 3/4 and
    flagged. The stderr propagates f_odd's binomial variance (floored at one
    count) and the four readout stderrs (p0_j, p1_j, p0_k, p1_k) through
    dp/dt; at p = 3/4, where dp/dt diverges, no stderr is reported. The
    residual norm is the four frequencies' misfit at the fitted law.
    """
    rates = np.array([[[readout_j.p0, readout_k.p0]], [[readout_j.p1, readout_k.p1]]])
    rate_sds = np.reshape(np.array(readout_stderrs, dtype=float), (2, 2)).T[:, None]
    (fit,) = _pcnot_fits(records, _rows(records, "bell", "fit_pcnot"), rates, rate_sds)
    return fit

# -- composite orchestration ----------------------------------------------------

@dataclass(frozen=True)
class CompositeFit:
    model: CompositeNoiseModel
    estimates: dict[str, EstimationResult] = field(default_factory=dict)
    variant: str = "aro+dp"

    def diagnostics_dict(self) -> dict:
        return {
            "variant": self.variant,
            # vars, not dataclasses.asdict: asdict deep-copies every field
            "parameters": {
                name: {k: v for k, v in vars(r).items() if k != "name"}
                for name, r in sorted(self.estimates.items())
            },
        }


def _once(key: tuple, fit, records: Records, *args):
    """`fit(records, *args)` on the first call for this table and key, kept
    on the table (which never changes) for every later call; a fit that
    raises is not kept, so it raises again."""
    if key not in records._fits:
        records._fits[key] = fit(records, *args)
    return records._fits[key]


def fit_composite(records: Records, variant: str = "aro+dp", *, granularity: str = PER_ELEMENT,
                  subset: tuple[int, ...] | None = None, provenance: str = "") -> CompositeFit:
    """Compose a noise model from a table of characterization records.

    Per qubit: p0 from the init column, (p1, p_x) from the X/XX system and,
    with gate depolarizing, p_h from the Hadamard train if the table has
    one. Per coupling: p_cnot from the Bell odd-parity column, read out with
    the variant's own readout model, so e.g. the SRO+DP and ARO+DP
    depolarizing parameters differ. Averaged
    granularities fit per element first and then average the parameters;
    only subset_average takes a subset. The settings are checked first.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; pick from {sorted(VARIANTS)}")
    if granularity == SUBSET_AVERAGE and not subset:
        raise ConfigError("subset_average fitting requires a nonempty subset")
    if subset is not None and granularity != SUBSET_AVERAGE:
        raise ConfigError("a subset applies only to subset_average fitting")
    if subset and (min(subset) < 0 or len(set(subset)) < len(subset)):
        raise ConfigError(f"subset {subset} has a negative or repeated qubit")
    readout_mode, gate_dp = VARIANTS[variant]
    if variant == "noiseless":
        model = replace(CompositeNoiseModel.noiseless(), provenance=provenance)
        return CompositeFit(model, {}, variant)

    # the table's index gives each qubit's rows; the Bell rows by their
    # coupling as recorded, and the Hadamard trains by qubit; what the fit
    # covers is read from it
    index = records.index
    bells = {records.tests[row].coupling: row for (kind, *_), row in index.items()
             if kind == "bell"}
    trains: dict[int, list[int]] = {}
    for (kind, qubit, _), row in index.items():
        if kind == "hseq":
            trains.setdefault(qubit, []).append(row)
    couplings = sorted(bells)
    if subset:
        qubits = sorted(subset)
        couplings = [c for c in couplings if c[0] in subset and c[1] in subset]
    else:
        qubits = sorted({q for kind, q, _ in index if kind in ("init", "x", "xx")} | trains.keys()
                        | {q for c in couplings for q in c})

    need_x_system = readout_mode == "aro" or gate_dp
    needed = [("init", q) for q in qubits]
    if need_x_system:
        needed += [(kind, q) for q in qubits for kind in ("x", "xx")]
    missing = [TestKind(kind, qubit=q).label for kind, q in needed if (kind, q, None) not in index]
    if gate_dp and not couplings:
        missing.append("bell:<any coupling>")
    if missing:
        raise MissingCoverage(
            "characterization does not cover the requested fit: " + ", ".join(missing),
            missing,
        )

    # Each family is fitted once, across all its elements, and once per
    # table for the key of what it reads; index i of every per-qubit array
    # is qubits[i].
    key = tuple(qubits)
    p0_fits = _once(("p0", key), _p0_fits, records, [index["init", q, None] for q in qubits])
    p0 = np.array([r.value for r in p0_fits])
    p0_sd = np.array([r.stderr for r in p0_fits])
    per_qubit = [p0_fits]
    if need_x_system:
        p1_fits, px_fits = _once(("x", key), _aro_fits, records, qubits, p0, p0_sd)
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

    readout_on = readout_mode != "off"
    x_map = {q: r.value for q, r in zip(qubits, px_fits)} if gate_dp and readout_on else {}
    h_map, cnot_map = {}, {}
    if gate_dp:
        rows = [i for i, q in enumerate(qubits) if q in trains]
        # a suite planned without Hadamard trains has no Hadamard family
        fits = rows and _once(("hseq", key, readout_mode), _hadamard_fits, records,
                              [trains[qubits[i]] for i in rows], rates[:, rows], rate_sds[:, rows])
        estimates.update((fit.result.name, fit.result) for fit in fits)
        h_map = {qubits[i]: fit.result.value
                 for i, fit in zip(rows, fits) if fit.include_in_model}
        position = {q: i for i, q in enumerate(qubits)}
        pair = np.array([[position[j], position[k]] for j, k in couplings])
        pcnot_fits = _once(
            ("bell", key, tuple(couplings), readout_mode), _pcnot_fits,
            records, [bells[c] for c in couplings], rates[:, pair], rate_sds[:, pair])
        estimates.update((r.name, r) for r in pcnot_fits)
        cnot_map = {c: r.value for c, r in zip(couplings, pcnot_fits)}

    if granularity == PER_ELEMENT:
        readout = {q: ReadoutModel(*r) for q, r in zip(qubits, rates.T.tolist())}
        elements = dict(readout=readout if readout_on else {}, x_gate=x_map, h_gate=h_map,
                        cnot=cnot_map)
    else:
        # the readout rows are zeros when readout is off
        mean = lambda values: float(np.mean(list(values))) if len(values) else 0.0
        elements = dict(subset=tuple(qubits) if subset else None,
                        avg_readout=ReadoutModel(*map(mean, rates.tolist())),
                        avg_x=mean(x_map.values()), avg_h=mean(h_map.values()),
                        avg_cnot=mean(cnot_map.values()))
    model = CompositeNoiseModel(granularity=granularity, readout_on=readout_on,
                                cnot_dp_on=gate_dp, provenance=provenance, **elements)
    return CompositeFit(model, estimates, variant)
