"""Model accuracy scoring by total variation distance, model-family
comparison, threshold-driven selection, and per-cnot scaling analysis.

Model predictions are sampled at the experiment's shot count so the
finite-statistics TVD floor affects both sides symmetrically; exact
channel-averaged scoring is available for narrow circuits. A sampled score
draws its resamples as one multinomial count matrix on its (seed, SCORE)
stream, in row blocks of about 2^16 counts, and takes every row's TVD in
one array expression.
"""
from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .circuit import Circuit
from .errors import ArityMismatch, ConfigError, EmptyLadder, write_file
from .noise import CompositeNoiseModel
from .outcomes import Counts, Distribution
from .rng import SCORE, generator
from .simulator import _BLOCK_COUNTS, TrajectorySampler, simulate_noisy_exact

# Upper bound of a score's resamples, shared with the CLI's flags: a
# resample costs 8 bytes of the score's value array.
MAX_RESAMPLES = 10**6


def tvd(a: Counts | Distribution, b: Counts | Distribution) -> float:
    """Total variation distance: half the L1 gap between outcome frequencies.

    Counts are converted to exact frequencies; outcomes missing from one
    side contribute frequency zero. No bit string is formed: the two sorted
    index arrays are merged.
    """
    (ia, fa), (ib, fb) = _frequencies(a), _frequencies(b)
    if a.num_bits != b.num_bits:
        raise ArityMismatch(f"cannot compare {a.num_bits}-bit with {b.num_bits}-bit outcomes")
    pos = np.searchsorted(ia, ib)  # where each b outcome would sit among a's
    hit = ia.take(pos, mode="clip") == ib if ia.size else np.zeros(ib.size, bool)
    gap = fa.copy()
    gap[pos[hit]] -= fb[hit]
    return 0.5 * float(np.abs(gap).sum() + np.abs(fb[~hit]).sum())


def _frequencies(obj: Counts | Distribution) -> tuple[np.ndarray, np.ndarray]:
    """Outcome indices and their frequencies."""
    if isinstance(obj, Counts):
        return obj.indices, obj.values / (obj.shots or 1)
    if isinstance(obj, Distribution):
        return obj.indices, obj.values
    raise ArityMismatch(f"expected Counts or Distribution, got {type(obj).__name__}")


@dataclass(frozen=True)
class ApplicationRun:
    """An executed application circuit with its recorded counts."""

    circuit: Circuit
    counts: Counts

    def __post_init__(self):
        if self.counts.shots <= 0:
            raise ValueError("application run needs at least one shot")
        measured = len(self.circuit.measured_qubits())
        if self.counts.num_bits != measured:
            raise ArityMismatch(
                f"{self.counts.num_bits}-bit counts for a circuit measuring "
                f"{measured} bits"
            )


@dataclass(frozen=True)
class ModelScore:
    model_id: str
    tvd: float
    tvd_stderr: float
    tvd_per_cnot: float
    cnot_count: int
    n_parameters: int
    resamples: int
    sim_shots: int

    def __post_init__(self):
        if not (0.0 <= self.tvd <= 1.0):
            raise ValueError(f"tvd {self.tvd} outside [0,1]")

    def to_json_dict(self) -> dict:
        return asdict(self)


def score_model(
    run: ApplicationRun,
    model: CompositeNoiseModel,
    resamples: int = 100,
    seed: int = 0,
    exact: bool = False,
    model_id: str = "",
) -> ModelScore:
    """TVD between the run and the model's predictions.

    Sampled mode draws `resamples` count sets of the run's shot count each
    from the (seed, SCORE) stream, the same for every score and shared with
    no mock-QPU run, and reports the mean and spread of the TVD values. The
    count sets come as multinomial matrix rows, in blocks of at most
    max(1, 2^16 >> m) rows for m measured bits; the rows are exactly those
    of one draw per resample taken in turn.
    Exact mode compares against the channel-averaged distribution directly.
    `resamples` must be in [1, MAX_RESAMPLES] in either mode. The score's
    `sim_shots` is the draw size: the run's shots, or 0 when exact.
    """
    if not 1 <= resamples <= MAX_RESAMPLES:
        raise ConfigError(f"resamples must be in [1, {MAX_RESAMPLES}], got {resamples}")
    cnots = run.circuit.cnot_count
    if exact:  # one value against the law itself: no resamples, no spread
        values = [tvd(run.counts, simulate_noisy_exact(run.circuit, model))]
        resamples = shots = 0
    else:
        shots = run.counts.shots
        sampler = TrajectorySampler(run.circuit, model)
        # TVD = sum over outcomes of max(g_k - f_k, 0), the same as
        # 1 - sum_k min(f_k, g_k) but with no cancellation against 1: exactly
        # 0 for a draw equal to the run, and never negative
        run_freq = np.zeros(sampler.law.size)
        run_freq[run.counts.indices] = run.counts.values / shots
        rng = generator(seed, SCORE)
        block = min(resamples, max(1, _BLOCK_COUNTS // sampler.law.size))
        gap = np.empty((block, sampler.law.size))  # reused by every block
        values = np.empty(resamples)
        for start in range(0, resamples, block):
            rows = gap[:resamples - start]
            np.divide(sampler.sample(len(rows) * shots, rng, rows=len(rows)), shots, out=rows)
            rows -= run_freq
            np.maximum(rows, 0.0, out=rows)
            rows.sum(axis=1, out=values[start:start + len(rows)])
    mean = float(np.mean(values))
    spread = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return ModelScore(
        model_id=model_id,
        tvd=mean,
        tvd_stderr=spread,
        tvd_per_cnot=mean / max(cnots, 1),
        cnot_count=cnots,
        n_parameters=model.num_parameters(),
        resamples=resamples,
        sim_shots=shots,
    )


def compare_models(
    run: ApplicationRun,
    models: list[tuple[str, CompositeNoiseModel]],
    resamples: int = 100,
    seed: int = 0,
) -> list[ModelScore]:
    """Score every variant under an identical protocol; rank ascending by
    mean TVD, ties broken by fewer model parameters (prefer simpler)."""
    if len(models) < 1:
        raise EmptyLadder("compare_models needs at least one model")
    scores = [
        score_model(run, model, resamples=resamples, seed=seed, model_id=model_id)
        for model_id, model in models
    ]
    return sorted(scores, key=lambda s: (s.tvd, s.n_parameters, s.model_id))


@dataclass(frozen=True)
class SelectionResult:
    model_id: str
    model: CompositeNoiseModel
    score: ModelScore
    iterations: int
    threshold: float
    threshold_met: bool


def select_model(
    run: ApplicationRun,
    ladder: list[tuple[str, CompositeNoiseModel]],
    threshold: float,
    resamples: int = 100,
    seed: int = 0,
) -> SelectionResult:
    """Walk a complexity-ordered ladder of models until one meets the
    user-defined TVD threshold; otherwise return the best scorer flagged
    threshold_unmet."""
    if not ladder:
        raise EmptyLadder("model selection needs a nonempty ladder")
    best: tuple[str, CompositeNoiseModel, ModelScore] | None = None
    for iteration, (model_id, model) in enumerate(ladder, start=1):
        score = score_model(run, model, resamples=resamples, seed=seed, model_id=model_id)
        if best is None or score.tvd < best[2].tvd:
            best = (model_id, model, score)
        if score.tvd <= threshold:
            return SelectionResult(model_id, model, score, iteration, threshold, True)
    model_id, model, score = best
    return SelectionResult(model_id, model, score, len(ladder), threshold, False)


@dataclass(frozen=True)
class ScalingRow:
    n: int
    cnot_count: int
    tvd_mean: float
    tvd_std: float
    tvd_per_cnot: float


@dataclass(frozen=True)
class ScalingReport:
    rows: tuple[ScalingRow, ...]
    cv_tvd_per_cnot: float


def scaling_report(
    runs: list[ApplicationRun],
    model: CompositeNoiseModel,
    resamples: int = 100,
    seed: int = 0,
) -> ScalingReport:
    """Score one model across circuit widths and report how flat the
    cnot-normalized TVD stays (coefficient of variation)."""
    rows = []
    for run in runs:
        score = score_model(run, model, resamples=resamples, seed=seed)
        rows.append(
            ScalingRow(
                n=len(run.circuit.measured_qubits()),
                cnot_count=score.cnot_count,
                tvd_mean=score.tvd,
                tvd_std=score.tvd_stderr,
                tvd_per_cnot=score.tvd_per_cnot,
            )
        )
    rows.sort(key=lambda r: r.n)
    per_cnot = np.array([r.tvd_per_cnot for r in rows])
    cv = float(np.std(per_cnot) / np.mean(per_cnot)) if len(rows) and per_cnot.mean() > 0 else 0.0
    return ScalingReport(tuple(rows), cv)


# -- report writers -------------------------------------------------------------

def _write_csv(path: str | Path, rows) -> None:
    """Write `rows`, the header first, as `csv.writer` spells them."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    write_file(path, text.getvalue())


def write_scores_csv(path: str | Path, scores: list[ModelScore]) -> None:
    _write_csv(path, [
        ["model_id", "tvd_mean", "tvd_std", "tvd_per_cnot", "cnot_count", "n_parameters"],
        *([s.model_id, f"{s.tvd:.6f}", f"{s.tvd_stderr:.6f}", f"{s.tvd_per_cnot:.6f}",
           s.cnot_count, s.n_parameters] for s in scores),
    ])


def write_scaling_csv(path: str | Path, report: ScalingReport) -> None:
    _write_csv(path, [
        ["n", "cnot_count", "tvd_mean", "tvd_std", "tvd_per_cnot"],
        *([r.n, r.cnot_count, f"{r.tvd_mean:.6f}", f"{r.tvd_std:.6f}", f"{r.tvd_per_cnot:.6f}"]
          for r in report.rows),
    ])
