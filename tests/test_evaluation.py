import itertools
import tracemalloc

import numpy as np
import pytest

from noisekit.applications import build_ghz
from noisekit.backend import MockBackend, MockGroundTruth
from noisekit.characterization import build_suite, run_suite
from noisekit.devices import jittered_truth, line, uniform_truth
from noisekit.circuit import Circuit, h, measure
from noisekit.errors import ArityMismatch, ConfigError, EmptyLadder
from noisekit.estimation import fit_composite
from noisekit.evaluation import (
    MAX_RESAMPLES,
    ApplicationRun,
    ModelScore,
    compare_models,
    scaling_report,
    score_model,
    select_model,
    tvd,
    write_scaling_csv,
    write_scores_csv,
)
from noisekit.noise import CompositeNoiseModel, ReadoutModel
from noisekit.outcomes import Counts, Distribution
from noisekit.rng import SCORE, generator
from noisekit.simulator import TrajectorySampler
from tvd_oracle import tvd_by_keys

NOISELESS = CompositeNoiseModel.noiseless()


# -- tvd -------------------------------------------------------------------------

def test_tvd_identical_is_zero():
    d = Distribution({"00": 0.5, "11": 0.5})
    assert tvd(d, d) == 0.0


def test_tvd_disjoint_supports_is_one():
    assert tvd(Distribution({"00": 1.0}), Distribution({"11": 1.0})) == 1.0


def test_tvd_frozen_example():
    a = Distribution({"00": 0.5, "11": 0.5})
    b = Distribution({"00": 0.4, "11": 0.4, "01": 0.1, "10": 0.1})
    assert tvd(a, b) == pytest.approx(0.2, abs=1e-15)


def test_tvd_counts_and_distributions_mix():
    counts = Counts({"00": 4096, "11": 4096}, 8192)
    assert tvd(counts, Distribution({"00": 0.5, "11": 0.5})) == 0.0


def test_tvd_arity_mismatch():
    with pytest.raises(ArityMismatch):
        tvd(Distribution({"0": 1.0}), Distribution({"00": 1.0}))


def test_tvd_metric_properties():
    """Bounds, zero-iff-equal, symmetry, triangle inequality on random
    3-outcome distribution triples."""
    rng = np.random.default_rng(99)
    keys = ("00", "01", "10")
    for _ in range(1000):
        a, b, c = (
            Distribution(dict(zip(keys, map(float, rng.dirichlet(np.ones(3))))))
            for _ in range(3)
        )
        ab, ba = tvd(a, b), tvd(b, a)
        bc, ac = tvd(b, c), tvd(a, c)
        assert 0.0 <= ab <= 1.0
        assert abs(ab - ba) <= 1e-12
        assert ac <= ab + bc + 1e-12
        assert tvd(a, a) <= 1e-12


def test_tvd_zero_only_for_equal():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        keys = ("00", "01", "10", "11")
        a = Distribution(dict(zip(keys, map(float, p))))
        b = Distribution(dict(zip(keys, map(float, q))))
        if tvd(a, b) == 0.0:
            assert np.allclose(p, q)


def test_tvd_relabel_invariance():
    rng = np.random.default_rng(8)
    keys = ["00", "01", "10", "11"]
    for _ in range(20):
        p = dict(zip(keys, map(float, rng.dirichlet(np.ones(4)))))
        q = dict(zip(keys, map(float, rng.dirichlet(np.ones(4)))))
        base = tvd(Distribution(p), Distribution(q))
        perm = list(rng.permutation(keys))
        relabel = dict(zip(keys, perm))
        pp = {relabel[k]: v for k, v in p.items()}
        qq = {relabel[k]: v for k, v in q.items()}
        assert tvd(Distribution(pp), Distribution(qq)) == pytest.approx(base, abs=1e-12)


def _random_side(rng, kind, num_bits, support, shots):
    """Counts or a Distribution on the ascending `support`, built from index
    arrays or, half the time, as its string-built twin."""
    weights = rng.dirichlet(np.ones(support.size))
    if kind == "counts":
        obj = Counts.from_arrays(num_bits, support, rng.multinomial(shots, weights), shots)
        return Counts(obj.counts, shots) if rng.random() < 0.5 else obj
    obj = Distribution.from_arrays(num_bits, support, weights)
    return Distribution(obj.probs, num_bits) if rng.random() < 0.5 else obj


def _random_shots(rng, power_of_two):
    return int(2 ** rng.integers(0, 17)) if power_of_two else int(rng.integers(1, 100_000))


@pytest.mark.parametrize("kinds", [("counts", "counts"), ("counts", "dist"),
                                   ("dist", "counts"), ("dist", "dist")])
def test_tvd_matches_dict_oracle(kinds):
    """The array merge against the dict formula on random pairs: widths 0-14
    bits and a few wide ones up to the 63-bit limit, disjoint and overlapping
    supports of up to 64 outcomes, unequal shots. Exact where every frequency
    is a dyadic fraction (two Counts at power-of-two shots), else within
    1e-15."""
    rng = np.random.default_rng(sum(map(ord, "".join(kinds))))
    for trial in range(400):
        num_bits = int(rng.choice([*range(15), 31, 48, 63]))
        size = int(rng.integers(2, 65))
        if num_bits < 15:
            pool = rng.choice(1 << num_bits, size=min(1 << num_bits, size), replace=False)
        else:
            pool = rng.permutation(np.unique(rng.integers(0, 1 << num_bits, size=size)))
        if trial % 2 and pool.size > 1:  # disjoint supports
            cut = int(rng.integers(1, pool.size))
            supports = pool[:cut], pool[cut:]
        else:  # overlapping supports
            supports = tuple(rng.choice(pool, size=int(rng.integers(1, pool.size + 1)),
                                        replace=False) for _ in range(2))
        dyadic = bool(trial % 3)
        a, b = (_random_side(rng, kind, num_bits, np.sort(support), _random_shots(rng, dyadic))
                for kind, support in zip(kinds, supports))
        want = tvd_by_keys(a, b)
        if dyadic and kinds == ("counts", "counts"):
            assert tvd(a, b) == want, (trial, a, b)
        else:
            assert abs(tvd(a, b) - want) <= 1e-15, (trial, a, b)


def test_tvd_zero_bit_and_empty_counts():
    """0-bit outcomes carry the one empty key; zero-shot counts have no
    frequencies at all."""
    cases = [
        (Counts({"": 5}, 5), Distribution({"": 1.0}), 0.0),
        (Counts({"": 5}, 5), Counts({"": 3}, 3), 0.0),
        (Counts({}, 0), Counts({}, 0), 0.0),
        (Counts({}, 0), Distribution({"": 1.0}), 0.5),
        (Counts({}, 0), Counts({"": 2}, 2), 0.5),
        (Counts({"0": 0}, 0), Distribution({"1": 1.0}), 0.5),
    ]
    for a, b, want in cases:
        assert tvd(a, b) == tvd_by_keys(a, b) == want, (a, b)
        assert tvd(b, a) == want, (b, a)


@pytest.mark.parametrize("a, b", [
    (Counts({"0": 3}, 3), Counts({"00": 3}, 3)),
    (Counts({"01": 3}, 3), Distribution({"1": 1.0})),
    (Distribution({"": 1.0}), Counts({"1": 2}, 2)),
    (Counts({}, 0), Distribution({"0": 1.0})),
    (Distribution.from_arrays(3, [5], [1.0]), Distribution.from_arrays(2, [1], [1.0])),
])
def test_tvd_arity_mismatch_matches_oracle(a, b):
    for metric in (tvd, tvd_by_keys):
        with pytest.raises(ArityMismatch):
            metric(a, b)
    with pytest.raises(ArityMismatch):
        tvd(a, {"0": 1.0})


# -- ApplicationRun / ModelScore ----------------------------------------------------

def test_application_run_invariants(bell_circuit):
    with pytest.raises(ValueError):
        ApplicationRun(bell_circuit, Counts({}, 0))
    with pytest.raises(ArityMismatch):
        ApplicationRun(bell_circuit, Counts({"0": 10}, 10))


def test_model_score_tvd_is_a_distance():
    fields = dict(model_id="m", tvd_stderr=0.0, tvd_per_cnot=0.0, cnot_count=1,
                  n_parameters=0, resamples=1, sim_shots=1)
    assert ModelScore(tvd=1.0, **fields).tvd == 1.0
    with pytest.raises(ValueError, match=r"tvd 1.5 outside \[0,1\]"):
        ModelScore(tvd=1.5, **fields)


# -- score_model --------------------------------------------------------------------

def _bell_run(truth_model, shots=8192, seed=5):
    topo = line(2)
    backend = MockBackend(topo, MockGroundTruth(truth_model))
    circuit = build_ghz(2, topo)
    counts = backend.run([circuit], shots, seed)[0]
    return ApplicationRun(circuit, counts)


def test_score_noiseless_model_on_noiseless_run():
    run = _bell_run(NOISELESS)
    score = score_model(run, NOISELESS, resamples=40, seed=1)
    assert score.tvd <= 0.02  # sampling floor only
    assert score.cnot_count == 1
    assert score.tvd_per_cnot == score.tvd


def test_score_self_consistency_floor():
    truth = uniform_truth(line(2))
    run = _bell_run(truth, shots=100_000)
    score = score_model(run, truth, resamples=20, seed=2)
    assert score.tvd <= 0.02


def test_score_exact_mode():
    truth = uniform_truth(line(2))
    run = _bell_run(truth, shots=100_000)
    score = score_model(run, truth, exact=True)
    assert score.resamples == 0
    assert score.tvd <= 0.01
    assert score.tvd_stderr == 0.0


def test_score_per_cnot_normalization():
    topo = line(5)
    truth = uniform_truth(topo)
    backend = MockBackend(topo, MockGroundTruth(truth))
    circuit = build_ghz(5, topo)
    counts = backend.run([circuit], 8192, 3)[0]
    score = score_model(ApplicationRun(circuit, counts), truth, resamples=20, seed=4)
    assert score.cnot_count == 4
    assert score.tvd_per_cnot == pytest.approx(score.tvd / 4)


def _random_truth(rng, topo):
    return uniform_truth(topo, p0=rng.uniform(0, 0.1), p1=rng.uniform(0, 0.1),
                         p_x=rng.uniform(0, 0.02), p_cnot=rng.uniform(0, 0.1))


def test_sampled_score_matches_tvd_oracle():
    """Sampled scoring is the mean and ddof=1 spread of `tvd` between the run
    and each resample's draw of the run's shots, on random widths 1-8,
    models, seeds and run shots; a third of the cases score the noiseless
    model, which never produces most outcomes a noisy run holds."""
    rng = np.random.default_rng(17)
    unproduced = 0
    for trial in range(60):
        n = int(rng.integers(1, 9))
        topo = line(n)
        circuit = (Circuit(1, 1, (h(0), measure(0, 0)), "h:q0") if n == 1
                   else build_ghz(n, topo))
        run_shots = int(rng.integers(1, 5000))
        backend = MockBackend(topo, MockGroundTruth(_random_truth(rng, topo)))
        run = ApplicationRun(circuit, backend.run([circuit], run_shots, trial)[0])
        model = NOISELESS if trial % 3 == 0 else _random_truth(rng, topo)
        resamples, seed = int(rng.integers(1, 12)), int(rng.integers(0, 2**40))

        score = score_model(run, model, resamples=resamples, seed=seed)
        sampler = TrajectorySampler(circuit, model)
        stream = generator(seed, SCORE)
        values = [tvd(run.counts, sampler.sample(run_shots, stream)) for _ in range(resamples)]
        assert score.tvd == pytest.approx(np.mean(values), rel=0, abs=1e-12)
        spread = np.std(values, ddof=1) if resamples > 1 else 0.0
        assert score.tvd_stderr == pytest.approx(spread, rel=0, abs=1e-12)
        assert (score.resamples, score.sim_shots) == (resamples, run_shots)
        unproduced += bool((sampler.law[run.counts.indices] == 0).any())
    assert unproduced >= 5


def test_sampled_score_of_a_draw_against_itself_is_zero():
    """A run equal to the first resample's draw (the first draw on the
    score's stream) scores exactly 0 on it, and the second resample, the
    next draw on that stream, scores what `tvd` gives it."""
    rng = np.random.default_rng(23)
    for n in range(1, 9):
        topo = line(n)
        circuit = (Circuit(1, 1, (h(0), measure(0, 0)), "h:q0") if n == 1
                   else build_ghz(n, topo))
        model = _random_truth(rng, topo)
        shots, seed = int(rng.integers(1, 10_000)), int(rng.integers(0, 2**40))
        sampler = TrajectorySampler(circuit, model)
        stream = generator(seed, SCORE)
        run = ApplicationRun(circuit, sampler.sample(shots, stream))
        assert score_model(run, model, resamples=1, seed=seed).tvd == 0.0
        second = tvd(run.counts, sampler.sample(shots, stream))
        score = score_model(run, model, resamples=2, seed=seed)
        assert score.tvd == pytest.approx(second / 2, rel=0, abs=1e-15)


def test_score_streams_are_not_the_runs_streams():
    """A mock-QPU run and a score with the same seed draw on different
    streams: with the model equal to the truth, no resample reproduces the
    run and scores exactly 0."""
    topo = line(3)
    truth = jittered_truth(topo, 7)
    circuit = build_ghz(3, topo)
    counts = MockBackend(topo, MockGroundTruth(truth)).run([circuit], 8192, 7)[0]
    run = ApplicationRun(circuit, counts)
    # each score's resamples are the first ones of the next score's, so
    # resample r scores r * mean_r - (r - 1) * mean_(r-1)
    totals = [r * score_model(run, truth, resamples=r, seed=7).tvd for r in range(1, 6)]
    for r, value in enumerate(np.diff(totals, prepend=0.0)):
        assert value > 1e-12, (r, value)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("protocol", [dict(resamples=MAX_RESAMPLES + 1)], ids=["resamples"])
def test_score_rejects_a_protocol_above_its_bounds(protocol, exact):
    run = _bell_run(NOISELESS, shots=64)
    with pytest.raises(ConfigError):
        score_model(run, NOISELESS, exact=exact, **protocol)


def _ghz_run(n: int, shots: int) -> tuple[ApplicationRun, CompositeNoiseModel]:
    topo = line(n)
    truth = jittered_truth(topo, n)
    circuit = build_ghz(n, topo)
    return ApplicationRun(circuit, MockBackend(topo, MockGroundTruth(truth)).run(
        [circuit], shots, n)[0]), truth


def test_sampled_score_across_draw_blocks_matches_tvd_oracle():
    """At 14 measured bits a score draws 2^16 >> 14 = 4 resamples per
    block; 33 resamples span nine blocks and still score one `tvd` per draw
    in turn. A power-of-two shot count makes every frequency, gap and
    partial sum exact, so the two sums agree to the last bit."""
    run, truth = _ghz_run(14, 1024)
    sampler = TrajectorySampler(run.circuit, truth)
    stream = generator(5, SCORE)
    values = [tvd(run.counts, sampler.sample(1024, stream)) for _ in range(33)]
    score = score_model(run, truth, resamples=33, seed=5)
    assert (score.tvd, score.tvd_stderr) == (np.mean(values), np.std(values, ddof=1))


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampled_score_draw_memory_does_not_grow_with_resamples():
    """200 resamples of 2^14 outcomes would be a 26 MB count matrix. Drawn
    in blocks of 4 rows, a score peaks at about one block's counts and
    frequencies, as it does with 16 resamples: only the value array grows."""
    run, truth = _ghz_run(14, 8192)
    one_block = _peak_bytes(lambda: score_model(run, truth, resamples=16, seed=1))
    peak = _peak_bytes(lambda: score_model(run, truth, resamples=200, seed=1))
    assert peak < 200 * 2**14 * 8 / 4, peak
    assert peak < one_block + 64 * 1024, (peak, one_block)


# -- compare_models -----------------------------------------------------------------

def _fitted_variants(topo, truth, shots=8192, seed=11):
    backend = MockBackend(topo, MockGroundTruth(truth))
    plan = build_suite(topo, shots=shots, seed=seed)
    records = run_suite(plan, backend)
    return {
        v: fit_composite(records, v).model
        for v in ("noiseless", "sro", "aro", "dp", "sro+dp", "aro+dp")
    }


def test_compare_models_aro_dp_wins_on_asymmetric_truth():
    topo = line(2)
    truth = uniform_truth(topo, p0=0.02, p1=0.07, p_x=0.0033, p_cnot=0.05)
    variants = _fitted_variants(topo, truth)
    run = _bell_run(truth, seed=21)
    scores = compare_models(run, list(variants.items()), resamples=60, seed=9)
    assert scores[0].model_id == "aro+dp"
    assert scores[-1].model_id == "noiseless"


def test_compare_models_needs_a_model():
    with pytest.raises(EmptyLadder, match="at least one model"):
        compare_models(_bell_run(NOISELESS), [])


def test_compare_models_singleton():
    run = _bell_run(NOISELESS)
    scores = compare_models(run, [("only", NOISELESS)], resamples=10, seed=0)
    assert len(scores) == 1 and scores[0].model_id == "only"


def test_compare_models_tie_broken_by_parameter_count():
    run = _bell_run(uniform_truth(line(2)))
    rich = CompositeNoiseModel(
        granularity="register_average",
        avg_readout=ReadoutModel(0.0212, 0.0681),
        avg_x=0.0033, avg_h=0.0, avg_cnot=0.02,
    )
    poor = CompositeNoiseModel(
        granularity="register_average",
        avg_readout=ReadoutModel.symmetric(0.0212),
        avg_x=0.0, avg_h=0.0, avg_cnot=0.02,
        )
    # identical dynamics are not required for the tie rule; force a tie by
    # scoring the same model object under two ids
    scores = compare_models(run, [("b-rich", rich), ("a-rich", rich)],
                            resamples=10, seed=5)
    assert scores[0].tvd == scores[1].tvd
    assert scores[0].model_id == "a-rich"  # equal params: id breaks the tie
    assert poor.num_parameters() < rich.num_parameters()


def test_compare_models_order_invariant():
    topo = line(2)
    truth = uniform_truth(topo)
    variants = _fitted_variants(topo, truth, seed=13)
    run = _bell_run(truth, seed=31)
    items = list(variants.items())
    a = compare_models(run, items, resamples=20, seed=3)
    b = compare_models(run, list(reversed(items)), resamples=20, seed=3)
    assert [s.model_id for s in a] == [s.model_id for s in b]
    assert [s.tvd for s in a] == [s.tvd for s in b]


# -- select_model -------------------------------------------------------------------

def test_select_trivial_threshold():
    run = _bell_run(uniform_truth(line(2)))
    ladder = [("sro", NOISELESS), ("aro", NOISELESS)]
    sel = select_model(run, ladder, threshold=1.0, resamples=5, seed=0)
    assert sel.model_id == "sro" and sel.iterations == 1 and sel.threshold_met


def test_select_unattainable_threshold():
    truth = uniform_truth(line(2))
    run = _bell_run(truth)
    ladder = [("noiseless", NOISELESS), ("truth", truth)]
    sel = select_model(run, ladder, threshold=1e-12, resamples=10, seed=1)
    assert not sel.threshold_met
    assert sel.model_id == "truth"  # best scorer returned
    assert sel.iterations == 2


def test_select_empty_ladder():
    run = _bell_run(NOISELESS)
    with pytest.raises(EmptyLadder):
        select_model(run, [], threshold=0.5)


def test_select_walks_ladder_on_mock_ghz():
    topo = line(6)
    truth = uniform_truth(topo)
    backend = MockBackend(topo, MockGroundTruth(truth))
    plan = build_suite(topo, shots=8192, seed=17)
    records = run_suite(plan, backend)
    ladder = [
        (v, fit_composite(records, v).model)
        for v in ("sro", "aro", "sro+dp", "aro+dp")
    ]
    circuit = build_ghz(6, topo)
    run = ApplicationRun(circuit, backend.run([circuit], 8192, 23)[0])
    sel = select_model(run, ladder, threshold=0.05, resamples=30, seed=2)
    assert sel.threshold_met
    assert sel.score.tvd <= 0.05
    assert 1 <= sel.iterations <= 4


# -- scaling_report -----------------------------------------------------------------

def _ghz_runs(topo, truth, ns, shots=8192, seed=41):
    backend = MockBackend(topo, MockGroundTruth(truth))
    circuits = [build_ghz(n, topo) for n in ns]
    counts = backend.run(circuits, shots, seed)
    return [ApplicationRun(c, k) for c, k in zip(circuits, counts)]


def test_scaling_single_point_cv_zero():
    topo = line(3)
    truth = uniform_truth(topo)
    runs = _ghz_runs(topo, truth, [3])
    report = scaling_report(runs, truth, resamples=10, seed=1)
    assert report.cv_tvd_per_cnot == 0.0
    assert report.rows[0].n == 3 and report.rows[0].cnot_count == 2


def test_scaling_noiseless_model_tvd_grows_with_n():
    topo = line(8)
    truth = uniform_truth(topo)
    runs = _ghz_runs(topo, truth, [2, 5, 8])
    report = scaling_report(runs, NOISELESS, resamples=15, seed=6)
    tvds = [r.tvd_mean for r in report.rows]
    assert tvds[0] < tvds[1] < tvds[2]


def test_scaling_csv_columns(tmp_path):
    topo = line(3)
    truth = uniform_truth(topo)
    report = scaling_report(_ghz_runs(topo, truth, [2, 3]), truth,
                            resamples=5, seed=2)
    path = tmp_path / "scaling.csv"
    write_scaling_csv(path, report)
    header = path.read_text().splitlines()[0]
    assert header == "n,cnot_count,tvd_mean,tvd_std,tvd_per_cnot"


def test_scores_csv_columns(tmp_path):
    run = _bell_run(NOISELESS)
    scores = compare_models(run, [("m", NOISELESS)], resamples=5, seed=0)
    path = tmp_path / "scores.csv"
    write_scores_csv(path, scores)
    header = path.read_text().splitlines()[0]
    assert header.startswith("model_id,tvd_mean,tvd_std,tvd_per_cnot,cnot_count")
