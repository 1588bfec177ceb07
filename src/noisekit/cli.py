"""Command-line pipeline: characterize, fit, evaluate, demo.

All randomness funnels through one --seed flag; every report embeds the
parsed options and their hash, and timestamps are isolated to the meta
block so fixed-seed reruns are byte-identical elsewhere.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import devices
from .applications import build_bv, build_ghz, bv_accuracy
from .backend import MAX_SHOTS, FileBackend, MockBackend, MockGroundTruth
from .characterization import (
    archive_dict,
    build_suite,
    content_hash,
    count_experiments,
    materialize,
    read_archive,
    run_suite,
    TestKind,
)
from .circuit import DeviceTopology
from .errors import ConfigError, NoisekitError, ParseError, write_json_file
from .estimation import fit_composite
from .evaluation import (
    MAX_RESAMPLES,
    ApplicationRun,
    compare_models,
    scaling_report,
    score_model,
    select_model,
    write_scaling_csv,
    write_scores_csv,
    write_scores_json,
)
from .noise import (GRANULARITIES, PER_ELEMENT, QUBIT, REGISTER_AVERAGE, SUBSET_AVERAGE,
                    VARIANTS, CompositeNoiseModel)
from .outcomes import MAX_BITS
from .rng import DEMO_BELL, DEMO_BV, DEMO_GHZ, PREDICT, child_seed, generator
from .simulator import TrajectorySampler


def _meta(args, **config) -> dict:
    """A report's meta block: its config is the command and every parsed
    option but --out, as given unless `config` overrides it."""
    config = {k: v for k, v in vars(args).items() if k not in ("out", "func")} | config
    return {
        "created_at": datetime.now(timezone.utc).isoformat(),
        "config_hash": content_hash(config),  # a config has no meta key to leave out
        "config": config,
    }


def _predicted_accuracy(circuit, model, secret: str, shots: int, rng) -> float:
    """A BV secret's frequency in one draw of `shots` shots from the model."""
    return TrajectorySampler(circuit, model).sample(shots, rng).frequency(secret)


def _out_dir(args) -> Path:
    """The output directory, made when a command first writes into it,
    so a failed run leaves none behind."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _make_backend(spec: str, topo: DeviceTopology):
    kind, _, path = spec.partition(":")
    if kind == "mock":
        return MockBackend(topo, MockGroundTruth.load(path))
    if kind == "file":
        return FileBackend(path, topo)
    raise ConfigError(f"backend must be mock:<truth.json> or file:<archive.json>, got {spec!r}")


# The app grammar; every number is an ASCII decimal, and a qubit is spelled as noise.QUBIT.
_APP = re.compile(r"ghz:(?P<lo>[0-9]+)(?:\.\.(?P<hi>[0-9]+))?"
                  rf"|bv:(?P<secret>[01]+)@(?P<data>{QUBIT}(?:,{QUBIT})*)/(?P<oracle>{QUBIT})")
_APP_FORMS = "ghz:<n>, ghz:<a>..<b> or bv:<secret>@<d1,d2,...>/<oracle>"


def _parse_app(spec: str) -> re.Match:
    app = _APP.fullmatch(spec)
    if app is None and spec.startswith(("ghz:", "bv:")):
        raise ConfigError(f"bad app spec {spec!r}; expected {_APP_FORMS}")
    if app is None:
        raise ConfigError(f"unknown app spec {spec!r}")
    return app


def _app_circuits(app: re.Match, topo: DeviceTopology) -> list:
    """The app's circuits. One that measures more bits than any backend
    holds (a ghz size or range end, or a bv secret's length, over
    `MAX_BITS`) is a usage error before any circuit is built, as is one the
    builders reject for this device."""
    try:
        sizes = range(int(app["lo"]), int(app["hi"] or app["lo"]) + 1) if app["lo"] else None
        if sizes is not None and not sizes:
            raise ConfigError(f"empty ghz size range in {app.string!r}")
        width = len(app["secret"]) if sizes is None else sizes[-1]
        if width > MAX_BITS:
            raise ConfigError(f"{app.string} measures {width} bits; "
                              f"no backend holds more than {MAX_BITS}")
        if app["secret"]:
            data = [int(d) for d in app["data"].split(",")]
            return [build_bv(app["secret"], data, int(app["oracle"]), topo)]
        return [build_ghz(n, topo) for n in sizes]
    except ConfigError:
        raise
    except NoisekitError as exc:
        raise ConfigError(f"{app.string}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad app spec {app.string!r} ({exc}); expected {_APP_FORMS}") from exc


def _check_in_register(qubits, topo: DeviceTopology, what: str) -> None:
    outside = [q for q in qubits if not 0 <= q < topo.num_qubits]
    if outside:
        raise ConfigError(
            f"{what}: qubit(s) {outside} outside the {topo.num_qubits}-qubit device"
        )


# -- subcommands ---------------------------------------------------------------

def cmd_characterize(args) -> int:
    topo = DeviceTopology.load(args.device)
    _check_in_register(args.subset or (), topo, "--subset")
    backend = _make_backend(args.backend, topo)
    plan = build_suite(topo, subset=args.subset, hadamard_lengths=args.hadamard_lengths,
                       shots=args.shots, seed=args.seed)
    records = run_suite(plan, backend)
    budget = count_experiments(plan)
    meta = _meta(args)
    out = _out_dir(args)
    archive_path = out / "archive.json"
    write_json_file(archive_path, archive_dict(plan, records, meta=meta))
    write_json_file(
        out / "budget.json",
        {
            "meta": meta,
            "num_circuits": budget.num_circuits,
            "shots_per_circuit": budget.shots_per_circuit,
            "total_shots": budget.total_shots,
            "num_qubits_covered": budget.num_qubits_covered,
            "num_couplings_covered": budget.num_couplings_covered,
            "formula_2q_plus_2c_plus_1_shots": budget.formula_shots,
        },
    )
    print(f"characterized {budget.num_circuits} circuits x {plan.shots} shots "
          f"-> {archive_path}")
    print(f"census total shots: {budget.total_shots}; "
          f"N_s(2q+2c+1) = {budget.formula_shots} "
          f"(q={budget.num_qubits_covered}, c={budget.num_couplings_covered})")
    return 0


def cmd_fit(args) -> int:
    data, records = read_archive(args.archive)
    fit = fit_composite(records, args.flags, granularity=args.granularity, subset=args.subset,
                        provenance=content_hash(data))
    out = _out_dir(args)
    name = args.name or f"model-{args.flags.replace('+', '_')}-{args.granularity}"
    model_path = out / f"{name}.json"
    fit.model.save(model_path)
    write_json_file(out / f"{name}.diagnostics.json", fit.diagnostics_dict())
    infeasible = [n for n, r in fit.estimates.items() if not r.feasible]
    print(f"fitted {len(fit.estimates)} parameters -> {model_path}")
    if infeasible:
        print(f"clamped infeasible estimates: {', '.join(sorted(infeasible))}")
    return 0


def cmd_evaluate(args) -> int:
    app = _parse_app(args.app)
    scaling = app["hi"] is not None  # a ghz:<a>..<b> app is the scaling report
    # --threshold's domain is (0, 1], so a given one is true
    modes = [f"--{mode}" for mode in ("exact", "threshold") if getattr(args, mode)]
    modes += [f"--app {args.app}"] * scaling
    if len(modes) > 1:
        raise ConfigError(f"{' and '.join(modes)} are different modes; give one")
    if (args.exact or scaling) and len(args.model) > 1:
        raise ConfigError("--exact and a ghz:<a>..<b> app score one model; "
                          f"got {len(args.model)} --model flags")
    if args.exact and app["secret"]:
        raise ConfigError("--exact scores a ghz app; it does not combine with bv apps")
    topo = DeviceTopology.load(args.device)
    backend = _make_backend(args.backend, topo)
    circuits = _app_circuits(app, topo)
    models = [(Path(path).stem, CompositeNoiseModel.load(path)) for path in args.model]

    counts_list = backend.run(circuits, args.shots, args.seed)
    runs = [ApplicationRun(c, counts) for c, counts in zip(circuits, counts_list)]
    # one model on a bv app is a single prediction draw: nothing is resampled
    bv_prediction = app["secret"] and len(models) == 1 and not args.threshold
    meta = _meta(args, resamples=None if bv_prediction else args.resamples)
    report: dict = {"meta": meta, "app": args.app}
    kwargs = dict(resamples=args.resamples, seed=args.seed)

    if scaling:
        sc = scaling_report(runs, models[0][1], **kwargs)
        out = _out_dir(args)
        write_scaling_csv(out / "scaling.csv", sc)
        report["scaling"] = {
            "model_id": models[0][0],
            "cv_tvd_per_cnot": sc.cv_tvd_per_cnot,
            "rows": [vars(r) for r in sc.rows],
        }
        print(f"scaling over n={sc.rows[0].n}..{sc.rows[-1].n}: "
              f"cv(tvd/cnot) = {sc.cv_tvd_per_cnot:.4f} -> {out / 'scaling.csv'}")
    elif args.threshold is not None:
        sel = select_model(runs[0], models, args.threshold, **kwargs)
        report["selection"] = {
            "model_id": sel.model_id,
            "iterations": sel.iterations,
            "threshold": sel.threshold,
            "threshold_met": sel.threshold_met,
            "score": sel.score.to_json_dict(),
        }
        status = "met" if sel.threshold_met else "NOT met"
        print(f"selected {sel.model_id} after {sel.iterations} iteration(s); "
              f"threshold {args.threshold} {status} (tvd={sel.score.tvd:.5f})")
    elif len(models) > 1:
        scores = compare_models(runs[0], models, **kwargs)
        write_scores_csv(_out_dir(args) / "scores.csv", scores)
        report["ranking"] = [s.to_json_dict() for s in scores]
        for s in scores:
            print(f"  {s.model_id:<28} tvd={s.tvd:.5f} +/- {s.tvd_stderr:.5f}")
    else:
        model_id, model = models[0]
        if bv_prediction:
            secret = app["secret"]
            observed = bv_accuracy(runs[0], secret)
            predicted = _predicted_accuracy(runs[0].circuit, model, secret, args.shots,
                                            generator(args.seed, PREDICT))
            report["bv"] = {
                "secret": secret,
                "observed_accuracy": observed,
                "predicted_accuracy": predicted,
                "model_id": model_id,
            }
            print(f"bv {secret}: predicted={predicted:.5f} observed={observed:.5f}")
        else:
            score = score_model(runs[0], model, exact=args.exact,
                                model_id=model_id, **kwargs)
            report["score"] = score.to_json_dict()
            print(f"{model_id}: tvd={score.tvd:.5f} +/- {score.tvd_stderr:.5f} "
                  f"(per cnot {score.tvd_per_cnot:.5f})")
    write_json_file(_out_dir(args) / "report.json", report)
    return 0


def cmd_demo(args) -> int:
    out = _out_dir(args)
    shots, seed = args.shots, args.seed
    print(f"== demo full-paper (shots={shots}, seed={seed}) -> {out}")

    topo = devices.ladder20()
    topo.save(out / "device.json")
    truth = MockGroundTruth(
        devices.jittered_truth(topo, seed), hidden_readout_strength=args.hidden
    )
    truth.save(out / "truth.json")
    backend = MockBackend(topo, truth)

    print("-- characterization suite")
    plan = build_suite(topo, shots=shots, seed=seed)
    records = run_suite(plan, backend)
    budget = count_experiments(plan)
    meta = _meta(args)
    write_json_file(out / "archive.json", archive_dict(plan, records, meta=meta))
    print(f"   {budget.num_circuits} circuits, census {budget.total_shots} shots, "
          f"formula N_s(2q+2c+1) = {budget.formula_shots}")

    print("-- fitting model family")
    fits = {}
    for variant in VARIANTS:
        fits[variant] = fit_composite(records, variant)
        fits[variant].model.save(out / f"model-{variant.replace('+', '_')}.json")
    fit_register = fit_composite(records, "aro+dp", granularity=REGISTER_AVERAGE)
    fit_2q = fit_composite(records, "aro+dp", granularity=SUBSET_AVERAGE, subset=(0, 1))
    fit_register.model.save(out / "model-register-average.json")
    fit_2q.model.save(out / "model-2q-average.json")

    print("-- Bell-state model comparison (readout/gate ablations)")
    bell_circuit = materialize(TestKind("bell", coupling=(0, 1)))
    bell_counts = backend.run([bell_circuit], shots, child_seed(seed, DEMO_BELL))[0]
    bell_run = ApplicationRun(bell_circuit, bell_counts)
    scores = compare_models(
        bell_run, [(v, fits[v].model) for v in VARIANTS],
        resamples=args.resamples, seed=seed,
    )
    write_scores_csv(out / "bell_comparison.csv", scores)
    write_scores_json(out / "bell_comparison.json", scores, meta)
    for s in scores:
        print(f"   {s.model_id:<10} tvd={s.tvd:.5f} +/- {s.tvd_stderr:.5f}")

    print(f"-- GHZ scaling n=2..{args.max_ghz} (fully spatial model)")
    ghz_circuits = [build_ghz(n, topo) for n in range(2, args.max_ghz + 1)]
    ghz_counts = backend.run(ghz_circuits, shots, child_seed(seed, DEMO_GHZ))
    ghz_runs = [ApplicationRun(c, k) for c, k in zip(ghz_circuits, ghz_counts)]
    sc = scaling_report(ghz_runs, fits["aro+dp"].model,
                        resamples=args.resamples, seed=seed)
    write_scaling_csv(out / "ghz_scaling.csv", sc)
    print(f"   cv of tvd-per-cnot across widths: {sc.cv_tvd_per_cnot:.4f}")

    print("-- GHZ granularity sweep (largest instance)")
    grans = [
        ("noiseless", fits["noiseless"].model),
        ("2q-average", fit_2q.model),
        ("register-average", fit_register.model),
        ("fully-spatial", fits["aro+dp"].model),
    ]
    gran_scores = compare_models(ghz_runs[-1], grans,
                                 resamples=args.resamples, seed=seed)
    write_scores_csv(out / "ghz_granularity.csv", gran_scores)
    by_id = {s.model_id: s for s in gran_scores}
    ratio = by_id["noiseless"].tvd / max(by_id["fully-spatial"].tvd, 1e-12)
    for s in gran_scores:
        print(f"   {s.model_id:<18} tvd={s.tvd:.5f}")
    print(f"   fully-spatial improves on noiseless by {ratio:.1f}x")

    print("-- Bernstein-Vazirani accuracy, all 3-bit secrets on (6,8,12)/7")
    secrets = [format(i, "03b") for i in range(8)]
    bv_circuits = [build_bv(s, [6, 8, 12], 7, topo) for s in secrets]
    bv_counts = backend.run(bv_circuits, shots, child_seed(seed, DEMO_BV))
    predict = generator(seed, PREDICT)
    bv_rows = []
    for secret, circuit, counts in zip(secrets, bv_circuits, bv_counts):
        run = ApplicationRun(circuit, counts)
        predicted = _predicted_accuracy(circuit, fits["aro+dp"].model, secret, shots, predict)
        bv_rows.append(
            {"secret": secret, "predicted": predicted,
             "observed": bv_accuracy(run, secret)}
        )
        print(f"   {secret}: predicted={predicted:.4f} observed={bv_rows[-1]['observed']:.4f}")
    write_json_file(out / "bv_accuracy.json", {"meta": meta, "rows": bv_rows})

    write_json_file(
        out / "summary.json",
        {
            "meta": meta,
            "budget": {"circuits": budget.num_circuits,
                       "census_shots": budget.total_shots,
                       "formula_shots": budget.formula_shots},
            "bell_ranking": [s.model_id for s in scores],
            "ghz_cv_tvd_per_cnot": sc.cv_tvd_per_cnot,
            "ghz_noiseless_over_spatial_tvd": ratio,
            "bv": bv_rows,
        },
    )
    print(f"== reports in {out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, so `main` reports them like any other,
    and a flag's help ends with the domain its type enforces."""

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if hasattr(action.type, "domain"):
            action.help = ", ".join(filter(None, [action.help, action.type.domain]))
        return action

    def error(self, message):
        raise ConfigError(message)


def _number(kind, lo, hi=math.inf, lo_open=False):
    """argparse type: a `kind` value in [lo, hi], or in (lo, hi] when
    `lo_open`; an int is ASCII decimal digits only (no sign, space, `_` or
    other script's digit). NaN fails every comparison, so it is rejected too."""
    domain = (f"{'>' if lo_open else '>='} {lo}" if hi == math.inf
              else f"in {'(' if lo_open else '['}{lo}, {hi}]")

    def parse(text: str):
        try:
            value = kind(text) if kind is float or text.isascii() and text.isdigit() else math.nan
        except ValueError:
            value = math.nan
        if not (lo < value if lo_open else lo <= value) or not value <= hi:
            raise argparse.ArgumentTypeError(f"expected {kind.__name__} {domain}, got {text!r}")
        return value

    parse.domain = domain
    return parse


def _ints(what: str, ok=lambda n: True, empty=True, spelling="[0-9]+"):
    """argparse type: comma-separated distinct ASCII decimals, each spelled
    as the regex `spelling` says and passing `ok`; none at all only when `empty`."""
    domain = f"comma-separated {what}"

    def parse(text: str) -> tuple[int, ...]:
        items = [*filter(None, text.split(","))]
        try:
            spelled = all(re.fullmatch(spelling, item) for item in items)
            values = tuple(map(_number(int, 0), items)) if spelled else None
        except argparse.ArgumentTypeError:  # more digits than int() reads
            values = None
        if (values is None or len(set(values)) < len(values) or not all(map(ok, values))
                or not (values or empty)):
            raise argparse.ArgumentTypeError(f"expected {domain}, got {text!r}")
        return values

    parse.domain = domain
    return parse


_QUBITS = _ints("distinct qubits (no leading zero), at least one", empty=False, spelling=QUBIT)
MAX_TRAIN = 2**16  # the longest Hadamard train: one circuit of that many gates, built in memory
_LENGTHS = _ints(f"distinct even lengths from 2 to {MAX_TRAIN}",
                 lambda n: 2 <= n <= MAX_TRAIN and not n % 2)
_COUNT = _number(int, 1)
_SEED = _number(int, 0)  # SeedSequence takes non-negative entropy only
_RESAMPLES = _number(int, 1, MAX_RESAMPLES)


def _characterize_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--device", required=True, help="device topology JSON")
    p.add_argument("--backend", required=True, help="mock:<truth.json> | file:<archive.json>")
    p.add_argument("--shots", type=_COUNT, default=8192, help="shots per circuit")
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--subset", type=_QUBITS, default=None)
    p.add_argument("--hadamard-lengths", type=_LENGTHS, default=())
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_characterize)


def _fit_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--archive", required=True)
    p.add_argument("--flags", default="aro+dp", choices=sorted(VARIANTS))
    p.add_argument("--granularity", default=PER_ELEMENT, choices=GRANULARITIES)
    p.add_argument("--subset", type=_QUBITS, default=None)
    p.add_argument("--name", default=None)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_fit)


def _evaluate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--device", required=True)
    p.add_argument("--backend", required=True)
    p.add_argument("--app", required=True, help=f"{_APP_FORMS}; a range is the scaling report")
    p.add_argument("--model", action="append", required=True)
    p.add_argument("--shots", type=_COUNT, default=8192)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--resamples", type=_RESAMPLES, default=100)
    p.add_argument("--threshold", type=_number(float, 0, 1, lo_open=True), default=None,
                   help="select the first --model, in order, whose TVD meets this bound")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_evaluate)


def _demo_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("what", nargs="?", default="full-paper", choices=["full-paper"])
    # demo always runs the mock QPU, so its capability bounds the shots
    p.add_argument("--shots", type=_number(int, 1, MAX_SHOTS), default=8192)
    p.add_argument("--seed", type=_SEED, default=42)
    p.add_argument("--resamples", type=_RESAMPLES, default=50)
    p.add_argument("--hidden", type=_number(float, 0, 1), default=0.0,
                   help="state-dependent hidden readout strength")
    # ladder20's longest path has 20 qubits
    p.add_argument("--max-ghz", type=_number(int, 2, 20), default=10)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_demo)


# command -> (its help line in `noisekit --help`, the function adding its options)
COMMANDS = {
    "characterize": ("run a characterization suite", _characterize_arguments),
    "fit": ("fit a composite noise model from an archive", _fit_arguments),
    "evaluate": ("score/compare/select models on an application", _evaluate_arguments),
    "demo": ("end-to-end mock reproduction pipeline", _demo_arguments),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of all commands, for --help and for no or an unknown command."""
    parser = _Parser(
        prog="noisekit",
        description="Characterize device noise, fit composite models, and "
                    "evaluate them by total variation distance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in COMMANDS:  # the parser build_parser makes for it, alone
            parser = _Parser(prog=f"noisekit {argv[0]}")
            COMMANDS[argv[0]][1](parser)
            args = parser.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        else:
            args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, ParseError, OSError) as exc:  # paths are user input too
        _emit_error(exc)
        return 2
    except NoisekitError as exc:
        _emit_error(exc)
        return 1


def _emit_error(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
