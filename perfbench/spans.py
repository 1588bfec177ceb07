"""Outside-in span recorder for the traced run.

The recorder wraps noisekit's public callables from outside the program:
every noisekit module attribute that holds one of the target functions is
replaced by a wrapper, because `cli`, `backend` and `evaluation` import names
directly and patching only the defining module would miss their calls.
Methods are patched on their class. Spans (name, start, end, parent) and
counters stay in memory until `restore()`; the per-pass layer totals are
computed afterwards from the stored spans.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

_MARK = "__perfbench_wrapper__"


def _fixed(**counts):
    return lambda args: counts


# (module, attribute, span name, counters from the bound call arguments)
SPAN_TARGETS = [
    ("noisekit.cli", "main", "cli.main", None),
    ("noisekit.simulator", "TrajectorySampler.__init__", "simulator.sampler_init", None),
    ("noisekit.simulator", "TrajectorySampler.sample", "simulator.sample",
     lambda a: {"simulator.sample_calls": 1, "simulator.shots": a["shots"]}),
    ("noisekit.simulator", "simulate_noisy_exact", "simulator.exact",
     _fixed(**{"simulator.exact_calls": 1})),
    ("noisekit.simulator", "counts_from_indices", "outcomes.counts_format", None),
    ("noisekit.backend", "MockBackend.run", "backend.run",
     lambda a: {"backend.circuits": len(a["circuits"]),
                "backend.shots": len(a["circuits"]) * a["shots"]}),
    ("noisekit.characterization", "run_suite", "characterization.run_suite",
     lambda a: {"characterization.circuits": len(a["plan"].tests)}),
    ("noisekit.characterization", "archive_dict", "characterization.archive_io", None),
    ("noisekit.characterization", "read_archive", "characterization.archive_io", None),
    ("noisekit.characterization", "archive_hash", "characterization.archive_io", None),
    ("noisekit.estimation", "fit_composite", "estimation.fit",
     _fixed(**{"estimation.fits": 1})),
    ("noisekit.estimation", "solve_aro_system", "estimation.aro", None),
    ("noisekit.estimation", "fit_pcnot", "estimation.pcnot", None),
    ("noisekit.estimation", "estimate_hadamard_error", "estimation.hadamard", None),
    ("noisekit.evaluation", "score_model", "evaluation.score",
     lambda a: {"evaluation.scores": 1,
                "evaluation.resamples": 0 if a["exact"] else a["resamples"]}),
    ("noisekit.evaluation", "tvd", "evaluation.tvd", _fixed(**{"evaluation.tvd_calls": 1})),
]

# Called tens of thousands of times per fit: counted where estimation calls
# them, with no span, so the trace stays small and cheap.
COUNT_TARGETS = [
    ("noisekit.estimation", "apply_readout_to_distribution", "estimation.objective_evals"),
    ("noisekit.estimation", "hadamard_survival", "estimation.objective_evals"),
]


def _noisekit_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "noisekit" or n.startswith("noisekit.")) and m is not None]


class SpanRecorder:
    """Spans and counters of the wrapped callables, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.outer = array("b")  # 0 when an enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._open = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.outer.append(self._open[nid] == 0)
        self._open[nid] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._open[self.name_id[idx]] -= 1

    @contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield idx
        finally:
            self._exit(idx)

    def _span_wrapper(self, fn, name, counts):
        sig = inspect.signature(fn) if counts else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counters.update(counts(bound.arguments))
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _count_wrapper(self, fn, name):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever a loaded noisekit module refers to it."""
        if self._patches:
            raise RuntimeError("span recorder is already installed")
        modules = _noisekit_modules()
        for module_name, attr, name, counts in SPAN_TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._span_wrapper(getattr(cls, meth), name, counts))
                continue
            original = getattr(owner, attr)
            wrapper = self._span_wrapper(original, name, counts)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for module_name, attr, name in COUNT_TARGETS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._count_wrapper(getattr(module, attr), name))

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapper)

    def restore(self) -> None:
        """Put every original back and check that no wrapper is left anywhere."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        leaks = [f"{module.__name__}.{key}" for module in _noisekit_modules()
                 for key, value in _members(module) if getattr(value, _MARK, False)]
        if leaks:
            raise RuntimeError(f"span wrappers left after restore: {leaks}")

    # -- output ----------------------------------------------------------------

    def dump(self, path) -> None:
        spans = [[self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i]]
                 for i in range(len(self.start))]
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                    "spans": spans}))

    def layer_times(self, root: int) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name inside the span `root`."""
        n = len(self.start)
        child = [0.0] * n
        under = [False] * n
        for i in range(n):
            p = self.parent[i]
            under[i] = i == root or (p >= 0 and under[p])
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i in range(n):
            if not under[i]:
                continue
            name = self.names[self.name_id[i]]
            duration = self.end[i] - self.start[i]
            if self.outer[i]:
                inclusive[name] += duration
            own[name] += duration - child[i]
        return inclusive, own


def _members(module):
    for key, value in list(vars(module).items()):
        yield key, value
        if inspect.isclass(value) and value.__module__ == module.__name__:
            for meth_key, meth in list(vars(value).items()):
                yield f"{key}.{meth_key}", meth
