"""Noise channels and the composite, spatially-resolved device model.

Channel conventions: a depolarizing channel with parameter p applies one of
{X, Y, Z} with probability p/3 each, after the ideal gate; readout error is
a per-bit stochastic channel [[1-p0, p1], [p0, 1-p1]] acting on the
post-measurement classical bit string. `read_out` is the one forward
implementation of that channel: the simulator's outcome laws, the mock QPU's
hidden readout, the Bell fit's fitted law and `apply_readout_to_distribution`
all go through it. The estimators invert it in closed form. A cnot is
followed by two identical, independent single-qubit depolarizing channels
(one per operand), not a two-qubit depolarizer.

A model is also one rate vector `theta`, derived at construction (not a file
field). `column` is the one rule for which entry an element reads: 0, a zero
rate, if its channel is off, else its own, else its kind's average (shared by
an averaged model's elements), else 0 for x and h. The accessors, the laws and
`num_parameters` all read it; it lives with the model, so shapes stay model-free.
"""
from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, count

import numpy as np

from .circuit import edge
from .errors import ArityMismatch, JsonFile, MissingCoverage, OutOfRange
from .outcomes import Distribution

PER_ELEMENT = "per_element"
REGISTER_AVERAGE = "register_average"
SUBSET_AVERAGE = "subset_average"
GRANULARITIES = (PER_ELEMENT, REGISTER_AVERAGE, SUBSET_AVERAGE)

# The model-family ablations: (readout mode, gate depolarizing on).
VARIANTS = {
    "noiseless": ("off", False),
    "sro": ("sro", False),
    "aro": ("aro", False),
    "dp": ("off", True),
    "sro+dp": ("sro", True),
    "aro+dp": ("aro", True),
}


# The one spelling of an element, which labels, model-file keys and a model's
# maps and subset go by: a qubit is an ASCII decimal with no sign or leading
# zero, a coupling two distinct qubits joined by "-", each after `q` (`bell:q0-q1`).
QUBIT = "(?:0|[1-9][0-9]*)"
COUPLING = rf"{{q}}(?P<a>{QUBIT})-{{q}}(?!(?P=a)\b)(?P<b>{QUBIT})"  # COUPLING.format(q=prefix)
_LISTS = {what: re.compile(rf"(?:{element},)*")  # each element followed by a comma
          for what, element in (("qubit", QUBIT), ("coupling", COUPLING.format(q="")))}


def _spelled(keys, what: str, spell=str):
    """`keys`, after checking at once that each, spelled by `spell`, names a `what`."""
    rule, spellings = _LISTS[what], [*map(spell, keys)]
    if not rule.fullmatch(",".join([*spellings, ""])):
        bad = next(key for key, text in zip(keys, spellings) if not rule.fullmatch(text + ","))
        raise ValueError(f"{bad!r} does not name a {what}")
    return keys


def check_prob(value: float, name: str) -> float:
    """`value` as a float in [0, 1]; a bool or a value that is not a number
    (a str, None) raises TypeError naming `name`, and a number outside
    [0, 1] (NaN too) OutOfRange."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name}={value} is a bool, not a probability")
    try:
        inside = 0.0 <= value <= 1.0
    except TypeError:
        raise TypeError(f"{name}={value!r} is not a number") from None
    if not inside:
        raise OutOfRange(f"{name}={value} is not a probability")
    return float(value)


@dataclass(frozen=True)
class ReadoutModel:
    """Bit-flip probabilities p0 (reading out 0) and p1 (reading out 1).

    The symmetric model (SRO) is the p0 == p1 special case.
    """

    p0: float
    p1: float

    def __post_init__(self):
        check_prob(self.p0, "p0")
        check_prob(self.p1, "p1")

    @classmethod
    def symmetric(cls, p_sro: float) -> "ReadoutModel":
        return cls(p_sro, p_sro)

    @classmethod
    def ideal(cls) -> "ReadoutModel":
        return cls(0.0, 0.0)

    @property
    def is_symmetric(self) -> bool:
        return self.p0 == self.p1


def read_out(law: np.ndarray, p0: Sequence[float], p1: Sequence[float]) -> None:
    """Apply, in place on a flat law in classical-bit order (or on each row
    of a contiguous stack of such laws), each bit's readout flips: a 0 reads
    1 with probability p0[bit], a 1 reads 0 with p1[bit]. Classical bit 0 is
    the most significant bit of an index.

    Rates of any leading shape (*rows, bits) give one channel per entry of
    the law's leading axes of that shape, each a law or a stack of laws."""
    p0, p1 = np.asarray(p0, dtype=float), np.asarray(p1, dtype=float)
    rows, bits = p0.shape[:-1], p0.shape[-1]
    for bit in range(bits):
        t = law.reshape(*rows, -1, 2, 1 << (bits - 1 - bit))
        zero, one = t[..., 0, :], t[..., 1, :]
        moved = p0[..., bit, None, None] * zero - p1[..., bit, None, None] * one  # net 0 -> 1
        zero -= moved
        one += moved


def apply_readout_to_distribution(
    dist: Distribution, readouts: list[ReadoutModel]
) -> Distribution:
    """Push a distribution through per-bit readout-error channels.

    readouts[i] acts on classical bit i (the i-th character of each key).
    """
    n = dist.num_bits
    if n != len(readouts):
        raise ArityMismatch(f"{n}-bit distribution with {len(readouts)} readout models")
    law = np.zeros(1 << n)
    law[dist.indices] = dist.values
    read_out(law, [r.p0 for r in readouts], [r.p1 for r in readouts])
    return Distribution.from_arrays(n, np.arange(law.size), law)


@dataclass(frozen=True)
class CompositeNoiseModel(JsonFile):
    """Per-element readout and depolarizing parameters plus feature flags.

    Averaged granularities carry their broadcast constants in the avg_*
    fields; per-element models use the explicit maps. readout_on and
    cnot_dp_on encode the model-family ablations (noiseless, SRO, ARO, DP,
    SRO+DP, ARO+DP); an off channel's elements read column 0. The x/h gate
    channels apply whenever their entries are nonzero (only +DP fits fill
    them). Each key and subset entry is the element its `repr` spells; no coupling is named twice.
    """

    what = "noise-model file"

    granularity: str = PER_ELEMENT
    subset: tuple[int, ...] | None = None
    readout: dict[int, ReadoutModel] = field(default_factory=dict)
    x_gate: dict[int, float] = field(default_factory=dict)
    h_gate: dict[int, float] = field(default_factory=dict)
    cnot: dict[tuple[int, int], float] = field(default_factory=dict)
    avg_readout: ReadoutModel | None = None
    avg_x: float | None = None
    avg_h: float | None = None
    avg_cnot: float | None = None
    readout_on: bool = True
    cnot_dp_on: bool = True
    provenance: str = ""

    def __post_init__(self):
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if self.granularity == SUBSET_AVERAGE and self.subset is None:
            raise ValueError("subset_average requires a subset")
        if not (isinstance(self.readout_on, bool) and isinstance(self.cnot_dp_on, bool)):
            raise TypeError(f"flags {self.readout_on!r}, {self.cnot_dp_on!r} are not booleans")
        for name in ("readout", "x_gate", "h_gate", "cnot"):
            object.__setattr__(self, name, dict(getattr(self, name)))
        _spelled([*self.readout, *self.x_gate, *self.h_gate, *(self.subset or ())], "qubit", repr)
        _spelled(self.cnot, "coupling", "%r-%r".__mod__)  # a non-pair raises TypeError
        cnot = {edge(*c): v for c, v in self.cnot.items()}
        if len(cnot) < len(self.cnot):
            raise ValueError(f"couplings {sorted(self.cnot)} name one in both directions")
        object.__setattr__(self, "cnot", cnot)
        for name, rates in (("p_x", self.x_gate), ("p_h", self.h_gate), ("p_cnot", cnot)):
            for v in rates.values():
                check_prob(v, name)
        # theta: a zero rate, the own rates by kind, then the averages (checked here)
        avg, at = self.avg_readout, count(1)
        own = {**{k: {q: getattr(m, k) for q, m in self.readout.items()} for k in ("p0", "p1")},
               "x": self.x_gate, "h": self.h_gate, "cnot": cnot}
        averages = {**({"p0": avg.p0, "p1": avg.p1} if avg else {}), **{
            kind: check_prob(v, f"average p_{kind}") for kind, v in
            (("x", self.avg_x), ("h", self.avg_h), ("cnot", self.avg_cnot)) if v is not None}}
        columns = [dict(zip(rates, at)) for rates in own.values()]
        fallbacks = {"x": 0, "h": 0} | dict(zip(averages, at))
        off = ("p0", "p1") * (not self.readout_on) + ("cnot",) * (not self.cnot_dp_on)
        object.__setattr__(self, "_columns", {  # by kind: (its own columns, its fallback's)
            kind: (kind_columns, fallbacks.get(kind)) for kind, kind_columns in zip(own, columns)
        } | dict.fromkeys(off, ({}, 0)))  # an off channel's elements read column 0
        object.__setattr__(self, "theta", np.array(
            [0.0, *chain(*map(dict.values, own.values())), *averages.values()], dtype=float))
        self.theta.flags.writeable = False

    @classmethod
    def noiseless(cls) -> "CompositeNoiseModel":
        return cls(
            granularity=REGISTER_AVERAGE,
            avg_readout=ReadoutModel.ideal(),
            avg_x=0.0,
            avg_h=0.0,
            avg_cnot=0.0,
            readout_on=False,
            cnot_dp_on=False,
        )

    def column(self, kind: str, qubits: tuple[int, ...]) -> int:
        """The `theta` column of the `kind` ("p0", "p1", "x", "h" or "cnot") rate of
        the element on `qubits`: 0 if its channel is off, else its own, else its kind's
        average, else 0 for x and h; an on readout or cnot with neither raises MissingCoverage."""
        own, fallback = self._columns[kind]
        column = own.get(edge(*qubits) if kind == "cnot" else qubits[0], fallback)
        if column is None:
            what = ("cnot parameter for coupling ({},{})" if kind == "cnot"
                    else "readout model for qubit {}")
            raise MissingCoverage(f"no {what.format(*qubits)}", ["-".join(f"q{q}" for q in qubits)])
        return column

    def readout_for(self, qubit: int) -> ReadoutModel:
        return ReadoutModel(*self.theta[[self.column(k, (qubit,)) for k in ("p0", "p1")]].tolist())

    def x_for(self, qubit: int) -> float:
        return float(self.theta[self.column("x", (qubit,))])

    def h_for(self, qubit: int) -> float:
        return float(self.theta[self.column("h", (qubit,))])

    def cnot_for(self, a: int, b: int) -> float:
        return float(self.theta[self.column("cnot", (a, b))])

    def num_parameters(self) -> int:
        """The fitted scalars, for tie-breaks: each `theta` column but 0 that some
        element reads (a kind's own columns and its fallback), less x or h columns at
        rate 0 and p1 columns at their element's p0 rate (SRO's one rate)."""
        theta = self.theta.tolist()
        read = {kind: [*own.values(), fallback] for kind, (own, fallback) in self._columns.items()}
        read["p1"] = [p1 for p0, p1 in zip(read["p0"], read["p1"]) if p1 and theta[p1] != theta[p0]]
        read["x"], read["h"] = ([c for c in read[kind] if theta[c] > 0] for kind in ("x", "h"))
        return len({*chain(*read.values())} - {0, None})

    def to_json_dict(self) -> dict:
        data: dict = {
            "granularity": self.granularity,
            "flags": {"readout_on": self.readout_on, "cnot_dp_on": self.cnot_dp_on},
            "readout": {
                str(q): {"p0": m.p0, "p1": m.p1} for q, m in sorted(self.readout.items())
            },
            "x_gate": {str(q): {"p_x": v} for q, v in sorted(self.x_gate.items())},
            "h_gate": {str(q): {"p_h": v} for q, v in sorted(self.h_gate.items())},
            "cnot": {
                f"{a}-{b}": {"p_cnot": v} for (a, b), v in sorted(self.cnot.items())
            },
            "provenance": self.provenance,
        }
        if self.subset is not None:
            data["subset"] = list(self.subset)
        if self.avg_readout is not None:
            data["average"] = {
                "p0": self.avg_readout.p0,
                "p1": self.avg_readout.p1,
                "p_x": self.avg_x,
                "p_h": self.avg_h,
                "p_cnot": self.avg_cnot,
            }
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "CompositeNoiseModel":
        avg = data.get("average")
        if avg is None and data["granularity"] != PER_ELEMENT:
            # an averaged model's readout and cnot rates live only there
            raise ValueError(f"a {data['granularity']} model needs an 'average' block")
        return cls(
            granularity=data["granularity"],
            subset=tuple(data["subset"]) if "subset" in data else None,
            readout={  # int() reads a key once the one spelling is checked
                int(q): ReadoutModel(m["p0"], m["p1"])
                for q, m in _spelled(data.get("readout", {}), "qubit").items()
            },
            x_gate={int(q): m["p_x"] for q, m in _spelled(data.get("x_gate", {}), "qubit").items()},
            h_gate={int(q): m["p_h"] for q, m in _spelled(data.get("h_gate", {}), "qubit").items()},
            cnot={
                tuple(map(int, k.split("-"))): m["p_cnot"]
                for k, m in _spelled(data.get("cnot", {}), "coupling").items()
            },
            avg_readout=ReadoutModel(avg["p0"], avg["p1"]) if avg else None,
            avg_x=avg.get("p_x") if avg else None,
            avg_h=avg.get("p_h") if avg else None,
            avg_cnot=avg.get("p_cnot") if avg else None,
            readout_on=data["flags"]["readout_on"],
            cnot_dp_on=data["flags"]["cnot_dp_on"],
            provenance=data.get("provenance", ""),
        )
