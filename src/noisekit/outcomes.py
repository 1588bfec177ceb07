"""Outcome distributions and measured counts.

Bit order convention: classical bit 0 is the leftmost character of an
outcome string (for the standard measure(q, q) wiring this means qubit 0
is leftmost) and the most significant bit of an outcome index; the string
is the index in binary, `num_bits` wide.

An outcome set is `num_bits` plus an ascending int64 array of outcome
indices and a matching array of counts or probabilities, and nothing else.
Bit strings exist only at the edges (archives, reports, the CLI, tests):
the string-keyed constructors check a dict and convert it at once, and the
string-keyed views are built from the arrays on each call, in ascending
index order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from types import MappingProxyType

import numpy as np

from .errors import integer

MAX_BITS = 63  # outcome indices are int64
_INT = frozenset({int})


def _key_widths(maps: list) -> list[int]:
    """The common length of each map's bit-string keys (0 for no keys)."""
    rows = [set(map(len, keyed)) for keyed in maps]
    if any(len(lengths) > 1 for lengths in rows):
        lengths = next(lengths for lengths in rows if len(lengths) > 1)
        raise ValueError(f"outcome keys have mixed bit-lengths {sorted(lengths)}")
    if "".join(chain.from_iterable(maps)).strip("01"):
        keyed = next(keyed for keyed in maps if "".join(keyed).strip("01"))
        raise ValueError(f"outcome keys {list(keyed)} are not all bit strings")
    widths = [lengths.pop() if lengths else 0 for lengths in rows]
    if max(widths, default=0) > MAX_BITS:
        raise ValueError(f"{max(widths)}-bit outcome keys exceed {MAX_BITS} bits")
    return widths


def count_widths(maps: list, shots: list) -> list[int]:
    """The bit width of each outcome string -> count map `maps[i]` over
    `shots[i]` shots, after checking the count rules on all the maps at
    once, rule by rule: counts and shots are integers (TypeError
    otherwise), no count is negative and each map's counts sum to its
    shots, fewer than 2^63 so that they fit int64, and each map's keys are
    bit strings of one width (ValueError otherwise). The error is the first
    rule that some map breaks; for one map it is that map's first."""
    values = list(chain.from_iterable(counts.values() for counts in maps))
    if not _INT.issuperset(map(type, values)):
        values = [integer(v, "count") for v in values]
    if not _INT.issuperset(map(type, shots)):
        shots = [integer(n, "shot number") for n in shots]
    if min(values, default=0) < 0:
        raise ValueError("negative count")
    # each row's sum takes its len(counts) values from one shared iterator
    sums = list(map(sum, map(islice, repeat(iter(values)), map(len, maps))))
    if sums != shots:
        total, n = next((total, n) for total, n in zip(sums, shots) if total != n)
        raise ValueError(f"counts sum to {total}, shots field says {n}")
    if max(shots, default=0) >= 1 << 63:
        raise ValueError(f"{max(shots)} shots do not fit int64 counts")
    return _key_widths(maps)


def check_counts(counts: dict, shots) -> int:
    """The bit width of one count map, after `count_widths`' checks."""
    return count_widths([counts], [shots])[0]


def _checked_arrays(num_bits: int, indices, values, dtype) -> tuple[np.ndarray, np.ndarray]:
    val = np.asarray(values)
    if val.dtype == np.bool_:  # as the dict constructors refuse bool values
        raise TypeError(f"boolean values {val} are not counts or probabilities")
    idx, val = np.asarray(indices, dtype=np.int64), val.astype(dtype, copy=False)
    if idx.ndim != 1 or idx.shape != val.shape or not 0 <= num_bits <= MAX_BITS:
        raise ValueError(f"{idx.shape} indices, {val.shape} values, {num_bits} bits")
    if idx.size and (idx[0] < 0 or idx[-1] >> num_bits or (idx[1:] <= idx[:-1]).any()):
        raise ValueError(f"indices are not ascending distinct {num_bits}-bit outcomes")
    return idx, val


def _check_law(idx: np.ndarray, val: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # written so that NaN fails it
    if val.size and not (val.min() >= -1e-12 and abs(val.sum() - 1.0) <= 1e-9):
        raise ValueError(f"probabilities {val} are not a distribution")
    return idx, val


def _sorted_arrays(keyed: dict, dtype) -> tuple[np.ndarray, np.ndarray]:
    """A checked bit-string map as ascending index and value arrays."""
    idx = np.fromiter((int(k or "0", 2) for k in keyed), np.int64, len(keyed))
    order = np.argsort(idx)
    return idx[order], np.fromiter(keyed.values(), dtype, len(keyed))[order]


class _Outcomes:
    """One outcome set: `num_bits` and the ascending index and value arrays."""

    def _hold(self, num_bits: int, indices: np.ndarray, values: np.ndarray) -> None:
        object.__setattr__(self, "num_bits", num_bits)
        object.__setattr__(self, "indices", indices)  # shared: do not modify
        object.__setattr__(self, "values", values)

    def _mapping(self) -> dict:
        """The outcome set as a bit string -> value dict, built anew."""
        fmt = f"0{self.num_bits}b"
        return {format(i, fmt) if self.num_bits else "": v
                for i, v in zip(self.indices.tolist(), self.values.tolist())}

    def _same_outcomes(self, other: _Outcomes) -> bool:
        """Equal as bit-string maps: the same keys with the same values (so
        any two empty maps are equal, whatever their width)."""
        return (np.array_equal(self.indices, other.indices)
                and np.array_equal(self.values, other.values)
                and (self.num_bits == other.num_bits or not self.indices.size))


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Distribution(_Outcomes):
    """Map from n-bit outcome string to probability; sums to 1 within 1e-9."""

    num_bits: int

    def __init__(self, probs: dict[str, float], num_bits: int = -1):
        keyed = dict(probs)
        derived = _key_widths([keyed])[0]
        if num_bits < 0:
            num_bits = derived
        elif keyed and derived != num_bits:
            raise ValueError(f"keys are {derived}-bit, expected {num_bits}")
        if any(isinstance(p, (bool, np.bool_)) for p in keyed.values()):
            raise TypeError(f"{keyed} holds a bool, not a probability")
        self._hold(num_bits, *_check_law(*_sorted_arrays(keyed, np.float64)))

    @classmethod
    def from_arrays(cls, num_bits: int, indices, probs) -> Distribution:
        """Distribution over ascending distinct outcome indices."""
        self = cls.__new__(cls)
        self._hold(num_bits, *_check_law(*_checked_arrays(num_bits, indices, probs, np.float64)))
        return self

    @property
    def probs(self) -> MappingProxyType[str, float]:
        return MappingProxyType(self._mapping())

    def prob(self, key: str) -> float:
        return self._mapping().get(key, 0.0)

    def support(self) -> list[str]:
        return [k for k, p in self._mapping().items() if p > 0.0]

    def items(self):
        return self._mapping().items()

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        return self.num_bits == other.num_bits and self._same_outcomes(other)

    def __repr__(self) -> str:
        return f"Distribution(probs={self._mapping()!r}, num_bits={self.num_bits})"


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Counts(_Outcomes):
    """Map from outcome string to event count over a fixed number of shots."""

    shots: int
    # equality is `__eq__` below; compare=False keeps num_bits out of the
    # compared fields that `dataclasses.fields` reports
    num_bits: int = field(compare=False)

    def __init__(self, counts: dict[str, int], shots: int):
        num_bits = check_counts(counts, shots)
        object.__setattr__(self, "shots", int(shots))
        self._hold(num_bits, *_sorted_arrays(counts, np.int64))

    @classmethod
    def from_arrays(cls, num_bits: int, indices, counts, shots: int) -> Counts:
        """Counts over ascending distinct outcome indices."""
        idx, val = _checked_arrays(num_bits, indices, counts, np.int64)
        if (val.size and val.min() < 0) or val.sum() != shots:
            raise ValueError(f"counts {val} do not make {shots} shots")
        return cls._of(num_bits, idx, val, shots)

    @classmethod
    def _of(cls, num_bits: int, indices: np.ndarray, counts: np.ndarray, shots: int) -> Counts:
        """Counts over int64 arrays that already keep the count rules."""
        self = cls.__new__(cls)
        object.__setattr__(self, "shots", shots)
        self._hold(num_bits, indices, counts)
        return self

    @property
    def counts(self) -> MappingProxyType[str, int]:
        return MappingProxyType(self._mapping())

    def frequency(self, key: str) -> float:
        return self._mapping().get(key, 0) / (self.shots or 1)

    def frequencies(self) -> dict[str, float]:
        """Exact f_k = C_k / N_s per outcome held (zeros at zero shots)."""
        return {k: v / (self.shots or 1) for k, v in self._mapping().items()}

    def __eq__(self, other):
        if not isinstance(other, Counts):
            return NotImplemented
        return self.shots == other.shots and self._same_outcomes(other)

    def __repr__(self) -> str:
        return f"Counts(counts={self._mapping()!r}, shots={self.shots})"
