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
from types import MappingProxyType

import numpy as np

from .errors import integer

MAX_BITS = 63  # outcome indices are int64


def _uniform_bit_length(keys) -> int:
    """Common length of the bit-string keys."""
    widths = {len(k) for k in keys}
    if len(widths) > 1:
        raise ValueError(f"outcome keys have mixed bit-lengths {sorted(widths)}")
    if any(k.strip("01") for k in keys):
        raise ValueError(f"outcome keys {list(keys)} are not all bit strings")
    width = widths.pop() if widths else 0
    if width > MAX_BITS:
        raise ValueError(f"{width}-bit outcome keys exceed {MAX_BITS} bits")
    return width


def check_counts(counts: dict, shots) -> int:
    """The bit width of `counts`, an outcome string -> count map over `shots`
    shots, after checking the count rules: counts and shots are integers
    (TypeError otherwise), the keys are bit strings of one width, no count
    is negative and the counts sum to the shots, fewer than 2^63 so that
    they fit int64 (ValueError otherwise)."""
    values = [v if type(v) is int else integer(v, "count") for v in counts.values()]
    shots = shots if type(shots) is int else integer(shots, "shot number")
    if any(v < 0 for v in values):
        raise ValueError("negative count")
    if sum(values) != shots:
        raise ValueError(f"counts sum to {sum(values)}, shots field says {shots}")
    if shots >= 1 << 63:
        raise ValueError(f"{shots} shots do not fit int64 counts")
    return _uniform_bit_length(counts)


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
        derived = _uniform_bit_length(keyed)
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
        self = cls.__new__(cls)
        object.__setattr__(self, "shots", shots)
        self._hold(num_bits, idx, val)
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
