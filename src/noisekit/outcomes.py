"""Outcome distributions and measured counts.

Bit order convention: classical bit 0 is the leftmost character of an
outcome string (for the standard measure(q, q) wiring this means qubit 0
is leftmost) and the most significant bit of an outcome index; the string
is the index in binary, `num_bits` wide.

Inside, an outcome set is `num_bits` plus an ascending int64 array of
outcome indices and a matching array of counts or probabilities. Bit strings
exist only at the edges (archives, reports, the CLI, tests). Each form is
built from the other on first use, so a string-built object builds no arrays
until asked and a drawn one formats no key until asked; string-keyed views
of a drawn object come back in ascending index order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

MAX_BITS = 63  # outcome indices are int64


def _uniform_bit_length(keys) -> int:
    """Common length of the bit-string keys, checked in one pass."""
    width = None
    for k in keys:
        if width is None:
            width = len(k)
        elif len(k) != width:
            lengths = sorted({len(j) for j in keys})
            raise ValueError(f"outcome keys have mixed bit-lengths {lengths}")
        if k.strip("01"):
            raise ValueError(f"outcome key {k!r} is not a bit string")
    if width and width > MAX_BITS:
        raise ValueError(f"{width}-bit outcome keys exceed {MAX_BITS} bits")
    return width or 0


def _integer(value) -> int:
    """A count or shot number as an int; a bool, float or str raises."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{value!r} is not an integer count")
    return int(value)


def _checked_arrays(num_bits: int, indices, values, dtype) -> tuple[np.ndarray, np.ndarray]:
    idx, val = np.asarray(indices, dtype=np.int64), np.asarray(values, dtype=dtype)
    if idx.ndim != 1 or idx.shape != val.shape or not 0 <= num_bits <= MAX_BITS:
        raise ValueError(f"{idx.shape} indices, {val.shape} values, {num_bits} bits")
    if idx.size and (idx[0] < 0 or idx[-1] >> num_bits or (idx[1:] <= idx[:-1]).any()):
        raise ValueError(f"indices are not ascending distinct {num_bits}-bit outcomes")
    return idx, val


class _Outcomes:
    """One outcome set as a bit-string map (`_keyed`), as ascending index
    and value arrays (`_idx`, `_val`), or both; each form is built from the
    other on first use. The string-keyed views are read-only, so the two
    forms cannot drift apart."""

    def _hold(self, num_bits: int, keyed: dict | None, idx=None, val=None) -> None:
        for name, value in (("num_bits", num_bits), ("_keyed", keyed), ("_idx", idx),
                            ("_val", val)):
            object.__setattr__(self, name, value)

    def _keys(self) -> dict:
        if self._keyed is None:
            fmt = f"0{self.num_bits}b"
            object.__setattr__(self, "_keyed", {
                format(i, fmt) if self.num_bits else "": v
                for i, v in zip(self._idx.tolist(), self._val.tolist())})
        return self._keyed

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._idx is None:
            keyed = self._keyed
            idx = np.fromiter((int(k or "0", 2) for k in keyed), np.int64, len(keyed))
            order = np.argsort(idx)
            object.__setattr__(self, "_idx", idx[order])
            object.__setattr__(self, "_val", np.fromiter(keyed.values(), self._DTYPE)[order])
        return self._idx, self._val

    @property
    def indices(self) -> np.ndarray:
        """Outcome indices, ascending (shared: do not modify)."""
        return self._arrays()[0]

    @property
    def values(self) -> np.ndarray:
        """Count or probability of each outcome in `indices` (shared: do not modify)."""
        return self._arrays()[1]

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
    _DTYPE = np.float64

    def __init__(self, probs: dict[str, float], num_bits: int = -1):
        keyed = dict(probs)
        derived = _uniform_bit_length(keyed)
        if num_bits < 0:
            num_bits = derived
        elif keyed and derived != num_bits:
            raise ValueError(f"keys are {derived}-bit, expected {num_bits}")
        for k, p in keyed.items():
            if p < -1e-12:
                raise ValueError(f"negative probability {p} for {k!r}")
        total = sum(keyed.values())
        if keyed and abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")
        self._hold(num_bits, keyed)

    @classmethod
    def from_arrays(cls, num_bits: int, indices, probs) -> Distribution:
        """Distribution over ascending distinct outcome indices."""
        idx, val = _checked_arrays(num_bits, indices, probs, np.float64)
        if val.size and (val.min() < -1e-12 or abs(val.sum() - 1.0) > 1e-9):
            raise ValueError(f"probabilities {val} are not a distribution")
        self = cls.__new__(cls)
        self._hold(num_bits, None, idx, val)
        return self

    @property
    def probs(self) -> MappingProxyType[str, float]:
        return MappingProxyType(self._keys())

    def prob(self, key: str) -> float:
        return self._keys().get(key, 0.0)

    def support(self) -> list[str]:
        return sorted(k for k, p in self._keys().items() if p > 0.0)

    def items(self):
        return self._keys().items()

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        return self.num_bits == other.num_bits and self._same_outcomes(other)

    def __repr__(self) -> str:
        return f"Distribution(probs={self._keys()!r}, num_bits={self.num_bits})"


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Counts(_Outcomes):
    """Map from outcome string to event count over a fixed number of shots."""

    shots: int
    # equality is `__eq__` below; compare=False keeps num_bits out of the
    # compared fields that `dataclasses.fields` reports
    num_bits: int = field(compare=False)
    _DTYPE = np.int64

    def __init__(self, counts: dict[str, int], shots: int):
        keyed = {k: _integer(v) for k, v in counts.items()}
        shots = _integer(shots)
        num_bits = _uniform_bit_length(keyed)
        if any(v < 0 for v in keyed.values()):
            raise ValueError("negative count")
        total = sum(keyed.values())
        if total != shots:
            raise ValueError(f"counts sum to {total}, shots field says {shots}")
        object.__setattr__(self, "shots", shots)
        self._hold(num_bits, keyed)

    @classmethod
    def from_arrays(cls, num_bits: int, indices, counts, shots: int) -> Counts:
        """Counts over ascending distinct outcome indices."""
        idx, val = _checked_arrays(num_bits, indices, counts, np.int64)
        if (val.size and val.min() < 0) or val.sum() != shots:
            raise ValueError(f"counts {val} do not make {shots} shots")
        self = cls.__new__(cls)
        object.__setattr__(self, "shots", shots)
        self._hold(num_bits, None, idx, val)
        return self

    @property
    def counts(self) -> MappingProxyType[str, int]:
        return MappingProxyType(self._keys())

    def frequency(self, key: str) -> float:
        return self._keys().get(key, 0) / self.shots if self.shots else 0.0

    def frequencies(self) -> dict[str, float]:
        """Exact f_k = C_k / N_s per observed outcome."""
        if self.shots == 0:
            return {}
        return {k: v / self.shots for k, v in self._keys().items()}

    def frequency_array(self) -> np.ndarray:
        """`frequencies()` as an array matching `indices` (zeros at zero shots)."""
        return self.values / (self.shots or 1)

    def __eq__(self, other):
        if not isinstance(other, Counts):
            return NotImplemented
        return self.shots == other.shots and self._same_outcomes(other)

    def __repr__(self) -> str:
        return f"Counts(counts={self._keys()!r}, shots={self.shots})"
