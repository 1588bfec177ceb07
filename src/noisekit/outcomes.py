"""Outcome distributions and measured counts.

Bit order convention: classical bit 0 is the leftmost character of an
outcome string (for the standard measure(q, q) wiring this means qubit 0
is leftmost).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ArityMismatch


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
    return width or 0


@dataclass(frozen=True)
class Distribution:
    """Map from n-bit outcome string to probability; sums to 1 within 1e-9."""

    probs: dict[str, float]
    num_bits: int = field(default=-1)

    def __post_init__(self):
        object.__setattr__(self, "probs", dict(self.probs))
        derived = _uniform_bit_length(self.probs)
        if self.num_bits < 0:
            object.__setattr__(self, "num_bits", derived)
        elif self.probs and derived != self.num_bits:
            raise ValueError(f"keys are {derived}-bit, expected {self.num_bits}")
        for k, p in self.probs.items():
            if p < -1e-12:
                raise ValueError(f"negative probability {p} for {k!r}")
        total = sum(self.probs.values())
        if self.probs and abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def prob(self, key: str) -> float:
        return self.probs.get(key, 0.0)

    def support(self) -> list[str]:
        return sorted(k for k, p in self.probs.items() if p > 0.0)

    def items(self):
        return self.probs.items()


@dataclass(frozen=True)
class Counts:
    """Map from outcome string to event count over a fixed number of shots."""

    counts: dict[str, int]
    shots: int
    num_bits: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "counts", {k: int(v) for k, v in self.counts.items()}
        )
        object.__setattr__(self, "num_bits", _uniform_bit_length(self.counts))
        if any(v < 0 for v in self.counts.values()):
            raise ValueError("negative count")
        total = sum(self.counts.values())
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, shots field says {self.shots}")

    def frequency(self, key: str) -> float:
        return self.counts.get(key, 0) / self.shots if self.shots else 0.0

    def frequencies(self) -> dict[str, float]:
        """Exact f_k = C_k / N_s per observed outcome."""
        if self.shots == 0:
            return {}
        return {k: v / self.shots for k, v in self.counts.items()}

    def to_distribution(self) -> Distribution:
        return Distribution(self.frequencies())


def as_frequencies(obj: Counts | Distribution) -> tuple[dict[str, float], int]:
    """Normalize Counts or Distribution into (frequency map, bit length)."""
    if isinstance(obj, Counts):
        return obj.frequencies(), obj.num_bits
    if isinstance(obj, Distribution):
        return dict(obj.probs), obj.num_bits
    raise ArityMismatch(f"expected Counts or Distribution, got {type(obj).__name__}")
