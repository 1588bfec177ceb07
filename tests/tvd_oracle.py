"""Dict-based total variation distance: the independent oracle for
`noisekit.evaluation.tvd`.

Half the sum, over the union of both sides' outcome strings, of the
absolute frequency gap. It reads only the string-keyed views (`Counts.
frequencies()`, `Distribution.probs`), never the index arrays, and sums in
sorted key order so that it is deterministic.
"""
from __future__ import annotations

from noisekit.errors import ArityMismatch
from noisekit.outcomes import Counts, Distribution


def _frequencies(obj: Counts | Distribution) -> tuple[dict[str, float], int]:
    if isinstance(obj, Counts):
        return obj.frequencies(), obj.num_bits
    if isinstance(obj, Distribution):
        return dict(obj.probs), obj.num_bits
    raise ArityMismatch(f"expected Counts or Distribution, got {type(obj).__name__}")


def tvd_by_keys(a: Counts | Distribution, b: Counts | Distribution) -> float:
    fa, bits_a = _frequencies(a)
    fb, bits_b = _frequencies(b)
    if bits_a != bits_b:
        raise ArityMismatch(f"cannot compare {bits_a}-bit with {bits_b}-bit outcomes")
    return 0.5 * sum(abs(fa.get(k, 0.0) - fb.get(k, 0.0)) for k in sorted(set(fa) | set(fb)))
