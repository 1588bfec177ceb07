"""Entry-at-a-time archive readers: `read_archive` and `read_counts` as they
were before archives were checked as columns, kept as the oracle the column
readers must agree with.

Each entry is checked on its own by the count rules as one map (integer
counts and shots, no negative count, counts summing to the shots, fewer than
2^63 shots, bit-string keys of one width, at most 63 bits), then for a label
string and at least one shot; a label is parsed by the label grammar and
built through `TestKind`'s own checks; a record's table row is filled key by
key.
"""
import numpy as np

from noisekit.characterization import _LABEL, KINDS, Records, TestKind, _check_width
from noisekit.errors import ParseError, integer, parse_json_file
from noisekit.outcomes import Counts

MAX_BITS = 63


def _uniform_bit_length(keys) -> int:
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
    """The bit width of one count map, after the count rules."""
    values = [v if type(v) is int else integer(v, "count") for v in counts.values()]
    shots = shots if type(shots) is int else integer(shots, "shot number")
    if any(v < 0 for v in values):
        raise ValueError("negative count")
    if sum(values) != shots:
        raise ValueError(f"counts sum to {sum(values)}, shots field says {shots}")
    if shots >= 1 << 63:
        raise ValueError(f"{shots} shots do not fit int64 counts")
    return _uniform_bit_length(counts)


def from_label(label: str) -> TestKind:
    m = _LABEL.fullmatch(label)
    if m is None:
        raise ParseError(f"bad test label {label!r}")
    if m["kind"]:
        return TestKind(m["kind"], qubit=int(m["qubit"]))
    if m["length"]:
        return TestKind("hseq", qubit=int(m["hseq"]), length=int(m["length"]))
    return TestKind("bell", coupling=(int(m["a"]), int(m["b"])))


def _entries(data: dict):
    if not isinstance(data["entries"], list):
        raise TypeError("its entries are not a list")
    entries = []
    for entry in data["entries"]:
        try:
            label, counts, shots = entry["label"], entry["counts"], entry["shots"]
            if not isinstance(label, str):
                raise TypeError(f"test label {label!r} is not a string")
            width = check_counts(counts, shots)
            if not shots:
                raise ValueError("it has no shots")
            entries.append((label, counts, shots, width))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad entry {entry!r}: {exc}") from exc
    if len({entry[0] for entry in entries}) < len(entries):
        raise ValueError("it repeats a label")
    return data, entries


def read_counts(path) -> tuple[dict, dict[str, Counts]]:
    data, entries = parse_json_file(path, "archive", _entries)
    for label, *_ in entries:
        if label.partition(":")[0] in KINDS:
            from_label(label)
    out = {}
    for label, counts, shots, num_bits in entries:
        keys = sorted(counts, key=lambda k: int(k or "0", 2))
        out[label] = Counts.from_arrays(num_bits, [int(k or "0", 2) for k in keys],
                                        [counts[k] for k in keys], shots)
    return data, out


def read_archive(path) -> tuple[dict, Records]:
    data, entries = parse_json_file(path, "archive", _entries)
    tests, table = [], []
    for label, counts, _, num_bits in entries:
        test = from_label(label)
        _check_width(test, num_bits, ParseError)
        row = [0, 0, 0, 0]
        for key, n in counts.items():
            row[int(key, 2)] = n
        tests.append(test)
        table.append(row)
    shots = np.array([entry[2] for entry in entries], np.int64)
    return data, Records(tuple(tests), np.array(table, np.int64).reshape(-1, 4), shots)
