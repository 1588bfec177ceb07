"""Exception types shared across the package, and the file boundary: the one
JSON reader, which turns malformed file content into one of them, the one
file writer and the JSON writer on it, which makes `json`'s indent-2 bytes
with its C encoder, and the one integer check of counts, shots and qubits."""
import functools
import json
import os
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from pathlib import Path

import numpy as np


class NoisekitError(Exception):
    """Base class for all noisekit errors."""


class OutOfRange(NoisekitError):
    """A qubit/classical index or probability is outside its valid range."""


class UncoupledPair(NoisekitError):
    """A two-qubit gate acts on a pair not present in the device coupling set."""


class NoPath(NoisekitError):
    """No simple path of the requested length exists in the coupling graph."""


class TooWide(NoisekitError):
    """Circuit measures more bits than the simulator's resource guard allows."""


class ArityMismatch(NoisekitError):
    """Bit-length mismatch between distributions, counts, or readout models."""


class OddHadamardLength(NoisekitError):
    """Hadamard sequence tests require an even gate count."""


class WrongKind(NoisekitError):
    """An estimator received a characterization of the wrong test kind."""


class NoConvergence(NoisekitError):
    """An estimator found no unique solution: its system is singular for the data."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class InsufficientLengths(NoisekitError):
    """Hadamard-error fit needs at least two distinct sequence lengths."""


class MissingCoverage(NoisekitError):
    """Characterization data does not cover a required register element."""

    def __init__(self, message, missing=None):
        super().__init__(message)
        self.missing = list(missing or [])


class ParseError(NoisekitError):
    """A data file does not conform to its schema."""


class LabelMismatch(NoisekitError):
    """A counts archive is missing labels required by a suite plan."""

    def __init__(self, message, missing=None):
        super().__init__(message)
        self.missing = list(missing or [])


class OracleNotAdjacent(NoisekitError):
    """Bernstein-Vazirani oracle qubit is not coupled to a required data qubit."""


class QubitCollision(NoisekitError):
    """The same physical qubit was assigned to two roles."""


class EmptyLadder(NoisekitError):
    """Model selection requires at least one candidate model."""


class ConfigError(NoisekitError):
    """Invalid command-line or pipeline configuration."""


def integer(value, what: str) -> int:
    """`value` as an int; a bool, float or str raises TypeError naming `what`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{what} {value!r} is not an integer")
    return int(value)


def parse_json_file(path, what: str, build):
    """Read the JSON file at `path` and return build(data); malformed JSON
    (nested deeper than the parser recurses too) or content that `build`
    rejects raises ParseError naming `what`."""
    try:
        return build(json.loads(Path(path).read_text()))
    except (AttributeError, KeyError, OutOfRange, RecursionError, TypeError, ValueError) as exc:
        raise ParseError(f"{what} {path} is malformed: {exc}") from exc


_CONTAINERS = (dict, list, tuple)
_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _flat_encoder(depth: int):
    """`json`'s C encoder, set as `json.dumps(indent=2, sort_keys=True)` sets
    its Python one, except that each item of a container opens a line
    `depth` levels deep and nested containers get no lines of their own
    (and no circular-reference check)."""
    return c_make_encoder(None, JSONEncoder().default, encode_basestring_ascii, None,
                          ": ", ",\n" + "  " * depth, True, False, True)


def _key(key) -> str:
    """A dict key as `json` writes it: a string, or a scalar spelled as one."""
    if not isinstance(key, str):
        if not isinstance(key, (int, float)) and key is not None:  # bool is an int
            raise TypeError("keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}")
        key = "".join(_flat_encoder(0)(key, 0))
    return encode_basestring_ascii(key)


def _indented(obj, depth: int) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)` for `obj` nested `depth`
    levels deep. A container of scalars and empty containers goes to the C
    encoder whole, and its brackets are re-padded; only containers that hold
    other containers are walked here."""
    if not isinstance(obj, _CONTAINERS) or not obj:
        return "".join(_flat_encoder(0)(obj, 0))
    items = obj.values() if isinstance(obj, dict) else obj
    pad = "\n" + "  " * (depth + 1)
    if _SCALARS.issuperset(map(type, items)) or not any(
            isinstance(item, _CONTAINERS) and item for item in items):
        text = "".join(_flat_encoder(depth + 1)(obj, 0))
        return f"{text[0]}{pad}{text[1:-1]}{pad[:-2]}{text[-1]}"
    if isinstance(obj, dict):
        body = [f"{_key(key)}: {_indented(value, depth + 1)}"
                for key, value in sorted(obj.items())]
        return f"{{{pad}{(',' + pad).join(body)}{pad[:-2]}}}"
    body = [_indented(item, depth + 1) for item in obj]
    return f"[{pad}{(',' + pad).join(body)}{pad[:-2]}]"


def write_file(path, text: str) -> None:
    """Write `text` to `path` as UTF-8, newlines as they are. An existing
    file (or a symlink's target) is cut to the new length and overwritten in
    place, which on a file system mounted with `discard` costs far less than
    truncating it to zero; a new file gets mode 0o666 less the umask. A crash
    mid-write, or a reader during it, can find a file of the new length that
    holds, past a prefix of the new text, the old file's bytes (or zeros)."""
    data = text.encode()
    with open(path, "wb", opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as fh:
        fh.truncate(len(data))
        fh.write(data)


def write_json_file(path, data) -> None:
    """Write `data` to `path` as JSON with sorted keys, indented by 2: the
    bytes of `json.dumps(data, indent=2, sort_keys=True)`."""
    write_file(path, _indented(data, 0))
