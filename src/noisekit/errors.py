"""Exception types shared across the package, and the JSON-file boundary:
the one reader, which turns malformed file content into one of them, and
the one writer."""
import json
from pathlib import Path


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
    """An estimator found no unique solution: its system is singular for the
    data, or an iterative fit missed its tolerance."""

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


def parse_json_file(path, what: str, build):
    """Read the JSON file at `path` and return build(data); malformed JSON or
    content that `build` rejects raises ParseError naming `what`."""
    try:
        return build(json.loads(Path(path).read_text()))
    except (AttributeError, KeyError, OutOfRange, TypeError, ValueError) as exc:
        raise ParseError(f"{what} {path} is malformed: {exc}") from exc


def write_json_file(path, data) -> None:
    """Write `data` to `path` as JSON with sorted keys, indented by 2."""
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True))
