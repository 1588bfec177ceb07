"""Exception types shared across the package."""


class NoisekitError(Exception):
    """Base class for all noisekit errors."""


class OutOfRange(NoisekitError):
    """A qubit/classical index or probability is outside its valid range."""


class UncoupledPair(NoisekitError):
    """A two-qubit gate acts on a pair not present in the device coupling set."""


class NoPath(NoisekitError):
    """No simple path of the requested length exists in the coupling graph."""


class TooWide(NoisekitError):
    """Circuit exceeds the simulator's qubit-count resource guard."""


class NormDrift(NoisekitError):
    """A simulated statevector lost its unit norm (a faulty update kernel)."""


class ArityMismatch(NoisekitError):
    """Bit-length mismatch between distributions, counts, or readout models."""


class OddHadamardLength(NoisekitError):
    """Hadamard sequence tests require an even gate count."""


class WrongKind(NoisekitError):
    """An estimator received a characterization of the wrong test kind."""


class NoConvergence(NoisekitError):
    """Iterative solver failed to reach its residual tolerance."""

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
