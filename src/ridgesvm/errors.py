"""Exception types shared across the package."""


class RidgeSvmError(Exception):
    """Base class for all package-specific errors."""


# -- linear algebra ---------------------------------------------------------

class NotPositiveDefinite(RidgeSvmError):
    """A matrix expected to be SPD produced a pivot at or below tolerance."""


class SingularBorder(RidgeSvmError):
    """The border vector is (numerically) orthogonal to the inverse range."""


class SingularSchurBlock(RidgeSvmError):
    """The Schur complement of a grown block is not invertible."""


class SingularCornerBlock(RidgeSvmError):
    """The corner block removed during a shrink update is not invertible."""


# -- kernels ----------------------------------------------------------------

class DimensionMismatch(RidgeSvmError, ValueError):
    """Feature vectors with incompatible dimensions."""


# -- model state ------------------------------------------------------------

class InconsistentState(RidgeSvmError):
    """A multiplier/margin combination violates the optimality regions."""


class UnknownId(RidgeSvmError):
    """A referenced sample id is not present in the model."""


class InvalidParameter(RidgeSvmError, ValueError):
    """A kernel, penalty or solver parameter outside its domain (NaN is outside every one)."""


class InvalidSample(RidgeSvmError, ValueError):
    """A state is built from a repeated or fractional id, a non-finite value or an
    SVM label other than -1 or +1."""


class InvalidBatch(RidgeSvmError, ValueError):
    """An update batch names an arrival id that is not fresh, a removal twice, a
    fractional id, a non-finite value or an SVM label other than -1 or +1."""


# -- solvers ----------------------------------------------------------------

class SingleClassInput(RidgeSvmError):
    """Classification training data contains a single class."""


class NoConvergence(RidgeSvmError):
    """The batch solver exhausted its iteration budget."""

    def __init__(self, message, worst_gap=None):
        super().__init__(message)
        self.worst_gap = worst_gap


class NonpositiveRho(RidgeSvmError):
    """Multiplier prediction requires a strictly positive ridge."""


class EmptyS(RidgeSvmError):
    """No unbounded support vectors: the equilibrium system is undefined.

    Raised by a bordered solve over an empty ``S``, and by the empty-S step if
    no row bounds the bias on the side the balance needs (a one-class SVM)."""


class RepairDivergence(RidgeSvmError):
    """Membership repair did not settle within the allowed passes."""


class StalledPath(RidgeSvmError):
    """The path follower made no progress (degenerate event cycling)."""


class InconsistentEvent(RidgeSvmError):
    """A path event does not match the current membership of its sample."""


# -- data handling ----------------------------------------------------------

class ParseError(RidgeSvmError):
    """A CSV cell could not be parsed; carries row/column information."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class LabelDomainError(RidgeSvmError):
    """Classification labels are not drawn from {0,1} or {-1,+1}."""


class ConstantColumn(RidgeSvmError):
    """A feature (or label) column has zero variance."""


class TooFewSamples(RidgeSvmError, ValueError):
    """A data set holds fewer samples than fitting it needs."""


class PoolExhausted(RidgeSvmError):
    """The incremental pool cannot supply the requested rounds."""


class SchemaVersionMismatch(RidgeSvmError):
    """A model file was written with an unsupported format version."""


class CorruptFile(RidgeSvmError):
    """A model file is truncated or structurally invalid."""
