"""Exception hierarchy shared by all polydist modules."""


class PolydistError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PolydistError):
    """A textual input could not be parsed.

    Carries a best-effort (line, column) position when known.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = f"{message} (line {line}, column {column})"
        elif line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)


class ValidationError(PolydistError):
    """A structurally well-formed input violates a documented invariant."""


class SpaceMismatch(PolydistError):
    """Two operands live in incompatible spaces."""


class UnboundedSet(PolydistError):
    """A set with an unbounded dimension was constructed."""


class EmptySet(PolydistError):
    """Lexicographic extremum requested on an empty set."""


class SetTooLarge(PolydistError):
    """A set to enumerate holds a box of more points than ``sys.maxsize``."""


class IterationCapExceeded(PolydistError):
    """A fixpoint loop failed to converge within its iteration budget."""


class AnalysisError(PolydistError):
    """Base class for failures of the analysis pipeline."""


class UncoveredRead(AnalysisError):
    """A read instance has no producing write; the scop is missing its prologue."""


class IndivisibleExtent(ValidationError):
    """A field extent is not divisible by the grid extent along some dimension."""


class EvaluationError(PolydistError):
    """Type error or bad reference while evaluating a statement body."""


class GeometryMismatch(PolydistError):
    """A plan does not fit the grid, fields or statements it is run with."""


class SimulationFault(PolydistError):
    """Base class for faults the simulator detects while running a plan."""


class DeadlockDetected(SimulationFault):
    """All simulated nodes are blocked and no message can be delivered."""


class BufferStateViolation(SimulationFault):
    """A communication buffer was used in an illegal state."""


class NotLocal(SimulationFault):
    """A node accessed a field element that is not one of its home elements."""
