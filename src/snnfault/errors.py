"""Exception taxonomy. Everything the toolkit raises on purpose derives from
SnnFaultError so callers (and the CLI) can tell deliberate rejections from bugs."""


class SnnFaultError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(SnnFaultError):
    """Tensor shapes that do not compose, or inputs of the wrong shape."""


class FormatError(SnnFaultError):
    """A file or descriptor string violates its format contract.

    `line` is the 1-based line number when the problem is tied to a text line.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class AddressError(SnnFaultError):
    """A fault descriptor points outside the addressable parameter space."""


class FaultKindError(SnnFaultError):
    """A fault was used with the wrong mechanism (static vs per-timestep) or an
    unsupported mode for its target."""


class CompatibilityError(SnnFaultError):
    """A requested injection point does not exist anywhere in the network."""


class ConsistencyError(SnnFaultError):
    """Cross-file disagreement, e.g. an outcome row referencing an unknown fault."""


class ResumeError(SnnFaultError):
    """A campaign checkpoint is corrupt or inconsistent with its outcome rows."""


class WorkerError(SnnFaultError):
    """A campaign worker process died; the acknowledged faults stay resumable."""
