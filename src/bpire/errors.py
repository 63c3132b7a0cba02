"""Exception types shared across the package.

Plain ValueError/OverflowError/OSError are used where Python already has the
right builtin; the classes here name failure modes that deserve a distinct
except-clause in callers or tests.
"""


class BpireError(Exception):
    """Base class for package-specific failures."""


class SeriesDivergence(BpireError):
    """A moment series failed its tail bound within the iteration cap, or
    its sum does not fit in float64.

    Every moment of the supported offspring families is finite, and its
    series costs what the law's spread needs, not its mean (poisson:6000000
    passes), but a huge spread needs more terms than the cap: `bpire check`
    at kappa = 0.01 on the atoms `0.1 geometric0:1e-7 dpareto:2,1,0` (sd
    10^7) and `0.9 poisson:0 dpareto:2,1,0`, where E[m^kappa] = 0.117,
    stops with it (exit 3).  So does a high order: at kappa = 300 the moment
    of order 300.5 of poisson:0.3 is about e^972, past float64's 1.8e308.
    At E[m^kappa] >= 1 the series is not summed (exit 2).
    """


class NotSubcritical(BpireError):
    """Model fails the standing moment condition; long-run sampling refused."""


class WorkerDied(BpireError):
    """A worker process of the chunk pool died, as when the system killed
    it for memory."""


class PmfUnavailable(BpireError):
    """Exact kernel construction requested for a law without tractable pmf."""


class NoConvergence(BpireError):
    """Power iteration did not meet the sweep tolerance within its sweep cap."""


class ResidualTooLarge(BpireError):
    """Truncated enumeration leaves more probability mass than allowed."""


class ReferenceVanishes(BpireError):
    """Reference survival underflowed to zero at a requested grid point."""


class DegenerateOrderStats(BpireError):
    """Order statistics needed by an estimator are tied or non-positive."""


class InsufficientData(BpireError, ValueError):
    """An estimator got too few samples, or a level no sample reached, to
    produce a value; more replicas are needed."""


class ParseError(BpireError):
    """Config file could not be parsed; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(BpireError):
    """Config parsed but a field value is out of contract; names the field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
