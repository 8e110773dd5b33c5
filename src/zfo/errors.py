"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, violated runtime assumptions with 3, and a reference solver that
fails to converge with 4.  `unreadable` is the configuration error of an
input file that cannot be read as text.
"""


class ZfoError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(ZfoError):
    """Invalid or inconsistent user-supplied configuration (exit code 2)."""


class AssumptionViolation(ZfoError):
    """A runtime assumption failed, e.g. a disconnected communication
    graph or a staleness window overrun (exit code 3)."""


class ProtocolViolation(AssumptionViolation):
    """The information-exchange protocol referenced state it no longer
    holds, such as a perturbation evicted from the history window."""


class DomainError(AssumptionViolation):
    """A point left its feasible set where the model forbids it, e.g. an
    infeasible joint action submitted for evaluation."""


class OracleError(ZfoError):
    """The centralized reference solver did not certify convergence
    (exit code 4)."""


def unreadable(path: str, exc: OSError | UnicodeDecodeError, what: str = "file") -> ConfigurationError:
    """The error for the file at `path` (a `what`) when opening or decoding
    it as UTF-8 raised `exc`, naming the path and the reason."""
    if isinstance(exc, OSError):
        reason = exc.strerror
    else:
        reason = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
    return ConfigurationError(f"cannot read {what} {path}: {reason}")
