"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, violated runtime assumptions with 3, and a reference solver that
fails to converge with 4.  `unreadable` is the configuration error of an
input file that cannot be read as text.  The `require_*` checks are the
library's one judge of its scalar arguments (numbers, counts and flags);
each names the argument it refuses, and its caller keeps its own ranges.
"""

import math
import numbers

import numpy as np


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


def is_number(value) -> bool:
    """A Python or NumPy integer or float; not a boolean, NumPy's included."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def require_number(name: str, value) -> float:
    """`value` as a float: a finite real number that is not a boolean."""
    if not is_number(value):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the floats
        number = math.inf
    if not math.isfinite(number):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    return number


def require_positive(name: str, value, *, allow_zero: bool = False) -> float:
    """`require_number`, and > 0 (>= 0 with `allow_zero`)."""
    value = require_number(name, value)
    if value < 0 or (value == 0 and not allow_zero):
        raise ConfigurationError(f"{name} must be {'>=' if allow_zero else '>'} 0, got {value!r}")
    return value


def require_count(name: str, value, low: int = 0, *, int64: bool = False) -> int:
    """`value` as an int: an integral number (2.0 but not 2.5) of at least
    `low`, and with `int64` below 2**63."""
    integral = is_number(value) and (
        isinstance(value, numbers.Integral) or float(value).is_integer()
    )
    if not integral or value < low:
        raise ConfigurationError(f"{name} must be an integer >= {low}, got {value!r}")
    if int64 and value >= 2**63:
        raise ConfigurationError(f"{name} must be below 2**63 (an int64), got {value!r}")
    return int(value)


def require_flag(name: str, value) -> bool:
    """`value` as a bool: Python's True or False, or NumPy's."""
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigurationError(f"{name} must be a boolean, got {value!r}")
    return bool(value)
