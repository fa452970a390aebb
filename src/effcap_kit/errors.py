"""Exception hierarchy and the argument checks shared by all modules.

The CLI maps these exceptions onto process exit codes, so library code
should raise the most specific class that applies. Every public
constructor and entry point reads its scalar arguments through the as_*
checks, which return the converted value or raise DomainError.
"""

import math
import operator


class EffcapError(Exception):
    """Base class for every error raised by this package."""


class DomainError(EffcapError, ValueError):
    """A parameter is outside the domain a formula is valid on."""


class ConvergenceError(EffcapError, RuntimeError):
    """An iterative solver failed to reach its stated tolerance."""


class GridEndpointError(DomainError):
    """A grid minimizer landed on an endpoint; the grid is too narrow."""


class DegenerateQueueError(DomainError):
    """Queue simulation is non-stationary or the queue never grows."""


class InsufficientTailError(ConvergenceError):
    """Too few tail samples to fit a decay exponent."""


def as_real(name: str, value) -> float:
    """value as a float, if float() takes it; NaN and the infinities pass."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be a real number, got {value!r}") from None


def as_positive(name: str, value) -> float:
    """value as a float that is finite and > 0."""
    x = as_real(name, value)
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be finite and > 0, got {x!r}")
    return x


def as_nonnegative(name: str, value) -> float:
    """value as a float that is finite and >= 0."""
    x = as_real(name, value)
    if not 0.0 <= x < math.inf:
        raise DomainError(f"{name} must be finite and >= 0, got {x!r}")
    return x


def _as_int(name: str, value) -> int:
    # operator.index takes numpy integers and refuses 3.0; bool is refused here
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"{name} must be an integer, got {value!r}")


def as_integer(name: str, value, least: int) -> int:
    """value as an int that is >= least."""
    n = _as_int(name, value)
    if n < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {n!r}")
    return n


def as_seed(name: str, value) -> int:
    """value as an int in [0, 2**64), the range of numpy's seeds."""
    s = _as_int(name, value)
    if not 0 <= s < 2**64:
        raise DomainError(f"{name} must lie in [0, 2**64), got {s!r}")
    return s
