"""Exception types shared across the package.

Each class carries the ``code`` the CLI prints in its JSON error.
"""

import cmath
import math
from numbers import Complex, Real


class ParcylError(Exception):
    """Base class for all package errors."""

    code = "ERROR"


class ArgumentError(ParcylError):
    """A request argument is missing, malformed or not finite."""

    code = "ARGUMENT"


class CutError(ParcylError):
    """Argument lies on (or too close to) a branch cut."""

    code = "CUT"


class TraceStalled(ParcylError):
    """Level-curve tracer step collapsed near a singularity."""

    code = "TRACE_STALLED"


class NoPath(ParcylError):
    """No monotone progressive path exists for the requested point."""

    code = "NO_PATH"


class DomainError(ParcylError):
    """Point outside the validity domain of the requested expansion."""

    code = "DOMAIN"


class OrderError(ParcylError):
    """Requested order not available or violates a convergence constraint."""

    code = "ORDER"


class TurningPointError(ParcylError):
    """Operation undefined this close to a turning point."""

    code = "TURNING_POINT"


class ConsistencyError(ParcylError):
    """An exact identity failed during generation; indicates a bug."""

    code = "CONSISTENCY"


class PoleError(ParcylError):
    """Connection constant undefined at this parameter value."""

    code = "POLE"


class PairError(ParcylError):
    """Requested (j, k) recession pair has an empty validity domain."""

    code = "EMPTY_PAIR"


class AccuracyError(ParcylError):
    """Oracle could not certify the requested accuracy."""

    code = "ACCURACY"


class StiffnessError(ParcylError):
    """ODE integrator step size collapsed."""

    code = "STIFFNESS"


def check_real(*values: float) -> None:
    """ArgumentError unless every value is a finite real number."""
    for x in values:
        if not isinstance(x, Real) or not math.isfinite(x):
            raise ArgumentError(f"{x!r} is not a finite real number")


def check_points(*points: complex) -> None:
    """ArgumentError unless every point is a finite (complex) number."""
    for z in points:
        if not isinstance(z, Complex) or not cmath.isfinite(z):
            raise ArgumentError(f"z={z!r} is not a finite number")


def check_inputs(u: float, *points: complex) -> None:
    """ArgumentError unless the parameter u is a finite real number and
    every point a finite number, then DomainError unless u > 0."""
    check_real(u)
    check_points(*points)
    if u <= 0:
        raise DomainError(f"u={u} must be positive")
