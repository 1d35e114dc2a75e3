"""Exception types and input checks shared across the package."""

import math
import numbers


class SdfBlendError(Exception):
    """Base class for package-specific failures."""


class SceneError(SdfBlendError):
    """Invalid scene description (bad parameters, tree, or bounds)."""


class SamplingError(SdfBlendError):
    """A sampling routine could not satisfy its contract."""


class CheckpointError(SdfBlendError):
    """Unreadable or wrong-version checkpoint / config file."""


class GridError(SdfBlendError):
    """Invalid surfacing grid specification."""

class FieldError(SdfBlendError):
    """Invalid basis-field state (degenerate rotation, bad shapes)."""


def check_number(value, what: str, minimum: float, integer: bool = False):
    """`value` if it is a finite number (an integer if `integer`, never a
    bool) and at least `minimum`; else ValueError naming `what`."""
    kind = numbers.Integral if integer else numbers.Real
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not (integer or math.isfinite(value))):
        raise ValueError(f"{what} must be "
                         f"{'an integer' if integer else 'a finite number'}, "
                         f"got {value!r}")
    if value < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {value!r}")
    return value
