"""Exception types and input checks shared across the package."""

import math
import numbers

import numpy as np


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


def check_json(value, kind: type, what: str, error: type[Exception]):
    """`value` if it is a `kind` (dict: JSON object, or list), else `error`
    naming `what`."""
    if not isinstance(value, kind):
        raise error(f"{what} is a {type(value).__name__}, expected a "
                    f"{'JSON object' if kind is dict else 'list'}")
    return value


def check_array(value, shape: tuple[int, ...], what: str,
                error: type[Exception]) -> np.ndarray:
    """`value` as a finite float64 array of exactly `shape`, else `error`
    naming `what`."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise error(f"{what} is not a numeric array: {e}") from e
    if arr.shape != shape:
        raise error(f"{what} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise error(f"{what} holds non-finite values")
    return arr
