"""Exception types, and the input checks that every document reader uses."""

import itertools
import json
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


def read_json(path, what: str, error: type[Exception]):
    """The JSON document in file `path`, else `error` naming `what`."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise error(f"cannot read {what} file {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise error(f"{what} file {path} is not valid JSON: {e}") from e


def check_document(doc, version: int | None, what: str,
                   error: type[Exception], fields=None) -> dict:
    """`doc` if it is a JSON object whose "version" is `version` (None: a
    document without one) and whose keys, if `fields` is given, are all in
    `fields`; else `error` naming `what`."""
    check_json(doc, dict, f"{what} document" if version is None else
               f"unsupported {what} version: {what} document", error)
    if version is not None and doc.get("version") != version:
        raise error(f"unsupported {what} version {doc.get('version')!r}")
    unknown = sorted(set(doc) - set(fields or doc))
    if unknown:
        raise error(f"unknown {what} fields: {unknown}")
    return doc


def check_number(value, what: str, minimum: float, integer: bool = False,
                 error: type[Exception] = ValueError):
    """`value` if it is a finite number (an integer if `integer`, never a
    bool) and at least `minimum`; else `error` naming `what`."""
    kind = numbers.Integral if integer else numbers.Real
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not (integer or math.isfinite(value))):
        raise error(f"{what} must be "
                    f"{'an integer' if integer else 'a finite number'}, "
                    f"got {value!r}")
    if value < minimum:
        raise error(f"{what} must be >= {minimum}, got {value!r}")
    return value


def check_positive(value, what: str):
    """`value` if it is a finite number > 0; else ValueError naming `what`."""
    if check_number(value, what, -math.inf) <= 0:
        raise ValueError(f"{what} must be > 0, got {value!r}")
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
    naming `what`. Entries must be numbers, not strings such as "1" or
    booleans (numpy reads `[true, 0.5]` as a float array, so nested lists
    are scanned for them)."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as e:
        raise error(f"{what} is not a numeric array: {e}") from e
    if arr.dtype.kind not in "iuf":
        raise error(f"{what} holds entries that are not numbers")
    if arr.shape != shape:
        raise error(f"{what} has shape {arr.shape}, expected {shape}")
    entries = [value]
    for _ in shape:  # a regular nesting, as its shape shows
        entries = itertools.chain.from_iterable(entries)
    if bool in set(map(type, entries)):
        raise error(f"{what} holds entries that are not numbers")
    arr = arr.astype(np.float64, copy=False)
    if not np.all(np.isfinite(arr)):
        raise error(f"{what} holds non-finite values")
    return arr
