"""Exception types shared across the package, and the rules on values
that raise them.

What an argument or a setting may hold is decided here, once: a real
number (:func:`is_real`), an integer (:func:`is_integer`), a positive
finite real (:func:`check_positive`, :func:`require_positive`), an
integer in a range (:func:`check_integer`), or an array of finite numbers,
positive, nonnegative or of any sign (:func:`check_array`: Bessel and
Gamma arguments, kernel distances, data, and the points of a rate fit).
Python and NumPy numbers both pass, a bool or text never does, and a
value that fails raises :class:`DomainError` naming the setting and the
value given; a value that passes is returned as an int, a float or a
float array.
"""

import math
import numbers

import numpy as np


class MaternSmoothError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MaternSmoothError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class AccuracyError(MaternSmoothError, ArithmeticError):
    """A numerical routine could not reach its accuracy target.

    The ``achieved`` attribute carries an estimate of the relative error
    that was actually reached, when one is available.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class DegenerateDesignError(MaternSmoothError, ValueError):
    """A point set contains duplicates or is otherwise unusable."""


class ConditioningError(MaternSmoothError, ArithmeticError):
    """Cholesky factorization of a kernel matrix failed.

    Signals a numerically singular kernel matrix, typically caused by
    near-duplicate points or an extreme smoothness/length-scale choice.
    No jitter is ever added silently; callers decide how to react.

    Attributes
    ----------
    pivot_index : int
        Zero-based index of the first offending pivot.
    pivot_value : float
        Value of that pivot (non-positive or below the relative threshold).
    """

    def __init__(self, message, pivot_index=-1, pivot_value=float("nan")):
        super().__init__(message)
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value


class EstimationError(MaternSmoothError, RuntimeError):
    """No parameter value in the search bracket could be evaluated."""


def is_real(value):
    """Whether ``value`` is a real number, Python or NumPy, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_integer(value):
    """Whether ``value`` is a Python or NumPy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_integer(name, value, low, high=math.inf):
    """``value`` as an int: :class:`DomainError` naming ``name`` unless it is
    an integer (:func:`is_integer`) in ``[low, high]``."""
    if not (is_integer(value) and low <= value <= high):
        span = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise DomainError(f"{name} must be an integer {span}, got {value!r}")
    return int(value)


def check_positive(name, value):
    """``value`` as a float: :class:`DomainError` naming ``name`` unless it
    is a positive finite real number (:func:`is_real`)."""
    if not (is_real(value) and math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def require_positive(record, names):
    """:func:`check_positive` on each named field of the frozen dataclass
    ``record``, stored back as its float: an int or a NumPy ``float32``
    given for a kernel's field then computes in double precision, as a
    float would."""
    for name in names:
        object.__setattr__(record, name, check_positive(name, getattr(record, name)))


def check_array(name, value, sign="positive"):
    """``value`` as a float array: :class:`DomainError` naming ``name``
    unless its dtype is integer or floating (not bool, text or object) and
    every entry is finite and, as ``sign`` says, ``"positive"``,
    ``"nonnegative"`` or of any sign (None).  An empty array passes.

    Two reductions decide, ``min`` and ``max``: a NaN fails the second.
    An array already of doubles is returned as given, not copied.
    """
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be integer or floating numbers, got {value!r}")
    arr = arr.astype(float, copy=False)
    if arr.size:
        low = arr.min()
        signed = {"positive": low > 0.0, "nonnegative": low >= 0.0, None: low > -math.inf}[sign]
        if not (signed and arr.max() < math.inf):
            rule = f"{sign} and finite" if sign else "finite"
            raise DomainError(f"{name} must be {rule}, got {value!r}")
    return arr
