"""Exception types shared across the package, and the rules on values
that raise them.

What an argument or a setting may hold is decided here, once, by three
rules: an integer in a range (:func:`check_integer`, by
:func:`is_integer`), one real number (:func:`check_real`, by
:func:`is_real`, and :func:`require_positive` for the fields of a
record), and an array of real numbers (:func:`check_array`: Bessel and
Gamma arguments, kernel distances, data, design points, box corners,
query points and the points of a rate fit).  A real number or array is
finite and, as its rule is asked, positive, nonnegative or of any sign.
Python and NumPy numbers both pass, a bool or text never does, and a
value that fails raises :class:`DomainError` naming the setting and the
value given; a value that passes is returned as an int, a float or a
float array.  Input is converted to floats here and nowhere else.
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


# Per sign of a real rule, the test of the least value and the words of
# its message; NaN fails every test.
_SIGNS = {"positive": (lambda low: low > 0.0, "positive and finite"),
          "nonnegative": (lambda low: low >= 0.0, "nonnegative and finite"),
          None: (lambda low: low > -math.inf, "finite")}


def check_real(name, value, sign="positive"):
    """``value`` as a float: :class:`DomainError` naming ``name`` unless it
    is a real number (:func:`is_real`), finite and, as ``sign`` says,
    ``"positive"``, ``"nonnegative"`` or of any sign (None)."""
    signed, rule = _SIGNS[sign]
    if not (is_real(value) and signed(value) and value < math.inf):
        raise DomainError(f"{name} must be {rule}, got {value!r}")
    return float(value)


def require_positive(record, names):
    """:func:`check_real` (positive) on each named field of the frozen
    dataclass ``record``, stored back as its float: an int or a NumPy ``float32``
    given for a kernel's field then computes in double precision, as a
    float would."""
    for name in names:
        object.__setattr__(record, name, check_real(name, getattr(record, name)))


def check_array(name, value, sign="positive"):
    """``value`` as a float array: :class:`DomainError` naming ``name``
    unless its dtype is integer or floating (not bool, text or object) and
    every entry is finite and, as ``sign`` says, ``"positive"``,
    ``"nonnegative"`` or of any sign (None).  An empty array passes.

    Two reductions decide, ``min`` and ``max``, each NaN where an entry is,
    and a NaN fails.
    An array already of doubles is returned as given, not copied.
    """
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be integer or floating numbers, got {value!r}")
    arr = arr.astype(float, copy=False)
    if arr.size:
        signed, rule = _SIGNS[sign]
        if not (signed(arr.min()) and arr.max() < math.inf):
            raise DomainError(f"{name} must be {rule}, got {value!r}")
    return arr
