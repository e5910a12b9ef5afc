"""The number rules: one owner for every count and real number that enters
the library.

:func:`check_count` is the one rule for a count (an integer, not a
``bool``, at least some bound). Where a count has a range with its own
message, :func:`check_integer`, the rule's type test, runs before that range
test. :func:`check_real` is the one rule for a real number: an angle, a
bound value, a grid end, a budget, a cutoff or a Hamiltonian coefficient.

Every module of the package applies these rules where a value enters, the
IR included, so this module imports nothing from the package.
"""

from __future__ import annotations

from math import isfinite
from numbers import Integral, Real


def check_integer(name: str, value: int) -> None:
    """Reject a count ``name`` that is not an integer: a ``bool`` is not
    one, a numpy integer is."""
    # an int skips the ABC test, which costs more than the rest of the check
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_real(name: str, value: float, finite: bool = False) -> float:
    """``value`` as a float; a ``ValueError`` naming ``name`` unless it is a
    real number (a ``bool`` is not one, a numpy float is) within the float
    range and, with ``finite``, neither infinite nor NaN."""
    # a float skips the ABC test, which costs more than the rest of the check
    real = type(value) is float or not isinstance(value, bool) and isinstance(value, Real)
    try:
        number = float(value) if real else None
    except OverflowError:  # an integer beyond the float range
        number = None
    if number is None or finite and not isfinite(number):
        kind = "a finite real number" if finite else "a real number"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return number


def check_count(name: str, value: int, low: int = 1) -> None:
    """Reject a count ``name`` that is not an integer ``>= low``
    (:func:`check_integer`). Every count a caller passes in (qubits, shots,
    rounds, seeds, grid points, a bond cap, a qubit index or classical bit
    of an instruction) is checked by this rule where it enters, before any
    gate runs."""
    check_integer(name, value)
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
