"""Boundary checks shared by the declarative specs.

The public specs (``ScenarioSpec``, ``ArrivalSpec``, ``FaultSpec``,
``FaultEvent``, ``ExperimentPlan``), the simulator and the scheduling
environment reject a bad number where it enters, with an error that
names the field, instead of letting it fail or hang inside a run.
``error`` picks a spec's own ``ValueError`` subclass.
"""

from __future__ import annotations

import math
import numbers

__all__ = ["is_finite_number", "require_finite", "require_integer"]


def is_finite_number(value) -> bool:
    """A real, non-boolean number that is neither infinite nor NaN."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def require_finite(name: str, value, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is a finite,
    non-boolean real number."""
    if not is_finite_number(value):
        raise error(f"{name} must be a finite number, got {value!r}")


def require_integer(name: str, value, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is a
    non-boolean integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
