"""Semantic exception hierarchy: one class per failure mode.

Every check in this package raises a subclass of :class:`MixbenchError`, so
callers can catch one base class. Each subclass is a failure mode, and the
message names the field or condition that failed:

- :class:`DomainError`: an input that the call does not accept (a value out
  of range, a count too small, mismatched shapes, a malformed config, an
  unwritable output path).
- :class:`PreconditionViolated`: the inputs are well formed, but a stated
  hypothesis of a bound or construction does not hold for them.
- :class:`BudgetExceeded`: an enumeration or a randomized construction would
  exceed, or ran out of, its search budget.
- :class:`NumericalError`: an adaptive numerical routine could not reach the
  requested accuracy.
"""


class MixbenchError(Exception):
    """Base class for all mixbench errors."""


class DomainError(MixbenchError):
    """An input that the call does not accept; the message names it."""


class PreconditionViolated(MixbenchError):
    """A stated hypothesis of a bound or construction does not hold."""


class BudgetExceeded(MixbenchError):
    """A search would exceed, or ran out of, its budget."""


class NumericalError(MixbenchError):
    """An adaptive numerical routine could not reach the requested accuracy."""


def _require(cond: bool, message: str) -> None:
    """Raise PreconditionViolated with ``message`` unless ``cond`` holds."""
    if not cond:
        raise PreconditionViolated(message)
