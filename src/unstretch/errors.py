"""Exceptions shared across the package, the default element budget, and
the text of a bound in their messages.

The CLI maps these onto exit codes: ValidationError -> 2, BudgetError -> 3,
CertificationError -> 4.
"""

# Element-count cap for ball/neighborhood construction. Growth is exponential,
# so this bounds memory, not accuracy; results below the cap are exact. It
# lives in this leaf module so that the config can default to it without
# loading the word-metric modules.
DEFAULT_ELEMENT_BUDGET = 50_000_000


def int_text(n: int) -> str:
    """``str(n)`` of a bound n >= 0, or, when n has more digits than Python
    converts to text (``sys.get_int_max_str_digits``), its size as a power
    of two."""
    try:
        return str(n)
    except ValueError:
        return f"more than 2^{(n - 1).bit_length() - 1}"


class UnstretchError(Exception):
    """Base class for all package errors."""


class ValidationError(UnstretchError):
    """An input or configuration violates a documented precondition."""


class BudgetError(UnstretchError):
    """A search exhausted its element budget before completing.

    ``completed_radius`` reports the largest fully explored radius (or round)
    at the time the budget tripped; ``partial`` may carry partial results when
    they are still meaningful.
    """

    def __init__(self, message, completed_radius=None, partial=None):
        super().__init__(message)
        self.completed_radius = completed_radius
        self.partial = partial


class CertificationError(UnstretchError):
    """An exact certification failed (envelope or inclusion violation).

    This falsifies the harness, not the theory: it means arithmetic, a box
    parameter, or an inclusion bound was implemented or configured wrongly.
    """
