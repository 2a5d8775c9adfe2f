"""Default search budgets, overridable through the CRTKIT_BUDGET variable."""

import os

from .errors import InputError

# Candidate target tuples a brute-force CR search may examine.
DEFAULT_TUPLE_BUDGET = 10**7
# Congruences the join-closure of principal congruences may collect.
DEFAULT_CONGRUENCE_BUDGET = 100_000


def budget(default: int) -> int:
    """Return `default`, or the CRTKIT_BUDGET override when set.

    The override must be a positive integer; anything else raises InputError.
    """
    raw = os.environ.get("CRTKIT_BUDGET")
    if raw is None:
        return default
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
    except ValueError:
        raise InputError(
            f"CRTKIT_BUDGET must be a positive integer, got {raw!r}"
        ) from None
    return value
