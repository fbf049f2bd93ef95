"""The tower function and iterated logarithm (Definition 3.4).

``tow(j)`` is the height-``j`` tower of twos and ``log*(k)`` is the least
number of times ``log2`` must be applied to bring ``k`` to at most 1.
``tow(5) = 2^65536`` is a 65537-bit integer Python handles fine;
``tow(6)`` is physically unrepresentable, so :func:`tow` refuses heights
above :data:`TOW_MAX_EXACT` and :func:`log_star` never materialises a
tower — it works downward with ``bit_length``.
"""

from __future__ import annotations

import math

#: Largest tower height this library evaluates exactly (tow(5) has 65537 bits).
TOW_MAX_EXACT = 5


def tow(j: int) -> int:
    """The tower of twos of height ``j``: ``tow(0)=1, tow(j)=2**tow(j-1)``.

    Raises:
        ValueError: for negative ``j`` or ``j > TOW_MAX_EXACT`` (the value
            would not fit in memory).
    """
    if j < 0:
        raise ValueError(f"tower height must be >= 0, got {j}")
    if j > TOW_MAX_EXACT:
        raise ValueError(
            f"tow({j}) has more than 2**65536 bits; heights above "
            f"{TOW_MAX_EXACT} are not representable"
        )
    value = 1
    for _ in range(j):
        value = 2**value
    return value


#: Precomputed ``tow(0) .. tow(TOW_MAX_EXACT)`` for exact log* lookups.
_TOWER_CACHE = tuple(tow(i) for i in range(TOW_MAX_EXACT + 1))


def log_star(k: int | float) -> int:
    """The iterated logarithm: ``min{i >= 0 : log2^(i)(k) <= 1}``.

    Integers are handled *exactly* via the equivalent characterisation
    ``log*(k) = i  iff  tow(i-1) < k <= tow(i)``; any Python int exceeds
    ``tow(5)`` only if it has more than 2**16 bits and never exceeds
    ``tow(6)``, so the answer for huge ints is 6.  Floats use the
    straightforward iterated ``log2``.

    Raises:
        ValueError: for non-positive input.
    """
    if isinstance(k, int):
        if k <= 0:
            raise ValueError(f"log* undefined for {k}")
        for i, boundary in enumerate(_TOWER_CACHE):
            if k <= boundary:
                return i
        return TOW_MAX_EXACT + 1  # tow(5) < k <= tow(6) for every Python int
    if k <= 0.0:
        raise ValueError(f"log* undefined for {k}")
    i = 0
    x = float(k)
    while x > 1.0:
        x = math.log2(x)
        i += 1
    return i

