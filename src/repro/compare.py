"""The one rule for comparing two results field by field.

The determinism differ, the campaign's serial-vs-parallel certificate and
``repro trace diff`` flatten each side to ``{field: value}`` and call
:func:`diff_fields`: floats are equal when they agree to :data:`SIG_FIGS`
significant figures (absorbing last-ulp reorderings of sums), everything
else must be equal exactly.  Imports only the standard library, so any
layer can use it without an import cycle.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Tuple

#: Significant figures two float fields must agree to.
SIG_FIGS = 6


class _Missing:
    def __repr__(self) -> str:
        return "<missing>"


#: The value :func:`diff_fields` reports for a side that lacks a field.
MISSING = _Missing()


def round_sig(value: float, digits: int = SIG_FIGS) -> float:
    """``value`` rounded to ``digits`` significant figures (0, NaN and
    infinities pass through)."""
    if value == 0 or not math.isfinite(value):
        return value
    return round(value, digits - 1 - int(math.floor(math.log10(abs(value)))))


def _compared(value: object) -> object:
    return round_sig(value) if isinstance(value, float) else value


def diff_fields(a: Mapping[str, object], b: Mapping[str, object]
                ) -> List[Tuple[str, object, object]]:
    """``(key, value_a, value_b)``, unrounded, for each differing field,
    in sorted key order; a side that lacks the key gives :data:`MISSING`."""
    diffs: List[Tuple[str, object, object]] = []
    for key in sorted(a.keys() | b.keys()):
        value_a, value_b = a.get(key, MISSING), b.get(key, MISSING)
        if _compared(value_a) != _compared(value_b):
            diffs.append((key, value_a, value_b))
    return diffs
