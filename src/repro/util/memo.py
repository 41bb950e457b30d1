"""A bounded memo: a dict that empties itself when full.

Used where a pure, costly computation repeats on the same input — a
signature check, a filter program's decode, verification and lowering —
and an adversary may feed distinct inputs forever. Clearing everything
when full keeps the bound without per-entry bookkeeping; the common case
(a handful of distinct inputs) never reaches it.
"""

from __future__ import annotations

from typing import Hashable, TypeVar

V = TypeVar("V")


class BoundedMemo(dict):
    """``get`` as a plain dict; ``put`` stores, clearing first when full."""

    def __init__(self, limit: int) -> None:
        super().__init__()
        self.limit = limit

    def put(self, key: Hashable, value: V) -> V:
        if len(self) >= self.limit:
            self.clear()
        self[key] = value
        return value
