"""A seeded RNG that is built on its first draw.

A ``random.Random`` carries about 2.5 KB of generator state. Many
owners keep one that a normal run never draws from: a link with neither
loss nor jitter, a reconnect loop that never backs off, a retry wrapper
whose commands never fail. :class:`LazyRandom` holds only the seed
until one of ``Random``'s methods is first used, then builds
``Random(seed)``; no draw can come before that, so the sequence is the
one an eager ``Random(seed)`` would give.
"""

from __future__ import annotations

from random import Random
from typing import Any, Optional


class LazyRandom:
    """``Random(seed)``, made when a method is first looked up."""

    __slots__ = ("seed", "_rng")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng: Optional[Random] = None

    def __getattr__(self, name: str) -> Any:
        # Reached only for names the slots lack: Random's own.
        rng = self._rng
        if rng is None:
            rng = self._rng = Random(self.seed)
        return getattr(rng, name)
