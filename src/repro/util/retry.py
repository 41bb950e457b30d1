"""Exponential backoff with jitter, shared by every reconnect loop.

A :class:`RetryPolicy` is a pure description — it owns no RNG and no
clock, so the same policy object can drive the controller's reconnect
loop and the endpoint's supervisor without coupling their randomness.
Jitter draws come from whatever seeded ``random.Random`` the caller
passes in, keeping fault-injection runs deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff schedule: ``base * multiplier**attempt``,
    capped at ``max_delay``, with ``±jitter`` fractional randomization.

    ``attempt`` is zero-based: ``delay_for(0)`` is the wait before the
    first retry.
    """

    max_attempts: int = 5
    base_delay: float = 0.2
    max_delay: float = 10.0
    multiplier: float = 2.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay <= 0:
            raise ValueError(f"base_delay must be positive, got {self.base_delay}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay_for(self, attempt: int, rng: Random) -> float:
        """Backoff delay before retry number ``attempt`` (zero-based)."""
        delay = min(self.max_delay, self.base_delay * self.multiplier ** attempt)
        if self.jitter > 0:
            delay *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        return delay
