"""High-level public API: testbed assembly and experiment running."""

from repro.core.testbed import DEFAULT_RENDEZVOUS_PORT, Testbed
from repro.fleet.testbed import DEFAULT_CONTROLLER_PORT

__all__ = ["DEFAULT_CONTROLLER_PORT", "DEFAULT_RENDEZVOUS_PORT", "Testbed"]
