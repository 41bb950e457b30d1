"""Per-endpoint heap census of a star ping campaign.

Two questions about what one more endpoint costs the process:

- *tracked*: how many objects the cyclic collector tracks once the
  campaign has finished, per endpoint and by type. The collector scans
  every one of them on each full collection.
- *garbage*: what ``gc.collect()`` finds when the collector was off
  during the build and the run. Those objects are dead but were kept by
  a reference cycle, so only a collector pass frees them.

::

    PYTHONPATH=src python tests/footprint.py [--endpoints N] [--seed S] [--top K]

The campaign is the ``star_ping`` perf workload at ``N`` endpoints: one
3-probe ping job per endpoint, 256 in flight, on a heap scheduler.
``TestFootprint`` in ``tests/test_fleet.py`` holds a 20-endpoint census
to its bounds.
"""

from __future__ import annotations

import argparse
import gc
from collections import Counter
from dataclasses import dataclass

from repro.experiments.campaign import ping_job
from repro.fleet.testbed import FleetTestbed


@dataclass
class Census:
    endpoints: int
    tracked: Counter      # type name -> tracked objects added by the run
    garbage: Counter      # type name -> objects gc.collect() found after it

    @property
    def tracked_per_endpoint(self) -> float:
        return sum(self.tracked.values()) / self.endpoints


def _type_name(obj: object) -> str:
    kind = type(obj)
    module = kind.__module__
    if module == "builtins":
        return kind.__qualname__
    return f"{module}.{kind.__qualname__}"


def _by_type(objects) -> Counter:
    return Counter(_type_name(obj) for obj in objects)


def _collect_all() -> None:
    """Collect until a pass finds nothing. Collecting a dead world closes
    its suspended processes, and the ``finally`` blocks that run then
    leave new garbage behind for the next pass."""
    for _ in range(10):
        if not gc.collect():
            return


def star_ping_census(endpoints: int, seed: int = 7) -> Census:
    """Build and run a star ping campaign with the collector off, then
    count what it left tracked and what only a collector pass frees."""
    was_enabled = gc.isenabled()
    _collect_all()  # a world an earlier caller left must not count
    before = _by_type(gc.get_objects())
    gc.disable()
    try:
        fleet = FleetTestbed(endpoint_count=endpoints, seed=seed,
                             scheduler="heap")
        jobs = [ping_job(f"ping-{index}", count=3)
                for index in range(endpoints)]
        report = fleet.run_campaign(jobs, max_concurrency=256,
                                    timeout=1_000_000.0)
        assert report.jobs_completed == endpoints, report.jobs_completed
        del jobs, report
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            garbage = _by_type(gc.garbage)
            gc.garbage.clear()
        finally:
            gc.set_debug(0)
        gc.collect()  # the saved cycles, now that nothing holds them
        tracked = _by_type(gc.get_objects())
        tracked.subtract(before)
        tracked = +tracked  # drop the types the run did not add to
        del fleet
        _collect_all()
    finally:
        if was_enabled:
            gc.enable()
    return Census(endpoints, tracked, garbage)


def _table(title: str, counts: Counter, endpoints: int, top: int) -> str:
    lines = [f"{title} ({sum(counts.values())} objects, "
             f"{sum(counts.values()) / endpoints:.1f} per endpoint)",
             f"  {'per endpoint':>12}  {'count':>8}  type"]
    for name, count in counts.most_common(top):
        lines.append(f"  {count / endpoints:>12.2f}  {count:>8}  {name}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--endpoints", type=int, default=500)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--top", type=int, default=25,
                        help="types listed per table")
    args = parser.parse_args(argv)
    if args.endpoints < 1 or args.top < 1:
        parser.error("--endpoints and --top must be at least 1")
    census = star_ping_census(args.endpoints, args.seed)
    print(_table("tracked after the campaign", census.tracked,
                 census.endpoints, args.top))
    print()
    print(_table("found by gc.collect() (collector off during the run)",
                 census.garbage, census.endpoints, args.top))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
