"""Heap censuses: per endpoint of a star ping campaign, per job of a
bandwidth campaign.

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

One question about what one more job costs: *retained*, what a
bandwidth campaign's world still reaches once it has gone quiet, by
type. The collector does not track the ``bytes`` a sink might keep, so
this census walks the world rather than the collector's list. A
finished job should leave nothing, so a campaign's memory scales with
its concurrency, not its job count; the script prints both campaigns'
totals after the star census.

``TestFootprint`` in ``tests/test_fleet.py`` holds a 20-endpoint star
census to its bounds, and a 6-job bandwidth census to the 2-job one.
"""

from __future__ import annotations

import argparse
import gc
import types
from collections import Counter
from dataclasses import dataclass

from repro.experiments.campaign import bandwidth_job, ping_job
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


# Modules, classes and code are shared by every world, not retained by
# one; a world reaches other worlds' objects only through them.
_NOT_THE_WORLDS = (types.ModuleType, type, types.CodeType,
                   types.BuiltinFunctionType)


def _reachable(root: object) -> list:
    """Every object ``root`` reaches, tracked by the collector or not.
    A function counts its closure and defaults, not its module's
    globals."""
    seen: dict[int, object] = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _NOT_THE_WORLDS):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, types.FunctionType):
            stack.extend(obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return list(seen.values())


def bandwidth_census(jobs: int, endpoints: int = 4, concurrency: int = 2,
                     seed: int = 7) -> Counter:
    """Run ``jobs`` bandwidth jobs over a star of ``endpoints``, let the
    world go quiet, and count by type what it still reaches."""
    fleet = FleetTestbed(endpoint_count=endpoints, topology="star",
                         seed=seed)
    report = fleet.run_campaign(
        [bandwidth_job(f"bw-{index}") for index in range(jobs)],
        max_concurrency=concurrency,
    )
    assert report.jobs_completed == jobs, report.jobs_completed
    # Long enough for every close, TIME_WAIT included, to finish.
    fleet.sim.run(until=fleet.sim.now + 600.0)
    return _by_type(_reachable(fleet))


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
    print()
    few, many = bandwidth_census(2), bandwidth_census(6)
    extra = sum(many.values()) - sum(few.values())
    print(f"retained after a bandwidth campaign: {sum(few.values())} "
          f"objects after 2 jobs, {sum(many.values())} after 6 "
          f"({extra / 4:+.1f} per extra job)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
