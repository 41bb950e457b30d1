"""Materialized rollups: mergeable summaries over warehouse segments.

The warehouse reuses the fleet's streaming aggregation machinery
(:class:`~repro.fleet.aggregate.CounterSet` /
:class:`~repro.fleet.aggregate.QuantileSketch` /
:class:`~repro.fleet.aggregate.Rollup`) as its rollup layer: for each
campaign a per-campaign and a per-endpoint summary is materialized to
``rollups.json`` next to the segments, and — because every piece of
state is *mergeable* — rollups can be built one segment at a time and
merged, rebuilt after compaction, or combined across campaigns, always
landing on the same answer as a single pass over the raw rows.

Two build paths produce identical files:

- ``from_aggregator`` — the campaign just ran; its
  :class:`~repro.fleet.aggregate.ResultAggregator` already holds the
  state (cheap, exact).
- ``build_rollups`` — recompute from committed segments, one partial
  rollup per segment merged into the totals (the recovery / audit
  path, and the proof that segment data is sufficient).
"""

from __future__ import annotations

import json
import os
from itertools import compress
from typing import Optional

from repro.fleet.aggregate import ResultAggregator, Rollup
from repro.warehouse.schema import COUNTER_PREFIX, canonical_json
from repro.warehouse.segments import (
    Warehouse,
    WarehouseError,
    _fsync_write,
    _has_nan,
    decode_columns,
    partition,
)

ROLLUPS_FILE = "rollups.json"


def write_rollups(warehouse: Warehouse, campaign: str, state: dict) -> str:
    """Persist a rollups state dict; returns the manifest-relative path."""
    directory = warehouse.campaign_dir(campaign)
    os.makedirs(directory, exist_ok=True)
    payload = (canonical_json(state) + "\n").encode("utf-8")
    _fsync_write(os.path.join(directory, ROLLUPS_FILE), [payload])
    return ROLLUPS_FILE


def rollups_from_aggregator(warehouse: Warehouse, campaign: str,
                            aggregator: ResultAggregator) -> str:
    return write_rollups(warehouse, campaign, {
        "campaign": campaign,
        "jobs_observed": aggregator.jobs_observed,
        "total": aggregator.total.state_dict(),
        "endpoints": {
            name: aggregator.per_endpoint[name].state_dict()
            for name in sorted(aggregator.per_endpoint)
        },
    })


def load_rollups(warehouse: Warehouse, campaign: str) -> dict:
    """{"total": Rollup, "endpoints": {name: Rollup}, "jobs_observed": n}."""
    manifest = warehouse.manifest(campaign)
    rel = manifest.rollups or ROLLUPS_FILE
    path = os.path.join(warehouse.campaign_dir(campaign), rel)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            state = json.load(fh)
    except OSError as exc:
        raise WarehouseError(
            f"campaign {campaign!r} has no materialized rollups "
            f"(run `warehouse rollup`): {exc}"
        ) from exc
    return {
        "campaign": state.get("campaign", campaign),
        "jobs_observed": int(state.get("jobs_observed", 0)),
        "total": Rollup.from_state(state.get("total") or {}),
        "endpoints": {
            name: Rollup.from_state(endpoint_state)
            for name, endpoint_state in (state.get("endpoints") or {}).items()
        },
    }


def _fold_segment(aggregator: ResultAggregator, path: str, table: str) -> None:
    """Fold one segment's rows into the state the live path leaves."""
    if table == "results":
        columns = decode_columns(path)
        counters = [(name[len(COUNTER_PREFIX):], cells)
                    for name, cells in columns.items()
                    if name.startswith(COUNTER_PREFIX)]
        for index, (endpoint, ok) in enumerate(
                zip(columns["endpoint"], columns["ok"])):
            aggregator.fold_result(endpoint, ok, {
                name: cells[index] for name, cells in counters
                if cells[index] == cells[index]  # NaN: counter absent
            })
    elif table == "samples":
        # Each sketch takes its values in row order, as fold_sample does;
        # a missing value (NaN) is skipped, as a query skips it.
        columns = decode_columns(path, ("endpoint", "stream", "value"))
        endpoints, streams, values = (
            columns["endpoint"], columns["stream"], columns["value"])
        if _has_nan(values):
            kept = [value == value for value in values]
            endpoints, streams, values = (
                list(compress(cells, kept))
                for cells in (endpoints, streams, values))
        for stream, part in partition(streams, values).items():
            aggregator.total.sketch(stream).extend(part)
        for (endpoint, stream), part in partition(
                zip(endpoints, streams), values).items():
            aggregator.endpoint(endpoint).sketch(stream).extend(part)
    else:
        raise WarehouseError(f"no rollup defined over table {table!r}")


def build_rollups(warehouse: Warehouse, campaign: str,
                  write: bool = True) -> dict:
    """Recompute campaign rollups segment by segment, merging partials.

    Returns the loaded rollup dict; when ``write`` is set the result is
    also materialized to ``rollups.json`` and referenced from the
    manifest (commit order: rollups file first, manifest second).
    """
    manifest = warehouse.manifest(campaign)
    merged = ResultAggregator(campaign)
    for table in ("results", "samples"):
        for seg in manifest.tables.get(table, ()):
            partial = ResultAggregator(campaign)
            _fold_segment(partial, warehouse.segment_path(campaign, seg), table)
            merged.merge(partial)
    if write:
        manifest.rollups = rollups_from_aggregator(warehouse, campaign, merged)
        warehouse.commit_manifest(manifest)
    return {
        "campaign": campaign,
        "jobs_observed": merged.jobs_observed,
        "total": merged.total,
        "endpoints": merged.per_endpoint,
    }


def rollup_summary(rollups: dict, endpoint: Optional[str] = None) -> dict:
    """Display dict for one scope of a loaded rollups bundle."""
    if endpoint is None:
        scope = rollups["total"]
    else:
        scope = rollups["endpoints"].get(endpoint)
        if scope is None:
            raise WarehouseError(f"no rollup for endpoint {endpoint!r}")
    return scope.to_dict()
