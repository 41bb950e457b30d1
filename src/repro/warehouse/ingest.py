"""Ingestion: campaign output → schema'd warehouse rows.

Three producers feed the warehouse:

- **Live campaigns** — :class:`RecordingAggregator` is a drop-in
  :class:`~repro.fleet.aggregate.ResultAggregator` that *tees* every
  job completion into buffered ``results``/``samples`` rows while the
  streaming rollups update as usual. Buffering is in-memory only: no
  file I/O happens inside simulated time, and row content is a pure
  function of the campaign (sim timestamps, job names, metrics), so
  same-seed campaigns persist byte-identical segments.
  :func:`persist_campaign` then writes everything post-run in one
  atomic manifest commit.
- **Obs events** — :func:`ingest_events` (a live ring sink or any
  iterable of events) and :func:`ingest_events_jsonl` (a
  :class:`~repro.obs.sinks.JsonlSink` export file; the tolerant reader
  skips a truncated tail).
- **Aggregate JSONL exports** — :func:`ingest_aggregate_jsonl` replays
  a schema-versioned ``export_jsonl`` file back into materialized
  rollups (the lossless ``state`` added in schema v2 makes this exact).
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable, Optional

from repro.fleet.aggregate import ResultAggregator
from repro.warehouse import schema as wschema
from repro.warehouse.rollup import rollups_from_aggregator
from repro.warehouse.segments import (
    DEFAULT_SEGMENT_ROWS,
    CampaignWriter,
    Manifest,
    Warehouse,
)


class RecordingAggregator(ResultAggregator):
    """A ResultAggregator that also buffers per-job warehouse rows.

    The campaign scheduler calls ``observe`` once per finished job; the
    tee records one ``results`` row (identity, outcome, flattened
    counters) and one ``samples`` row per raw measurement value, each
    stamped with a deterministic sequence number and the simulator's
    virtual completion time.
    """

    def __init__(self, campaign: str = "campaign",
                 time_fn: Optional[Callable[[], float]] = None) -> None:
        super().__init__(campaign)
        self._time_fn = time_fn
        self.result_rows: list[dict] = []
        self.sample_rows: list[dict] = []
        self._result_seq = 0
        self._sample_seq = 0

    def observe(self, endpoint_name: str, metrics: Optional[dict],
                failed: bool = False, job: Optional[str] = None,
                error: Optional[str] = None) -> None:
        super().observe(endpoint_name, metrics, failed=failed, job=job,
                        error=error)
        now = self._time_fn() if self._time_fn is not None else 0.0
        self.result_rows.append(wschema.result_row(
            campaign=self.campaign,
            job=job or "",
            endpoint=endpoint_name,
            seq=self._result_seq,
            ok=not failed,
            sim_time=now,
            error=error or "",
            counters=(metrics or {}).get("counters"),
        ))
        self._result_seq += 1
        values = (metrics or {}).get("values")
        if values:
            rows, self._sample_seq = wschema.sample_rows(
                self.campaign, job or "", endpoint_name, values,
                self._sample_seq,
            )
            self.sample_rows.extend(rows)


def persist_campaign(
    warehouse: Warehouse,
    report: Any,
    events: Optional[Iterable] = None,
    campaign: Optional[str] = None,
    segment_rows: int = DEFAULT_SEGMENT_ROWS,
    close: bool = True,
) -> Manifest:
    """Write one finished campaign into the warehouse.

    ``report`` is a :class:`~repro.fleet.scheduler.CampaignReport`; when
    its aggregator is a :class:`RecordingAggregator` the buffered
    per-job rows are persisted too, otherwise only the campaign summary
    row and the rollups are. Everything lands under one manifest
    commit; ``close=True`` seals the campaign (enabling compaction and
    retention).
    """
    name = campaign or report.name
    writer = warehouse.begin_campaign(name, segment_rows=segment_rows)
    writer.add("campaigns", wschema.campaign_row(report.to_dict()))
    aggregator = getattr(report, "aggregator", None)
    if isinstance(aggregator, RecordingAggregator):
        writer.add_rows("results", aggregator.result_rows)
        writer.add_rows("samples", aggregator.sample_rows)
    if events is not None:
        writer.add_rows("events", (
            wschema.event_row(name, seq, event)
            for seq, event in enumerate(events)
        ))
    rollups = None
    if aggregator is not None:
        rollups = rollups_from_aggregator(warehouse, name, aggregator)
    return writer.commit(close=close, rollups=rollups)


def ingest_events(
    warehouse: Warehouse,
    campaign: str,
    events: Iterable,
    segment_rows: int = DEFAULT_SEGMENT_ROWS,
    close: bool = False,
) -> Manifest:
    """Append obs events (ObsEvent objects or decoded JSONL dicts) to a
    campaign's ``events`` table (creating the campaign if needed)."""
    writer = warehouse.begin_campaign(campaign, segment_rows=segment_rows)
    start = warehouse_event_count(writer)
    writer.add_rows("events", (
        wschema.event_row(campaign, start + offset, event)
        for offset, event in enumerate(events)
    ))
    return writer.commit(close=close)


def warehouse_event_count(writer: CampaignWriter) -> int:
    """Committed event rows (sequence numbers continue across appends)."""
    return sum(seg.rows for seg in writer.manifest.tables.get("events", ()))


def ingest_events_jsonl(
    warehouse: Warehouse,
    campaign: str,
    path: str,
    segment_rows: int = DEFAULT_SEGMENT_ROWS,
    close: bool = False,
) -> Manifest:
    """Ingest a :class:`~repro.obs.sinks.JsonlSink` export file.

    Reads tolerantly: a truncated final line (sink killed mid-write)
    is skipped rather than poisoning the whole ingest.
    """
    from repro.obs.sinks import read_jsonl

    records = [record for record in read_jsonl(path, strict=False)
               if record.get("kind") == "event"]
    return ingest_events(warehouse, campaign, records,
                         segment_rows=segment_rows, close=close)


def ingest_aggregate_jsonl(
    warehouse: Warehouse,
    path: str,
    campaign: Optional[str] = None,
    close: bool = True,
) -> Manifest:
    """Replay an ``export_jsonl`` file into materialized rollups."""
    with open(path, "r", encoding="utf-8") as fh:
        aggregator = ResultAggregator.from_jsonl_lines(fh)
    name = campaign or aggregator.campaign
    writer = warehouse.begin_campaign(name)
    return writer.commit(close=close, rollups=rollups_from_aggregator(
        warehouse, name, aggregator))


def ingest_report_json(
    warehouse: Warehouse,
    path: str,
    close: bool = True,
) -> Manifest:
    """Ingest a campaign report JSON file (``fleet --json`` output)."""
    with open(path, "r", encoding="utf-8") as fh:
        report_dict = json.load(fh)
    name = report_dict.get("campaign") or "campaign"
    writer = warehouse.begin_campaign(name)
    writer.add("campaigns", wschema.campaign_row(report_dict))
    return writer.commit(close=close)
