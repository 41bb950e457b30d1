"""Versioned record layout for the results warehouse.

Everything the warehouse stores flows through one schema: four tables
with fixed, typed columns (plus dynamic ``c_*`` counter columns on the
``results`` table), each row a plain dict. The layout is versioned —
``SCHEMA_VERSION`` is stamped into every segment header and manifest —
so a reader can refuse (or upgrade) data written by a different layout
instead of silently misinterpreting it.

Tables
------

``campaigns``
    One row per finished campaign: scheduling statistics plus the full
    canonical report JSON for archival.
``results``
    One row per finished job attempt-set (the scheduler's completion
    unit): identity, outcome, and the job's counter metrics flattened
    into dynamic float columns named ``c_<counter>``.
``samples``
    One row per raw measurement value (an RTT, a bandwidth estimate):
    the stream a campaign's quantile rollups are built from. This is
    the table that reaches millions of rows.
``events``
    One row per obs event (from a live ``EventBus`` ring or a
    ``JsonlSink`` export): virtual timestamp, layer, name, and the
    field dict as canonical JSON.

Column types are ``i64`` (integers), ``f64`` (floats; missing values
are NaN), and ``str`` (dictionary-encoded; missing values are ``""``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

# Bump when the record layout below changes shape incompatibly.
SCHEMA_VERSION = 1

I64 = "i64"
F64 = "f64"
STR = "str"

_TYPES = (I64, F64, STR)

# Prefix for dynamic per-counter columns on the results table.
COUNTER_PREFIX = "c_"

NAN = float("nan")


@dataclass(frozen=True)
class TableSchema:
    """Fixed columns (ordered) plus whether dynamic columns may appear."""

    name: str
    columns: tuple[tuple[str, str], ...]  # ((name, type), ...) in order
    dynamic: bool = False                 # extra f64 COUNTER_PREFIX cols
    sort_hint: tuple[str, ...] = ()       # natural append order (docs only)

    def column_type(self, column: str) -> Optional[str]:
        for name, kind in self.columns:
            if name == column:
                return kind
        if self.dynamic and column.startswith(COUNTER_PREFIX):
            return F64
        return None

    def fixed_names(self) -> list[str]:
        return [name for name, _ in self.columns]


CAMPAIGNS = TableSchema(
    name="campaigns",
    columns=(
        ("campaign", STR),
        ("seed", I64),
        ("jobs_total", I64),
        ("jobs_completed", I64),
        ("jobs_failed", I64),
        ("retries", I64),
        ("endpoints", I64),
        ("started", F64),
        ("finished", F64),
        ("makespan_s", F64),
        ("report_json", STR),
    ),
)

RESULTS = TableSchema(
    name="results",
    columns=(
        ("campaign", STR),
        ("job", STR),
        ("endpoint", STR),
        ("seq", I64),
        ("ok", I64),
        ("sim_time", F64),
        ("error", STR),
    ),
    dynamic=True,
    sort_hint=("seq",),
)

SAMPLES = TableSchema(
    name="samples",
    columns=(
        ("campaign", STR),
        ("job", STR),
        ("endpoint", STR),
        ("stream", STR),
        ("seq", I64),
        ("value", F64),
    ),
    sort_hint=("seq",),
)

EVENTS = TableSchema(
    name="events",
    columns=(
        ("campaign", STR),
        ("time", F64),
        ("layer", STR),
        ("name", STR),
        ("seq", I64),
        ("fields_json", STR),
    ),
    sort_hint=("seq",),
)

TABLES: dict[str, TableSchema] = {
    schema.name: schema
    for schema in (CAMPAIGNS, RESULTS, SAMPLES, EVENTS)
}


class SchemaError(ValueError):
    """A row or segment does not match the declared layout."""


def canonical_json(obj: Any) -> str:
    """The repo-wide byte-stable encoding (sorted keys, no spaces)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def coerce(value: Any, kind: str, column: str) -> Any:
    """Validate/coerce one cell to its column type (None = missing)."""
    if kind == I64:
        if value is None:
            return 0
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"column {column!r} wants i64, got {value!r}")
        return int(value)
    if kind == F64:
        if value is None:
            return NAN
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"column {column!r} wants f64, got {value!r}")
        return float(value)
    if kind == STR:
        if value is None:
            return ""
        if not isinstance(value, str):
            raise SchemaError(f"column {column!r} wants str, got {value!r}")
        return value
    raise SchemaError(f"unknown column type {kind!r}")


# -- row builders -------------------------------------------------------------


def campaign_row(report_dict: dict) -> dict:
    """Flatten a ``CampaignReport.to_dict()`` into one campaigns row."""
    jobs = report_dict.get("jobs") or {}
    sched = report_dict.get("schedule") or {}
    return {
        "campaign": report_dict.get("campaign", ""),
        "seed": int(report_dict.get("seed", 0)),
        "jobs_total": int(jobs.get("total", 0)),
        "jobs_completed": int(jobs.get("completed", 0)),
        "jobs_failed": int(jobs.get("failed", 0)),
        "retries": int(jobs.get("retries", 0)),
        "endpoints": int(sched.get("endpoints", 0)),
        "started": float(sched.get("started", 0.0)),
        "finished": float(sched.get("finished", 0.0)),
        "makespan_s": float(sched.get("makespan_s", 0.0)),
        "report_json": canonical_json(report_dict),
    }


def result_row(
    campaign: str,
    job: str,
    endpoint: str,
    seq: int,
    ok: bool,
    sim_time: float,
    error: str = "",
    counters: Optional[dict] = None,
) -> dict:
    row = {
        "campaign": campaign,
        "job": job,
        "endpoint": endpoint,
        "seq": int(seq),
        "ok": 1 if ok else 0,
        "sim_time": float(sim_time),
        "error": error or "",
    }
    for name, amount in (counters or {}).items():
        row[COUNTER_PREFIX + str(name)] = float(amount)
    return row


def sample_rows(
    campaign: str,
    job: str,
    endpoint: str,
    values: dict,
    seq_start: int,
) -> tuple[list[dict], int]:
    """Rows for one job's value streams; returns (rows, next_seq)."""
    rows: list[dict] = []
    seq = seq_start
    for stream in values:
        for value in values[stream]:
            rows.append({
                "campaign": campaign,
                "job": job,
                "endpoint": endpoint,
                "stream": str(stream),
                "seq": seq,
                "value": float(value),
            })
            seq += 1
    return rows, seq


def event_row(campaign: str, seq: int, event: Any) -> dict:
    """One obs event (an ``ObsEvent`` or a decoded JSONL dict)."""
    if isinstance(event, dict):
        time = float(event.get("time", 0.0))
        layer = str(event.get("layer", ""))
        name = str(event.get("name", ""))
        fields = event.get("fields") or {}
    else:
        time = float(event.time)
        layer = event.layer
        name = event.name
        from repro.obs.sinks import json_safe

        fields = {key: json_safe(value) for key, value in event.fields.items()}
    return {
        "campaign": campaign,
        "time": time,
        "layer": layer,
        "name": name,
        "seq": int(seq),
        "fields_json": canonical_json(fields),
    }


# -- column planning ----------------------------------------------------------


def plan_columns(schema: TableSchema, rows: list[dict]) -> list[str]:
    """Fixed columns in schema order, then dynamic ones sorted by name.

    Sorting the dynamic tail keeps the physical layout a pure function
    of row *content*, never of dict insertion order — one of the things
    the byte-identical-segments guarantee rests on. The rows' keys are
    united in C; only a key the table has no column for sends the check
    back through the rows, to name the first such key in row order.
    """
    names = schema.fixed_names()
    extra = set().union(*rows).difference(names)
    if extra and not (schema.dynamic and all(
            isinstance(key, str) and key.startswith(COUNTER_PREFIX)
            for key in extra)):
        fixed = set(names)
        for row in rows:
            for key in row:
                if key in fixed:
                    continue
                if not schema.dynamic or not key.startswith(COUNTER_PREFIX):
                    raise SchemaError(
                        f"table {schema.name!r} has no column {key!r}"
                    )
    return names + sorted(extra)
