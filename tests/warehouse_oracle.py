"""Row-at-a-time reference implementations of the warehouse's column code.

The package evaluates queries, encodes segments, compacts and rebuilds
rollups a whole column at a time. This module keeps the straightforward
row loops those paths replaced, so the tests can require the same
results bit for bit:

- :class:`RowQuery` scans every surviving segment one row at a time,
  one closure per predicate and one getter per column, observing each
  matched value into its group's sketch. It prunes, counts and scans
  from each segment's file as it is now, never from a header or partial
  a ``Warehouse`` memoized. The one change from the loop it preserves: a missing float group cell keys its group as
  ``None`` (NaN never equals itself, so each one used to be its own
  group).
- :func:`encode_rows` coerces and encodes one cell at a time.
- :func:`iter_segment_rows` decodes a segment into row dicts with the
  missing cells omitted, the form compaction used to re-encode.
- :func:`fold_segments` rebuilds rollups with one ``fold_result`` or
  ``fold_sample`` call per row.
- :func:`partition_loop` groups items by key with one append per item.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

from repro.fleet.aggregate import QuantileSketch, ResultAggregator
from repro.warehouse.query import Query, QueryStats, _GroupAcc
from repro.warehouse.schema import (
    COUNTER_PREFIX,
    F64,
    I64,
    SCHEMA_VERSION,
    STR,
    TableSchema,
    canonical_json,
    coerce,
    plan_columns,
)
from repro.warehouse.segments import (
    FORMAT_VERSION,
    MAGIC,
    SegmentHeader,
    Warehouse,
    _pack,
    read_header,
    read_segment,
)


def _matcher(op: str, want: Any):
    if op == "==":
        return lambda v: v == want
    if op == "!=":
        return lambda v: v != want
    if op == "<":
        return lambda v: v < want
    if op == "<=":
        return lambda v: v <= want
    if op == ">":
        return lambda v: v > want
    if op == ">=":
        return lambda v: v >= want
    members = set(want)
    return lambda v: v in members


def _getter(data, name: str):
    if name in data.codes:
        vocab = data.dicts[name]
        codes = data.codes[name]
        return lambda i: vocab[codes[i]]
    column = data.columns.get(name)
    if column is None:
        return lambda i: None
    if data.header.column(name)["type"] == F64:
        return lambda i: None if math.isnan(column[i]) else column[i]
    return lambda i: column[i]


def _cell(data, name: str, index: int):
    if name in data.codes:
        return data.dicts[name][data.codes[name][index]]
    column = data.columns.get(name)
    return column[index] if column is not None else None


class RowQuery(Query):
    """A :class:`Query` whose segment scan is the per-row loop."""

    def _segment_header(self, path: str, seg) -> SegmentHeader:
        return read_header(path)

    def _scan_segment(self, segment: tuple[str, str], header: SegmentHeader,
                      stats: QueryStats, groups: dict, raw_rows: list,
                      needed: list[str], aggregating: bool) -> None:
        data = read_segment(segment[0], columns=needed)
        rows = data.header.rows
        checks = []
        for pred in self._predicates:
            match = _matcher(pred.op, pred.value)
            if data.header.column(pred.column)["type"] == STR:
                vocab = data.dicts[pred.column]
                codes = data.codes[pred.column]
                ok = [value != "" and match(value) for value in vocab]
                checks.append(lambda i, codes=codes, ok=ok: ok[codes[i]])
            else:
                column = data.columns[pred.column]
                checks.append(
                    lambda i, column=column, match=match:
                    column[i] == column[i] and match(column[i])
                )
        matched = [index for index in range(rows)
                   if all(check(index) for check in checks)]
        stats.rows_matched += len(matched)
        if not matched:
            return
        if not aggregating:
            columns = (self._select if self._select is not None
                       else [meta["name"] for meta in data.header.columns
                             if meta["name"] in set(needed)])
            for index in matched:
                raw_rows.append({
                    name: _cell(data, name, index) for name in columns
                })
                if (self._limit is not None
                        and len(raw_rows) >= self._limit):
                    return
            return
        group_getters = [_getter(data, name) for name in self._group]
        kinds: dict[str, set[str]] = {
            "sums": set(), "mins": set(), "maxs": set(), "sketch": set(),
        }
        for _, fn, column in self._aggs:
            if column is None:
                continue
            if fn in ("sum", "mean"):
                kinds["sums"].add(column)
            elif fn == "min":
                kinds["mins"].add(column)
            elif fn == "max":
                kinds["maxs"].add(column)
            else:
                kinds["sketch"].add(column)
        agg_columns = sorted(set().union(*kinds.values()))
        agg_getters = {column: (lambda i, name=column: _cell(data, name, i))
                       for column in agg_columns}
        for index in matched:
            key = tuple(getter(index) for getter in group_getters)
            acc = groups.get(key)
            if acc is None:
                acc = groups[key] = _GroupAcc()
            acc.count += 1
            for column in agg_columns:
                value = agg_getters[column](index)
                if isinstance(value, float) and math.isnan(value):
                    continue
                if column in kinds["sums"]:
                    acc.sums[column] = acc.sums.get(column, 0.0) + value
                    acc.counts[column] = acc.counts.get(column, 0) + 1
                if column in kinds["mins"]:
                    if column not in acc.mins or value < acc.mins[column]:
                        acc.mins[column] = value
                if column in kinds["maxs"]:
                    if column not in acc.maxs or value > acc.maxs[column]:
                        acc.maxs[column] = value
                if column in kinds["sketch"]:
                    acc.sketches.setdefault(column,
                                            QuantileSketch()).observe(value)


def _zone(values: Iterable, kind: str):
    zmin = zmax = None
    for value in values:
        if (kind == F64 and math.isnan(value)) or (kind == STR
                                                  and value == ""):
            continue
        if zmin is None or value < zmin:
            zmin = value
        if zmax is None or value > zmax:
            zmax = value
    return zmin, zmax


def encode_rows(schema: TableSchema, rows: list[dict]) -> bytes:
    """Segment bytes of ``rows``, coerced and encoded cell by cell."""
    blobs: list[bytes] = []
    columns_meta: list[dict] = []
    offset = 0
    for name in plan_columns(schema, rows):
        kind = schema.column_type(name)
        cells = [coerce(row.get(name), kind, name) for row in rows]
        meta: dict[str, Any] = {"name": name, "type": kind}
        if kind == STR:
            vocab = sorted(set(cells))
            codes = {value: index for index, value in enumerate(vocab)}
            blob = _pack([codes[cell] for cell in cells], "q").tobytes()
            meta["dict"] = vocab
        else:
            blob = _pack(cells, "q" if kind == I64 else "d").tobytes()
        meta["zmin"], meta["zmax"] = _zone(cells, kind)
        meta["offset"] = offset
        meta["nbytes"] = len(blob)
        offset += len(blob)
        blobs.append(blob)
        columns_meta.append(meta)
    header = canonical_json({
        "table": schema.name,
        "schema_version": SCHEMA_VERSION,
        "format": FORMAT_VERSION,
        "rows": len(rows),
        "columns": columns_meta,
    }).encode("utf-8")
    return (MAGIC + FORMAT_VERSION.to_bytes(2, "little")
            + len(header).to_bytes(4, "little") + header + b"".join(blobs))


def iter_segment_rows(path: str) -> Iterable[dict]:
    """Row dicts of one segment, missing cells (NaN, "") omitted."""
    data = read_segment(path)
    names = [meta["name"] for meta in data.header.columns]
    kinds = {meta["name"]: meta["type"] for meta in data.header.columns}
    for index in range(data.rows):
        row = {}
        for name in names:
            value = data.cell(name, index)
            if kinds[name] == F64 and math.isnan(value):
                continue
            if kinds[name] == STR and value == "":
                continue
            row[name] = value
        yield row


def fold_segments(warehouse: Warehouse, campaign: str) -> ResultAggregator:
    """Rollups rebuilt one row call at a time, one partial per segment."""
    manifest = warehouse.manifest(campaign)
    merged = ResultAggregator(campaign)
    for table in ("results", "samples"):
        for seg in manifest.tables.get(table, ()):
            partial = ResultAggregator(campaign)
            data = read_segment(warehouse.segment_path(campaign, seg))
            counter_cols = [meta["name"] for meta in data.header.columns
                            if meta["name"].startswith(COUNTER_PREFIX)]
            for index in range(data.rows):
                if table == "samples":
                    value = data.cell("value", index)
                    if value == value:  # NaN: the value is missing
                        partial.fold_sample(data.cell("endpoint", index),
                                            data.cell("stream", index), value)
                    continue
                counters = {}
                for column in counter_cols:
                    value = data.cell(column, index)
                    if value == value:
                        counters[column[len(COUNTER_PREFIX):]] = value
                partial.fold_result(data.cell("endpoint", index),
                                    data.cell("ok", index), counters)
            merged.merge(partial)
    return merged


def partition_loop(keys: Iterable, items: Iterable) -> dict[Any, list]:
    """{key: [its items, in order]}, keys in the order first seen."""
    parts: dict[Any, list] = {}
    for key, item in zip(keys, items):
        parts.setdefault(key, []).append(item)
    return parts
