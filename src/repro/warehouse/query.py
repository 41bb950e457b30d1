"""Query layer: filter / project / group-by / percentile over segments.

A :class:`Query` plans against manifests only — per segment it reads
the (small) header, tests every predicate against the column zone maps,
and *prunes* segments that provably contain no matching row before any
column data is touched. Surviving segments decode only the columns the
query references, and each predicate narrows the segment's *selection
vector* (its matching rows) in one pass over its column: a string
predicate becomes a per-vocabulary-code table the codes map through,
free when every code passes. Matched rows are partitioned by group key
once, in row order, and each aggregate consumes a group's whole value
list: sums add sequentially (builtin ``sum`` compensates on 3.12), and
percentiles come from :class:`~repro.fleet.aggregate.QuantileSketch` —
one sketch per group, not a sort. Missing float group cells group under
``None``, as does a column the segment never saw; groups come back
sorted by key value, ``None`` first.

Missing cells (NaN for floats, ``""`` for strings — and any column a
segment never saw) match **no** comparison predicate; this is what
makes zone-map pruning sound, since zone maps cover present values
only.

Example::

    result = (Query(warehouse, "samples")
              .where("stream", "==", "rtt_s")
              .where("endpoint", ">=", "ep100")
              .group_by("endpoint")
              .agg(n="count", p99=("p99", "value"))
              .run())
    result.rows        # [{"endpoint": ..., "n": ..., "p99": ...}, ...]
    result.stats       # segments_total / segments_pruned / rows_scanned
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import compress, repeat
from operator import add, and_, eq, ge, gt, le, lt, ne
from typing import Any, Iterable, Optional, Union

from repro.fleet.aggregate import QuantileSketch
from repro.warehouse.schema import TABLES, SchemaError
from repro.warehouse.segments import (
    Warehouse,
    WarehouseError,
    _has_nan,
    partition,
    read_header,
    read_segment,
    zone_overlaps,
)

OPS = ("==", "!=", "<", "<=", ">", ">=", "in")

_PERCENTILE_FNS = {"p50": 0.50, "p90": 0.90, "p95": 0.95, "p99": 0.99,
                   "p999": 0.999}
_SIMPLE_FNS = ("count", "sum", "mean", "min", "max")
_COMPARE = {"==": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}


@dataclass(frozen=True)
class Predicate:
    column: str
    op: str
    value: Any

    def test(self, cells: Iterable) -> Iterable[bool]:
        """``cell <op> value`` for each cell, in one pass (missing cells
        are handled by the caller)."""
        if self.op == "in":
            return map(set(self.value).__contains__, cells)
        return map(_COMPARE[self.op], cells, repeat(self.value))


@dataclass
class QueryStats:
    segments_total: int = 0
    segments_pruned: int = 0
    segments_scanned: int = 0
    rows_scanned: int = 0
    rows_matched: int = 0
    campaigns: int = 0

    @property
    def pruned_fraction(self) -> float:
        if self.segments_total == 0:
            return 0.0
        return self.segments_pruned / self.segments_total

    def to_dict(self) -> dict:
        return {
            "segments_total": self.segments_total,
            "segments_pruned": self.segments_pruned,
            "segments_scanned": self.segments_scanned,
            "rows_scanned": self.rows_scanned,
            "rows_matched": self.rows_matched,
            "campaigns": self.campaigns,
            "pruned_fraction": round(self.pruned_fraction, 4),
        }


@dataclass
class QueryResult:
    rows: list[dict]
    stats: QueryStats = field(default_factory=QueryStats)


class _GroupAcc:
    """Mergeable accumulator for one group's aggregates."""

    __slots__ = ("count", "sums", "counts", "mins", "maxs", "sketches")

    def __init__(self) -> None:
        self.count = 0
        self.sums: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.mins: dict[str, float] = {}
        self.maxs: dict[str, float] = {}
        self.sketches: dict[str, QuantileSketch] = {}


class Query:
    """A buildable, immutable-once-run query over one warehouse table."""

    def __init__(self, warehouse: Warehouse, table: str,
                 campaigns: Optional[Iterable[str]] = None) -> None:
        if table not in TABLES:
            raise SchemaError(
                f"unknown table {table!r} (have {sorted(TABLES)})"
            )
        self.warehouse = warehouse
        self.table = table
        self._campaigns = list(campaigns) if campaigns is not None else None
        self._predicates: list[Predicate] = []
        self._group: list[str] = []
        self._aggs: list[tuple[str, str, Optional[str]]] = []
        self._select: Optional[list[str]] = None
        self._limit: Optional[int] = None

    # -- builder --------------------------------------------------------------

    def where(self, column: str, op: str, value: Any) -> "Query":
        if op not in OPS:
            raise SchemaError(f"unknown operator {op!r} (have {OPS})")
        self._predicates.append(Predicate(column, op, value))
        return self

    def group_by(self, *columns: str) -> "Query":
        self._group.extend(columns)
        return self

    def agg(self, **aggs: Union[str, tuple]) -> "Query":
        """``name="count"`` or ``name=("fn", "column")`` with fn one of
        count/sum/mean/min/max/p50/p90/p95/p99/p999."""
        for name, spec in aggs.items():
            if isinstance(spec, str):
                fn, column = spec, None
            else:
                fn, column = spec[0], (spec[1] if len(spec) > 1 else None)
            if fn not in _SIMPLE_FNS and fn not in _PERCENTILE_FNS:
                raise SchemaError(f"unknown aggregate fn {fn!r}")
            if fn == "count":
                column = None  # count never reads a column
            elif not column:
                raise SchemaError(f"aggregate {fn!r} needs a column")
            self._aggs.append((name, fn, column))
        return self

    def select(self, *columns: str) -> "Query":
        self._select = list(columns)
        return self

    def limit(self, n: int) -> "Query":
        self._limit = max(0, int(n))
        return self

    # -- execution ------------------------------------------------------------

    def _needed_columns(self) -> list[str]:
        needed: list[str] = []
        for pred in self._predicates:
            needed.append(pred.column)
        needed.extend(self._group)
        for _, _, column in self._aggs:
            if column is not None:
                needed.append(column)
        if not self._aggs:
            needed.extend(self._select
                          if self._select is not None
                          else TABLES[self.table].fixed_names())
        seen: set[str] = set()
        unique = []
        for name in needed:
            if name not in seen:
                seen.add(name)
                unique.append(name)
        return unique

    def run(self) -> QueryResult:
        stats = QueryStats()
        campaigns = (self._campaigns if self._campaigns is not None
                     else self.warehouse.campaigns())
        groups: dict[tuple, _GroupAcc] = {}
        raw_rows: list[dict] = []
        needed = self._needed_columns()
        aggregating = bool(self._aggs) or bool(self._group)
        for campaign in campaigns:
            manifest = self.warehouse.manifest(campaign)
            stats.campaigns += 1
            for seg in manifest.tables.get(self.table, ()):
                stats.segments_total += 1
                path = self.warehouse.segment_path(campaign, seg)
                header = read_header(path)
                if not self._segment_may_match(header):
                    stats.segments_pruned += 1
                    continue
                stats.segments_scanned += 1
                stats.rows_scanned += header.rows
                self._scan_segment(path, stats, groups, raw_rows,
                                   needed, aggregating)
                if (not aggregating and self._limit is not None
                        and len(raw_rows) >= self._limit):
                    return QueryResult(raw_rows[:self._limit], stats)
        if not aggregating:
            return QueryResult(raw_rows, stats)
        return QueryResult(self._render_groups(groups), stats)

    def _segment_may_match(self, header) -> bool:
        for pred in self._predicates:
            meta = header.column(pred.column)
            if meta is None:
                # Column never present in this segment ⇒ all cells
                # missing ⇒ no comparison can match.
                return False
            if not zone_overlaps(meta, pred.op, pred.value):
                return False
        return True

    def _scan_segment(self, path: str, stats: QueryStats,
                      groups: dict, raw_rows: list,
                      needed: list[str], aggregating: bool) -> None:
        data = read_segment(path, columns=needed)
        rows = data.header.rows
        selected = range(rows)  # the selection vector: matching rows
        for pred in self._predicates:
            if pred.column in data.codes:
                vocab = data.dicts[pred.column]
                ok = [value != "" and hit
                      for value, hit in zip(vocab, pred.test(vocab))]
                if all(ok):
                    continue
                codes = data.codes[pred.column]
                hits = map(ok.__getitem__, codes if len(selected) == rows
                           else map(codes.__getitem__, selected))
            else:
                column = data.columns[pred.column]
                cells = (column if len(selected) == rows
                         else list(map(column.__getitem__, selected)))
                hits = pred.test(cells)
                if pred.op == "!=":  # NaN fails the others by itself
                    hits = map(and_, hits, map(eq, cells, cells))
            selected = list(compress(selected, hits))
        stats.rows_matched += len(selected)
        if not selected:
            return
        if not aggregating:
            if self._limit is not None:
                selected = selected[:self._limit - len(raw_rows)]
            names = (self._select if self._select is not None
                     else [meta["name"] for meta in data.header.columns
                           if meta["name"] in set(needed)])
            columns = [_gather(data, name, selected) for name in names]
            raw_rows.extend(
                dict(zip(names, cells)) for cells in
                (zip(*columns) if columns else repeat((), len(selected)))
            )
            return
        # Accumulate once per (kind, column), not per agg spec — two
        # aggs over the same column (say mean + sum) share the state.
        kinds: dict[str, set[str]] = {}
        for _, fn, column in self._aggs:
            if column in data.columns or column in data.codes:
                kinds.setdefault(column, set()).add(
                    "sum" if fn == "mean" else
                    fn if fn in _SIMPLE_FNS else "sketch")
        for key, members in self._partition(data, selected).items():
            acc = groups.get(key)
            if acc is None:
                acc = groups[key] = _GroupAcc()
            acc.count += len(members)
            for column, needs in kinds.items():
                values = _gather(data, column, members)
                if column in data.columns and _has_nan(values):
                    values = [value for value in values if value == value]
                if not values:
                    continue
                if "sum" in needs:
                    acc.sums[column] = reduce(add, values,
                                              acc.sums.get(column, 0.0))
                    acc.counts[column] = (acc.counts.get(column, 0)
                                          + len(values))
                if "min" in needs:
                    low = min(values)
                    if column not in acc.mins or low < acc.mins[column]:
                        acc.mins[column] = low
                if "max" in needs:
                    high = max(values)
                    if column not in acc.maxs or high > acc.maxs[column]:
                        acc.maxs[column] = high
                if "sketch" in needs:
                    acc.sketches.setdefault(column,
                                            QuantileSketch()).extend(values)

    def _partition(self, data, selected: list) -> dict[tuple, list]:
        """{group key: its selected rows}, keys in the order first seen."""
        if not self._group:
            return {(): selected}
        keys = []
        for name in self._group:
            cells = _gather(data, name, selected)
            if name in data.columns and _has_nan(cells):
                # NaN != NaN: each missing float would be its own group.
                cells = [cell if cell == cell else None for cell in cells]
            keys.append(cells)
        if len(keys) > 1:
            return partition(zip(*keys), selected)
        return {(key,): rows
                for key, rows in partition(keys[0], selected).items()}

    def _render_groups(self, groups: dict) -> list[dict]:
        out = []
        for key in sorted(groups, key=lambda k: tuple(
                (part is not None, part) for part in k)):
            acc = groups[key]
            row: dict[str, Any] = dict(zip(self._group, key))
            for name, fn, column in self._aggs:
                if fn == "count":
                    row[name] = acc.count
                elif fn == "sum":
                    row[name] = acc.sums.get(column, 0.0)
                elif fn == "mean":
                    count = acc.counts.get(column, 0)
                    row[name] = (acc.sums.get(column, 0.0) / count
                                 if count else 0.0)
                elif fn == "min":
                    row[name] = acc.mins.get(column)
                elif fn == "max":
                    row[name] = acc.maxs.get(column)
                else:
                    sketch = acc.sketches.get(column)
                    row[name] = (sketch.quantile(_PERCENTILE_FNS[fn])
                                 if sketch is not None else 0.0)
            out.append(row)
        if self._limit is not None:
            out = out[:self._limit]
        return out


def _gather(data, name: str, selected: list) -> list:
    """The cells of ``name`` at the selected rows (None where the
    segment has no such column)."""
    if name in data.codes:
        return list(map(data.dicts[name].__getitem__,
                        map(data.codes[name].__getitem__, selected)))
    column = data.columns.get(name)
    if column is None:
        return [None] * len(selected)
    return list(map(column.__getitem__, selected))


def rollup_percentiles(warehouse: Warehouse, campaign: str, stream: str,
                       quantiles: Iterable[float] = (0.5, 0.9, 0.99),
                       endpoint: Optional[str] = None) -> dict:
    """Percentiles straight from materialized rollups (no segment scan).

    The fast path for "what was this campaign's p99" — constant-time in
    the number of rows, exact same sketch machinery as a full query.
    """
    from repro.warehouse.rollup import load_rollups

    rollups = load_rollups(warehouse, campaign)
    scope = (rollups["total"] if endpoint is None
             else rollups["endpoints"].get(endpoint))
    if scope is None:
        raise WarehouseError(f"no rollup for endpoint {endpoint!r}")
    sketch = scope.sketches.get(stream)
    if sketch is None:
        raise WarehouseError(
            f"campaign {campaign!r} has no value stream {stream!r} "
            f"(have {sorted(scope.sketches)})"
        )
    return {f"p{q * 100:g}": sketch.quantile(q) for q in quantiles}
