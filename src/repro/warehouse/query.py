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

Every aggregating scan folds a segment into a *partial* — ``{group key:
_Partial}`` — and merges it into the query's groups. Segments are
immutable and the manifest records each one's sha256, so a partial
folded over *all* of a segment's rows is kept in the warehouse's
``partials`` memo under ``(path, sha256, group columns, aggregate
kinds)`` and reused by later queries. A partial is folded whole only
when the segment's dictionaries show that every predicate matches every
row — then narrowing would select all rows anyway — so a cold segment
never costs more than the row narrowing it replaces. Other predicates
narrow the rows first and that partial is not kept; but when each of
them names a group-by column and the segment's whole partial is in the
memo already, they are tested on its group keys instead, where ``""``
and the ``None`` a NaN groups as match nothing, as their cells would
not. A partial of more than ``_PARTIAL_GROUPS`` groups or
``_PARTIAL_VALUES`` summed values is used once and not kept. Parsed
headers sit in a memo of their own (``headers``, under ``(path,
sha256)``), so a scan over many segments does not push its partials
out; each memo empties itself when it holds ``MEMO_ENTRIES``. Merging
is exact: counts, min, max and a sketch's buckets, underflow, count and
max combine without rounding (a merged sketch's sum is never shown),
and a partial keeps each summed column's values in row order, which the
merge adds one at a time to the running sum — the additions a row loop
makes, in its order.

So the memo pays where segments are read again and each is covered
whole, as when each holds one endpoint and a query names endpoints;
over 250 000 samples in 16 such segments of 15 625 rows, a repeated
point query falls from ~7 ms to ~0.2 ms. Where a segment interleaves
endpoints, a point query narrows its rows each time, as it did before
the memo, unless a broader query of the same shape left the whole
partial behind.

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

from array import array
from dataclasses import dataclass, field
from functools import reduce
from itertools import compress, repeat
from operator import add, and_, eq, ge, gt, le, lt, ne
from typing import Any, Iterable, Optional, Union

from repro.fleet.aggregate import QuantileSketch
from repro.warehouse.schema import TABLES, SchemaError
from repro.warehouse.segments import (
    SegmentHeader,
    Warehouse,
    WarehouseError,
    _has_nan,
    partition,
    read_segment,
    zone_overlaps,
)

OPS = ("==", "!=", "<", "<=", ">", ">=", "in")

_PERCENTILE_FNS = {"p50": 0.50, "p90": 0.90, "p95": 0.95, "p99": 0.99,
                   "p999": 0.999}
_SIMPLE_FNS = ("count", "sum", "mean", "min", "max")
_COMPARE = {"==": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}

# A segment's partial is stored in the warehouse's memo only while it
# stays small: at most this many groups (so ``group_by("seq")`` cannot
# fill memory) and this many summed values (what a bit-exact sum must
# replay, 8 bytes each).
_PARTIAL_GROUPS = 64
_PARTIAL_VALUES = 1 << 14


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


class _Partial:
    """One segment's aggregate state for one group. Per summed column it
    keeps the group's non-missing ``values`` in row order, so a merge
    can replay the sequential addition a row loop does."""

    __slots__ = ("count", "values", "mins", "maxs", "sketches")

    def __init__(self) -> None:
        self.count = 0
        self.values: dict[str, Any] = {}
        self.mins: dict[str, Any] = {}
        self.maxs: dict[str, Any] = {}
        self.sketches: dict[str, QuantileSketch] = {}


class _GroupAcc:
    """One group's aggregates over the segments merged so far."""

    __slots__ = ("count", "sums", "counts", "mins", "maxs", "sketches")

    def __init__(self) -> None:
        self.count = 0
        self.sums: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.mins: dict[str, Any] = {}
        self.maxs: dict[str, Any] = {}
        self.sketches: dict[str, QuantileSketch] = {}

    def merge(self, part: _Partial) -> None:
        """Fold in one segment's partial for this group, leaving what
        scanning its rows after the group's earlier ones would."""
        self.count += part.count
        for column, values in part.values.items():
            self.sums[column] = reduce(add, values,
                                       self.sums.get(column, 0.0))
            self.counts[column] = self.counts.get(column, 0) + len(values)
        for column, low in part.mins.items():
            if column not in self.mins or low < self.mins[column]:
                self.mins[column] = low
        for column, high in part.maxs.items():
            if column not in self.maxs or high > self.maxs[column]:
                self.maxs[column] = high
        for column, sketch in part.sketches.items():
            self.sketches.setdefault(column, QuantileSketch()).merge(sketch)


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
                header = self._segment_header(path, seg)
                if not self._segment_may_match(header):
                    stats.segments_pruned += 1
                    continue
                stats.segments_scanned += 1
                stats.rows_scanned += header.rows
                self._scan_segment((path, seg.sha256), header, stats,
                                   groups, raw_rows, needed, aggregating)
                if (not aggregating and self._limit is not None
                        and len(raw_rows) >= self._limit):
                    return QueryResult(raw_rows[:self._limit], stats)
        if not aggregating:
            return QueryResult(raw_rows, stats)
        return QueryResult(self._render_groups(groups), stats)

    def _segment_header(self, path: str, seg) -> SegmentHeader:
        return self.warehouse.segment_header(path, seg)

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

    def _scan_segment(self, segment: tuple[str, str],
                      header: SegmentHeader, stats: QueryStats,
                      groups: dict, raw_rows: list,
                      needed: list[str], aggregating: bool) -> None:
        """Fold one surviving segment, ``(path, sha256)``, into the
        result: its rows into ``raw_rows``, or its per-group partial into
        ``groups``."""
        path = segment[0]
        if not aggregating:
            data = read_segment(path, needed, header)
            selected = self._select_rows(data)
            stats.rows_matched += len(selected)
            if selected:
                self._project(data, selected, raw_rows, needed)
            return
        memo = self.warehouse.partials
        memo_key = (*segment, tuple(self._group),
                    tuple(sorted(self._kinds().items())))
        if self._covers(header):
            partial = memo.get(memo_key)
            if partial is None:
                data = read_segment(path, needed, header)
                partial = self._partial(data, range(header.rows))
                if _keepable(partial):
                    memo.put(memo_key, partial)
        elif (memo_key in memo and all(pred.column in self._group
                                       for pred in self._predicates)):
            partial = {key: part for key, part in memo[memo_key].items()
                       if self._key_matches(key)}
        else:
            data = read_segment(path, needed, header)
            partial = self._partial(data, self._select_rows(data))
        for key, part in partial.items():
            stats.rows_matched += part.count
            acc = groups.get(key)
            if acc is None:
                acc = groups[key] = _GroupAcc()
            acc.merge(part)

    def _covers(self, header: SegmentHeader) -> bool:
        """Whether the dictionaries of a segment that survived pruning
        show every predicate matching every row, so its selection is
        all of its rows."""
        for pred in self._predicates:
            vocab = header.column(pred.column).get("dict")
            if vocab is None or not all(_passes(pred, vocab)):
                return False
        return True

    def _select_rows(self, data) -> range | list[int]:
        """The segment's selection vector: the rows every predicate
        matches."""
        rows = data.header.rows
        selected = range(rows)
        for pred in self._predicates:
            if pred.column in data.codes:
                ok = _passes(pred, data.dicts[pred.column])
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
        return selected

    def _project(self, data, selected, raw_rows: list,
                 needed: list[str]) -> None:
        """The selected rows as dicts of the projected columns, up to
        the limit."""
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

    def _kinds(self) -> dict[str, tuple[str, ...]]:
        """{column: the state its aggregates need}, once per (kind,
        column), not per agg spec: mean and sum over one column share
        the summed values."""
        kinds: dict[str, set[str]] = {}
        for _, fn, column in self._aggs:
            if column is not None:
                kinds.setdefault(column, set()).add(
                    "sum" if fn == "mean" else
                    fn if fn in _SIMPLE_FNS else "sketch")
        return {column: tuple(sorted(needs))
                for column, needs in kinds.items()}

    def _key_matches(self, key: tuple) -> bool:
        """Whether a group's rows match every predicate; each predicate
        names a group-by column, so the key decides for all of them. A
        missing cell (``""``, or the ``None`` a NaN groups as) matches
        no comparison."""
        for pred in self._predicates:
            cell = key[self._group.index(pred.column)]
            if cell is None or cell == "" or not all(pred.test((cell,))):
                return False
        return True

    def _partial(self, data, selected) -> dict[tuple, _Partial]:
        """{group key: the aggregate state of its selected rows}."""
        if not selected:
            return {}
        kinds = {column: needs for column, needs in self._kinds().items()
                 if column in data.columns or column in data.codes}
        partial: dict[tuple, _Partial] = {}
        for key, members in self._partition(data, selected).items():
            part = partial[key] = _Partial()
            part.count = len(members)
            for column, needs in kinds.items():
                values = _gather(data, column, members)
                if column in data.columns and _has_nan(values):
                    values = [value for value in values if value == value]
                if not values:
                    continue
                if "sum" in needs:
                    part.values[column] = (
                        array(data.columns[column].typecode, values)
                        if column in data.columns else values)
                if "min" in needs:
                    part.mins[column] = min(values)
                if "max" in needs:
                    part.maxs[column] = max(values)
                if "sketch" in needs:
                    sketch = part.sketches[column] = QuantileSketch()
                    sketch.extend(values)
        return partial

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


def _passes(pred: Predicate, vocab: list) -> list[bool]:
    """Per vocabulary code, whether its cells match ``pred``; ``""``, a
    missing cell, matches none."""
    return [value != "" and hit
            for value, hit in zip(vocab, pred.test(vocab))]


def _keepable(partial: dict[tuple, _Partial]) -> bool:
    """Whether a partial is small enough for the memo."""
    return (len(partial) <= _PARTIAL_GROUPS
            and sum(len(values) for part in partial.values()
                    for values in part.values.values()) <= _PARTIAL_VALUES)


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
