"""The warehouse's column-at-a-time paths against their row loops.

Queries, segment encoding, compaction and rollup rebuilds work on whole
columns; ``warehouse_oracle`` keeps the row-at-a-time code they
replaced. Over generated tables with NaN and ``""`` cells and dynamic
``c_*`` columns present in only some segments, both must give the same
rows, sums, percentiles, statistics, segment bytes and rollup state,
bit for bit — queries both on a fresh ``Warehouse`` and on one whose
memo earlier queries filled. ``QuantileSketch.extend`` must leave the
state repeated ``observe`` calls leave.
"""

from __future__ import annotations

import hashlib
import math
import struct
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st
from warehouse_oracle import RowQuery, encode_rows, fold_segments, iter_segment_rows

from repro.fleet.aggregate import QuantileSketch
from repro.warehouse import Query, Warehouse, build_rollups, encode_segment
from repro.warehouse.query import OPS
from repro.warehouse.schema import RESULTS, TABLES, SchemaError

_STRINGS = ["", "a", "ab", "b"]
_SMALL_FLOATS = st.floats(-50.0, 50.0)
# -math.nan is a NaN with the sign bit set: stored as given, it must
# still come back from compaction as the canonical NaN.
_MISSING_FLOAT = st.one_of(st.none(), st.sampled_from([math.nan, -math.nan]),
                           _SMALL_FLOATS)

_RESULT_ROWS = st.lists(st.fixed_dictionaries(
    {
        "campaign": st.sampled_from(["c0", "c1"]),
        "endpoint": st.sampled_from(_STRINGS),
        "seq": st.integers(-20, 20),
        "ok": st.integers(0, 1),
    },
    optional={
        "job": st.sampled_from(_STRINGS),
        "error": st.sampled_from(_STRINGS),
        "sim_time": _MISSING_FLOAT,
        "c_a": _MISSING_FLOAT,
        "c_b": _SMALL_FLOATS,
    },
), min_size=8, max_size=40)

_SAMPLE_ROWS = st.lists(st.fixed_dictionaries({
    "campaign": st.just("c0"),
    "endpoint": st.sampled_from(_STRINGS),
    "stream": st.sampled_from(["rtt_s", "bw_bps"]),
    "seq": st.integers(0, 100),
    # NaN marks a missing value: rollups and queries skip it.
    "value": st.one_of(_SMALL_FLOATS,
                       st.sampled_from([0.0, -0.0, 1e-9, math.nan])),
}), max_size=40)


def _bits(value):
    """Exact comparison form: floats by their bytes, containers in order."""
    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    if isinstance(value, dict):
        return [(key, _bits(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    return value


def _store(root: str, rows: list[dict], segment_rows: int) -> Warehouse:
    """Rows into one campaign per ``campaign`` value, small segments."""
    warehouse = Warehouse(root)
    for campaign in ("c0", "c1"):
        mine = [row for row in rows if row["campaign"] == campaign]
        if mine:
            writer = warehouse.begin_campaign(campaign,
                                              segment_rows=segment_rows)
            writer.add_rows("results", mine)
            writer.commit(close=True)
    return warehouse


_PREDICATES = st.one_of(
    st.tuples(st.sampled_from(["endpoint", "error"]),
              st.sampled_from([op for op in OPS if op != "in"]),
              st.sampled_from(_STRINGS)),
    st.tuples(st.sampled_from(["endpoint", "error"]), st.just("in"),
              st.lists(st.sampled_from(_STRINGS), max_size=3)),
    st.tuples(st.sampled_from(["seq", "ok"]),
              st.sampled_from([op for op in OPS if op != "in"]),
              st.integers(-20, 20)),
    st.tuples(st.just("seq"), st.just("in"),
              st.lists(st.integers(-20, 20), max_size=3)),
    st.tuples(st.sampled_from(["sim_time", "c_a", "c_b"]),
              st.sampled_from([op for op in OPS if op != "in"]),
              _SMALL_FLOATS),
)
# Aggregates read columns every segment has; min/max also read strings.
_AGGS = st.one_of(
    st.tuples(st.sampled_from(["sum", "mean", "min", "max", "p50", "p90",
                               "p95", "p99", "p999"]),
              st.sampled_from(["seq", "ok", "sim_time"])),
    st.tuples(st.sampled_from(["min", "max"]),
              st.sampled_from(["endpoint", "error"])),
)


_QUERIES = st.lists(st.fixed_dictionaries({
    "predicates": st.lists(_PREDICATES, max_size=3),
    "group": st.lists(st.sampled_from(["endpoint", "seq", "sim_time", "c_a",
                                       "error"]), max_size=2, unique=True),
    "aggs": st.lists(_AGGS, max_size=4),
    "select": st.none() | st.lists(
        st.sampled_from(["job", "seq", "sim_time", "c_a", "c_b"]),
        max_size=3, unique=True),
    "limit": st.none() | st.integers(0, 12),
}), min_size=1, max_size=6)


_GROUP_COLUMNS = ["endpoint", "error", "seq", "ok", "sim_time", "c_a"]


def _predicate_on(column: str):
    """Predicates on one column, ``in`` included; a float column's NaN
    and a string column's "" cells group as their own key."""
    if column in ("endpoint", "error"):
        values = st.sampled_from(_STRINGS)
    elif column in ("seq", "ok"):
        values = st.integers(-20, 20)
    else:
        values = _SMALL_FLOATS
    return st.one_of(
        st.tuples(st.just(column),
                  st.sampled_from([op for op in OPS if op != "in"]), values),
        st.tuples(st.just(column), st.just("in"),
                  st.lists(values, max_size=3)),
    )


@st.composite
def _group_key_query(draw):
    """A query whose every predicate names a group-by column: the shape
    answered from per-segment partials."""
    group = draw(st.lists(st.sampled_from(_GROUP_COLUMNS), min_size=1,
                          max_size=2, unique=True))
    return {
        "predicates": draw(st.lists(
            st.sampled_from(group).flatmap(_predicate_on), max_size=3)),
        "group": group,
        "aggs": draw(st.lists(_AGGS, max_size=4)),
        "select": None,
        "limit": draw(st.none() | st.integers(0, 12)),
    }


def _run(kind, warehouse, predicates, group, aggs, select, limit):
    query = kind(warehouse, "results")
    for predicate in predicates:
        query.where(*predicate)
    query.group_by(*group)
    if aggs:
        query.agg(n="count", **{f"a{index}": spec
                                for index, spec in enumerate(aggs)})
    if select is not None:
        query.select(*select)
    if limit is not None:
        query.limit(limit)
    return query.run()


# Segments [b, a] and [a, a]: group a's sum must be (0.1 + 0.2) + 0.3,
# not 0.1 + (0.2 + 0.3) — a partial's sum added in one step.
_SPLIT_SUM = [
    {"campaign": "c0", "endpoint": endpoint, "seq": seq, "ok": 1,
     "sim_time": value}
    for seq, (endpoint, value) in enumerate(
        [("b", 1.0), ("a", 0.1), ("a", 0.2), ("a", 0.3)])
]


def _check_warm_and_cold(root, queries):
    """Each query against the row loop: twice on a fresh ``Warehouse``
    (the second pass answered from what the first memoized), then on one
    primed by each query's shape without its predicates, whose whole
    segment partials the predicates are then tested against by key."""
    warm = Warehouse(root)
    primed = Warehouse(root)
    for spec in queries:
        _run(Query, primed, **{**spec, "predicates": []})
    for warehouse in (warm, warm, primed):
        for spec in queries:
            fast = _run(Query, warehouse, **spec)
            slow = _run(RowQuery, warehouse, **spec)
            assert _bits(fast.rows) == _bits(slow.rows), spec
            assert fast.stats == slow.stats, spec


class TestQueryMatchesRowLoop:
    @settings(max_examples=200, deadline=None)
    @given(rows=_RESULT_ROWS, segment_rows=st.integers(2, 10),
           queries=_QUERIES)
    def test_rows_and_stats_equal(self, rows, segment_rows, queries):
        with tempfile.TemporaryDirectory() as root:
            _store(root, rows, segment_rows)
            _check_warm_and_cold(root, queries)

    @settings(max_examples=200, deadline=None)
    @given(rows=_RESULT_ROWS, segment_rows=st.integers(2, 10),
           queries=st.lists(_group_key_query(), min_size=1, max_size=6))
    @example(rows=_SPLIT_SUM, segment_rows=2, queries=[{
        "predicates": [], "group": ["endpoint"],
        "aggs": [("sum", "sim_time"), ("mean", "sim_time")],
        "select": None, "limit": None}])
    def test_group_key_predicates_equal(self, rows, segment_rows, queries):
        with tempfile.TemporaryDirectory() as root:
            _store(root, rows, segment_rows)
            _check_warm_and_cold(root, queries)


# +inf is counted but lands in no bucket; it must not stop extend.
_VALUES = st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                             st.sampled_from([0.0, -0.0, -2.5, 1.0, math.inf])),
                   max_size=60)


class TestSketchExtend:
    @settings(max_examples=200, deadline=None)
    @given(_VALUES, _VALUES)
    def test_extend_equals_repeated_observe(self, before, values):
        batch, single = QuantileSketch(), QuantileSketch()
        for value in before:
            batch.observe(value)
            single.observe(value)
        batch.extend(values)
        for value in values:
            single.observe(value)
        assert _bits(batch.state_dict()) == _bits(single.state_dict())
        # The sum is sequential addition, bit for bit.
        total = 0.0
        for value in before + values:
            total += value
        assert struct.pack("<d", batch.sum) == struct.pack("<d", total)


class TestSegmentEncoding:
    @settings(max_examples=150, deadline=None)
    @given(_RESULT_ROWS, st.sampled_from([None, 3, 2.0, "x", True]),
           st.sampled_from(["seq", "sim_time", "endpoint", "c_a"]))
    def test_encode_equals_cell_by_cell(self, rows, odd, column):
        assert encode_segment(RESULTS, rows) == encode_rows(RESULTS, rows)
        # A cell that needs coercion, or cannot be coerced, takes the
        # cell-by-cell path: same bytes, or the same SchemaError text.
        rows = rows + [dict(rows[0], **{column: odd})]
        try:
            expected = encode_rows(RESULTS, rows)
        except SchemaError as exc:
            try:
                encode_segment(RESULTS, rows)
            except SchemaError as got:
                assert str(got) == str(exc)
            else:
                raise AssertionError("encode_segment accepted a bad cell")
        else:
            assert encode_segment(RESULTS, rows) == expected


def _result_row(seq, **cells):
    return dict({"campaign": "c0", "endpoint": "ab"[seq % 2], "seq": seq,
                 "ok": 1}, **cells)


# Inputs of 3 rows compacted into outputs of 4: every output but the
# last cuts an input. c_a lives in the second input only, with its one
# value in the row the second output takes (the first output's cut piece
# of that input has none); c_b is in the first input only; sim_time
# holds a sign-bit NaN.
_CUT_RESULTS = [
    _result_row(0, c_b=1.5, job="a"), _result_row(1, sim_time=-math.nan),
    _result_row(2, error="b"), _result_row(3, job="ab"),
    _result_row(4, sim_time=2.0), _result_row(5, c_a=-0.0, job="b"),
    _result_row(6), _result_row(7, error="a"), _result_row(8, job="a"),
]


class TestCompactionAndRollups:
    @settings(max_examples=60, deadline=None)
    @given(results=_RESULT_ROWS, samples=_SAMPLE_ROWS,
           segment_rows=st.integers(1, 6), target=st.integers(1, 25))
    @example(results=_CUT_RESULTS, samples=[], segment_rows=3, target=4)
    def test_compacted_bytes_equal_encoding_oracle_rows(
            self, results, samples, segment_rows, target):
        with tempfile.TemporaryDirectory() as root:
            warehouse = Warehouse(root)
            writer = warehouse.begin_campaign("c0",
                                              segment_rows=segment_rows)
            writer.add_rows("results", results)
            writer.add_rows("samples", samples)
            manifest = writer.commit(close=True)
            expected = {}
            for table, segs in manifest.tables.items():
                rows = [row for seg in segs for row in iter_segment_rows(
                    warehouse.segment_path("c0", seg))]
                expected[table] = [
                    hashlib.sha256(encode_segment(
                        TABLES[table], rows[start:start + target])).hexdigest()
                    for start in range(0, len(rows), target)
                ]
            warehouse.compact("c0", segment_rows=target)
            got = {table: [seg.sha256 for seg in segs] for table, segs
                   in warehouse.manifest("c0").tables.items()}
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(results=_RESULT_ROWS, samples=_SAMPLE_ROWS,
           segment_rows=st.integers(1, 6))
    def test_rollup_rebuild_equals_row_fold(self, results, samples,
                                            segment_rows):
        with tempfile.TemporaryDirectory() as root:
            warehouse = Warehouse(root)
            writer = warehouse.begin_campaign("c0",
                                              segment_rows=segment_rows)
            writer.add_rows("results", results)
            writer.add_rows("samples", samples)
            writer.commit(close=True)
            rebuilt = build_rollups(warehouse, "c0", write=False)
            folded = fold_segments(warehouse, "c0")
        assert rebuilt["jobs_observed"] == folded.jobs_observed
        assert (_bits(rebuilt["total"].state_dict())
                == _bits(folded.total.state_dict()))
        assert list(rebuilt["endpoints"]) == list(folded.per_endpoint)
        for name, rollup in folded.per_endpoint.items():
            assert (_bits(rebuilt["endpoints"][name].state_dict())
                    == _bits(rollup.state_dict()))
