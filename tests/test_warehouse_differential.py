"""The warehouse's column-at-a-time paths against their row loops.

Queries, segment encoding, compaction and rollup rebuilds work on whole
columns; ``warehouse_oracle`` keeps the row-at-a-time code they
replaced. Over generated tables with NaN and ``""`` cells and dynamic
``c_*`` columns present in only some segments, both must give the same
rows, sums, percentiles, statistics, segment bytes and rollup state,
bit for bit — queries both on a fresh ``Warehouse`` and on one whose
memo earlier queries filled. ``QuantileSketch.extend`` must leave the
state repeated ``observe`` calls leave, at and around every bucket edge.
"""

from __future__ import annotations

import hashlib
import math
import struct
import sys
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st
from warehouse_oracle import RowQuery, encode_rows, fold_segments, iter_segment_rows

from repro.fleet.aggregate import _EDGES, GROWTH, QuantileSketch, _edge
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


def _observed_bucket(value: float) -> int:
    """The bucket ``observe`` puts one positive finite value in."""
    sketch = QuantileSketch()
    sketch.observe(value)
    return next(iter(sketch.buckets))


# Every bucket a positive finite float can land in, subnormals included.
_K_LOW = _observed_bucket(math.ulp(0.0))
_K_HIGH = _observed_bucket(sys.float_info.max)
_KS = st.integers(_K_LOW, _K_HIGH)


def _step(value: float, ulps: int) -> float:
    """``value`` moved ``ulps`` floats up (or down), staying positive."""
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.inf if ulps > 0 else 0.0)
    return max(value, math.ulp(0.0))


@st.composite
def _near(draw, k: int) -> float:
    """A value at ``GROWTH**k`` or a few floats either side of it."""
    return _step(max(GROWTH ** k, math.ulp(0.0)), draw(st.integers(-4, 4)))


@st.composite
def _one_bucket(draw):
    k = draw(st.integers(_K_LOW, _K_HIGH - 1))
    # Below the normal range a bucket may hold no float: then both
    # edges are one float, and the values that float alone.
    low = _edge(k)
    high = max(low, math.nextafter(_edge(k + 1), 0.0))
    return draw(st.lists(st.floats(low, high) | st.sampled_from([low, high]),
                         min_size=1, max_size=40))


@st.composite
def _two_buckets(draw):
    k = draw(st.integers(_K_LOW + 1, _K_HIGH))
    return draw(st.lists(_near(k), min_size=1, max_size=40))


@st.composite
def _many_buckets(draw):
    k = draw(st.integers(_K_LOW, _K_HIGH - 12))
    return draw(st.lists(st.integers(k, k + 12).flatmap(_near),
                         min_size=1, max_size=60))


# Values at and around bucket edges: within one bucket, straddling one
# edge, across many; subnormals, values near the largest float, and
# ints past 2**53 (an int sits between an edge and the float it rounds
# to); mixed with zeros, negatives and +inf, which no bucket takes.
_EDGE_VALUES = st.lists(st.one_of(
    _one_bucket(), _two_buckets(), _many_buckets(),
    st.lists(st.floats(math.ulp(0.0), sys.float_info.min), max_size=40),
    st.lists(st.floats(sys.float_info.max / 4, sys.float_info.max),
             max_size=40),
    st.lists(st.integers(386, 400).flatmap(
        lambda k: st.integers(-3, 3).map(lambda d: int(_edge(k)) + d)),
        max_size=40),
    st.lists(st.sampled_from([0.0, -1.0, math.inf]), max_size=3),
), max_size=3).map(lambda batches: [v for batch in batches for v in batch])


def _assert_extend_equals_observe(before, values):
    """``extend`` over a list, and over an iterator it must copy, leaves
    what one ``observe`` per value leaves."""
    batch, streamed, single = QuantileSketch(), QuantileSketch(), QuantileSketch()
    for value in before:
        batch.observe(value)
        streamed.observe(value)
        single.observe(value)
    batch.extend(values)
    streamed.extend(iter(values))
    for value in values:
        single.observe(value)
    assert _bits(batch.state_dict()) == _bits(single.state_dict())
    assert _bits(streamed.state_dict()) == _bits(single.state_dict())
    # The sum is sequential addition, bit for bit.
    total = 0.0
    for value in before + values:
        total += value
    assert struct.pack("<d", batch.sum) == struct.pack("<d", total)


class TestSketchExtend:
    @settings(max_examples=200, deadline=None)
    @given(_VALUES, _VALUES)
    def test_extend_equals_repeated_observe(self, before, values):
        _assert_extend_equals_observe(before, values)

    @settings(max_examples=300, deadline=None)
    @given(_VALUES, _EDGE_VALUES)
    # The second int is one below bucket 388's edge, and rounds to it.
    @example([], [11_000_000_000_000_000, 11_491_106_279_508_215])
    @example([], [math.ulp(0.0), sys.float_info.min, sys.float_info.max])
    def test_extend_at_bucket_edges(self, before, values):
        _assert_extend_equals_observe(before, values)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_KS, max_size=20))
    def test_memoized_edges_are_exact(self, ks):
        """Each memoized edge is the least float of its bucket or
        above: the float below it lands lower. Every bucket from the
        smallest subnormal's to the largest float's is drawn from."""
        for k in ks + [_K_LOW, _K_HIGH]:
            _edge(k)
        for k, edge in list(_EDGES.items()):
            # math.log is monotone here; None only marks where it is not.
            assert edge is not None, k
            assert _observed_bucket(edge) >= k
            if edge > math.ulp(0.0):
                assert _observed_bucket(math.nextafter(edge, 0.0)) < k


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
    # Every piece whole: zone maps and dictionaries from input headers.
    @example(results=_CUT_RESULTS, samples=[], segment_rows=3, target=6)
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
