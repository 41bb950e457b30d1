"""Tests for the durable results warehouse (repro.warehouse).

Covers the columnar segment format (round-trip, missing values, dynamic
counter columns, zone maps), the manifest commit protocol (atomicity,
append-only campaigns, crash tolerance), retention and compaction,
the query layer (predicates, group-by percentiles, zone-map pruning),
materialized rollups (aggregator path == segment-rebuild path), the
``run_campaign(warehouse=...)`` integration with byte-identical
same-seed persistence, the schema-versioned JSONL export round-trip,
hypothesis properties of ``QuantileSketch.merge``, ``partition``
against the loop it replaced, and the CLI.
"""

from __future__ import annotations

import json
import math
import os
import tracemalloc
from array import array
from operator import ne

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from warehouse_oracle import RowQuery, partition_loop

from repro.experiments.campaign import ping_job
from repro.fleet import FleetTestbed
from repro.fleet.aggregate import (
    AGGREGATE_SCHEMA_VERSION,
    GROWTH,
    QuantileSketch,
    ResultAggregator,
)
from repro.warehouse import (
    CampaignWriter,  # noqa: F401 — re-export sanity
    Query,
    RecordingAggregator,
    Warehouse,
    WarehouseError,
    build_rollups,
    encode_segment,
    ingest_aggregate_jsonl,
    ingest_events,
    load_rollups,
    persist_campaign,
    read_header,
    read_segment,
    rollup_percentiles,
    segment_fingerprints,
)
from repro.warehouse import query as query_module
from repro.warehouse import segments as segments_module
from repro.warehouse.cli import main as warehouse_cli
from repro.warehouse.query import _PARTIAL_GROUPS, _PARTIAL_VALUES
from repro.warehouse.schema import RESULTS, SAMPLES, SchemaError
from repro.warehouse.segments import MEMO_ENTRIES, partition, zone_overlaps


# -- segment format -----------------------------------------------------------


def _sample_row(seq, endpoint="ep0", stream="rtt_s", value=0.01):
    return {"campaign": "c", "job": f"j{seq}", "endpoint": endpoint,
            "stream": stream, "seq": seq, "value": value}


class TestSegmentFormat:
    def test_round_trip_all_types(self, tmp_path):
        rows = [_sample_row(i, endpoint=f"ep{i % 3}", value=0.01 * (i + 1))
                for i in range(10)]
        payload = encode_segment(SAMPLES, rows)
        path = tmp_path / "seg-000000.seg"
        path.write_bytes(payload)
        data = read_segment(str(path))
        assert data.rows == 10
        for i in range(10):
            assert data.cell("endpoint", i) == f"ep{i % 3}"
            assert data.cell("seq", i) == i
            assert data.cell("value", i) == pytest.approx(0.01 * (i + 1))

    def test_missing_values_and_dynamic_columns(self, tmp_path):
        rows = [
            {"campaign": "c", "job": "a", "endpoint": "ep0", "seq": 0,
             "ok": 1, "sim_time": 1.0, "error": "",
             "c_probes_sent": 3.0},
            {"campaign": "c", "job": "b", "endpoint": "ep1", "seq": 1,
             "ok": 0, "sim_time": 2.0, "error": "timeout"},
        ]
        path = tmp_path / "r.seg"
        path.write_bytes(encode_segment(RESULTS, rows))
        data = read_segment(str(path))
        assert data.cell("c_probes_sent", 0) == 3.0
        # Row b never had the counter: stored as NaN (missing).
        assert math.isnan(data.cell("c_probes_sent", 1))
        assert data.cell("error", 0) == ""  # missing string
        # The dynamic column's zone map covers present values only.
        meta = data.header.column("c_probes_sent")
        assert meta["zmin"] == meta["zmax"] == 3.0

    def test_unknown_column_rejected(self):
        with pytest.raises(SchemaError):
            encode_segment(SAMPLES, [dict(_sample_row(0), bogus=1)])

    def test_empty_segment_rejected(self):
        with pytest.raises(WarehouseError):
            encode_segment(SAMPLES, [])

    def test_truncated_file_detected(self, tmp_path):
        payload = encode_segment(SAMPLES, [_sample_row(0)])
        path = tmp_path / "t.seg"
        path.write_bytes(payload[: len(payload) - 4])
        with pytest.raises(WarehouseError):
            read_segment(str(path))
        path.write_bytes(b"nope")
        with pytest.raises(WarehouseError):
            read_header(str(path))

    def test_encoding_is_content_deterministic(self):
        """Same row content, different dict insertion order → same bytes."""
        a = {"campaign": "c", "job": "j", "endpoint": "e", "seq": 0,
             "ok": 1, "sim_time": 1.0, "error": "",
             "c_a": 1.0, "c_b": 2.0}
        b = dict(reversed(list(a.items())))
        assert encode_segment(RESULTS, [a]) == encode_segment(RESULTS, [b])

    def test_zone_overlaps_semantics(self):
        meta = {"zmin": 10, "zmax": 20}
        assert zone_overlaps(meta, "==", 15)
        assert not zone_overlaps(meta, "==", 21)
        assert not zone_overlaps(meta, ">", 20)
        assert zone_overlaps(meta, ">=", 20)
        assert not zone_overlaps(meta, "<", 10)
        assert zone_overlaps(meta, "in", [1, 12])
        assert not zone_overlaps(meta, "in", [1, 2])
        # All-missing column: no comparison can match.
        assert not zone_overlaps({"zmin": None, "zmax": None}, "==", 0)
        # != prunes only a constant column equal to the value.
        assert not zone_overlaps({"zmin": 5, "zmax": 5}, "!=", 5)
        assert zone_overlaps({"zmin": 5, "zmax": 6}, "!=", 5)


# -- manifest protocol --------------------------------------------------------


class TestManifestProtocol:
    def test_uncommitted_segments_invisible(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        writer = warehouse.begin_campaign("c1", segment_rows=2)
        writer.add_rows("samples", [_sample_row(i) for i in range(5)])
        # Segments flushed to disk, but no manifest yet.
        assert warehouse.campaigns() == []
        writer.commit()
        assert warehouse.campaigns() == ["c1"]
        assert warehouse.manifest("c1").total_rows("samples") == 5

    def test_append_across_commits_then_close(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        writer = warehouse.begin_campaign("c1")
        writer.add_rows("samples", [_sample_row(i) for i in range(3)])
        writer.commit()
        writer = warehouse.begin_campaign("c1")
        writer.add_rows("samples", [_sample_row(i) for i in range(3, 5)])
        writer.commit(close=True)
        manifest = warehouse.manifest("c1")
        assert manifest.state == "closed"
        assert manifest.total_rows("samples") == 5
        # Append-only: a closed campaign refuses a new writer.
        with pytest.raises(WarehouseError):
            warehouse.begin_campaign("c1")

    def test_stale_tmp_files_ignored(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        writer = warehouse.begin_campaign("c1", segment_rows=10)
        writer.add_rows("samples", [_sample_row(i) for i in range(3)])
        writer.commit()
        # Simulate a crash mid-write of a later manifest/segment.
        campaign_dir = warehouse.campaign_dir("c1")
        with open(os.path.join(campaign_dir, "MANIFEST.json.tmp"), "w") as fh:
            fh.write("garbage{{{")
        with open(os.path.join(campaign_dir, "samples",
                               "seg-000009.seg.tmp"), "w") as fh:
            fh.write("half a segm")
        # Readers only trust the committed manifest.
        assert warehouse.manifest("c1").total_rows("samples") == 3
        result = Query(warehouse, "samples").run()
        assert len(result.rows) == 3

    def test_fingerprints_detect_drift(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        writer = warehouse.begin_campaign("c1")
        writer.add_rows("samples", [_sample_row(i) for i in range(3)])
        writer.commit()
        prints = segment_fingerprints(warehouse, "c1")
        assert len(prints) == 1
        seg = warehouse.segments("c1", "samples")[0]
        path = warehouse.segment_path("c1", seg)
        with open(path, "ab") as fh:
            fh.write(b"!")
        with pytest.raises(WarehouseError):
            segment_fingerprints(warehouse, "c1")

    def test_corrupt_manifest_reported(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        warehouse.begin_campaign("c1").commit()
        with open(warehouse.manifest_path("c1"), "w") as fh:
            fh.write("{not json")
        with pytest.raises(WarehouseError):
            warehouse.manifest("c1")


# -- retention + compaction ---------------------------------------------------


class TestLifecycle:
    def _campaign(self, warehouse, name, rows, close=True, segment_rows=4):
        writer = warehouse.begin_campaign(name, segment_rows=segment_rows)
        writer.add_rows("samples", [
            _sample_row(i, endpoint=f"ep{i % 2}", value=0.001 * (i + 1))
            for i in range(rows)
        ])
        writer.commit(close=close)

    def test_compaction_preserves_rows_and_rollups(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        self._campaign(warehouse, "c1", rows=21, segment_rows=4)
        before = build_rollups(warehouse, "c1")
        assert len(warehouse.segments("c1", "samples")) == 6
        stats = warehouse.compact("c1", segment_rows=100)
        assert stats["segments_before"] == 6
        assert stats["segments_after"] == 1
        manifest = warehouse.manifest("c1")
        assert manifest.total_rows("samples") == 21
        # Superseded segment files are gone; referenced ones verify.
        table_dir = os.path.join(warehouse.campaign_dir("c1"), "samples")
        assert len(os.listdir(table_dir)) == 1
        segment_fingerprints(warehouse, "c1")
        after = build_rollups(warehouse, "c1")
        assert (before["total"].state_dict()
                == after["total"].state_dict())

    def test_compaction_memory_stays_bounded(self, tmp_path):
        """Compaction holds at most one column of one output segment,
        as 8-byte cells; a segment's rows never become Python lists."""
        warehouse = Warehouse(str(tmp_path / "wh"))
        writer = warehouse.begin_campaign("c1", segment_rows=3000)
        writer.add_rows("samples", [
            {"campaign": "c1", "job": f"job-{i // 625}-{i % 97}",
             "endpoint": f"ep{i // 625:02d}", "stream": "rtt_s",
             "seq": i, "value": 0.010 + (i % 977) * 1e-5}
            for i in range(40_000)
        ])
        writer.commit(close=True)
        target = 20_000
        tracemalloc.start()
        try:
            warehouse.compact("c1", segment_rows=target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(warehouse.segments("c1", "samples")) == 2
        assert peak < 8 * target * 8, f"peak {peak} B"

    def test_compaction_requires_closed(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        self._campaign(warehouse, "c1", rows=3, close=False)
        with pytest.raises(WarehouseError):
            warehouse.compact("c1")

    def test_retention_keeps_newest_closed(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        for name in ("a1", "b2", "c3"):
            self._campaign(warehouse, name, rows=2)
        self._campaign(warehouse, "d4-open", rows=2, close=False)
        dropped = warehouse.retain(2)
        assert dropped == ["a1"]
        assert warehouse.campaigns() == ["b2", "c3", "d4-open"]

    def test_drop_removes_tree(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        self._campaign(warehouse, "c1", rows=2)
        warehouse.drop("c1")
        assert warehouse.campaigns() == []
        assert not os.path.exists(warehouse.campaign_dir("c1"))


# -- query layer --------------------------------------------------------------


@pytest.fixture
def populated(tmp_path):
    """3 campaigns × 4 segments, values partitioned so zone maps bite."""
    warehouse = Warehouse(str(tmp_path / "wh"))
    for c in range(3):
        writer = warehouse.begin_campaign(f"camp{c}", segment_rows=8)
        rows = []
        seq = 0
        for ep in range(4):
            for k in range(8):
                rows.append({
                    "campaign": f"camp{c}", "job": f"job-{ep}-{k}",
                    "endpoint": f"ep{ep:02d}", "stream": "rtt_s",
                    # Values grouped by endpoint → tight per-segment
                    # zone maps (each segment holds one endpoint).
                    "seq": seq, "value": (ep + 1) * 0.010 + k * 0.0001,
                })
                seq += 1
        writer.add_rows("samples", rows)
        writer.commit(close=True)
    return warehouse


class TestQuery:
    def test_filter_and_project(self, populated):
        result = (Query(populated, "samples", campaigns=["camp0"])
                  .where("endpoint", "==", "ep01")
                  .select("job", "value")
                  .run())
        assert len(result.rows) == 8
        assert set(result.rows[0]) == {"job", "value"}
        assert all(0.020 <= row["value"] < 0.021 for row in result.rows)

    def test_zone_map_pruning(self, populated):
        result = (Query(populated, "samples")
                  .where("value", ">=", 0.040)
                  .run())
        stats = result.stats
        # Only ep3's segment per campaign can hold values >= 0.040.
        assert stats.segments_total == 12
        assert stats.segments_pruned == 9
        assert stats.rows_scanned == 24
        assert len(result.rows) == 24
        assert stats.pruned_fraction == 0.75

    def test_string_zone_pruning(self, populated):
        result = (Query(populated, "samples")
                  .where("endpoint", ">", "ep02")
                  .run())
        assert result.stats.segments_pruned == 9
        assert len(result.rows) == 24

    def test_absent_column_prunes(self, populated):
        # samples segments never carry a c_* column.
        result = (Query(populated, "samples")
                  .where("value", ">=", 0.0)
                  .run())
        assert result.stats.segments_pruned == 0
        writer_stats = (Query(populated, "samples")
                        .where("campaign", "==", "nope")
                        .run().stats)
        assert writer_stats.segments_pruned == writer_stats.segments_total

    def test_group_by_percentiles(self, populated):
        result = (Query(populated, "samples", campaigns=["camp1"])
                  .group_by("endpoint")
                  .agg(n="count", p99=("p99", "value"),
                       mean=("mean", "value"), lo=("min", "value"),
                       hi=("max", "value"), total=("sum", "value"))
                  .run())
        assert [row["endpoint"] for row in result.rows] == [
            "ep00", "ep01", "ep02", "ep03"]
        for ep, row in enumerate(result.rows):
            assert row["n"] == 8
            true_max = (ep + 1) * 0.010 + 7 * 0.0001
            assert row["hi"] == pytest.approx(true_max)
            assert row["p99"] == pytest.approx(true_max, rel=0.06)
            assert row["total"] == pytest.approx(
                sum((ep + 1) * 0.010 + k * 0.0001 for k in range(8)))
            assert row["mean"] == pytest.approx(row["total"] / 8)

    def test_limit_short_circuits(self, populated):
        result = Query(populated, "samples").limit(5).run()
        assert len(result.rows) == 5
        assert result.stats.segments_scanned <= 2

    def test_unknown_table_and_fn_rejected(self, populated):
        with pytest.raises(SchemaError):
            Query(populated, "nope")
        with pytest.raises(SchemaError):
            Query(populated, "samples").agg(x="median")
        with pytest.raises(SchemaError):
            Query(populated, "samples").agg(x=("sum",))  # needs a column
        with pytest.raises(SchemaError):
            Query(populated, "samples").where("value", "~=", 1)

    def test_nan_cells_never_match(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        writer = warehouse.begin_campaign("c1")
        writer.add_rows("results", [
            {"campaign": "c1", "job": "a", "endpoint": "e", "seq": 0,
             "ok": 1, "sim_time": 1.0, "c_runs": 2.0},
            {"campaign": "c1", "job": "b", "endpoint": "e", "seq": 1,
             "ok": 1, "sim_time": 2.0},  # c_runs missing → NaN
        ])
        writer.commit()
        for op, want in (("<", 99.0), (">=", 0.0), ("!=", 5.0)):
            rows = (Query(warehouse, "results")
                    .where("c_runs", op, want).select("job").run().rows)
            assert rows == [{"job": "a"}], (op, want)


    def _results(self, tmp_path, count=12):
        warehouse = Warehouse(str(tmp_path / "wh"))
        writer = warehouse.begin_campaign("c1")
        writer.add_rows("results", [
            {"campaign": "c1", "job": f"j{seq}", "endpoint": "e",
             "seq": seq, "ok": 1, "sim_time": float(seq),
             **({"c_runs": 2.0} if seq == 5 else {})}
            for seq in range(count)
        ])
        writer.commit()
        return warehouse

    def test_missing_float_group_cells_share_one_none_key(self, tmp_path):
        warehouse = self._results(tmp_path)
        rows = (Query(warehouse, "results").group_by("c_runs")
                .agg(n="count").run().rows)
        assert rows == [{"c_runs": None, "n": 11}, {"c_runs": 2.0, "n": 1}]

    def test_numeric_group_keys_sort_by_value(self, tmp_path):
        warehouse = self._results(tmp_path)
        rows = Query(warehouse, "results").group_by("seq").run().rows
        assert [row["seq"] for row in rows] == list(range(12))

    def test_aggregates_skip_a_column_a_segment_never_saw(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        writer = warehouse.begin_campaign("c1", segment_rows=2)
        writer.add_rows("results", [
            {"campaign": "c1", "job": f"j{seq}", "endpoint": "e",
             "seq": seq, "ok": 1, "sim_time": 0.0,
             **({"c_runs": 2.0 * seq + 1} if seq < 2 else {})}
            for seq in range(4)
        ])
        writer.commit()
        assert [read_header(warehouse.segment_path("c1", seg))
                .column("c_runs") is None
                for seg in warehouse.segments("c1", "results")] == [
                    False, True]
        (row,) = (Query(warehouse, "results")
                  .agg(n="count", total=("sum", "c_runs"),
                       mean=("mean", "c_runs"), lo=("min", "c_runs"),
                       hi=("max", "c_runs"), p50=("p50", "c_runs"))
                  .run().rows)
        assert row["n"] == 4
        assert (row["total"], row["mean"], row["lo"], row["hi"]) == (
            4.0, 2.0, 1.0, 3.0)
        assert row["p50"] == pytest.approx(1.0, rel=0.06)

    def test_unknown_campaign_raises(self, populated):
        with pytest.raises(WarehouseError, match="'nope'"):
            Query(populated, "samples", campaigns=["nope"]).run()

    def test_corrupt_manifest_raises_in_all_campaigns_query(self, populated):
        with open(populated.manifest_path("camp1"), "w") as fh:
            fh.write("{not json")
        assert "camp1" in populated.campaigns()
        with pytest.raises(WarehouseError, match="'camp1'"):
            Query(populated, "samples").run()


class TestQueryMemo:
    """Per-segment partials a ``Warehouse`` keeps between queries."""

    @staticmethod
    def _ingest(warehouse, name, rows, segment_rows=8):
        writer = warehouse.begin_campaign(name, segment_rows=segment_rows)
        writer.add_rows("samples", rows)
        return writer.commit(close=True)

    @staticmethod
    def _queries(warehouse, name):
        return [
            Query(warehouse, "samples", [name]).group_by("endpoint")
            .agg(n="count", total=("sum", "value"), mean=("mean", "value"),
                 p99=("p99", "value")).run().rows,
            Query(warehouse, "samples", [name])
            .where("endpoint", "in", ["ep1", "ep3"]).group_by("endpoint")
            .agg(n="count", lo=("min", "value"), hi=("max", "value"))
            .run().rows,
        ]

    def test_rewritten_segments_are_not_answered_from_memo(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        first = [_sample_row(i, endpoint=f"ep{i % 4}", value=0.001 * (i + 1))
                 for i in range(32)]
        old = self._ingest(warehouse, "c1", first)
        before = self._queries(warehouse, "c1")
        warehouse.drop("c1")
        # Different rows under the same name: the segment files come
        # back under the same names with other bytes.
        second = [_sample_row(i, endpoint=f"ep{i % 4}", value=0.5 + i)
                  for i in range(32)]
        new = self._ingest(warehouse, "c1", second)
        assert ([seg.file for seg in new.tables["samples"]]
                == [seg.file for seg in old.tables["samples"]])
        assert not ({seg.sha256 for seg in new.tables["samples"]}
                    & {seg.sha256 for seg in old.tables["samples"]})
        after = self._queries(warehouse, "c1")
        assert after == self._queries(Warehouse(warehouse.root), "c1")
        assert after != before
        assert after[0][0]["total"] == sum(
            row["value"] for row in second if row["endpoint"] == "ep0")
        warehouse.compact("c1", segment_rows=100)
        assert self._queries(warehouse, "c1") == after

    def test_memo_stays_bounded(self, tmp_path):
        """Partials of many groups or many summed values are computed
        but not kept, and the memo never holds more than its bound."""
        warehouse = Warehouse(str(tmp_path / "wh"))
        self._ingest(warehouse, "c1", [
            _sample_row(i, endpoint=f"ep{i // 200:02d}", value=0.01 + i)
            for i in range(3000)
        ], segment_rows=1000)
        self._ingest(warehouse, "c2", [
            _sample_row(i, endpoint="ep0", value=1.0 + i)
            for i in range(_PARTIAL_VALUES + 1)
        ], segment_rows=_PARTIAL_VALUES + 1)
        by_seq = (Query(warehouse, "samples", ["c1"]).group_by("seq")
                  .agg(n="count").run().rows)
        assert len(by_seq) == 3000
        summed = (Query(warehouse, "samples", ["c2"]).group_by("endpoint")
                  .agg(total=("sum", "value")).run().rows)
        assert summed[0]["total"] == sum(1.0 + i
                                         for i in range(_PARTIAL_VALUES + 1))
        # Only the four headers are kept.
        assert not warehouse.partials
        assert len(warehouse.headers) == 4
        # 64 aggregate mixes over three segments: more partials than
        # the memo holds, each under its own key.
        fns = ["sum", "min", "max", "p50"]
        mixes = [[fn for bit, fn in enumerate(fns) if mask >> bit & 1]
                 for mask in range(16)]
        for value_fns in mixes:
            for seq_fns in mixes[:4]:
                aggs = {f"v_{fn}": (fn, "value") for fn in value_fns}
                aggs.update({f"s_{fn}": (fn, "seq") for fn in seq_fns})
                (Query(warehouse, "samples", ["c1"]).group_by("endpoint")
                 .agg(n="count", **aggs).run())
                assert len(warehouse.partials) <= MEMO_ENTRIES
        assert warehouse.partials
        for partial in warehouse.partials.values():
            assert len(partial) <= _PARTIAL_GROUPS
            assert sum(len(values) for part in partial.values()
                       for values in part.values.values()) <= _PARTIAL_VALUES

    def test_memo_belongs_to_one_warehouse(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        self._ingest(warehouse, "c1", [_sample_row(i) for i in range(4)])
        self._queries(warehouse, "c1")
        assert warehouse.headers and warehouse.partials
        fresh = Warehouse(warehouse.root)
        assert not fresh.headers and not fresh.partials

    @staticmethod
    def _count_reads(monkeypatch) -> list:
        """Each segment or header file the query layer reads, in order."""
        reads = []
        for module, name in ((query_module, "read_segment"),
                             (segments_module, "read_header")):
            def spy(path, *args, _read=getattr(module, name), **kwargs):
                reads.append(path)
                return _read(path, *args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        return reads

    def test_repeated_scan_over_many_segments_hits_memo(self, tmp_path,
                                                        monkeypatch):
        """Headers and partials are kept apart: a scan over more
        segments than half the bound still answers its repeat from the
        memo, reading no file."""
        warehouse = Warehouse(str(tmp_path / "wh"))
        segments = MEMO_ENTRIES - 8
        scanned = segments - 10  # the first ten are pruned
        assert segments + scanned > MEMO_ENTRIES
        self._ingest(warehouse, "c1", [
            _sample_row(i, endpoint=f"ep{i // 4:03d}", value=0.5 + i)
            for i in range(4 * segments)
        ], segment_rows=4)
        reads = self._count_reads(monkeypatch)

        def query():
            return (Query(warehouse, "samples", ["c1"])
                    .where("endpoint", ">=", "ep010").group_by("endpoint")
                    .agg(n="count", p99=("p99", "value")).run())

        first = query()
        assert len(reads) == segments + scanned
        assert len(warehouse.partials) == scanned
        del reads[:]
        second = query()
        assert reads == []
        assert second.rows == first.rows
        assert second.stats == first.stats
        fresh = RowQuery(Warehouse(warehouse.root), "samples", ["c1"])
        assert second.rows == (fresh.where("endpoint", ">=", "ep010")
                               .group_by("endpoint")
                               .agg(n="count", p99=("p99", "value"))
                               .run().rows)

    def test_interleaved_segments_narrow_rows_first(self, tmp_path,
                                                    monkeypatch):
        """On segments whose predicate column holds many values, a
        point query folds only the rows it selects, warm or cold, as the
        row narrowing before the memo did; a whole-segment partial of
        more groups than the memo keeps is not stored."""
        warehouse = Warehouse(str(tmp_path / "wh"))
        endpoints = 2 * _PARTIAL_GROUPS
        self._ingest(warehouse, "c1", [
            _sample_row(i, endpoint=f"ep{i % endpoints:03d}",
                        value=0.001 * (i + 1))
            for i in range(4 * endpoints)
        ], segment_rows=2 * endpoints)
        folded = []
        partial = Query._partial

        def spy(self, data, selected):
            folded.append(len(selected))
            return partial(self, data, selected)

        monkeypatch.setattr(Query, "_partial", spy)
        shapes = [
            (("endpoint", "==", "ep007"), "endpoint", ("sum", "value")),
            (("seq", "==", 5), "seq", ("mean", "value")),
            (("endpoint", "in", ["ep001", "ep100"]), "endpoint",
             ("p99", "value")),
        ]
        for _ in range(2):
            for predicate, group, agg in shapes:
                del folded[:]
                got = (Query(warehouse, "samples", ["c1"])
                       .where(*predicate).group_by(group)
                       .agg(n="count", v=agg).run())
                want = (RowQuery(Warehouse(warehouse.root), "samples",
                                 ["c1"])
                        .where(*predicate).group_by(group)
                        .agg(n="count", v=agg).run())
                assert got.rows == want.rows
                assert got.stats == want.stats
                assert sum(folded) == got.stats.rows_matched
                assert got.stats.rows_matched < got.stats.rows_scanned
        by_endpoint = (Query(warehouse, "samples", ["c1"])
                       .group_by("endpoint").agg(n="count").run().rows)
        assert len(by_endpoint) == endpoints
        assert not warehouse.partials

    def test_whole_partial_answers_group_key_predicates(self, tmp_path,
                                                        monkeypatch):
        """Once a query of the same shape folded a segment whole, a
        predicate on the group-by column is tested on the partial's
        keys, reading no column."""
        warehouse = Warehouse(str(tmp_path / "wh"))
        self._ingest(warehouse, "c1", [
            _sample_row(i, endpoint=["ep0", "ep1", "", "ep3"][i % 4],
                        value=0.001 * (i + 1))
            for i in range(64)
        ], segment_rows=16)

        def query(warehouse, kind=Query, *predicates):
            query = kind(warehouse, "samples", ["c1"])
            for predicate in predicates:
                query.where(*predicate)
            return (query.group_by("endpoint")
                    .agg(n="count", total=("sum", "value"),
                         p99=("p99", "value")).run())

        query(warehouse)
        assert len(warehouse.partials) == 4
        reads = self._count_reads(monkeypatch)
        for predicates in ([("endpoint", "==", "ep1")],
                           [("endpoint", "!=", "ep1")],
                           [("endpoint", "in", ["ep0", "", "ep3"])],
                           [("endpoint", "<", "ep3"),
                            ("endpoint", ">", "ep0")]):
            got = query(warehouse, Query, *predicates)
            assert reads == []
            want = query(Warehouse(warehouse.root), RowQuery, *predicates)
            del reads[:]
            assert got.rows == want.rows
            assert got.stats == want.stats


# -- grouping rows by key -----------------------------------------------------

# Keys as runs (a key may come back after another, interleaving them),
# drawn one per row from a few values, or one key throughout.
_RUN_KEYS = st.lists(st.tuples(st.integers(0, 5), st.integers(1, 6)),
                     max_size=6).map(
    lambda runs: [key for key, length in runs for _ in range(length)])
_KEYS = st.one_of(
    _RUN_KEYS,
    st.lists(st.integers(0, 3), max_size=40),
    st.tuples(st.integers(0, 5), st.integers(0, 30)).map(
        lambda spec: [spec[0]] * spec[1]),
)


class TestPartition:
    """``partition`` against the dict-of-lists loop it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(keys=_KEYS, form=st.sampled_from(["list", "array", "tuples"]),
           as_range=st.booleans())
    def test_matches_loop(self, keys, form, as_range):
        keyed = (array("q", keys) if form == "array" else
                 [(key % 2, str(key)) for key in keys] if form == "tuples"
                 else keys)
        items = (range(len(keys)) if as_range
                 else [0.5 * index for index in range(len(keys))])
        got = partition(keyed, items)
        want = partition_loop(keyed, items)
        assert list(got) == list(want)
        assert [list(members) for members in got.values()] == list(
            want.values())
        # Whole runs come back as slices of the items; interleaved keys
        # as the loop's lists.
        changes = sum(map(ne, keys, keys[1:]))
        kind = (type(items) if changes + 1 == len(want) else list)
        assert all(type(members) is kind for members in got.values())

    def test_query_on_interleaved_segment_takes_the_loop(self, tmp_path,
                                                         monkeypatch):
        """A segment whose endpoints run in blocks groups by slices of
        its rows; one that interleaves them groups row by row, and both
        answer as the row loop does."""
        warehouse = Warehouse(str(tmp_path / "wh"))
        writer = warehouse.begin_campaign("c", segment_rows=8)
        writer.add_rows("samples", [
            _sample_row(seq, endpoint=endpoint, value=0.001 * (seq + 1))
            for seq, endpoint in enumerate("aaaabbbb" + "abababab")])
        writer.commit(close=True)
        members = []

        def spy(keys, items):
            parts = partition(keys, items)
            members.append({type(rows) for rows in parts.values()})
            return parts

        monkeypatch.setattr(query_module, "partition", spy)
        for predicates in ([], [("seq", "<", 6)], [("seq", ">=", 3)]):
            results = []
            for kind in (Query, RowQuery):
                query = kind(warehouse, "samples", ["c"])
                for predicate in predicates:
                    query.where(*predicate)
                results.append(query.group_by("endpoint").agg(
                    n="count", total=("sum", "value"),
                    p99=("p99", "value")).run())
            got, want = results
            assert got.rows == want.rows
            assert got.stats == want.stats
        assert members[:2] == [{range}, {list}]


# -- campaign names -----------------------------------------------------------


class TestCampaignNames:
    @pytest.mark.parametrize("name", ["", ".", ".."])
    def test_names_that_leave_the_root_rejected(self, tmp_path, name):
        outside = tmp_path / "keep.txt"
        outside.write_text("keep")
        warehouse = Warehouse(str(tmp_path / "wh"))
        before = sorted(os.listdir(tmp_path))
        with pytest.raises(WarehouseError, match="invalid campaign name"):
            warehouse.begin_campaign(name)
        with pytest.raises(WarehouseError, match="invalid campaign name"):
            warehouse.drop(name)
        assert sorted(os.listdir(tmp_path)) == before
        assert outside.read_text() == "keep"
        assert os.listdir(tmp_path / "wh") == []

    def test_separators_still_map_inside_the_root(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        warehouse.begin_campaign(os.sep.join(["..", ".."])).commit()
        assert warehouse.campaigns() == ["_".join(["..", ".."])]


# -- rollups ------------------------------------------------------------------


def assert_rollup_states_close(a: dict, b: dict) -> None:
    """Rollup state equality, with sketch sums compared approximately
    (segment-by-segment rebuild adds floats in a different order)."""
    a, b = dict(a), dict(b)
    sketches_a = {name: dict(state)
                  for name, state in a.pop("sketches").items()}
    sketches_b = {name: dict(state)
                  for name, state in b.pop("sketches").items()}
    assert a == b
    assert set(sketches_a) == set(sketches_b)
    for name in sketches_a:
        sum_a = sketches_a[name].pop("sum")
        sum_b = sketches_b[name].pop("sum")
        assert sketches_a[name] == sketches_b[name]
        assert sum_a == pytest.approx(sum_b, rel=1e-12, abs=1e-12)


class TestRollups:
    def test_rebuild_matches_aggregator(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        aggregator = RecordingAggregator(campaign="c1")
        for i in range(20):
            aggregator.observe(
                f"ep{i % 3}",
                {"counters": {"probes_sent": 2, "probes_received": 2},
                 "values": {"rtt_s": [0.01 + 0.001 * i, 0.02]}},
                failed=(i % 7 == 0), job=f"job-{i}",
            )
        writer = warehouse.begin_campaign("c1", segment_rows=6)
        writer.add_rows("results", aggregator.result_rows)
        writer.add_rows("samples", aggregator.sample_rows)
        writer.commit(close=True)
        rebuilt = build_rollups(warehouse, "c1")
        assert rebuilt["jobs_observed"] == 20
        assert_rollup_states_close(rebuilt["total"].state_dict(),
                                   aggregator.total.state_dict())
        assert set(rebuilt["endpoints"]) == set(aggregator.per_endpoint)
        for name, rollup in aggregator.per_endpoint.items():
            assert_rollup_states_close(
                rebuilt["endpoints"][name].state_dict(),
                rollup.state_dict())
        # build_rollups materialized the file; the fast path serves it.
        loaded = load_rollups(warehouse, "c1")
        assert loaded["total"].state_dict() == rebuilt["total"].state_dict()
        pcts = rollup_percentiles(warehouse, "c1", "rtt_s")
        assert set(pcts) == {"p50", "p90", "p99"}
        assert pcts["p99"] >= pcts["p50"] > 0

    def test_infinite_sample_in_query_and_rollup(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        writer = warehouse.begin_campaign("c1", segment_rows=4)
        writer.add_rows("samples", [
            _sample_row(i, endpoint=f"ep{i % 2}",
                        value=math.inf if i == 5 else 0.01 * (i + 1))
            for i in range(10)
        ])
        writer.commit(close=True)
        result = (Query(warehouse, "samples").group_by("endpoint")
                  .agg(n="count", p99=("p99", "value"),
                       hi=("max", "value"))
                  .run())
        by_endpoint = {row["endpoint"]: row for row in result.rows}
        # +inf is counted and is the max; rank 5 of 5 is past every
        # bucket, so p99 reports that max.
        assert by_endpoint["ep1"]["n"] == 5
        assert by_endpoint["ep1"]["hi"] == by_endpoint["ep1"]["p99"] == math.inf
        assert by_endpoint["ep0"]["p99"] == pytest.approx(0.09, rel=0.11)
        rollups = build_rollups(warehouse, "c1")
        total = rollups["total"].sketches["rtt_s"]
        assert total.count == 10
        assert total.sum == total.max == math.inf
        assert total.quantile(0.5) == pytest.approx(0.05, rel=0.11)
        assert rollup_percentiles(warehouse, "c1", "rtt_s")["p99"] == math.inf

    def test_missing_sample_value_in_query_and_rollup(self, tmp_path):
        """NaN is the warehouse's missing float: a rollup skips it before
        sketching, as a query does, instead of failing to bucket it."""
        warehouse = Warehouse(str(tmp_path / "wh"))
        writer = warehouse.begin_campaign("c1")
        writer.add_rows("samples", [
            _sample_row(i, value=math.nan if i == 2 else 0.01 * (i + 1))
            for i in range(5)
        ])
        writer.commit(close=True)
        [row] = (Query(warehouse, "samples").group_by("endpoint")
                 .agg(p99=("p99", "value")).run().rows)
        rollups = build_rollups(warehouse, "c1")
        sketch = rollups["endpoints"]["ep0"].sketches["rtt_s"]
        assert sketch.count == rollups["total"].sketches["rtt_s"].count == 4
        assert sketch.quantile(0.99) == row["p99"]
        assert rollup_percentiles(warehouse, "c1", "rtt_s")["p99"] == row["p99"]

    def test_rollup_percentiles_unknown_stream(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        aggregator = RecordingAggregator(campaign="c1")
        aggregator.observe("e", {"values": {"rtt_s": [0.01]}}, job="j")
        writer = warehouse.begin_campaign("c1")
        from repro.warehouse.rollup import rollups_from_aggregator

        writer.commit(rollups=rollups_from_aggregator(
            warehouse, "c1", aggregator))
        with pytest.raises(WarehouseError):
            rollup_percentiles(warehouse, "c1", "nope_s")


# -- campaign integration -----------------------------------------------------


def _run_fleet(tmp_path, tag, seed=3, events=False):
    fleet = FleetTestbed(endpoint_count=6, shards=2, operator_count=3,
                         seed=seed)
    if events:  # a campaign persists events when telemetry is on
        fleet.enable_telemetry()
    root = str(tmp_path / tag)
    report = fleet.run_campaign(
        [ping_job(f"ping-{i}", count=2) for i in range(6)],
        campaign_name="itest", max_concurrency=4, warehouse=root,
    )
    return Warehouse(root), report


class TestCampaignIntegration:
    def test_persisted_tables_match_report(self, tmp_path):
        warehouse, report = _run_fleet(tmp_path, "wh")
        manifest = warehouse.manifest("itest")
        assert manifest.state == "closed"
        assert manifest.total_rows("events") == 0  # telemetry was off
        assert manifest.total_rows("campaigns") == 1
        assert manifest.total_rows("results") == report.jobs_completed
        agg = report.aggregator
        assert (manifest.total_rows("samples")
                == agg.total.sketches["rtt_s"].count)
        # The warehouse's materialized rollups == the live aggregator.
        loaded = load_rollups(warehouse, "itest")
        assert loaded["total"].state_dict() == agg.total.state_dict()
        # Queries agree with the report.
        result = (Query(warehouse, "results").where("ok", "==", 1)
                  .group_by("endpoint").agg(n="count").run())
        assert sum(row["n"] for row in result.rows) == report.jobs_completed

    def test_same_seed_segments_byte_identical(self, tmp_path):
        first, _ = _run_fleet(tmp_path, "a", events=True)
        second, _ = _run_fleet(tmp_path, "b", events=True)
        assert (segment_fingerprints(first, "itest")
                == segment_fingerprints(second, "itest"))
        manifest = first.manifest("itest")
        assert manifest.total_rows("events") > 0

    def test_persist_campaign_plain_aggregator(self, tmp_path):
        """A non-recording aggregator still lands summary + rollups."""
        fleet = FleetTestbed(endpoint_count=4, seed=1)
        report = fleet.run_campaign(
            [ping_job(f"p{i}", count=1) for i in range(4)],
            campaign_name="plain",
        )
        warehouse = Warehouse(str(tmp_path / "wh"))
        manifest = persist_campaign(warehouse, report)
        assert manifest.total_rows("campaigns") == 1
        assert manifest.total_rows("results") == 0
        assert load_rollups(warehouse, "plain")["total"].jobs == 4


# -- satellite: schema-versioned JSONL round-trip -----------------------------


class TestAggregateJsonlRoundTrip:
    def test_export_ingest_reaggregate_identity(self, tmp_path):
        _, report = _run_fleet(tmp_path, "wh")
        aggregator = report.aggregator
        path = str(tmp_path / "rollups.jsonl")
        aggregator.export_jsonl(path)
        with open(path) as fh:
            lines = fh.readlines()
        assert all(json.loads(line)["schema_version"]
                   == AGGREGATE_SCHEMA_VERSION for line in lines)
        # Stable key ordering: re-serializing with sort_keys is identity.
        for line in lines:
            assert json.dumps(json.loads(line), sort_keys=True,
                              separators=(",", ":")) == line.strip()
        restored = ResultAggregator.from_jsonl_lines(lines)
        assert restored.campaign == aggregator.campaign
        assert restored.jobs_observed == aggregator.jobs_observed
        assert restored.total.state_dict() == aggregator.total.state_dict()
        assert set(restored.per_endpoint) == set(aggregator.per_endpoint)
        for name in aggregator.per_endpoint:
            assert (restored.per_endpoint[name].state_dict()
                    == aggregator.per_endpoint[name].state_dict())
        # The re-aggregated export is byte-identical to the original.
        assert restored.jsonl_lines() == aggregator.jsonl_lines()

    def test_version_mismatch_rejected(self):
        line = json.dumps({"record": "campaign", "schema_version": 1,
                           "campaign": "c", "jobs_observed": 0,
                           "state": {}})
        with pytest.raises(ValueError, match="schema_version"):
            ResultAggregator.from_jsonl_lines([line])

    def test_ingest_aggregate_jsonl_into_warehouse(self, tmp_path):
        _, report = _run_fleet(tmp_path, "wh")
        path = str(tmp_path / "rollups.jsonl")
        report.aggregator.export_jsonl(path)
        warehouse = Warehouse(str(tmp_path / "wh2"))
        manifest = ingest_aggregate_jsonl(warehouse, path)
        assert manifest.campaign == "itest"
        loaded = load_rollups(warehouse, "itest")
        assert (loaded["total"].state_dict()
                == report.aggregator.total.state_dict())


# -- satellite: QuantileSketch.merge properties -------------------------------


_values = st.lists(
    st.floats(min_value=1e-6, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    max_size=60,
)


def _sketch(values):
    sketch = QuantileSketch()
    sketch.extend(values)
    return sketch


def _comparable(sketch):
    """Exact mergeable state minus the float-addition-order-dependent sum."""
    state = sketch.state_dict()
    total = state.pop("sum")
    return state, total


class TestSketchMergeProperties:
    @settings(max_examples=60, deadline=None)
    @given(_values, _values)
    def test_merge_commutative(self, xs, ys):
        ab = _sketch(xs)
        ab.merge(_sketch(ys))
        ba = _sketch(ys)
        ba.merge(_sketch(xs))
        state_ab, sum_ab = _comparable(ab)
        state_ba, sum_ba = _comparable(ba)
        assert state_ab == state_ba
        assert sum_ab == pytest.approx(sum_ba, rel=1e-12, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(_values, _values, _values)
    def test_merge_associative(self, xs, ys, zs):
        left = _sketch(xs)
        left.merge(_sketch(ys))
        left.merge(_sketch(zs))
        inner = _sketch(ys)
        inner.merge(_sketch(zs))
        right = _sketch(xs)
        right.merge(inner)
        state_l, sum_l = _comparable(left)
        state_r, sum_r = _comparable(right)
        assert state_l == state_r
        assert sum_l == pytest.approx(sum_r, rel=1e-12, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(_values, _values)
    def test_merge_equals_observing_concatenation(self, xs, ys):
        merged = _sketch(xs)
        merged.merge(_sketch(ys))
        direct = _sketch(xs + ys)
        state_m, sum_m = _comparable(merged)
        state_d, sum_d = _comparable(direct)
        assert state_m == state_d
        assert sum_m == pytest.approx(sum_d, rel=1e-12, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(_values, _values,
           st.floats(min_value=0.01, max_value=1.0))
    def test_merged_quantiles_rank_error_bounded(self, xs, ys, q):
        """The estimate stays within ~1.5 buckets of the true rank value.

        The element at rank ceil(q*n) lies in the bucket the sketch
        answers from, so the geometric-midpoint estimate is within a
        factor GROWTH**0.5 of it — we allow GROWTH**1.5 for float
        boundary effects at bucket edges.
        """
        values = xs + ys
        if not values:
            return
        merged = _sketch(xs)
        merged.merge(_sketch(ys))
        estimate = merged.quantile(q)
        true = sorted(values)[max(1, math.ceil(q * len(values))) - 1]
        ratio = estimate / true
        assert GROWTH ** -1.5 <= ratio <= GROWTH ** 1.5


# -- CLI ----------------------------------------------------------------------


class TestWarehouseCli:
    @pytest.fixture
    def root(self, tmp_path):
        warehouse, _ = _run_fleet(tmp_path, "cli")
        return warehouse.root

    def test_ls(self, root, capsys):
        assert warehouse_cli(["--root", root, "ls"]) == 0
        out = capsys.readouterr().out
        assert "itest" in out and "[closed]" in out and "+rollups" in out

    def test_ls_empty(self, tmp_path, capsys):
        assert warehouse_cli(["--root", str(tmp_path / "nowhere"),
                              "ls"]) == 0
        assert "no campaigns" in capsys.readouterr().out

    def test_query_group_by(self, root, capsys):
        code = warehouse_cli([
            "--root", root, "query", "--table", "results",
            "--where", "ok==1", "--group-by", "endpoint",
            "--agg", "n:count", "--stats",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [json.loads(line) for line in lines]
        assert rows[-1]["stats"]["rows_matched"] == 6
        assert sum(row["n"] for row in rows[:-1]) == 6

    def test_query_percentile_agg_forms(self, root, capsys):
        assert warehouse_cli([
            "--root", root, "query", "--table", "samples",
            "--group-by", "stream", "--agg", "p99:value",
            "--agg", "tail:p90:value", "--agg", "count",
        ]) == 0
        (row,) = [json.loads(line)
                  for line in capsys.readouterr().out.splitlines()]
        assert row["stream"] == "rtt_s"
        assert row["p99_value"] > 0 and row["tail"] > 0
        assert row["count"] == 12

    def test_query_percentiles_fast_path(self, root, capsys):
        assert warehouse_cli([
            "--root", root, "query", "--campaign", "itest",
            "--percentiles", "rtt_s",
        ]) == 0
        pcts = json.loads(capsys.readouterr().out)
        assert set(pcts) == {"p50", "p90", "p99"}

    def test_bad_predicate_and_unknown_stream(self, root, capsys):
        assert warehouse_cli(["--root", root, "query",
                              "--where", "value~5"]) == 1
        assert "cannot parse" in capsys.readouterr().err
        assert warehouse_cli(["--root", root, "query",
                              "--campaign", "itest",
                              "--percentiles", "nope"]) == 1

    def test_rollup_compact_retain(self, root, capsys):
        assert warehouse_cli(["--root", root, "rollup"]) == 0
        assert "itest:" in capsys.readouterr().out
        assert warehouse_cli(["--root", root, "compact",
                              "--segment-rows", "100000",
                              "--retain", "1"]) == 0
        out = capsys.readouterr().out
        assert "itest:" in out and "dropped" not in out

    def test_ingest_events_jsonl(self, root, tmp_path, capsys):
        path = str(tmp_path / "events.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"kind": "event", "time": 1.5,
                                 "layer": "kernel", "name": "tick",
                                 "fields": {"n": 1}}) + "\n")
            fh.write('{"kind": "event", "time": 2.0, "layer":')  # truncated
        assert warehouse_cli(["--root", root, "ingest",
                              "--campaign", "ev", "--events", path]) == 0
        assert "1 event rows" in capsys.readouterr().out
        rows = Query(Warehouse(root), "events",
                     campaigns=["ev"]).run().rows
        assert rows[0]["layer"] == "kernel"

    def test_query_unknown_campaign_exits_1(self, root, capsys):
        assert warehouse_cli(["--root", root, "query",
                              "--campaign", "nope"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error:") and "'nope'" in line

    def test_ingest_requires_arguments(self, root, capsys):
        assert warehouse_cli(["--root", root, "ingest"]) == 2
        assert warehouse_cli(["--root", root, "ingest",
                              "--events", "x.jsonl"]) == 2


# -- obs events ingestion -----------------------------------------------------


class TestEventsIngestion:
    def test_sequences_continue_across_appends(self, tmp_path):
        from repro.obs.bus import ObsEvent

        warehouse = Warehouse(str(tmp_path / "wh"))
        batch1 = [ObsEvent(time=float(i), layer="kernel", name="tick",
                           fields={"i": i}) for i in range(3)]
        batch2 = [ObsEvent(time=10.0, layer="link", name="drop", fields={})]
        ingest_events(warehouse, "ev", batch1)
        ingest_events(warehouse, "ev", batch2)
        rows = Query(warehouse, "events").select("seq", "layer").run().rows
        assert [row["seq"] for row in rows] == [0, 1, 2, 3]
        assert rows[3]["layer"] == "link"
