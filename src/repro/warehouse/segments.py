"""Immutable columnar segments + the per-campaign manifest protocol.

Storage layout (one directory per campaign under the warehouse root)::

    <root>/<campaign>/
        MANIFEST.json              the only source of truth for readers
        results/seg-000000.seg     immutable columnar segments
        samples/seg-000000.seg
        ...
        rollups.json               materialized summaries (rollup.py)

Segment file format (version 1)::

    b"PLWH" | u16 format | u32 header_len | header JSON | column blobs

The header is canonical JSON describing the table, schema version, row
count, and per-column metadata: type, blob offset/length (relative to
the end of the header), a **zone map** (min/max over present values),
and — for string columns — the dictionary (sorted unique values; the
blob holds int64 codes). Numeric blobs are little-endian ``array('q')``
/ ``array('d')`` bytes. A reader can prune a segment from a query by
looking at zone maps alone, and can decode just the columns a query
touches by seeking to their blobs.

Durability / atomicity: segments are written to ``.tmp`` files, fsynced
and renamed; the manifest is rewritten the same way *after* every
segment it references is on disk. A crash mid-commit leaves at worst an
orphan ``.tmp`` / unreferenced segment, never a manifest pointing at a
truncated file — readers only ever trust the manifest.

Determinism: segment bytes are a pure function of row content (no
wall-clock, no dict-order dependence, fixed endianness), which is what
lets the benchmark assert byte-identical segments for same-seed
campaigns.
"""

from __future__ import annotations

import hashlib
import os
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import repeat
from operator import eq
from typing import Any, Iterable, Optional

from repro.warehouse.schema import (
    F64,
    I64,
    NAN,
    SCHEMA_VERSION,
    STR,
    SchemaError,
    TABLES,
    TableSchema,
    canonical_json,
    coerce,
    plan_columns,
)

MAGIC = b"PLWH"
FORMAT_VERSION = 1
DEFAULT_SEGMENT_ROWS = 65536

_BIG_ENDIAN = sys.byteorder == "big"

# The cell types a column stores without coercion.
_NATIVE = {I64: {int}, F64: {float}, STR: {str}}


class WarehouseError(RuntimeError):
    """Corrupt segment, unknown campaign, or a broken commit protocol."""


def _pack(values: list, typecode: str) -> bytes:
    arr = array(typecode, values)
    if _BIG_ENDIAN:
        arr.byteswap()
    return arr.tobytes()


def _unpack(blob: bytes, typecode: str) -> array:
    arr = array(typecode)
    arr.frombytes(blob)
    if _BIG_ENDIAN:
        arr.byteswap()
    return arr


def _zone(cells: list, kind: str) -> tuple[Optional[Any], Optional[Any]]:
    """Min/max over present (non-missing) values; (None, None) if empty.
    A string column passes its sorted vocabulary, where "" sorts first."""
    if kind == STR:
        cells = cells[1:] if cells[:1] == [""] else cells
    elif kind == F64 and _has_nan(cells):
        cells = [value for value in cells if value == value]
    return (min(cells), max(cells)) if cells else (None, None)


def _has_nan(cells) -> bool:
    """Whether numeric cells may hold NaN (a NaN makes the total NaN;
    so can inf - inf, which costs only an exact pass)."""
    total = sum(cells)
    return total != total


@dataclass
class SegmentMeta:
    """What the manifest records about one committed segment."""

    file: str       # path relative to the campaign directory
    rows: int
    nbytes: int
    sha256: str

    def to_dict(self) -> dict:
        return {"file": self.file, "rows": self.rows,
                "nbytes": self.nbytes, "sha256": self.sha256}

    @classmethod
    def from_dict(cls, data: dict) -> "SegmentMeta":
        return cls(file=data["file"], rows=int(data["rows"]),
                   nbytes=int(data["nbytes"]), sha256=data["sha256"])


def encode_segment(schema: TableSchema, rows: list[dict]) -> bytes:
    """Serialize one batch of rows into immutable segment bytes."""
    if not rows:
        raise WarehouseError("refusing to encode an empty segment")
    columns = {}
    for name in plan_columns(schema, rows):
        kind = schema.column_type(name)
        cells = list(map(dict.get, rows, repeat(name)))
        # One type check per column; coerce cell by cell only if needed.
        if not set(map(type, cells)) <= _NATIVE[kind]:
            cells = [coerce(cell, kind, name) for cell in cells]
        columns[name] = cells
    return _encode_columns(schema, columns)


def _encode_columns(schema: TableSchema, columns: dict[str, list]) -> bytes:
    """Serialize typed, equal-length columns: the fixed ones in schema
    order, then the dynamic ones sorted by name."""
    names = schema.fixed_names()
    names += sorted(columns.keys() - set(names))
    blobs: list[bytes] = []
    columns_meta: list[dict] = []
    offset = 0
    for name in names:
        kind, cells = schema.column_type(name), columns[name]
        meta: dict[str, Any] = {"name": name, "type": kind}
        if kind == STR:
            vocab = sorted(set(cells))
            codes = {value: index for index, value in enumerate(vocab)}
            blob = _pack(list(map(codes.__getitem__, cells)), "q")
            meta["dict"] = vocab
            meta["zmin"], meta["zmax"] = _zone(vocab, kind)
        else:
            blob = _pack(cells, "q" if kind == I64 else "d")
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
        "rows": len(columns[names[0]]),
        "columns": columns_meta,
    }).encode("utf-8")
    out = bytearray()
    out += MAGIC
    out += FORMAT_VERSION.to_bytes(2, "little")
    out += len(header).to_bytes(4, "little")
    out += header
    for blob in blobs:
        out += blob
    return bytes(out)


@dataclass
class SegmentHeader:
    table: str
    schema_version: int
    rows: int
    columns: list[dict]
    data_start: int

    def column(self, name: str) -> Optional[dict]:
        for meta in self.columns:
            if meta["name"] == name:
                return meta
        return None


def read_header(path: str) -> SegmentHeader:
    """Parse just the header (cheap: zone-map pruning never reads data)."""
    with open(path, "rb") as fh:
        preamble = fh.read(10)
        if len(preamble) < 10 or preamble[:4] != MAGIC:
            raise WarehouseError(f"{path}: not a warehouse segment")
        fmt = int.from_bytes(preamble[4:6], "little")
        if fmt != FORMAT_VERSION:
            raise WarehouseError(f"{path}: unknown format {fmt}")
        header_len = int.from_bytes(preamble[6:10], "little")
        header = fh.read(header_len)
    if len(header) < header_len:
        raise WarehouseError(f"{path}: truncated header")
    import json

    info = json.loads(header.decode("utf-8"))
    if info.get("schema_version") != SCHEMA_VERSION:
        raise WarehouseError(
            f"{path}: schema_version {info.get('schema_version')} "
            f"(this reader speaks {SCHEMA_VERSION})"
        )
    return SegmentHeader(
        table=info["table"],
        schema_version=info["schema_version"],
        rows=info["rows"],
        columns=info["columns"],
        data_start=10 + header_len,
    )


@dataclass
class SegmentData:
    """Decoded columns of one segment (only the requested ones)."""

    header: SegmentHeader
    columns: dict[str, Any]  # name -> array('q'|'d') or list[str] dicts
    dicts: dict[str, list]   # str column -> vocabulary
    codes: dict[str, array]  # str column -> raw int64 codes

    @property
    def rows(self) -> int:
        return self.header.rows

    def cell(self, name: str, index: int):
        if name in self.codes:
            return self.dicts[name][self.codes[name][index]]
        return self.columns[name][index]


def read_segment(path: str, columns: Optional[Iterable[str]] = None) -> SegmentData:
    """Decode a segment, materializing only the requested columns."""
    header = read_header(path)
    wanted = list(columns) if columns is not None else [
        meta["name"] for meta in header.columns
    ]
    out_cols: dict[str, Any] = {}
    dicts: dict[str, list] = {}
    codes: dict[str, array] = {}
    with open(path, "rb") as fh:
        for name in wanted:
            meta = header.column(name)
            if meta is None:
                # A column absent from this segment (e.g. a dynamic
                # counter another shard produced): all-missing.
                continue
            fh.seek(header.data_start + meta["offset"])
            blob = fh.read(meta["nbytes"])
            if len(blob) != meta["nbytes"]:
                raise WarehouseError(f"{path}: truncated column {name!r}")
            if meta["type"] == STR:
                dicts[name] = meta["dict"]
                codes[name] = _unpack(blob, "q")
            elif meta["type"] == I64:
                out_cols[name] = _unpack(blob, "q")
            else:
                out_cols[name] = _unpack(blob, "d")
    return SegmentData(header, out_cols, dicts, codes)


def decode_columns(path: str, columns: Optional[Iterable[str]] = None
                   ) -> dict[str, list]:
    """{name: cells} of one segment as lists: strings looked up in their
    vocabulary, every missing float the canonical NaN."""
    data = read_segment(path, columns)
    out = {name: list(map(data.dicts[name].__getitem__, codes))
           for name, codes in data.codes.items()}
    for name, column in data.columns.items():
        out[name] = column.tolist()
        if _has_nan(out[name]):
            out[name] = [cell if cell == cell else NAN for cell in out[name]]
    return out


def partition(keys: Iterable, items: Iterable) -> dict[Any, list]:
    """{key: [its items, in order]}, keys in the order first seen."""
    parts: dict[Any, list] = defaultdict(list)
    for key, item in zip(keys, items):
        parts[key].append(item)
    return parts


def _fsync_write(path: str, payload: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _fsync_dir(path: str) -> None:
    # Directory fsync makes the rename itself durable; best-effort on
    # filesystems that refuse O_RDONLY directory handles.
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class SegmentWriter:
    """Batched, append-only writer for one campaign table.

    Rows buffer in memory and flush as an immutable segment whenever
    ``segment_rows`` accumulate (or at ``finish()``). Flushed segments
    are *pending* until the owning :class:`CampaignWriter` commits the
    manifest — readers never see them early.
    """

    def __init__(self, directory: str, schema: TableSchema,
                 segment_rows: int = DEFAULT_SEGMENT_ROWS,
                 start_index: int = 0) -> None:
        self.directory = directory
        self.schema = schema
        self.segment_rows = max(1, segment_rows)
        self._buffer: list[dict] = []
        self._next_index = start_index
        self.pending: list[SegmentMeta] = []
        self.rows_written = 0

    def append(self, row: dict) -> None:
        self._buffer.append(row)
        if len(self._buffer) >= self.segment_rows:
            self.flush_segment()

    def append_rows(self, rows: Iterable[dict]) -> None:
        for row in rows:
            self.append(row)

    def flush_segment(self) -> Optional[SegmentMeta]:
        if not self._buffer:
            return None
        meta = self.write(encode_segment(self.schema, self._buffer),
                          len(self._buffer))
        self._buffer = []
        return meta

    def write(self, payload: bytes, rows: int) -> SegmentMeta:
        """Write encoded segment bytes as the next pending segment."""
        os.makedirs(self.directory, exist_ok=True)
        filename = f"seg-{self._next_index:06d}.seg"
        self._next_index += 1
        path = os.path.join(self.directory, filename)
        _fsync_write(path, payload)
        meta = SegmentMeta(
            file=os.path.join(self.schema.name, filename),
            rows=rows,
            nbytes=len(payload),
            sha256=hashlib.sha256(payload).hexdigest(),
        )
        self.pending.append(meta)
        self.rows_written += rows
        return meta

    def finish(self) -> list[SegmentMeta]:
        self.flush_segment()
        return self.pending


@dataclass
class Manifest:
    """The committed state of one campaign's data."""

    campaign: str
    state: str = "open"  # open | closed
    schema_version: int = SCHEMA_VERSION
    tables: dict[str, list[SegmentMeta]] = field(default_factory=dict)
    rollups: Optional[str] = None  # relative path of rollups.json
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "state": self.state,
            "schema_version": self.schema_version,
            "format": FORMAT_VERSION,
            "tables": {
                name: [seg.to_dict() for seg in segs]
                for name, segs in sorted(self.tables.items())
            },
            "rollups": self.rollups,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Manifest":
        if data.get("schema_version") != SCHEMA_VERSION:
            raise WarehouseError(
                f"manifest schema_version {data.get('schema_version')} "
                f"(this reader speaks {SCHEMA_VERSION})"
            )
        return cls(
            campaign=data["campaign"],
            state=data.get("state", "open"),
            schema_version=data["schema_version"],
            tables={
                name: [SegmentMeta.from_dict(seg) for seg in segs]
                for name, segs in (data.get("tables") or {}).items()
            },
            rollups=data.get("rollups"),
            meta=data.get("meta") or {},
        )

    def total_rows(self, table: Optional[str] = None) -> int:
        names = [table] if table else list(self.tables)
        return sum(seg.rows for name in names
                   for seg in self.tables.get(name, ()))


class Warehouse:
    """A directory of campaigns, each a manifest plus columnar segments."""

    MANIFEST = "MANIFEST.json"

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    # -- paths ---------------------------------------------------------------

    def campaign_dir(self, campaign: str) -> str:
        safe = campaign.replace(os.sep, "_")
        if safe in ("", ".", ".."):
            raise WarehouseError(f"invalid campaign name {campaign!r}")
        return os.path.join(self.root, safe)

    def manifest_path(self, campaign: str) -> str:
        return os.path.join(self.campaign_dir(campaign), self.MANIFEST)

    def segment_path(self, campaign: str, meta: SegmentMeta) -> str:
        return os.path.join(self.campaign_dir(campaign), meta.file)

    # -- read side -----------------------------------------------------------

    def campaigns(self) -> list[str]:
        """Committed campaigns (directories with a manifest), sorted."""
        found = []
        try:
            entries = sorted(os.listdir(self.root))
        except OSError:
            return []
        for entry in entries:
            if os.path.isfile(
                os.path.join(self.root, entry, self.MANIFEST)
            ):
                found.append(entry)
        return found

    def manifest(self, campaign: str) -> Manifest:
        path = self.manifest_path(campaign)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                import json

                data = json.load(fh)
        except OSError as exc:
            raise WarehouseError(f"no manifest for campaign "
                                 f"{campaign!r}: {exc}") from exc
        except ValueError as exc:
            raise WarehouseError(f"corrupt manifest for campaign "
                                 f"{campaign!r}: {exc}") from exc
        return Manifest.from_dict(data)

    def segments(self, campaign: str, table: str) -> list[SegmentMeta]:
        return list(self.manifest(campaign).tables.get(table, ()))

    # -- write side ----------------------------------------------------------

    def begin_campaign(self, campaign: str,
                       segment_rows: int = DEFAULT_SEGMENT_ROWS,
                       meta: Optional[dict] = None) -> "CampaignWriter":
        return CampaignWriter(self, campaign, segment_rows=segment_rows,
                              meta=meta)

    def commit_manifest(self, manifest: Manifest) -> None:
        directory = self.campaign_dir(manifest.campaign)
        os.makedirs(directory, exist_ok=True)
        payload = (canonical_json(manifest.to_dict()) + "\n").encode("utf-8")
        _fsync_write(os.path.join(directory, self.MANIFEST), payload)
        _fsync_dir(directory)

    # -- lifecycle: retention + compaction ------------------------------------

    def drop(self, campaign: str) -> None:
        """Delete one campaign (manifest first, so readers can't catch a
        half-deleted tree; then the now-unreferenced segments)."""
        directory = self.campaign_dir(campaign)
        manifest = os.path.join(directory, self.MANIFEST)
        if os.path.exists(manifest):
            os.remove(manifest)
        for dirpath, _, filenames in os.walk(directory, topdown=False):
            for filename in filenames:
                try:
                    os.remove(os.path.join(dirpath, filename))
                except OSError:
                    pass
            try:
                os.rmdir(dirpath)
            except OSError:
                pass

    def retain(self, keep: int) -> list[str]:
        """Drop the oldest *closed* campaigns beyond ``keep``; open
        campaigns are never touched. Returns what was dropped."""
        closed = [name for name in self.campaigns()
                  if self.manifest(name).state == "closed"]
        doomed = closed[:-keep] if keep > 0 else closed
        for name in doomed:
            self.drop(name)
        return doomed

    def compact(self, campaign: str,
                segment_rows: int = DEFAULT_SEGMENT_ROWS) -> dict:
        """Rewrite a *closed* campaign's tables into full-size segments.

        Many small segments (one flush per batch during ingestion)
        become ceil(rows / segment_rows) large ones; zone maps are
        recomputed over the bigger batches. Commit protocol: new
        segments land under fresh indexes, the manifest swaps over
        atomically, then the superseded files are deleted.
        """
        manifest = self.manifest(campaign)
        if manifest.state != "closed":
            raise WarehouseError(
                f"campaign {campaign!r} is still open; close it first"
            )
        directory = self.campaign_dir(campaign)
        stats = {"tables": {}, "segments_before": 0, "segments_after": 0}
        new_tables: dict[str, list[SegmentMeta]] = {}
        superseded: list[str] = []
        for table, segs in sorted(manifest.tables.items()):
            schema = TABLES.get(table)
            if schema is None:
                raise WarehouseError(f"unknown table {table!r} in manifest")
            start = _next_segment_index(
                os.path.join(directory, table)
            )
            writer = SegmentWriter(
                os.path.join(directory, table), schema,
                segment_rows=segment_rows, start_index=start,
            )
            paths = [self.segment_path(campaign, seg) for seg in segs]
            _rebatch(writer, paths)
            superseded.extend(paths)
            new_tables[table] = writer.pending
            stats["tables"][table] = {
                "before": len(segs), "after": len(new_tables[table]),
                "rows": writer.rows_written,
            }
            stats["segments_before"] += len(segs)
            stats["segments_after"] += len(new_tables[table])
        manifest.tables = new_tables
        self.commit_manifest(manifest)
        for path in superseded:
            try:
                os.remove(path)
            except OSError:
                pass
        return stats


def _rebatch(writer: SegmentWriter, paths: list[str]) -> None:
    """Concatenate segments column by column and write them back in
    ``writer.segment_rows``-row segments, as encoding their rows would:
    a batch keeps a dynamic column only if some row has a value there."""
    fixed = writer.schema.fixed_names()
    pending: dict[str, list] = {name: [] for name in fixed}
    for index, path in enumerate(paths):
        columns = decode_columns(path)
        rows, buffered = len(columns[fixed[0]]), len(pending[fixed[0]])
        for name in columns.keys() - pending.keys():
            pending[name] = [NAN] * buffered  # a dynamic (f64) column
        for name, cells in pending.items():
            cells.extend(columns.get(name) or [NAN] * rows)
        last = index == len(paths) - 1
        while (len(pending[fixed[0]]) >= writer.segment_rows
               or (last and pending[fixed[0]])):
            batch = {}
            for name, cells in pending.items():
                batch[name] = cells[:writer.segment_rows]
                del cells[:writer.segment_rows]
            writer.write(_encode_columns(writer.schema, {
                name: cells for name, cells in batch.items()
                if name in fixed or any(map(eq, cells, cells))
            }), len(batch[fixed[0]]))


def _next_segment_index(directory: str) -> int:
    """First unused seg-NNNNNN index in a table directory."""
    try:
        entries = os.listdir(directory)
    except OSError:
        return 0
    best = -1
    for entry in entries:
        if entry.startswith("seg-") and entry.endswith(".seg"):
            try:
                best = max(best, int(entry[4:-4]))
            except ValueError:
                pass
    return best + 1


class CampaignWriter:
    """Transactional writer for one campaign's tables.

    ``add_*`` calls buffer and flush segments; nothing is visible until
    ``commit()`` writes the manifest referencing every flushed segment.
    ``close()`` commits with ``state="closed"`` (the precondition for
    compaction and retention).
    """

    def __init__(self, warehouse: Warehouse, campaign: str,
                 segment_rows: int = DEFAULT_SEGMENT_ROWS,
                 meta: Optional[dict] = None) -> None:
        self.warehouse = warehouse
        self.campaign = campaign
        self.segment_rows = segment_rows
        directory = warehouse.campaign_dir(campaign)
        try:
            existing = warehouse.manifest(campaign)
        except WarehouseError:
            existing = Manifest(campaign=campaign)
        if existing.state == "closed":
            raise WarehouseError(
                f"campaign {campaign!r} is closed (append-only: reopening "
                f"a committed campaign is not allowed)"
            )
        self.manifest = existing
        self.manifest.meta.update(meta or {})
        self._writers: dict[str, SegmentWriter] = {}
        self._directory = directory

    def writer(self, table: str) -> SegmentWriter:
        writer = self._writers.get(table)
        if writer is None:
            schema = TABLES.get(table)
            if schema is None:
                raise SchemaError(f"unknown table {table!r}")
            directory = os.path.join(self._directory, table)
            start = len(self.manifest.tables.get(table, []))
            start = max(start, _next_segment_index(directory))
            writer = SegmentWriter(
                directory, schema,
                segment_rows=self.segment_rows, start_index=start,
            )
            self._writers[table] = writer
        return writer

    def add(self, table: str, row: dict) -> None:
        self.writer(table).append(row)

    def add_rows(self, table: str, rows: Iterable[dict]) -> None:
        self.writer(table).append_rows(rows)

    def commit(self, close: bool = False,
               rollups: Optional[str] = None) -> Manifest:
        for table, writer in sorted(self._writers.items()):
            flushed = writer.finish()
            if flushed:
                self.manifest.tables.setdefault(table, []).extend(flushed)
                writer.pending = []
        if rollups is not None:
            self.manifest.rollups = rollups
        if close:
            self.manifest.state = "closed"
        self.warehouse.commit_manifest(self.manifest)
        return self.manifest

    def close(self, rollups: Optional[str] = None) -> Manifest:
        return self.commit(close=True, rollups=rollups)


def segment_fingerprints(warehouse: Warehouse, campaign: str) -> dict:
    """{relative segment path: sha256} for one campaign — both a
    cheap integrity check and the benchmark's byte-identity probe."""
    manifest = warehouse.manifest(campaign)
    out: dict[str, str] = {}
    for table in sorted(manifest.tables):
        for seg in manifest.tables[table]:
            with open(warehouse.segment_path(campaign, seg), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            if digest != seg.sha256:
                raise WarehouseError(
                    f"segment {seg.file} content drifted from manifest"
                )
            out[seg.file] = digest
    return out


def zone_overlaps(meta: dict, op: str, value: Any) -> bool:
    """Could any row in a segment with this column zone map match
    ``col <op> value``? False ⇒ the segment is safely prunable.

    Missing values (NaN / "") are excluded from zone maps, and the
    query layer's comparison predicates never match missing cells, so
    pruning on the zone map alone is sound. A column with no present
    values (zmin is None) can't match any comparison.
    """
    zmin, zmax = meta.get("zmin"), meta.get("zmax")
    if zmin is None or zmax is None:
        return False
    if op == "==":
        return zmin <= value <= zmax
    if op == "!=":
        return not (zmin == value == zmax)
    if op == "<":
        return zmin < value
    if op == "<=":
        return zmin <= value
    if op == ">":
        return zmax > value
    if op == ">=":
        return zmax >= value
    if op == "in":
        return any(zmin <= item <= zmax for item in value)
    return True
