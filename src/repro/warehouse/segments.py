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
from itertools import islice, repeat
from typing import Any, Iterable, Iterator, Optional

from repro.util.memo import BoundedMemo
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
# Entries each of a warehouse's memos (parsed headers, the query
# layer's per-segment group partials) holds before it empties itself.
MEMO_ENTRIES = 128

_BIG_ENDIAN = sys.byteorder == "big"

# The cell types a column stores without coercion.
_NATIVE = {I64: {int}, F64: {float}, STR: {str}}

# Every stored cell is 8 bytes: an int64, a float64 or a string's code.
_TYPECODE = {I64: "q", F64: "d", STR: "q"}
_CELL = 8


class WarehouseError(RuntimeError):
    """Corrupt segment, unknown campaign, or a broken commit protocol."""


def _swap(cells: array) -> array:
    """Between native and on-disk (little-endian) byte order, in place;
    a no-op on little-endian hosts."""
    if _BIG_ENDIAN:
        cells.byteswap()
    return cells


def _pack(values: Iterable, typecode: str) -> array:
    """A typed column in on-disk byte order."""
    return _swap(array(typecode, values))


def _zone(cells: list, kind: str) -> tuple[Optional[Any], Optional[Any]]:
    """Min/max over present (non-missing) values; (None, None) if empty.
    A string column passes its sorted vocabulary, where "" sorts first."""
    if kind == STR:
        cells = cells[1:] if cells[:1] == [""] else cells
    elif kind == F64 and _has_nan(cells):
        cells = array("d", (value for value in cells if value == value))
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


def _segment_parts(schema: TableSchema, rows: list[dict]) -> list:
    """One batch of rows as segment parts: the encoded header, then each
    column's typed buffer (fixed columns in schema order, then the
    dynamic ones sorted by name)."""
    if not rows:
        raise WarehouseError("refusing to encode an empty segment")
    columns: list[dict] = []
    blobs: list[array] = []
    for name in plan_columns(schema, rows):
        kind = schema.column_type(name)
        cells = list(map(dict.get, rows, repeat(name)))
        # One type check per column; coerce cell by cell only if needed.
        if not set(map(type, cells)) <= _NATIVE[kind]:
            cells = [coerce(cell, kind, name) for cell in cells]
        meta: dict[str, Any] = {"name": name, "type": kind}
        if kind == STR:
            vocab = sorted(set(cells))
            codes = {value: index for index, value in enumerate(vocab)}
            blobs.append(_pack(map(codes.__getitem__, cells), "q"))
            meta["dict"] = vocab
            meta["zmin"], meta["zmax"] = _zone(vocab, kind)
        else:
            blobs.append(_pack(cells, _TYPECODE[kind]))
            meta["zmin"], meta["zmax"] = _zone(cells, kind)
        columns.append(meta)
    return [_encode_header(schema, len(rows), columns), *blobs]


def encode_segment(schema: TableSchema, rows: list[dict]) -> bytes:
    """Serialize one batch of rows into immutable segment bytes."""
    return b"".join(_segment_parts(schema, rows))


def _encode_header(schema: TableSchema, rows: int,
                   columns: list[dict]) -> bytes:
    """Preamble and header of a segment whose columns follow it back to
    back, ``rows`` cells each."""
    for index, meta in enumerate(columns):
        meta["offset"] = index * rows * _CELL
        meta["nbytes"] = rows * _CELL
    header = canonical_json({
        "table": schema.name,
        "schema_version": SCHEMA_VERSION,
        "format": FORMAT_VERSION,
        "rows": rows,
        "columns": columns,
    }).encode("utf-8")
    return (MAGIC + FORMAT_VERSION.to_bytes(2, "little")
            + len(header).to_bytes(4, "little") + header)


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


def read_segment(path: str, columns: Optional[Iterable[str]] = None,
                 header: Optional[SegmentHeader] = None) -> SegmentData:
    """Decode a segment, materializing only the requested columns;
    ``header``, if the caller has parsed it already, is not read again."""
    if header is None:
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
            cells = _read_cells(fh, header, meta, 0, header.rows)
            if meta["type"] == STR:
                dicts[name] = meta["dict"]
                codes[name] = cells
            else:
                out_cols[name] = cells
    return SegmentData(header, out_cols, dicts, codes)


def _read_cells(fh, header: SegmentHeader, meta: dict,
                lo: int, hi: int) -> array:
    """Rows ``lo:hi`` of one column of the segment open as ``fh``, read
    by offset."""
    cells = array(_TYPECODE[meta["type"]], [0]) * (hi - lo)
    fh.seek(header.data_start + meta["offset"] + lo * _CELL)
    if fh.readinto(cells) != len(cells) * _CELL:
        raise WarehouseError(f"{fh.name}: truncated column {meta['name']!r}")
    return _swap(cells)


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


def _fsync_write(path: str, parts: Iterable, digest: Any = None) -> int:
    """Write bytes-like ``parts`` through a fsynced ``.tmp`` renamed over
    ``path``, each also into ``digest`` as it arrives; returns the size."""
    tmp = path + ".tmp"
    nbytes = 0
    with open(tmp, "wb") as fh:
        for part in parts:
            if digest is not None:
                digest.update(part)
            nbytes += fh.write(part)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return nbytes


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
        """``append`` each row, a segment's worth at a time."""
        rows = iter(rows)
        while True:
            self._buffer.extend(
                islice(rows, self.segment_rows - len(self._buffer)))
            if len(self._buffer) < self.segment_rows:
                return
            self.flush_segment()

    def flush_segment(self) -> Optional[SegmentMeta]:
        if not self._buffer:
            return None
        meta = self.write(_segment_parts(self.schema, self._buffer),
                          len(self._buffer))
        self._buffer = []
        return meta

    def write(self, parts: Iterable, rows: int) -> SegmentMeta:
        """Write one segment as the next pending segment: its encoded
        header, then each column's typed buffer, hashed and written one
        part at a time."""
        os.makedirs(self.directory, exist_ok=True)
        filename = f"seg-{self._next_index:06d}.seg"
        self._next_index += 1
        digest = hashlib.sha256()
        nbytes = _fsync_write(os.path.join(self.directory, filename),
                              parts, digest)
        meta = SegmentMeta(
            file=os.path.join(self.schema.name, filename),
            rows=rows,
            nbytes=nbytes,
            sha256=digest.hexdigest(),
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
    """A directory of campaigns, each a manifest plus columnar segments.

    ``headers`` and ``partials`` keep what reading immutable segments
    costs to work out again — parsed headers here, per-group partials in
    the query layer — keyed by the segment's path *and* the sha256 its
    manifest records, so a segment rewritten under a reused name is a
    new key. They are two memos so that a scan over many segments does
    not clear the partials with its headers.
    """

    MANIFEST = "MANIFEST.json"

    def __init__(self, root: str) -> None:
        self.root = root
        self.headers = BoundedMemo(MEMO_ENTRIES)
        self.partials = BoundedMemo(MEMO_ENTRIES)
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

    def segment_header(self, path: str, meta: SegmentMeta) -> SegmentHeader:
        """The header of the segment ``meta`` names at ``path``, parsed
        once per fingerprint."""
        key = (path, meta.sha256)
        header = self.headers.get(key)
        if header is None:
            header = self.headers.put(key, read_header(path))
        return header

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
        _fsync_write(os.path.join(directory, self.MANIFEST), [payload])
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
    """Rewrite segments as ``writer.segment_rows``-row segments, the
    bytes encoding their rows would give, reading each header once. A
    piece is rows ``lo:hi`` of one input, ``(path, header, lo, hi)``."""
    pieces: list[tuple] = []
    rows = 0
    for path in paths:
        header = read_header(path)
        lo = 0
        while lo < header.rows:
            hi = min(header.rows, lo + writer.segment_rows - rows)
            pieces.append((path, header, lo, hi))
            rows += hi - lo
            lo = hi
            if rows == writer.segment_rows:
                writer.write(_compacted_parts(writer.schema, pieces, rows),
                             rows)
                pieces, rows = [], 0
    if pieces:
        writer.write(_compacted_parts(writer.schema, pieces, rows), rows)


def _compacted_parts(schema: TableSchema, pieces: list[tuple],
                     rows: int) -> Iterator:
    """Segment parts of the pieces' rows, one column at a time: first
    every column's header entry (a dynamic column only if some cell has
    a value), then each column's cells, piece by piece."""
    fixed = schema.fixed_names()
    dynamic = sorted({meta["name"] for _, header, _, _ in pieces
                      for meta in header.columns}.difference(fixed))
    columns = []
    for name in fixed + dynamic:
        meta = _merged_meta(name, schema.column_type(name), pieces)
        if name in fixed or meta["zmin"] is not None:
            columns.append(meta)
    yield _encode_header(schema, rows, columns)
    for meta in columns:
        yield from _merged_cells(meta, pieces)


def _merged_meta(name: str, kind: str, pieces: list[tuple]) -> dict:
    """Zone map (and dictionary) of one column over the pieces, from
    the cells each piece holds."""
    zones, vocab = [], set()
    for path, header, lo, hi in pieces:
        stored = header.column(name)
        if stored is None:  # a dynamic column this input never saw
            continue
        with open(path, "rb") as fh:
            cells = _read_cells(fh, header, stored, lo, hi)
        if kind == STR:
            vocab.update(map(stored["dict"].__getitem__, set(cells)))
        else:
            zones.append(_zone(cells, kind))
    meta: dict[str, Any] = {"name": name, "type": kind}
    if kind == STR:
        meta["dict"] = sorted(vocab)
        meta["zmin"], meta["zmax"] = _zone(meta["dict"], kind)
        return meta
    # min and max keep the first of equal values (0.0, -0.0), so the
    # pieces' zones combine, in order, to what one pass would find.
    zones = [zone for zone in zones if zone[0] is not None]
    meta["zmin"] = min((zone[0] for zone in zones), default=None)
    meta["zmax"] = max((zone[1] for zone in zones), default=None)
    return meta


def _merged_cells(meta: dict, pieces: list[tuple]) -> Iterator[array]:
    """One column's cells piece by piece, in on-disk order: string codes
    translated through a per-input code table, a missing float the
    canonical NaN."""
    kind = meta["type"]
    if kind == STR:
        codes = {value: code for code, value in enumerate(meta["dict"])}
    for path, header, lo, hi in pieces:
        stored = header.column(meta["name"])
        if stored is None:
            yield _swap(array("d", [NAN]) * (hi - lo))
            continue
        with open(path, "rb") as fh:
            cells = _read_cells(fh, header, stored, lo, hi)
        if kind == STR:
            # Values a cut piece does not use are absent from the new
            # dictionary; no cell refers to them.
            table = [codes.get(value, -1) for value in stored["dict"]]
            if table != list(range(len(table))):
                cells = array("q", map(table.__getitem__, cells))
        elif kind == F64 and _has_nan(cells):
            cells = array("d", (cell if cell == cell else NAN
                                for cell in cells))
        yield _swap(cells)


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
