"""Event sinks: bounded in-memory capture and JSONL export.

Two sinks cover the repo's needs:

- :class:`RingBufferSink` — a bounded deque of :class:`ObsEvent` objects,
  kept in memory for tests and post-run inspection. Bounded so that a
  long simulation with per-packet events cannot grow without limit.
- :class:`JsonlSink` — streams every event to a file as one JSON object
  per line. Field values that JSON cannot represent (bytes, packets,
  arbitrary objects) are coerced: bytes to hex, everything else to
  ``repr``. :func:`read_jsonl` is the matching loader.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Any, Callable, Iterable, Optional, TextIO, Union

from repro.obs.bus import ObsEvent

DEFAULT_RING_CAPACITY = 65536


def json_safe(value: Any) -> Any:
    """Coerce a field value to something ``json.dumps`` accepts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value).hex()
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    if isinstance(value, dict):
        return {str(key): json_safe(item) for key, item in value.items()}
    return repr(value)


def event_to_json_dict(event: ObsEvent) -> dict:
    return {
        "kind": "event",
        "time": event.time,
        "layer": event.layer,
        "name": event.name,
        "fields": {key: json_safe(value) for key, value in event.fields.items()},
    }


class RingBufferSink:
    """Keeps the most recent :data:`DEFAULT_RING_CAPACITY` events in memory."""

    def __init__(self) -> None:
        self._events: deque[ObsEvent] = deque(maxlen=DEFAULT_RING_CAPACITY)
        self.total_recorded = 0

    def record(self, event: ObsEvent) -> None:
        self._events.append(event)
        self.total_recorded += 1

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> list[ObsEvent]:
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()

    def select(
        self,
        layer: Optional[str] = None,
        name: Optional[str] = None,
        predicate: Optional[Callable[[ObsEvent], bool]] = None,
    ) -> list[ObsEvent]:
        result = []
        for event in self._events:
            if layer is not None and event.layer != layer:
                continue
            if name is not None and event.name != name:
                continue
            if predicate is not None and not predicate(event):
                continue
            result.append(event)
        return result


class JsonlSink:
    """Streams events to a JSONL file (or any writable text handle).

    Opening with ``mode="a"`` appends to an existing export, so a sink
    can be closed and re-opened across campaign phases without losing
    the earlier lines. ``close()`` flushes *and fsyncs* an owned file
    before closing it — a downstream ingester (the results warehouse)
    reading the file right after close must never see a truncated tail.
    """

    def __init__(self, target: Union[str, TextIO], mode: str = "w") -> None:
        if mode not in ("w", "a"):
            raise ValueError(f"JsonlSink mode must be 'w' or 'a', not {mode!r}")
        if isinstance(target, str):
            self._file: TextIO = open(target, mode, encoding="utf-8")
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False
        self.closed = False
        self.lines_written = 0

    def record(self, event: ObsEvent) -> None:
        self.write_line(event_to_json_dict(event))

    def write_line(self, obj: dict) -> None:
        self._file.write(json.dumps(obj, separators=(",", ":")) + "\n")
        self.lines_written += 1

    def flush(self) -> None:
        self._file.flush()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._file.flush()
        if self._owns_file:
            try:
                os.fsync(self._file.fileno())
            except (OSError, ValueError):
                pass  # not a real file (StringIO) or fs refuses fsync
            self._file.close()


def write_jsonl(path: str, lines: Iterable[dict]) -> int:
    """Write pre-built dicts as JSONL; returns the line count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(json.dumps(line, separators=(",", ":")) + "\n")
            count += 1
    return count


def read_jsonl(path: str, strict: bool = True) -> list[dict]:
    """Load a JSONL file back into a list of dicts (round-trip check).

    With ``strict=False`` a malformed *final* line — the signature of a
    writer killed mid-append — is silently dropped instead of failing
    the whole load; malformed interior lines still raise, since those
    mean corruption rather than truncation.
    """
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    for index, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            records.append(json.loads(stripped))
        except ValueError:
            if not strict and index == len(lines) - 1 \
                    and not line.endswith("\n"):
                break
            raise
    return records
