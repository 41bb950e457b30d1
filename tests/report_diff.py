"""Name every leaf that differs between two campaign reports.

A golden test pins ``sha256(report.to_json())``, so a moved digest says
only that *something* changed. This lists what: every leaf path whose
value differs, with both values. A key or list item present on one side
only is shown against ``(absent)``.

    python tests/report_diff.py BEFORE.json AFTER.json

prints a Markdown table (``path | before | after``), one row per leaf,
ready to paste beside a re-pin. Paths join dict keys with ``.`` and
list indices with ``[i]``, e.g. ``results.aggregate.values.rtt_s.min``.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Iterator


class _Absent:
    def __repr__(self) -> str:
        return "(absent)"


ABSENT = _Absent()


def report_diff(before: Any, after: Any,
                path: str = "") -> Iterator[tuple[str, Any, Any]]:
    """Yield ``(path, before, after)`` for every leaf that differs.

    A subtree present on one side only is walked down to its leaves,
    each shown against ``ABSENT``; an empty one is a leaf itself.
    """
    kind = _container(before, after)
    if kind is dict:
        old = before if isinstance(before, dict) else {}
        new = after if isinstance(after, dict) else {}
        children = [
            (f"{path}.{key}" if path else str(key),
             old.get(key, ABSENT), new.get(key, ABSENT))
            for key in sorted(old.keys() | new.keys(), key=str)
        ]
    elif kind is list:
        old = before if isinstance(before, list) else []
        new = after if isinstance(after, list) else []
        children = [
            (f"{path}[{index}]",
             old[index] if index < len(old) else ABSENT,
             new[index] if index < len(new) else ABSENT)
            for index in range(max(len(old), len(new)))
        ]
    else:
        if before != after or type(before) is not type(after):
            yield path, before, after
        return
    if not children and (before is ABSENT or after is ABSENT):
        yield path, before, after
    for child_path, old_value, new_value in children:
        yield from report_diff(old_value, new_value, child_path)


def _container(before: Any, after: Any) -> Any:
    """dict or list when both sides are one (or one side is absent)."""
    for kind in (dict, list):
        if ((isinstance(before, kind) or before is ABSENT)
                and (isinstance(after, kind) or after is ABSENT)
                and (before is not ABSENT or after is not ABSENT)):
            return kind
    return None


def markdown_table(rows: list[tuple[str, Any, Any]]) -> str:
    lines = ["| path | before | after |", "|---|---|---|"]
    for path, before, after in rows:
        lines.append(f"| `{path}` | {_cell(before)} | {_cell(after)} |")
    return "\n".join(lines)


def _cell(value: Any) -> str:
    if value is ABSENT:
        return repr(ABSENT)
    return json.dumps(value, sort_keys=True)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: report_diff.py BEFORE.json AFTER.json", file=sys.stderr)
        return 2
    with open(argv[0]) as before, open(argv[1]) as after:
        rows = list(report_diff(json.load(before), json.load(after)))
    print(markdown_table(rows) if rows else "identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
