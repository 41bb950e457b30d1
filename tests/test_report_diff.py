"""tests/report_diff.py names every differing leaf with both values."""

import json

from report_diff import ABSENT, main, markdown_table, report_diff


def test_identical_reports_have_no_rows():
    report = {"a": 1, "b": [1, {"c": "x"}], "d": {}}
    assert list(report_diff(report, json.loads(json.dumps(report)))) == []


def test_changed_added_and_removed_leaves():
    before = {"results": {"rtt_s": {"min": -0.8, "max": 0.07}, "gone": 3},
              "jobs": 24}
    after = {"results": {"rtt_s": {"min": 0.02, "max": 0.07}, "new": "y"},
             "jobs": 24}
    assert list(report_diff(before, after)) == [
        ("results.gone", 3, ABSENT),
        ("results.new", ABSENT, "y"),
        ("results.rtt_s.min", -0.8, 0.02),
    ]


def test_list_items_by_index():
    before = {"probes": [{"rtt": 1.0}, {"rtt": 2.0}]}
    after = {"probes": [{"rtt": 1.0}, {"rtt": 2.5}, {"rtt": 3.0}]}
    assert list(report_diff(before, after)) == [
        ("probes[1].rtt", 2.0, 2.5),
        ("probes[2].rtt", ABSENT, 3.0),
    ]


def test_one_sided_subtrees_are_walked_to_their_leaves():
    assert list(report_diff({}, {"a": {"b": [1], "c": {}}})) == [
        ("a.b[0]", ABSENT, 1),
        ("a.c", ABSENT, {}),
    ]


def test_type_changes_count_even_when_equal():
    assert list(report_diff({"n": 1}, {"n": 1.0})) == [("n", 1, 1.0)]
    assert list(report_diff({"n": [1]}, {"n": {"0": 1}})) == [
        ("n", [1], {"0": 1}),
    ]


def test_markdown_table_and_cli(tmp_path, capsys):
    rows = [("x.y", 1, ABSENT)]
    assert markdown_table(rows).splitlines()[-1] == "| `x.y` | 1 | (absent) |"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"x": 1}))
    b.write_text(json.dumps({"x": 2}))
    assert main([str(a), str(b)]) == 0
    assert "| `x` | 1 | 2 |" in capsys.readouterr().out
    assert main([str(a), str(a)]) == 0
    assert capsys.readouterr().out.strip() == "identical"
    assert main([str(a)]) == 2
