"""simlint: the analyzer that keeps the determinism gate honest.

Three layers of coverage:

1. **Fixture corpus** (`tests/simlint_corpus/`) — known-bad files assert
   exact ``(rule, line)`` pairs for every rule id, known-clean files
   assert zero findings, and golden text/JSON reports pin the output
   formats.
2. **Mechanisms** — inline suppressions (reason required, stale ones
   flagged) and the sim-context/offline classifier.
3. **Self-scan** — the repository's own ``src/`` tree must have zero
   unsuppressed findings, and every suppression must carry a reason.
   This is the test that keeps the CI gate green-by-construction.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import analyze_paths, all_rules, cli
from repro.analysis.engine import collect_files
from repro.analysis.report import render_json, render_text
from repro.analysis.suppress import parse_suppressions

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
CORPUS = os.path.join(HERE, "simlint_corpus")
SRC = os.path.join(REPO, "src")

# Every (rule, file, line) the bad fixtures must produce — exactly.
EXPECTED_BAD = [
    ("DET001", "bad_det.py", 10),
    ("DET001", "bad_det.py", 11),
    ("DET002", "bad_det.py", 12),
    ("DET003", "bad_det.py", 13),
    ("DET003", "bad_det.py", 14),
    ("DET004", "bad_det.py", 15),
    ("DET005", "bad_det.py", 17),
    ("LINT001", "bad_lint.py", 7),
    ("LINT002", "bad_lint.py", 12),
    ("OBS001", "bad_obs.py", 6),
    ("PROTO001", "bad_proto.py", 14),
    ("PROTO002", "bad_proto.py", 19),
    ("PROTO003", "bad_proto.py", 31),
    ("PROTO004", "bad_proto.py", 36),
    ("SIM003", "bad_sim.py", 4),
    ("SIM001", "bad_sim.py", 9),
    ("SIM002", "bad_sim.py", 10),
    ("SIM004", "bad_sim.py", 11),
]


@pytest.fixture(scope="module")
def corpus_result():
    return analyze_paths([CORPUS], root=CORPUS)


class TestFixtureCorpus:
    def test_exact_rule_ids_and_lines(self, corpus_result):
        got = sorted(
            (f.rule, f.path, f.line) for f in corpus_result.gate_findings
        )
        assert got == sorted(EXPECTED_BAD)

    def test_corpus_exercises_at_least_ten_rules(self, corpus_result):
        rules_hit = {f.rule for f in corpus_result.findings}
        assert len(rules_hit) >= 10, rules_hit

    def test_every_registered_rule_fires_in_corpus(self, corpus_result):
        # the corpus is the regression net: a rule nobody can trigger is
        # dead weight, a rule the corpus misses is untested
        rules_hit = {f.rule for f in corpus_result.findings}
        assert rules_hit == {rule.id for rule in all_rules()}

    def test_offline_warehouse_fixture_has_zero_findings(self, corpus_result):
        mine = [
            f for f in corpus_result.findings
            if f.path.endswith("offline_fixture.py")
        ]
        assert mine == []

    def test_clean_fixture_has_zero_findings(self, corpus_result):
        assert not [
            f for f in corpus_result.findings if f.path == "clean_sim.py"
        ]

    def test_suppressed_fixture_is_green_but_recorded(self, corpus_result):
        mine = [
            f for f in corpus_result.findings if f.path == "ok_suppressed.py"
        ]
        assert len(mine) == 1
        assert mine[0].suppressed
        assert "point" in mine[0].suppress_reason

    def test_golden_text_report(self, corpus_result):
        text = render_text(corpus_result)
        lines = text.splitlines()
        assert lines[0] == (
            "bad_det.py:10:15: DET001 wall-clock call time.time() in sim "
            "code; use sim.now / the simulator clock"
        )
        assert len(lines) == len(EXPECTED_BAD) + 1  # findings + summary
        assert lines[-1] == (
            "simlint: 18 finding(s) [DET001×2, DET002×1, DET003×2, "
            "DET004×1, DET005×1, LINT001×1, LINT002×1, OBS001×1, "
            "PROTO001×1, PROTO002×1, PROTO003×1, PROTO004×1, SIM001×1, "
            "SIM002×1, SIM003×1, SIM004×1] (2 suppressed) "
            "in 9 files"
        )

    def test_golden_json_report(self, corpus_result):
        payload = json.loads(render_json(corpus_result))
        assert payload["version"] == 2
        assert payload["tool"] == "simlint"
        assert payload["gate_findings"] == len(EXPECTED_BAD)
        assert payload["suppressed"] == 2
        assert "baselined" not in payload
        assert payload["counts_by_rule"]["DET001"] == 2
        assert payload["counts_by_rule"]["SIM004"] == 1
        first = payload["findings"][0]
        assert set(first) >= {"rule", "path", "line", "col", "message"}
        # every finding location must round-trip through JSON exactly
        got = {
            (f["rule"], f["path"], f["line"])
            for f in payload["findings"]
            if not f.get("suppressed")
        }
        assert got == set(EXPECTED_BAD)


class TestSuppressions:
    def _module(self, tmp_path, source):
        from repro.analysis.model import parse_module

        path = tmp_path / "mod.py"
        path.write_text(source)
        return parse_module(str(path), str(tmp_path))

    def test_same_line_and_standalone_targets(self, tmp_path):
        module = self._module(
            tmp_path,
            "x = 1  # simlint: ok[DET002] same line\n"
            "# simlint: ok[DET001] next line\n"
            "y = 2\n",
        )
        supps = parse_suppressions(module)
        assert [(s.target_line, sorted(s.rules)) for s in supps] == [
            (1, ["DET002"]), (3, ["DET001"]),
        ]
        assert all(s.reason for s in supps)

    def test_docstring_examples_are_not_suppressions(self, tmp_path):
        module = self._module(
            tmp_path,
            '"""Docs: write ``# simlint: ok[DET001] why`` inline."""\n'
            "x = 1\n",
        )
        assert parse_suppressions(module) == []

    def test_multi_rule_comment(self, tmp_path):
        module = self._module(
            tmp_path, "z = 0  # simlint: ok[DET001,SIM001] both rules\n"
        )
        (supp,) = parse_suppressions(module)
        assert supp.rules == frozenset({"DET001", "SIM001"})


class TestHandBuiltCommands:
    """PROTO004: only ``controller/client.py`` may build a command frame."""

    SOURCE = (
        "from repro.proto import messages\n"
        "from repro.proto.messages import MRead, Result\n"
        "a = MRead(reqid=1, memaddr=0, bytecnt=8)\n"
        "b = messages.NPoll(reqid=2, time=0)\n"
        "c = Result(reqid=1)\n"         # a response, not a command
        "d = handle.call(MRead, memaddr=0, bytecnt=8)\n"  # the one path
    )

    def _findings(self, tmp_path, relative):
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.SOURCE)
        result = analyze_paths([str(tmp_path)], root=str(tmp_path))
        return [(f.rule, f.line) for f in result.findings
                if f.rule == "PROTO004"]

    def test_fires_anywhere_else_in_src(self, tmp_path):
        assert self._findings(tmp_path, "src/repro/fleet/shortcut.py") == [
            ("PROTO004", 3), ("PROTO004", 4),
        ]

    def test_the_client_module_is_the_one_place(self, tmp_path):
        assert self._findings(tmp_path, "src/repro/controller/client.py") == []


class TestClassifier:
    @pytest.fixture(scope="class")
    def model(self):
        return analyze_paths([SRC], root=REPO).model

    @pytest.fixture(scope="class")
    def corpus_model(self):
        return analyze_paths([CORPUS], root=CORPUS).model

    def test_sim_substrate_is_sim_context(self, model):
        for name in ("repro.netsim.kernel", "repro.netsim.links",
                     "repro.endpoint.endpoint", "repro.fleet.scheduler",
                     "repro.experiments.ping", "repro.proto.messages"):
            assert name in model.sim_modules, name

    def test_offline_tooling_is_not(self, model):
        for name in ("repro.cpf.compiler", "repro.analysis.engine",
                     "repro.obs.report", "repro.baselines.native",
                     "repro.compat.sockets", "repro.warehouse.segments",
                     "repro.warehouse.ingest", "repro.warehouse.query"):
            assert name not in model.sim_modules, name

    def test_warehouse_corpus_fixture_is_offline(self, corpus_model):
        # The fixture drives the simulator AND does wall-clock/file
        # I/O; only the repro.warehouse allowlist prefix keeps it (and
        # the real warehouse) out of the sim set — with zero findings.
        name = "repro.warehouse.offline_fixture"
        assert name in corpus_model.modules
        assert name not in corpus_model.sim_modules

    def test_rule_registry_is_pluggable_and_unique(self):
        rules = all_rules()
        ids = [rule.id for rule in rules]
        assert len(ids) == len(set(ids))
        assert all(rule.summary and rule.name for rule in rules)
        families = {rule_id[:3] for rule_id in ids}
        assert {"DET", "SIM", "OBS", "PRO", "LIN"} <= families


class TestSelfScan:
    """The gate: this repository must satisfy its own analyzer."""

    @pytest.fixture(scope="class")
    def self_result(self):
        return analyze_paths([SRC], root=REPO)

    def test_zero_unsuppressed_findings(self, self_result):
        assert self_result.gate_findings == [], render_text(self_result)

    def test_every_suppression_has_a_reason(self, self_result):
        for finding in self_result.suppressed_findings:
            assert finding.suppress_reason, (
                f"{finding.path}:{finding.line} suppressed without reason"
            )

    def test_whole_tree_is_scanned(self, self_result):
        assert len(self_result.files) >= 100
        assert self_result.skipped == []

    def test_cli_exit_codes_and_artifact(self, tmp_path):
        report = tmp_path / "simlint.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "analysis", "src",
             "--report", str(report)],
            cwd=REPO,
            env={**os.environ,
                 "PYTHONPATH": SRC + os.pathsep
                 + os.environ.get("PYTHONPATH", "")},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "simlint: clean" in proc.stdout
        payload = json.loads(report.read_text())
        assert payload["gate_findings"] == 0

    def test_cli_fails_on_corpus(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "analysis",
             "tests/simlint_corpus"],
            cwd=REPO,
            env={**os.environ,
                 "PYTHONPATH": SRC + os.pathsep
                 + os.environ.get("PYTHONPATH", "")},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert "DET001" in proc.stdout

    def test_collect_files_is_sorted_and_deterministic(self):
        first = collect_files([SRC])
        second = collect_files([SRC])
        assert first == second == sorted(first)


class TestCliUsageErrors:
    """Exit 2 is a usage error, never mistaken for a clean or failed gate."""

    def test_paths_without_python_files_exit_2(self, tmp_path, capsys):
        (tmp_path / "README.md").write_text("# not python\n")
        (tmp_path / "empty").mkdir()
        paths = [str(tmp_path / "README.md"), str(tmp_path / "empty")]
        assert cli.main(paths) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: no Python files under: ")
        assert len(err.splitlines()) == 1

    def test_unwritable_report_exits_2(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n")
        report = tmp_path / "missing-dir" / "report.json"
        assert cli.main([str(tmp_path), "--report", str(report)]) == 2
        out, err = capsys.readouterr()
        assert "simlint: clean" in out
        assert err.startswith(f"error: cannot write report {report}: ")
        assert len(err.splitlines()) == 1

    def test_baseline_flags_are_gone(self, tmp_path):
        (tmp_path / "clean.py").write_text("x = 1\n")
        for flag in ("--baseline=x.json", "--no-baseline", "--update-baseline"):
            with pytest.raises(SystemExit) as exc:
                cli.main([str(tmp_path), flag])
            assert exc.value.code == 2, flag
