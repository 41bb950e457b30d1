"""Every example script must run to completion (guards against rot)."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs_cleanly(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"


def test_demo_module_runs():
    result = subprocess.run(
        [sys.executable, "-m", "repro"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "PacketLab reproduction demo" in result.stdout


def test_cpf_cli_compiles_figure2(tmp_path):
    from repro.cpf import FIGURE2_CORRECTED

    source = tmp_path / "fig2.c"
    source.write_text(FIGURE2_CORRECTED)
    output = tmp_path / "fig2.plf"
    result = subprocess.run(
        [sys.executable, "-m", "repro.cpf", str(source), "-o", str(output),
         "--disasm"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "entry points ['send', 'recv']" in result.stdout
    assert output.exists()
    from repro.filtervm import FilterProgram

    program = FilterProgram.decode(output.read_bytes())
    assert program.function_named("send") is not None


def test_cpf_cli_reports_errors(tmp_path):
    source = tmp_path / "bad.c"
    source.write_text("uint32_t main(void) { return nosuch; }")
    result = subprocess.run(
        [sys.executable, "-m", "repro.cpf", str(source)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 1
    assert "undefined identifier" in result.stderr


@pytest.mark.parametrize("argv, returncode, expected", [
    (["flet"], 2, "usage:"),  # a typo must not run the demo
    (["observability", "--exprt", "x"], 2, "usage:"),
    (["--help"], 0, "warehouse"),  # lists the subcommands, runs nothing
    # A rate the token bucket cannot honour is refused before any world
    # is built (0 divided by zero, -1 spun to the timeout, nan "succeeded").
    (["fleet", "--endpoints", "4", "--rate", "0"], 2, "usage:"),
    (["fleet", "--endpoints", "4", "--rate", "-1"], 2, "usage:"),
    (["fleet", "--endpoints", "4", "--rate", "nan"], 2, "usage:"),
    # So are counts the fleet cannot honour; --jobs 0 means one per
    # endpoint, so only a negative job count is refused.
    (["fleet", "--endpoints", "0"], 2, "usage:"),
    (["fleet", "--endpoints", "-2"], 2, "usage:"),
    (["fleet", "--shards", "0"], 2, "usage:"),
    (["fleet", "--operators", "0"], 2, "usage:"),
    (["fleet", "--concurrency", "0"], 2, "usage:"),
    (["fleet", "--count", "0"], 2, "usage:"),
    (["fleet", "--count", "-1"], 2, "usage:"),
    (["fleet", "--jobs", "-1"], 2, "usage:"),
], ids=["typo", "misspelt-flag", "help", "rate-zero", "rate-negative",
        "rate-nan", "endpoints-zero", "endpoints-negative", "shards-zero",
        "operators-zero", "concurrency-zero", "count-zero", "count-negative",
        "jobs-negative"])
def test_unknown_cli_input_does_not_run_the_demo(argv, returncode, expected):
    result = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == returncode, result.stderr[-2000:]
    assert expected in result.stdout + result.stderr
    assert "Traceback" not in result.stderr
    assert "PacketLab reproduction demo" not in result.stdout
