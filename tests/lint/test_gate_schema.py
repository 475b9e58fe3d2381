"""The shared gate-report schema and the CLI/tools surfaces that emit it.

``benchmarks/common.py`` holds the single schema definition; the lint gate
(``repro.cli check --format json``), the bench gate
(``tools/bench_gate.py``) and the combined ``tools/gate.py`` all emit it.
These tests pin the document shape and exercise the lint gate end-to-end
through the CLI (exit 0 on the clean repo, valid JSON, rule filtering,
non-zero exit and findings payload on a seeded violation).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import RULES

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_common():
    spec = importlib.util.spec_from_file_location(
        "repro_bench_common", REPO_ROOT / "benchmarks" / "common.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# --------------------------------------------------------------------------- #
# Schema helpers
# --------------------------------------------------------------------------- #
def test_gate_report_counts_failures():
    common = _load_common()
    report = common.gate_report(
        "demo",
        [common.gate_check("a", True, "fine"),
         common.gate_check("b", False, "broken", {"x": 1})],
    )
    assert report["gate"] == "demo"
    assert report["passed"] is False
    assert report["summary"] == {"checks": 2, "failed": 1}
    assert report["checks"][1]["data"] == {"x": 1}
    json.dumps(report)  # must be serializable as-is


def test_merge_gate_reports_aggregates():
    common = _load_common()
    merged = common.merge_gate_reports([
        common.gate_report("one", [common.gate_check("a", True)]),
        common.gate_report("two", [common.gate_check("b", False, "bad")]),
    ])
    assert merged["gate"] == "all"
    assert merged["passed"] is False
    assert merged["summary"] == {"checks": 2, "failed": 1}
    assert [sub["gate"] for sub in merged["gates"]] == ["one", "two"]


def test_render_gate_report_text():
    common = _load_common()
    merged = common.merge_gate_reports([
        common.gate_report("one", [common.gate_check("a", True, "fine")]),
        common.gate_report("two", [common.gate_check("b", False, "bad")]),
    ])
    text = common.render_gate_report(merged)
    assert "ok   [one] a: fine" in text
    assert "FAIL [two] b: bad" in text
    assert "all gates FAILED (2 check(s), 1 failed)" in text


# --------------------------------------------------------------------------- #
# The CLI lint gate
# --------------------------------------------------------------------------- #
@pytest.mark.usefixtures("shared_repo_lint")
def test_cli_check_passes_on_the_repo(capsys):
    assert cli_main(["check"]) == 0
    assert "lint passed" in capsys.readouterr().out


@pytest.mark.usefixtures("shared_repo_lint")
def test_cli_check_json_emits_the_shared_schema(capsys):
    assert cli_main(["check", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gate"] == "lint"
    assert report["passed"] is True
    names = {check["name"] for check in report["checks"]}
    assert set(RULES) <= names
    assert report["summary"]["failed"] == 0
    assert report["summary"]["files"] > 0


def test_cli_check_rule_filter(capsys):
    assert cli_main(["check", "--rule", "mutable-default",
                     "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [check["name"] for check in report["checks"]] == ["mutable-default"]


def test_cli_check_fails_on_seeded_violation(tmp_path, capsys):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "bad.py").write_text(
        "def collect(rows=[]):\n    return rows\n"
    )
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["check", "--root", str(tmp_path), "--format", "json"])
    assert excinfo.value.code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    failed = [check for check in report["checks"] if not check["passed"]]
    assert [check["name"] for check in failed] == ["mutable-default"]
    assert failed[0]["data"]["findings"]


def test_cli_check_fix_suppressions_rewrites(tmp_path, capsys):
    (tmp_path / "src").mkdir()
    target = tmp_path / "src" / "stale.py"
    target.write_text("VALUE = 1  # lint: disable=mutable-default\n")
    assert cli_main(["check", "--root", str(tmp_path),
                     "--fix-suppressions"]) == 0
    assert "lint: disable" not in target.read_text()
