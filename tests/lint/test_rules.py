"""Every lint rule catches its seeded fixture; suppressions behave.

One fixture under ``tests/lint/fixtures/`` per registered rule, each
seeding at least one violation the rule must report — the proof the rule
would actually fire on a real regression.  The engine-level contracts
(per-line suppression, unused-suppression detection, ``fix_suppressions``
rewriting, registry integrity) are covered here too.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.lint import (
    RULES,
    Rule,
    UNUSED_SUPPRESSION,
    check_project,
    fix_suppressions,
    load_project,
    register,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: rule name -> (fixture file, minimum number of findings it must seed)
FIXTURE_MATRIX = {
    "lock-discipline": ("bad_lock.py", 1),
    "unseeded-rng": ("bad_engine.py", 2),
    "dtype-discipline": ("bad_dtype.py", 2),
    "unpicklable-point": ("bad_point.py", 2),
    "frozen-mutation": ("bad_frozen.py", 3),
    "registry-docs": ("bad_registry.py", 2),
    "mutable-default": ("bad_default.py", 2),
    "all-exports": ("bad_exports.py", 1),
    "socket-discipline": ("bad_socket.py", 5),
    "span-discipline": ("bad_span.py", 3),
}


def test_every_registered_rule_has_a_fixture():
    assert set(FIXTURE_MATRIX) == set(RULES), (
        "every registered rule needs a seeded-violation fixture (and every "
        "fixture a rule)"
    )


@pytest.mark.parametrize("rule_name", sorted(FIXTURE_MATRIX))
def test_rule_catches_its_seeded_violation(rule_name):
    fixture, minimum = FIXTURE_MATRIX[rule_name]
    result = check_project(
        root=FIXTURES, rule_names=[rule_name], paths=(fixture,)
    )
    assert len(result.findings) >= minimum, (
        f"{rule_name} missed its seeded violation in {fixture}"
    )
    assert all(finding.rule == rule_name for finding in result.findings)
    assert all(finding.path == fixture for finding in result.findings)
    assert all(finding.line > 0 for finding in result.findings)


def test_all_exports_flags_unexported_public_def_in_init():
    result = check_project(
        root=FIXTURES, rule_names=["all-exports"], paths=("bad_init",)
    )
    assert any("forgotten" in finding.message for finding in result.findings)


def test_lock_discipline_honors_init_and_locked_suffix():
    result = check_project(
        root=FIXTURES, rule_names=["lock-discipline"], paths=("bad_lock.py",)
    )
    # Exactly the reset() write: __init__ and *_locked writes are exempt.
    assert len(result.findings) == 1
    assert "reset" in result.findings[0].message


def test_suppression_silences_the_finding():
    result = check_project(root=FIXTURES, paths=("suppressed.py",))
    assert result.passed
    assert result.suppressed == 1
    assert result.unused == []


def test_unused_suppression_is_a_finding_on_full_runs():
    result = check_project(root=FIXTURES, paths=("stale.py",))
    assert not result.passed
    assert [finding.rule for finding in result.findings] == [UNUSED_SUPPRESSION]
    assert result.unused == [("stale.py", 3, "mutable-default")]


def test_unused_suppression_skipped_on_restricted_runs():
    # A suppression for a rule that did not run is not evidence of staleness.
    result = check_project(
        root=FIXTURES, rule_names=["all-exports"], paths=("stale.py",)
    )
    assert result.passed


def test_fix_suppressions_rewrites_the_stale_comment(tmp_path):
    target = tmp_path / "stale.py"
    shutil.copy(FIXTURES / "stale.py", target)
    result = check_project(root=tmp_path, paths=("stale.py",))
    assert result.unused
    changed = fix_suppressions(tmp_path, result.unused)
    assert changed == [target]
    assert "lint: disable" not in target.read_text()
    assert check_project(root=tmp_path, paths=("stale.py",)).passed


def test_unknown_rule_name_raises():
    with pytest.raises(KeyError):
        check_project(root=FIXTURES, rule_names=["no-such-rule"])


def test_duplicate_rule_registration_rejected():
    class Imposter(Rule):
        name = "mutable-default"
        description = "duplicate"

    with pytest.raises(ValueError):
        register(Imposter)


def test_project_parses_fixtures_and_reads_suppressions():
    project = load_project(FIXTURES, paths=("suppressed.py", "stale.py"))
    assert {module.rel_path for module in project.modules} == {
        "suppressed.py", "stale.py",
    }
    suppressed = project.by_path["suppressed.py"]
    assert suppressed.suppressions == {4: {"mutable-default"}}


def test_docstring_mention_is_not_a_suppression(tmp_path):
    # The marker inside a *string* must not register: only COMMENT tokens do.
    (tmp_path / "doc.py").write_text(
        '"""Docs showing the syntax: # lint: disable=mutable-default."""\n'
    )
    project = load_project(tmp_path, paths=("doc.py",))
    assert project.by_path["doc.py"].suppressions == {}
    assert check_project(root=tmp_path, paths=("doc.py",), project=project).passed


def test_unseeded_rng_flags_builtin_hash():
    """``hash()`` of a str is salted per process, so a seed derived from it
    is not reproducible; the fixture seeds one such call."""
    result = check_project(
        root=FIXTURES, rule_names=["unseeded-rng"], paths=("bad_engine.py",)
    )
    flagged = [finding for finding in result.findings if "hash()" in finding.message]
    assert len(flagged) == 1
    assert flagged[0].line > 0
