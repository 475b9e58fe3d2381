"""Fixtures shared by the lint tests."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.lint as lint
from repro.lint.engine import REPO_ROOT


@pytest.fixture(scope="session")
def repo_lint_result():
    """One run of every rule over the repository, shared by the session."""
    return lint.check_project(root=REPO_ROOT)


@pytest.fixture
def shared_repo_lint(monkeypatch, repo_lint_result):
    """Serve whole-repository ``check_project`` calls from the shared run.

    The CLI and ``tools/smoke.py`` import ``check_project`` when called, so
    each test keeps its own entry point while the tree is linted once.  A
    call for other files or rules still runs.
    """
    check_project = lint.check_project

    def shared(root=REPO_ROOT, rule_names=None, paths=None, project=None):
        if Path(root) == REPO_ROOT and not rule_names and paths is None and project is None:
            return repo_lint_result
        return check_project(root=root, rule_names=rule_names, paths=paths, project=project)

    monkeypatch.setattr(lint, "check_project", shared)
