"""Fixtures shared by the test modules."""

import pytest

from arraymem import studies


@pytest.fixture
def nothing_solved(monkeypatch):
    """Fail the test if anything is solved: every solve, waist search and
    study takes its eigensystem from studies.eigendecompose."""

    def refuse(*args, **kwargs):
        raise AssertionError("solved what should have been refused first")

    monkeypatch.setattr(studies, "eigendecompose", refuse)
