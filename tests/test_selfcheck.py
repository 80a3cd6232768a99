"""The built-in self-checks that `lindbladctl verify` runs, one case each."""

import pytest

from lindbladctl import selfcheck
from lindbladctl.selfcheck import CHECKS, TAXONOMY_CASES


@pytest.mark.parametrize("name, check", CHECKS,
                         ids=[name for name, _ in CHECKS])
def test_check(name, check):
    ok, detail = check()
    assert ok, "%s: %s" % (name, detail)


def test_taxonomy_cases_are_frozen():
    assert [case[2] for case in TAXONOMY_CASES] == [8, 9, 6, 11, 12, 4, 7]


def test_taxonomy_check_names_a_wrong_expectation(monkeypatch):
    name, params, dim, label = TAXONOMY_CASES[0]
    monkeypatch.setattr(selfcheck, "TAXONOMY_CASES",
                        ((name, params, dim + 1, label),))
    ok, detail = selfcheck._check_taxonomy()
    assert not ok
    assert detail.startswith("%s: got dim %d" % (name, dim))
