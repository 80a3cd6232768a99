"""The built-in self-checks that `lindbladctl verify` runs, one case each."""

import numpy as np
import pytest

from lindbladctl import selfcheck
from lindbladctl.cli import main
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


def test_gks_symmetry_fails_on_a_wrong_d(monkeypatch):
    structure_tensors = selfcheck.structure_tensors

    def wrong_d(basis):
        f, d = structure_tensors(basis)
        return f, np.random.default_rng(5).normal(size=d.shape)

    monkeypatch.setattr(selfcheck, "structure_tensors", wrong_d)
    ok, detail = selfcheck._check_gks_symmetry()
    assert not ok
    assert detail.startswith("max |sum a_jk L_jk - assembly| / max(1, "
                             "max|A|) = ")


def test_verify_reports_a_failed_dissipator_assembly(monkeypatch, capsys):
    def broken(gks, basis):
        raise ValueError("imaginary part above tolerance")

    # the other checks assemble dissipators too; run this one alone
    monkeypatch.setattr(selfcheck, "assemble_dissipator", broken)
    monkeypatch.setattr(selfcheck, "CHECKS", tuple(
        (name, fn) for name, fn in CHECKS if name == "dissipator_realness"))
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert ("[FAIL] dissipator_realness: N=2 draw 0: imaginary part above "
            "tolerance\n") in out
    assert "verify: 0/1 checks passed" in out
