"""Planted defects: every acceptance check must be able to fail.

Each row plants one defect in the program (a monkeypatch), names its owner,
the criterion that must catch it, and the labels of the owner's checks that
must FAIL under it; every other check of the owner must still hold.  Only
the owner runs, so the table stays fast.  A check that no defect can flip
is listed in IDENTITIES with the reason.
"""

import pytest

from mcflab import barriers, verify


def _scaled_bracket(factor):
    exact = barriers.bracket_constant

    def plant(monkeypatch):
        monkeypatch.setattr(barriers, "bracket_constant", lambda n, lam: factor * exact(n, lam))

    return plant


# (defect, plant, owner criterion, labels that fail)
DEFECTS = [
    # C1 too small: v+ is no longer a supersolution
    ("bracket_constant x 0.9", _scaled_bracket(0.9), 7, {"bracket cancels", "residual min"}),
    # C1 too large: still a supersolution, so only the cancellation sees it
    ("bracket_constant x 1.1", _scaled_bracket(1.1), 7, {"bracket cancels"}),
]

IDENTITIES = {
    (7, "bracket exact"): "supersolution builds C1 as bracket_constant * C0 and the check "
    "compares C1 / C0 with bracket_constant, so a defect there moves both sides",
}


def _criterion(number):
    return next(c for c in verify.CRITERIA if c.number == number)


@pytest.mark.parametrize(("plant", "owner", "fails"), [row[1:] for row in DEFECTS],
                         ids=[row[0] for row in DEFECTS])
def test_planted_defect_fails_its_owner(monkeypatch, plant, owner, fails):
    criterion = _criterion(owner)
    plant(monkeypatch)
    failed = {check.label for check in criterion.measure() if not verify._judge(check)[0]}
    assert failed == fails
    passed, line = verify.run_criterion(criterion)
    assert not passed and "[FAIL]" in line


def test_identities_name_checks_that_exist():
    for number, label in IDENTITIES:
        assert label in [check.label for check in _criterion(number).measure()]
