"""Acceptance gate: one test per criterion of `mcflab.verify.CRITERIA`.

The criteria, their tolerances and their runtime budgets live in
`mcflab.verify`, which `mcf verify-all` runs too.  Each test prints its
[criterion N] line (visible with pytest -s) and is named
test_criterion_<N>_<title>.  Run via:  pytest -v -s tests/test_acceptance.py
"""

from mcflab import verify


def _acceptance_test(criterion):
    def test():
        passed, line = verify.run_criterion(criterion)
        print(line)
        assert passed, line

    return test


for _c in verify.CRITERIA:
    globals()[f"test_criterion_{_c.number}_{_c.title.replace(' ', '_')}"] = _acceptance_test(_c)
