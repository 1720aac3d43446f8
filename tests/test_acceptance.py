"""Acceptance suite: one case per entry of acceptance.CHECKS, in its order,
each printing its pass/fail line.  `-k "not check_12"` skips the soak.

Scenario runs are memoized inside perchsim.acceptance, so the four default
mission variants execute once per session no matter how many criteria
consume them.
"""

import pytest

from perchsim import acceptance


@pytest.mark.parametrize("check", acceptance.CHECKS,
                         ids=[c.__name__ for c in acceptance.CHECKS])
def test_criterion(check):
    res = check()
    print(res.line())
    assert res.passed, res.line()
