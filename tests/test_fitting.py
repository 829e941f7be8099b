import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcflab.errors import WindowTooNarrow
from mcflab.fitting import fit_power_law, two_node_exponent

finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    c=st.floats(1e-6, 1e6, **finite),
    p=st.floats(-8.0, 8.0, **finite),
    x0=st.floats(1e-4, 1e2, **finite),
    dlog=st.floats(1e-2, 2.0, **finite),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_two_node_exponent_recovers_power_law(c, p, x0, dlog, sign):
    x1 = x0 * np.exp(dlog)
    y0, y1 = sign * c * x0**p, sign * c * x1**p
    dlog_x = np.log(x1) - np.log(x0)
    got = two_node_exponent(dlog_x, y0, y1)
    # roundoff of the samples is amplified by 1/dlog_x
    assert abs(got - p) <= 1e-12 * (1.0 + abs(p)) / dlog_x
    # odd data: y and -y give the same exponent, bit for bit
    assert two_node_exponent(dlog_x, -y0, -y1) == got


@settings(max_examples=100, deadline=None)
@given(
    y0=st.floats(-1e6, 1e6, **finite),
    y1=st.floats(-1e6, 1e6, **finite),
    dlog=st.floats(1e-2, 2.0, **finite),
)
@example(y0=2.0, y1=5e-324, dlog=1.0)  # y1 / y0 underflows to 0
def test_two_node_exponent_none_without_a_power_law(y0, y1, dlog):
    # opposite signs or a zero admit no power law through both samples
    got = two_node_exponent(dlog, y0, y1)
    assert (got is None) == (np.sign(y0) * np.sign(y1) <= 0.0)


@pytest.mark.parametrize("x", [np.full(5, 5.0), np.geomspace(5.0, 5.0, 5)], ids=["equal", "ulp"])
def test_fit_power_law_refuses_a_window_at_one_abscissa(x):
    # np.geomspace(5, 5, 5) holds 5 and 5 + 1 ulp, which polyfit would fit
    with pytest.raises(WindowTooNarrow, match="one abscissa"):
        fit_power_law(x, np.linspace(1.0, 2.0, 5), min_points=3)
