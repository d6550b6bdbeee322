from fkdv.fixtures import FixtureDiff
from fkdv.poly import parse_poly


def test_describe_splits_negative_terms():
    diff = FixtureDiff((0, None), 1, parse_poly("a0 - 2*k + 3*a1"), parse_poly("a0 + 3*a1"))
    text = diff.describe()
    assert "only-generated terms: ['-2*k']" in text
    assert "only-expected terms: []" in text


def test_describe_reports_changed_coefficients_on_both_sides():
    diff = FixtureDiff((1, 0), 2, parse_poly("a0 - k"), parse_poly("a0 + k"))
    assert diff.describe() == (
        "sigma^1*tau^0 (eq. 2): generated != transcribed;"
        " only-generated terms: ['-k']; only-expected terms: ['k']"
    )

