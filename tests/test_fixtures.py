from fkdv import fixtures
from fkdv.fixtures import FixtureDiff, load_fixture
from fkdv.poly import parse_poly
from fkdv.reproduce import run_reproduce


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



def test_each_transcription_is_parsed_once_per_process(monkeypatch):
    # the two files hold 8 and 13 expressions; a second reproduce pass and
    # a second load reuse the first parse
    parsed = []

    def counting_parse(text):
        parsed.append(text)
        return parse_poly(text)

    monkeypatch.setattr(fixtures, "parse_poly", counting_parse)
    load_fixture.cache_clear()
    assert run_reproduce().exit_code == 0
    assert run_reproduce().exit_code == 0
    assert len(parsed) == 21
    assert load_fixture("pre") is load_fixture("pre")
