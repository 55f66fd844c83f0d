import pytest

from rrcflab import numerics, special


@pytest.fixture
def series_cap(monkeypatch):
    """cap(n) sets MAX_SERIES_TERMS to n for the rest of the test, in numerics
    (sum_series) and in special, which imports it (2F1's series and the
    incomplete Beta's continued fraction)."""
    def cap(terms: int) -> None:
        monkeypatch.setattr(numerics, "MAX_SERIES_TERMS", terms)
        monkeypatch.setattr(special, "MAX_SERIES_TERMS", terms)
    return cap
