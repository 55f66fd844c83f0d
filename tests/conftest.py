import os

import pytest
from hypothesis import settings

from rrcflab import numerics, special

# The property tests draw the same examples on every run, so a known miss
# inside their domains shows on every run or on none, and no example database
# replays a draw from an earlier run.  HYPOTHESIS_PROFILE=explore draws afresh
# (and keeps the database) to look for the next miss.
settings.register_profile("fixed", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fixed"))


@pytest.fixture
def series_cap(monkeypatch):
    """cap(n) sets MAX_SERIES_TERMS to n for the rest of the test, in numerics
    (sum_series) and in special, which imports it (2F1's series and the
    incomplete Beta's continued fraction)."""
    def cap(terms: int) -> None:
        monkeypatch.setattr(numerics, "MAX_SERIES_TERMS", terms)
        monkeypatch.setattr(special, "MAX_SERIES_TERMS", terms)
    return cap
