"""Tests for personalized ranking (Equations 1-2)."""

import math

import pytest

from repro.pocketsearch.hashtable import QueryHashTable
from repro.pocketsearch.ranking import PersonalizedRanker


@pytest.fixture
def table():
    t = QueryHashTable()
    t.insert("q", 1, 0.6)
    t.insert("q", 2, 0.4)
    return t


class TestEquations:
    def test_clicked_score_plus_one(self, table):
        """Equation (1): S1 = S1 + 1."""
        PersonalizedRanker(decay_lambda=0.1).record_click(table, "q", 1)
        scores = dict(table.lookup("q"))
        assert scores[1] == pytest.approx(1.6)

    def test_unclicked_score_decays(self, table):
        """Equation (2): S2 = S2 * exp(-lambda)."""
        PersonalizedRanker(decay_lambda=0.1).record_click(table, "q", 1)
        scores = dict(table.lookup("q"))
        assert scores[2] == pytest.approx(0.4 * math.exp(-0.1))

    def test_click_after_miss_inserts_with_score_one(self, table):
        """Section 5.3: a miss-click creates a new pair with score 1."""
        ranker = PersonalizedRanker()
        ranker.record_click(table, "new query", 99)
        assert table.lookup("new query") == [(99, 1.0)]
        assert table.slots_for("new query") == ((99, 1.0, True),)

    def test_click_marks_accessed(self, table):
        PersonalizedRanker().record_click(table, "q", 1)
        slots = dict((h, a) for h, _, a in table.slots_for("q"))
        assert slots[1] is True
        assert slots[2] is False

    def test_new_result_for_cached_query(self, table):
        """Clicking an uncached result of a cached query adds it."""
        PersonalizedRanker().record_click(table, "q", 3)
        scores = dict(table.lookup("q"))
        assert scores[3] == 1.0
        assert len(scores) == 3

    def test_freshness_beats_stale_frequency(self, table):
        """The paper's example: recent clicks outrank older ones."""
        ranker = PersonalizedRanker(decay_lambda=0.2)
        for _ in range(5):
            ranker.record_click(table, "q", 1)
        for _ in range(8):
            ranker.record_click(table, "q", 2)
        results = table.lookup("q")
        assert results[0][0] == 2

    def test_repeated_clicks_dominate(self, table):
        ranker = PersonalizedRanker()
        for _ in range(3):
            ranker.record_click(table, "q", 2)
        assert table.lookup("q")[0][0] == 2


class TestDecayHelpers:
    def test_closed_form(self):
        ranker = PersonalizedRanker(decay_lambda=0.3)
        assert ranker.decayed_score(2.0, 4) == pytest.approx(
            2.0 * math.exp(-1.2)
        )

    def test_zero_lambda_preserves(self):
        ranker = PersonalizedRanker(decay_lambda=0.0)
        assert ranker.decayed_score(1.5, 100) == 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            PersonalizedRanker(decay_lambda=-0.1)
        with pytest.raises(ValueError):
            PersonalizedRanker().decayed_score(1.0, -1)
