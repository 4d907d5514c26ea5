"""Tests for the query hash table (Figure 10)."""

import pytest

from repro.pocketsearch.hashtable import (
    DEFAULT_RESULTS_PER_ENTRY,
    QueryHashTable,
    chain_entries,
    entry_bytes,
    hash64,
    wire_bytes,
)


class TestHash64:
    def test_deterministic(self):
        assert hash64("youtube") == hash64("youtube")

    def test_salt_changes_hash(self):
        assert hash64("youtube", 0) != hash64("youtube", 1)

    def test_64_bit_range(self):
        assert 0 <= hash64("anything") < 2**64


class TestInsertLookup:
    def test_miss_returns_none(self):
        table = QueryHashTable()
        assert table.lookup("nope") is None

    def test_insert_and_lookup(self):
        table = QueryHashTable()
        table.insert("q", 111, 0.7)
        assert table.lookup("q") == [(111, 0.7)]

    def test_results_sorted_by_score(self):
        table = QueryHashTable()
        table.insert("q", 1, 0.2)
        table.insert("q", 2, 0.8)
        table.insert("q", 3, 0.5)
        results = table.lookup("q")
        assert [r for r, _ in results] == [2, 3, 1]

    def test_duplicate_insert_keeps_max_score(self):
        """The Section 5.4 conflict rule: maximum score wins."""
        table = QueryHashTable()
        table.insert("q", 1, 0.3)
        table.insert("q", 1, 0.9)
        table.insert("q", 1, 0.1)
        assert table.lookup("q") == [(1, 0.9)]
        assert table.n_pairs == 1

    def test_chaining_beyond_capacity(self):
        """A query with >2 results spawns chained entries (Fig 10)."""
        table = QueryHashTable(results_per_entry=2)
        for i in range(5):
            table.insert("michael jackson", i, 0.1 * (i + 1))
        assert table.n_entries == 3  # ceil(5/2)
        assert len(table.lookup("michael jackson")) == 5

    def test_contains(self):
        table = QueryHashTable()
        table.insert("q", 1, 0.5)
        assert table.contains("q")
        assert not table.contains("other")

    def test_negative_score_rejected(self):
        table = QueryHashTable()
        with pytest.raises(ValueError):
            table.insert("q", 1, -0.1)


class TestScoresAndFlags:
    def test_insert_preserves_accessed_flag(self):
        table = QueryHashTable()
        table.insert("q", 1, 0.5, accessed=True)
        table.insert("q", 1, 0.9, accessed=False)
        assert table.slots_for("q") == ((1, 0.9, True),)

    def test_store_replaces_and_drops(self):
        table = QueryHashTable()
        table.insert("q", 1, 0.5)
        table.store("q", ((1, 1.5, True), (2, 0.2, False)))
        assert table.lookup("q") == [(1, 1.5), (2, 0.2)]
        table.store("q", ())
        assert not table.contains("q")
        assert table.slots_for("q") == ()


class TestQueriesAndVersion:
    def test_queries_in_first_cached_order(self):
        table = QueryHashTable()
        for query in ("b", "a", "c"):
            table.insert(query, 1, 0.5)
        table.insert("a", 2, 0.5)
        assert table.queries() == ["b", "a", "c"]
        table.remove("b", 1)
        table.insert("b", 1, 0.5)
        assert table.queries() == ["a", "c", "b"]

    def test_version_bumps_on_added_or_dropped_query(self):
        table = QueryHashTable()
        table.insert("q", 1, 0.5)
        added = table.version
        table.insert("q", 2, 0.5)  # a second pair, same query
        table.insert("q", 1, 0.9)
        assert table.version == added
        table.remove("q", 1)
        assert table.version == added
        table.remove("q", 2)  # the query's last pair
        assert table.version > added


class TestRemove:
    def test_remove_existing(self):
        table = QueryHashTable()
        table.insert("q", 1, 0.5)
        assert table.remove("q", 1)
        assert table.lookup("q") is None
        assert not table.contains("q")

    def test_remove_missing(self):
        table = QueryHashTable()
        table.insert("q", 1, 0.5)
        assert not table.remove("q", 2)
        assert not table.remove("other", 1)

    def test_remove_compacts_chain(self):
        table = QueryHashTable(results_per_entry=2)
        for i in range(5):
            table.insert("q", i, 0.1 * (5 - i))
        table.remove("q", 0)
        results = table.lookup("q")
        assert len(results) == 4
        assert table.n_entries == 2  # 4 slots over width-2 entries

    def test_remove_then_reinsert(self):
        table = QueryHashTable()
        table.insert("q", 1, 0.5)
        table.remove("q", 1)
        table.insert("q", 2, 0.4)
        assert table.lookup("q") == [(2, 0.4)]


class TestFootprint:
    def test_entry_bytes_formula(self):
        assert entry_bytes(2) == 24 + 8 + 2 * 12 + 8

    def test_entry_bytes_validation(self):
        with pytest.raises(ValueError):
            entry_bytes(0)

    def test_footprint_counts_entries(self):
        table = QueryHashTable(results_per_entry=2)
        table.insert("a", 1, 0.5)
        table.insert("b", 2, 0.5)
        assert table.footprint_bytes == 2 * entry_bytes(2)

    def test_chain_entries_and_wire_bytes(self):
        assert [chain_entries(n, 2) for n in range(6)] == [0, 1, 1, 2, 2, 3]
        assert chain_entries(5, 1) == 5
        # header 9 bytes, entry head 11, slot 13
        assert wire_bytes(0, 0) == 9
        assert wire_bytes(3, 5) == 9 + 3 * 11 + 5 * 13
        table = QueryHashTable(results_per_entry=2)
        for i in range(5):
            table.insert("q", i, 0.1)
        table.insert("r", 9, 0.1)
        assert table.n_entries == 4
        assert table.wire_bytes == wire_bytes(4, 6) == len(table.serialize())

    def test_default_width_is_two(self):
        assert DEFAULT_RESULTS_PER_ENTRY == 2
        assert QueryHashTable().results_per_entry == 2

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            QueryHashTable(results_per_entry=0)
