"""Tests for the hash-table wire format (Figure 14's exchange).

The blob is checked by a decoder kept here: the header's entry count,
then for every query its chain records ``(hash64(query, i), i, chunk_i)``
— chunk ``i`` being slots ``i*width`` to ``(i+1)*width`` in chain order —
and a length equal to the table's ``wire_bytes``.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.pocketsearch.hashtable import QueryHashTable, hash64

HEADER = struct.Struct("<4sBI")
ENTRY_HEAD = struct.Struct("<QHB")
SLOT = struct.Struct("<QfB")


def decode(blob):
    """(width, header entry count, {(query hash, chain index): slots})."""
    magic, width, n_entries = HEADER.unpack_from(blob, 0)
    assert magic == b"PSHT"
    offset = HEADER.size
    records = {}
    while offset < len(blob):
        query_hash, index, n_slots = ENTRY_HEAD.unpack_from(blob, offset)
        offset += ENTRY_HEAD.size
        slots = []
        for _ in range(n_slots):
            result_hash, score, accessed = SLOT.unpack_from(blob, offset)
            offset += SLOT.size
            slots.append((result_hash, score, bool(accessed)))
        key = (query_hash, index)
        assert key not in records
        records[key] = slots
    assert offset == len(blob)
    return width, n_entries, records


def chain_slots(records, query):
    """The query's slots, read back from its chain records in order."""
    slots = []
    index = 0
    while (hash64(query, index), index) in records:
        slots.extend(records[(hash64(query, index), index)])
        index += 1
    return slots


def assert_blob_matches(table, queries):
    """Every decoder check of one table's blob."""
    blob = table.serialize()
    width, n_entries, records = decode(blob)
    assert width == table.results_per_entry
    assert n_entries == table.n_entries == len(records)
    assert len(blob) == table.wire_bytes
    for query in queries:
        slots = table.slots_for(query)
        for i in range(0, len(slots), width):
            record = records[(hash64(query, i // width), i // width)]
            assert_slots_equal(record, slots[i : i + width])
    assert sum(len(s) for s in records.values()) == table.n_pairs


def assert_slots_equal(a, b):
    """Compare slot lists; scores travel as f32 on the wire."""
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left[0] == right[0]
        assert left[1] == pytest.approx(right[1], rel=1e-6)
        if len(left) > 2:
            assert left[2] == right[2]


def loaded_table(width=2):
    table = QueryHashTable(results_per_entry=width)
    table.insert("youtube", 111, 0.9, accessed=True)
    table.insert("youtube", 222, 0.4)
    table.insert("michael jackson", 1, 0.5)
    table.insert("michael jackson", 2, 0.3)
    table.insert("michael jackson", 3, 0.2)  # chains
    return table


def ranked(slots):
    return sorted(
        [(s[0], s[1]) for s in slots], key=lambda rs: rs[1], reverse=True
    )


class TestRoundTrip:
    def test_lookup_preserved(self):
        table = loaded_table()
        _width, _n, records = decode(table.serialize())
        for query in ("youtube", "michael jackson"):
            assert_slots_equal(
                ranked(chain_slots(records, query)), table.lookup(query)
            )
        assert_blob_matches(table, ["youtube", "michael jackson"])

    def test_flags_preserved(self):
        table = loaded_table()
        _width, _n, records = decode(table.serialize())
        assert_slots_equal(
            chain_slots(records, "youtube"), table.slots_for("youtube")
        )

    def test_width_preserved(self):
        table = loaded_table(width=3)
        width, _n, _records = decode(table.serialize())
        assert width == 3
        assert_blob_matches(table, ["youtube", "michael jackson"])

    def test_empty_table(self):
        table = QueryHashTable()
        _width, n_entries, records = decode(table.serialize())
        assert n_entries == 0 and not records
        assert len(table.serialize()) == table.wire_bytes

    def test_blob_size_tracks_contents(self):
        small = loaded_table().serialize()
        big_table = loaded_table()
        for i in range(100):
            big_table.insert(f"q{i}", i, 0.5)
        assert len(big_table.serialize()) > len(small)

    def test_wire_smaller_than_modelled_footprint(self):
        """The wire format carries no bucket overhead, so the exchange is
        cheaper than the in-memory footprint."""
        table = loaded_table()
        assert len(table.serialize()) < table.footprint_bytes

    def test_remove_keeps_chain_records_contiguous(self):
        table = loaded_table()
        table.remove("michael jackson", 1)
        _width, n_entries, records = decode(table.serialize())
        assert n_entries == 2
        assert_slots_equal(
            chain_slots(records, "michael jackson"),
            [(2, 0.3, False), (3, 0.2, False)],
        )
        assert_blob_matches(table, ["youtube", "michael jackson"])


queries = st.text(alphabet="abcde ", min_size=1, max_size=6)


@given(
    ops=st.lists(
        st.tuples(
            queries,
            st.integers(0, 20),
            st.floats(min_value=0, max_value=4, allow_nan=False, width=32),
            st.booleans(),
        ),
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(ops):
    table = QueryHashTable()
    seen = set()
    for query, result, score, accessed in ops:
        table.insert(query, result, score, accessed=accessed)
        seen.add(query)
    _width, _n, records = decode(table.serialize())
    assert sum(len(s) for s in records.values()) == table.n_pairs
    for query in seen:
        assert_slots_equal(chain_slots(records, query), table.slots_for(query))
    assert_blob_matches(table, seen)
