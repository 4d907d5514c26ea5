"""Pinned digests of the community model, column by column.

The generator golden test pins the sampled log, but neither the query and
result strings nor the per-result record sizes, and content mining and the
flash model read all three.  This test pins the sha256 of every
``CommunityModel`` column (dtype and bytes for arrays, JSON for string
lists) and of the record size content mining looks up per result id, for
three vocabularies: the conftest universe, the default one, and a mid-size
one whose queries all carry their topic's full volume
(``canonical_query_share=1.0``).

Regenerate the fixture only after an intended change to the universe::

    PYTHONPATH=src python -m tests.logs.test_community_golden
"""

import hashlib
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.logs.popularity import CommunityModel
from repro.logs.vocabulary import Vocabulary, VocabularyConfig
from repro.pocketsearch.content import result_record_bytes

FIXTURE = os.path.join(
    os.path.dirname(__file__), os.pardir, "fixtures", "community_golden.json"
)

ARRAYS = (
    "query_navigational",
    "pair_query",
    "pair_result",
    "pair_topic",
    "pair_prob",
    "rank_order",
)


def _array_digest(column: np.ndarray) -> str:
    h = hashlib.sha256(column.dtype.str.encode())
    h.update(column.tobytes())
    return h.hexdigest()


def _strings_digest(strings) -> str:
    return hashlib.sha256(json.dumps(list(strings)).encode()).hexdigest()


def record_bytes(community: CommunityModel) -> np.ndarray:
    """Stored size per result id, as content mining looks it up."""
    log = SimpleNamespace(community=community)
    return np.array(
        [result_record_bytes(log, r) for r in range(community.n_results)],
        dtype=np.int64,
    )


def community_digests(community: CommunityModel) -> dict:
    """sha256 of every column of ``community`` and of its record sizes."""
    digests = {
        "n_pairs": community.n_pairs,
        "query_strings": _strings_digest(community.query_strings),
        "result_urls": _strings_digest(community.result_urls),
        "record_bytes": _array_digest(record_bytes(community)),
    }
    for name in ARRAYS:
        digests[name] = _array_digest(getattr(community, name))
    return digests


def _configs() -> dict:
    from tests.conftest import SMALL_VOCAB

    return {
        "small": SMALL_VOCAB,
        "default": VocabularyConfig(),
        "nav500_nonnav800_seed11_canonical1": VocabularyConfig(
            n_nav_topics=500,
            n_non_nav_topics=800,
            seed=11,
            canonical_query_share=1.0,
        ),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(_configs()))
def test_community_columns(golden, name):
    community = CommunityModel(Vocabulary.build(_configs()[name]))
    assert community_digests(community) == golden[name]


def _main() -> None:
    doc = {
        name: community_digests(CommunityModel(Vocabulary.build(config)))
        for name, config in _configs().items()
    }
    with open(FIXTURE, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.abspath(FIXTURE)}")


if __name__ == "__main__":
    _main()
