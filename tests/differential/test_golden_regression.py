"""Golden end-to-end replay regression (tiny seed, tight tolerance).

A checked-in fixture (``tests/fixtures/golden_replay.json``) pins the
per-class hit rates of a small fully-deterministic replay.  Any silent
drift in the log generator, content mining, cache stack, or replay
harness moves these numbers and fails the suite.

Regenerate (after an *intentional* behaviour change) with::

    PYTHONPATH=src python -m tests.differential.test_golden_regression --regenerate
"""

import json
import os

import pytest

from repro.logs.generator import GeneratorConfig, generate_logs
from repro.logs.popularity import CommunityModel
from repro.logs.schema import UserClass
from repro.logs.users import PopulationConfig, UserPopulation
from repro.logs.vocabulary import Vocabulary, VocabularyConfig
from repro.sim.replay import CacheMode, ReplayConfig, run_replay

from tests.differential.per_event import per_event_replay

FIXTURE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "fixtures", "golden_replay.json"
)

#: Everything about the golden universe is pinned here; the fixture
#: records these so a config drift is detected as loudly as a code drift.
GOLDEN_CONFIG = {
    "vocabulary": {"n_nav_topics": 200, "n_non_nav_topics": 250, "seed": 13},
    "population": {"n_users": 80, "seed": 17},
    "generator": {"months": 2, "seed": 41},
    "users_per_class": 3,
    "replay_seed": 97,
}

TOLERANCE = 1e-9


def _golden_replay():
    log = generate_logs(
        community=CommunityModel(
            Vocabulary.build(VocabularyConfig(**GOLDEN_CONFIG["vocabulary"]))
        ),
        population=UserPopulation.build(
            PopulationConfig(**GOLDEN_CONFIG["population"])
        ),
        config=GeneratorConfig(**GOLDEN_CONFIG["generator"]),
    )
    return run_replay(
        log,
        ReplayConfig(
            users_per_class=GOLDEN_CONFIG["users_per_class"],
            seed=GOLDEN_CONFIG["replay_seed"],
        ),
        modes=[CacheMode.FULL],
    )[CacheMode.FULL]


def _observed(result) -> dict:
    by_class = result.hit_rate_by_class()
    return {
        "config": GOLDEN_CONFIG,
        "n_users": len(result.users),
        "total_queries": int(sum(u.metrics.count for u in result.users)),
        "total_hits": int(sum(u.metrics.hits for u in result.users)),
        "overall_hit_rate": result.overall_hit_rate(),
        "hit_rate_by_class": {
            c.value: by_class[c] for c in UserClass
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(FIXTURE_PATH) as fh:
        return json.load(fh)


def _observed_per_event() -> dict:
    """The golden replay served event by event (the scalar reference)."""
    with per_event_replay():
        return _observed(_golden_replay())


@pytest.fixture(scope="module")
def observed() -> dict:
    return _observed_per_event()


class TestGoldenReplay:
    def test_config_pinned(self, golden, observed):
        assert observed["config"] == golden["config"]

    def test_counts_exact(self, golden, observed):
        assert observed["n_users"] == golden["n_users"]
        assert observed["total_queries"] == golden["total_queries"]
        assert observed["total_hits"] == golden["total_hits"]

    def test_overall_hit_rate(self, golden, observed):
        assert observed["overall_hit_rate"] == pytest.approx(
            golden["overall_hit_rate"], abs=TOLERANCE
        )

    def test_per_class_hit_rates(self, golden, observed):
        assert (
            observed["hit_rate_by_class"].keys()
            == golden["hit_rate_by_class"].keys()
        )
        for user_class, expected in golden["hit_rate_by_class"].items():
            assert observed["hit_rate_by_class"][user_class] == pytest.approx(
                expected, abs=TOLERANCE
            ), user_class

    def test_vectorized_run_matches_golden(self, golden):
        """The batch engine (an untraced run) must hit the same golden
        numbers."""
        vectorized = _observed(_golden_replay())
        assert vectorized["total_queries"] == golden["total_queries"]
        assert vectorized["total_hits"] == golden["total_hits"]
        assert vectorized["overall_hit_rate"] == pytest.approx(
            golden["overall_hit_rate"], abs=TOLERANCE
        )
        for user_class, expected in golden["hit_rate_by_class"].items():
            assert vectorized["hit_rate_by_class"][
                user_class
            ] == pytest.approx(expected, abs=TOLERANCE), user_class


def _regenerate() -> None:
    observed = _observed_per_event()
    path = os.path.abspath(FIXTURE_PATH)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(observed, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
