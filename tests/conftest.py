"""Shared fixtures.

Unit tests use a small, fast synthetic universe; integration tests that
need the calibrated default scale build it once per session through
``repro.experiments.common``.
"""

import pytest

from repro.logs.generator import GeneratorConfig, generate_logs
from repro.logs.popularity import CommunityModel
from repro.logs.users import PopulationConfig, UserPopulation
from repro.logs.vocabulary import Vocabulary, VocabularyConfig
from repro.storage.filesystem import FlashFilesystem
from repro.storage.flash import FlashGeometry, NandFlash


SMALL_VOCAB = VocabularyConfig(n_nav_topics=300, n_non_nav_topics=400, seed=7)
SMALL_POPULATION = PopulationConfig(n_users=150, seed=11)
SMALL_LOG_CONFIG = GeneratorConfig(months=2, seed=23)


@pytest.fixture(scope="session")
def small_vocabulary():
    return Vocabulary.build(SMALL_VOCAB)


@pytest.fixture(scope="session")
def small_community(small_vocabulary):
    return CommunityModel(small_vocabulary)


@pytest.fixture(scope="session")
def small_population():
    return UserPopulation.build(SMALL_POPULATION)


@pytest.fixture(scope="session")
def small_log(small_community, small_population):
    return generate_logs(
        community=small_community,
        population=small_population,
        config=SMALL_LOG_CONFIG,
    )


@pytest.fixture
def flash():
    return NandFlash(FlashGeometry(page_bytes=4096, pages_per_block=64, total_blocks=256))


@pytest.fixture
def filesystem(flash):
    return FlashFilesystem(flash)
