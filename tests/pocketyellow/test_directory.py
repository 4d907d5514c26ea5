"""Tests for the synthetic business directory."""

import pytest

from repro.pocketmaps.grid import TileId
from repro.pocketyellow.directory import (
    BUSINESS_TILE_BYTES,
    CATEGORIES,
    BusinessDirectory,
    national_directory_bytes,
)

GB = 1024**3


class TestNationalArithmetic:
    def test_paper_100gb_claim(self):
        """Section 7: 23 million businesses ~ approximately 100 GB."""
        total = national_directory_bytes()
        assert 90 * GB <= total <= 120 * GB

    def test_validation(self):
        with pytest.raises(ValueError):
            national_directory_bytes(businesses=-1)


class TestDirectory:
    def test_deterministic(self):
        directory = BusinessDirectory()
        tile = TileId(10, 20)
        assert directory.businesses_at(tile) == directory.businesses_at(tile)

    def test_downtown_denser_than_periphery(self):
        directory = BusinessDirectory()
        downtown = sum(
            directory.density_at(TileId(x, y)) for x in range(4) for y in range(4)
        )
        periphery = sum(
            directory.density_at(TileId(x, y))
            for x in range(40, 44)
            for y in range(40, 44)
        )
        assert downtown > periphery

    def test_categories_valid(self):
        directory = BusinessDirectory()
        for business in directory.businesses_at(TileId(1, 1)):
            assert business.category in CATEGORIES

    def test_tile_bytes(self):
        directory = BusinessDirectory()
        dense = TileId(0, 0)
        assert directory.tile_bytes(dense) in (0, BUSINESS_TILE_BYTES)

    def test_mean_density_scales(self):
        sparse = BusinessDirectory(mean_density=0.5)
        dense = BusinessDirectory(mean_density=8.0)
        tiles = [TileId(x, y) for x in range(10) for y in range(10)]
        assert sum(dense.density_at(t) for t in tiles) > sum(
            sparse.density_at(t) for t in tiles
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            BusinessDirectory(mean_density=0)
