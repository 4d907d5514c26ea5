"""Tests for experiment-support utilities."""

import pytest

from repro.experiments.common import (
    default_content,
    default_log,
    desktop_log,
    format_table,
)


class TestFormatTable:
    def test_alignment(self):
        text = format_table([["a", 1], ["longer", 22]], ["col", "n"])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_empty_rows(self):
        text = format_table([], ["a", "b"])
        assert "a" in text and "b" in text

    def test_values_stringified(self):
        text = format_table([[1.5, None]], ["x", "y"])
        assert "1.5" in text and "None" in text


class TestMemoization:
    def test_default_log_cached(self):
        assert default_log() is default_log()

    def test_default_content_cached(self):
        assert default_content() is default_content()

    @pytest.mark.parametrize(
        "memoized, default_args",
        [(default_log, (2, 23)), (desktop_log, (29,)), (default_content, (23,))],
        ids=["default_log", "desktop_log", "default_content"],
    )
    def test_one_entry_per_value(self, memoized, default_args):
        # The default, keyword and positional spellings of one call share
        # one memo entry.
        seed = default_args[-1]
        value = memoized()
        assert memoized(seed=seed) is value
        assert memoized(*default_args) is value

    def test_content_covers_operating_point(self):
        content = default_content()
        assert content.coverage == pytest.approx(0.55, abs=0.02)


class TestOneContentMemo:
    def test_default_content_and_replay_share_one_build(self, monkeypatch):
        # Both the experiments' default content and a replay's
        # build-month content are month 0 of the default log, mined
        # once per process.
        import repro.experiments.common as common
        import repro.sim.replay as replay
        from repro.sim import vectorized
        from repro.sim.replay import CacheMode, ReplayConfig, run_replay

        builds = []
        for module in (common, replay):
            build = getattr(module, "build_cache_content", None)
            if build is None:
                continue

            def counting(log, policy, _build=build):
                builds.append(log)
                return _build(log, policy)

            monkeypatch.setattr(module, "build_cache_content", counting)
        vectorized.clear_caches()
        content = default_content()
        run_replay(
            default_log(),
            ReplayConfig(users_per_class=2),
            modes=(CacheMode.FULL,),
        )
        assert len(builds) == 1
        assert default_content() is content
