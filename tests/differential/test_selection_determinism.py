"""Regression tests for per-user-keyed RNG in ``select_replay_users``.

The original selector consumed one shared RNG stream across class
buckets, so the set chosen for one class depended on how many draws the
*previous* classes made (draw-order coupling): filtering unrelated users
out of the log reshuffled every other class's picks.  Selection is now a
lottery keyed by ``(seed, user_id)`` alone; these tests pin that
property so a future refactor cannot quietly reintroduce the coupling.
"""

import numpy as np

from repro.logs.schema import UserClass, classify_user
from repro.sim.replay import select_replay_users


def _drop_class(log, month, drop: UserClass):
    """A view of ``log`` without any user classified as ``drop``."""
    volumes = log.user_monthly_volumes(month=month)
    dropped = {
        uid for uid, v in volumes.items() if classify_user(v) is drop
    }
    mask = ~np.isin(log.user_ids, sorted(dropped))
    return log._select(mask)


class TestSelectionKeyedByUserId:
    def test_deterministic(self, small_log):
        a = select_replay_users(small_log, 1, 5, seed=1)
        b = select_replay_users(small_log, 1, 5, seed=1)
        assert a == b

    def test_seed_changes_selection(self, small_log):
        a = select_replay_users(small_log, 1, 5, seed=1)
        b = select_replay_users(small_log, 1, 5, seed=2)
        assert a != b  # astronomically unlikely to collide

    def test_independent_of_other_classes(self, small_log):
        """Removing one class's users must not move another's picks.

        This is the regression the differential harness exposed: with a
        shared RNG stream, the LOW bucket's draw count shifted the
        stream position for every later bucket.
        """
        full = select_replay_users(small_log, 1, 3, seed=7)
        without_low = select_replay_users(
            _drop_class(small_log, 1, UserClass.LOW), 1, 3, seed=7
        )
        for user_class in UserClass:
            if user_class is UserClass.LOW:
                continue
            assert full[user_class] == without_low[user_class], user_class

    def test_selection_sorted_and_capped(self, small_log):
        selected = select_replay_users(small_log, 1, 3, seed=7)
        for uids in selected.values():
            assert uids == sorted(uids)
            assert len(uids) <= 3
