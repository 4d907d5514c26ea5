"""Synthetic search-log generation.

Produces multi-month event streams for a sampled user population over a
community popularity model.  The output :class:`SearchLog` is columnar
(numpy arrays) for fast analysis and cache replay, with lazy
materialization of :class:`~repro.logs.schema.QueryEvent` records.

Unique personal queries (the long tail no shared cache can know) are given
key values past the community id ranges, so every (query, result) pair —
community or personal — has a stable integer identity usable as a cache
key during replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.logs.popularity import CommunityModel, PairGroups
from repro.logs.schema import MONTH_SECONDS, QueryEvent
from repro.logs.users import PopulationConfig, UserBehavior, UserPopulation
from repro.logs.vocabulary import Vocabulary, VocabularyConfig

_DEVICE_CODES = {"smartphone": 0, "featurephone": 1, "desktop": 2}
_DEVICE_NAMES = {v: k for k, v in _DEVICE_CODES.items()}

#: Relative query volume per hour of day (mobile search is quiet
#: overnight, ramps through the morning, and peaks midday and evening).
DIURNAL_WEIGHTS = np.array(
    [
        0.25, 0.15, 0.10, 0.08, 0.08, 0.12,  # 00-05
        0.25, 0.45, 0.70, 0.90, 1.00, 1.10,  # 06-11
        1.25, 1.20, 1.05, 1.00, 1.05, 1.15,  # 12-17
        1.30, 1.45, 1.50, 1.30, 0.95, 0.55,  # 18-23
    ]
)


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """The cdf ``rng.choice(len(p), size=n, p=p)`` searches after checking
    ``p``: ``cdf.searchsorted(rng.random(n), side="right")`` draws the same
    picks and leaves the generator in the same state."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


_DIURNAL_CDF = _choice_cdf(DIURNAL_WEIGHTS / DIURNAL_WEIGHTS.sum())


def _sample_timestamps(
    volume: int, rng: np.random.Generator
) -> np.ndarray:
    """Event times within one month, following the diurnal profile."""
    times = rng.integers(0, 30, size=volume) * 86400.0
    times += _DIURNAL_CDF.searchsorted(rng.random(volume), side="right") * 3600.0
    times += rng.uniform(0, 3600, size=volume)
    times.sort()
    return times

#: Desktop-mode overrides (Section 4 contrasts; see DESIGN.md): desktop
#: query streams are flatter and less repetitive than mobile.
DESKTOP_ROUTINE_SCALE = 0.62
DESKTOP_COMMUNITY_TILT = 0.70
DESKTOP_EXPLORE_TILT_SCALE = 1.25

#: Probability that a routine (staple) event is typed as an alternative
#: phrasing of the staple query (misspelling or shortcut).
ALIAS_SWITCH_PROB = 0.22

#: Probability that a routine event clicks an alternative result of the
#: staple query (same query, different destination).
RESULT_SWITCH_PROB = 0.25


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of one log-generation run."""

    months: int = 2
    seed: int = 23
    desktop: bool = False
    monthly_volume_jitter: float = 0.15

    def __post_init__(self) -> None:
        if self.months <= 0:
            raise ValueError("months must be positive")
        if self.monthly_volume_jitter < 0:
            raise ValueError("monthly_volume_jitter must be non-negative")


class LogNames:
    """The name tables every view of a log shares: the community model's
    query and URL text by id, and the names of the personal pairs."""

    def __init__(
        self,
        community: CommunityModel,
        unique_names: Dict[int, Tuple[str, str]],
    ) -> None:
        self.community = community
        self._unique_names = unique_names

    def query_string(self, query_key: int) -> str:
        if query_key < self.community.n_queries:
            return self.community.query_strings[query_key]
        return self._unique_names[int(query_key)][0]

    def result_url(self, result_key: int) -> str:
        if result_key < self.community.n_results:
            return self.community.result_urls[result_key]
        # Unique pairs share one id space for query and result keys.
        offset = int(result_key) - self.community.n_results
        unique_qkey = self.community.n_queries + offset
        return self._unique_names[unique_qkey][1]

    def names(self) -> "LogNames":
        """The tables alone, holding none of a log's event arrays."""
        return LogNames(self.community, self._unique_names)

    def shares_names(self, other: "LogNames") -> bool:
        """True if ``other`` reads the very same tables."""
        return (
            self.community is other.community
            and self._unique_names is other._unique_names
        )


class SearchLog(LogNames):
    """A columnar, multi-month search log.

    Attributes:
        user_ids, timestamps, pair_ids, query_keys, result_keys,
        navigational, device_codes: parallel numpy arrays, one row per
        logged (query, clicked result) event, sorted by timestamp within
        each user.
    """

    def __init__(
        self,
        community: CommunityModel,
        population: UserPopulation,
        user_ids: np.ndarray,
        timestamps: np.ndarray,
        pair_ids: np.ndarray,
        query_keys: np.ndarray,
        result_keys: np.ndarray,
        navigational: np.ndarray,
        device_codes: np.ndarray,
        unique_names: Dict[int, Tuple[str, str]],
    ) -> None:
        super().__init__(community, unique_names)
        self.population = population
        self.user_ids = user_ids
        self.timestamps = timestamps
        self.pair_ids = pair_ids
        self.query_keys = query_keys
        self.result_keys = result_keys
        self.navigational = navigational
        self.device_codes = device_codes

    # -- shape ---------------------------------------------------------------

    @property
    def n_events(self) -> int:
        return len(self.user_ids)

    def __len__(self) -> int:
        return self.n_events

    # -- views ---------------------------------------------------------------

    def _select(self, mask: np.ndarray) -> "SearchLog":
        return SearchLog(
            self.community,
            self.population,
            self.user_ids[mask],
            self.timestamps[mask],
            self.pair_ids[mask],
            self.query_keys[mask],
            self.result_keys[mask],
            self.navigational[mask],
            self.device_codes[mask],
            self._unique_names,
        )

    def month(self, m: int) -> "SearchLog":
        """Events of month ``m`` (0-based)."""
        lo, hi = m * MONTH_SECONDS, (m + 1) * MONTH_SECONDS
        return self.window(lo, hi)

    def window(self, t_start: float, t_end: float) -> "SearchLog":
        mask = (self.timestamps >= t_start) & (self.timestamps < t_end)
        return self._select(mask)

    def for_user(self, user_id: int) -> "SearchLog":
        return self._select(self.user_ids == user_id)

    def for_device(self, device: str) -> "SearchLog":
        code = _DEVICE_CODES[device]
        return self._select(self.device_codes == code)

    def navigational_only(self, navigational: bool = True) -> "SearchLog":
        return self._select(self.navigational == navigational)

    def user_monthly_volumes(self, month: int = 0) -> Dict[int, int]:
        """Events per user within a month."""
        sub = self.month(month)
        users, counts = np.unique(sub.user_ids, return_counts=True)
        return dict(zip(users.tolist(), counts.tolist()))

    # -- materialization ------------------------------------------------------

    def events(self) -> Iterator[QueryEvent]:
        """Materialize events (slow path; analysis uses the columns)."""
        for i in range(self.n_events):
            yield QueryEvent(
                user_id=int(self.user_ids[i]),
                timestamp=float(self.timestamps[i]),
                query=self.query_string(int(self.query_keys[i])),
                clicked_url=self.result_url(int(self.result_keys[i])),
                navigational=bool(self.navigational[i]),
                device=_DEVICE_NAMES[int(self.device_codes[i])],
            )


def generate_logs(
    community: Optional[CommunityModel] = None,
    population: Optional[UserPopulation] = None,
    config: GeneratorConfig = GeneratorConfig(),
) -> SearchLog:
    """Generate a multi-month synthetic search log.

    Args:
        community: community popularity model (built from the default
            :class:`VocabularyConfig` when omitted).
        population: user population (default :class:`PopulationConfig`).
        config: generation knobs.

    Returns:
        A :class:`SearchLog` covering ``config.months`` months.
    """
    if community is None:
        community = CommunityModel(Vocabulary.build(VocabularyConfig()))
    if population is None:
        population = UserPopulation.build(PopulationConfig())
    rng = np.random.default_rng(config.seed)

    volumes: List[int] = []
    time_col: List[np.ndarray] = []
    pair_col: List[np.ndarray] = []
    unique_counter = 0

    n_pairs = community.n_pairs
    siblings = PairGroups.siblings(community)
    variants = PairGroups.variants(community)
    for user in population.users:
        staples, staple_cdf = _draw_staples(user, community, rng, config.desktop)
        for m in range(config.months):
            volume = _monthly_volume(user, config, rng)
            pairs, unique_counter = _draw_month_pairs(
                user,
                staples,
                staple_cdf,
                volume,
                community,
                siblings,
                variants,
                rng,
                config,
                unique_counter,
            )
            times = _sample_timestamps(volume, rng)
            times += m * MONTH_SECONDS
            volumes.append(volume)
            time_col.append(times)
            pair_col.append(pairs)
    # The draws were the groupings' only use: free them before the key
    # columns are allocated.
    del siblings, variants

    def per_event(per_user: list, dtype: type) -> np.ndarray:
        # No per-event index array: a 2.3 MB temporary, once freed, raises
        # glibc's mmap threshold and the serve stack's peak RSS with it.
        return np.repeat(np.repeat(np.array(per_user, dtype=dtype), config.months), volumes)

    users = population.users
    user_ids = per_event([u.user_id for u in users], np.int64)
    timestamps = np.concatenate(time_col)
    pair_ids = np.concatenate(pair_col)

    # Resolve pair ids into query/result keys and flags.  Unique pair
    # ``n_pairs + i`` is query ``n_queries + i`` and result ``n_results + i``.
    n_queries = community.n_queries
    unique = np.arange(unique_counter, dtype=np.int64)
    query_keys = np.append(community.pair_query, n_queries + unique)[pair_ids]
    result_keys = np.append(community.pair_result, community.n_results + unique)[pair_ids]
    navigational = np.append(
        community.query_navigational[community.pair_query], np.zeros(unique_counter, bool)
    )[pair_ids]

    # Name the unique pairs, each handed out to one event, in event order.
    uniq = np.flatnonzero(pair_ids >= n_pairs)
    unique_offset = pair_ids[uniq] - n_pairs
    unique_names: Dict[int, Tuple[str, str]] = {}
    for offset, owner in zip(unique_offset.tolist(), user_ids[uniq].tolist()):
        tag = f"{owner}-{offset}"
        unique_names[n_queries + offset] = (f"personal query {tag}", f"www.personal{tag}.net")

    device_codes = per_event(
        [_DEVICE_CODES["desktop" if config.desktop else u.device] for u in users], np.int8
    )

    return SearchLog(
        community,
        population,
        user_ids,
        timestamps,
        pair_ids,
        query_keys,
        result_keys,
        navigational,
        device_codes,
        unique_names,
    )


# -- sampling internals -----------------------------------------------------


def _draw_staples(
    user: UserBehavior,
    community: CommunityModel,
    rng: np.random.Generator,
    desktop: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """A user's persistent staple pairs (popular-skewed, deduplicated) and
    the cdf their picks search (see :func:`_choice_cdf`)."""
    from repro.logs.users import STAPLE_TILT

    tilt = STAPLE_TILT * user.community_tilt
    if desktop:
        tilt *= DESKTOP_COMMUNITY_TILT
    draws = community.sample_pairs(user.n_staples * 3, rng, tilt=tilt)
    staples = list(dict.fromkeys(draws.tolist()))[: user.n_staples]
    while len(staples) < user.n_staples:
        extra = community.sample_pairs(user.n_staples, rng, tilt=tilt)
        for pair in extra.tolist():
            if pair not in staples:
                staples.append(pair)
                if len(staples) == user.n_staples:
                    break
    weights = user.staple_weights[: len(staples)]
    return np.asarray(staples, dtype=np.int64), _choice_cdf(weights / weights.sum())


def _monthly_volume(
    user: UserBehavior, config: GeneratorConfig, rng: np.random.Generator
) -> int:
    jitter = rng.lognormal(0.0, config.monthly_volume_jitter)
    return max(1, int(round(user.mean_monthly_volume * jitter)))


def _draw_month_pairs(
    user: UserBehavior,
    staples: np.ndarray,
    staple_cdf: np.ndarray,
    volume: int,
    community: CommunityModel,
    siblings: PairGroups,
    variants: PairGroups,
    rng: np.random.Generator,
    config: GeneratorConfig,
    unique_counter: int,
) -> Tuple[np.ndarray, int]:
    routine_prob = user.routine_prob
    explore_tilt = user.explore_tilt * user.community_tilt
    if config.desktop:
        routine_prob *= DESKTOP_ROUTINE_SCALE
        explore_tilt /= DESKTOP_EXPLORE_TILT_SCALE

    routine_mask = rng.random(volume) < routine_prob
    n_routine = np.count_nonzero(routine_mask)
    n_explore = volume - n_routine

    pairs = np.empty(volume, dtype=np.int64)
    if n_routine:
        routine_pairs = staples[staple_cdf.searchsorted(rng.random(n_routine), side="right")]
        # Users re-type their staples in alternative phrasings: with some
        # probability an event uses a misspelling/shortcut sibling of the
        # staple pair (same destination, different query string).
        switch = rng.random(n_routine) < ALIAS_SWITCH_PROB
        routine_pairs[switch] = siblings.redraw(routine_pairs[switch], rng)
        # Independently, the user may click a different result for the
        # same staple query (the "michael jackson" two-destination case).
        result_switch = rng.random(n_routine) < RESULT_SWITCH_PROB
        routine_pairs[result_switch] = variants.redraw(
            routine_pairs[result_switch], rng
        )
        pairs[routine_mask] = routine_pairs
    if n_explore:
        tail_mask = rng.random(n_explore) < user.unique_tail_prob
        n_tail = np.count_nonzero(tail_mask)
        n_comm = n_explore - n_tail
        explore = np.empty(n_explore, dtype=np.int64)
        if n_comm:
            explore[~tail_mask] = community.sample_pairs(
                n_comm, rng, tilt=explore_tilt
            )
        if n_tail:
            explore[tail_mask] = (
                community.n_pairs + unique_counter + np.arange(n_tail)
            )
            unique_counter += n_tail
        pairs[~routine_mask] = explore
    return pairs, unique_counter
