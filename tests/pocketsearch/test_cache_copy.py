"""A copied cache is a freshly loaded one, and shares no mutable state.

The serve harnesses load the community content once per mode into an
image and give each device ``image.copy()``.  The copy must be the cache
``make_cache`` would have built — compared attribute by attribute,
recursively, so a field added later fails here unless ``copy()`` carries
it — and serving on one copy must change neither the image nor another
copy.
"""

import dataclasses
import enum
import gc

import pytest

from repro.pocketsearch.content import build_cache_content, result_record_bytes
from repro.pocketsearch.engine import PocketSearchEngine
from repro.pocketsearch.manager import CacheUpdateServer
from repro.sim.replay import CacheMode, make_cache

MODES = (
    CacheMode.FULL,
    CacheMode.COMMUNITY_ONLY,
    CacheMode.PERSONALIZATION_ONLY,
)

_ATOMS = (type(None), bool, int, float, str, bytes, enum.Enum)


def _attrs(obj) -> dict:
    """Instance attributes: ``__dict__`` plus every ``__slots__`` entry."""
    out = dict(getattr(obj, "__dict__", {}))
    for klass in type(obj).__mro__:
        for name in getattr(klass, "__slots__", ()):
            if hasattr(obj, name):
                out[name] = getattr(obj, name)
    return out


def state(obj):
    """The value of ``obj``, recursively: atoms as themselves, containers
    element by element in order, objects as their type and attributes."""
    if isinstance(obj, _ATOMS):
        return obj
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, [state(x) for x in obj])
    items = []
    if isinstance(obj, dict):
        items = [(state(k), state(v)) for k, v in obj.items()]
    elif not hasattr(obj, "__dict__") and not hasattr(type(obj), "__slots__"):
        raise TypeError(f"no state rule for {type(obj).__name__}")
    attrs = {name: state(v) for name, v in sorted(_attrs(obj).items())}
    return (type(obj).__qualname__, items, attrs)


def _immutable(obj) -> bool:
    return (
        isinstance(obj, (_ATOMS, tuple))
        or dataclasses.is_dataclass(obj)
        and type(obj).__dataclass_params__.frozen
    )


def mutable_ids(obj, out=None) -> set:
    """ids of every mutable object reachable from ``obj``."""
    out = set() if out is None else out
    if isinstance(obj, _ATOMS) or id(obj) in out:
        return out
    if not _immutable(obj):
        out.add(id(obj))
    children = list(_attrs(obj).values()) if not isinstance(obj, tuple) else []
    if isinstance(obj, (list, tuple)):
        children += list(obj)
    elif isinstance(obj, dict):
        children += list(obj.keys()) + list(obj.values())
    for child in children:
        mutable_ids(child, out)
    return out


@pytest.fixture(scope="module")
def content(small_log):
    return build_cache_content(small_log.month(0))


def _serve_month(engine, log, month, limit):
    """Serve the first ``limit`` events of ``month``, in log order."""
    stream = log.month(month)
    for i in range(min(limit, stream.n_events)):
        rkey = int(stream.result_keys[i])
        engine.serve_query(
            stream.query_string(int(stream.query_keys[i])),
            stream.result_url(rkey),
            record_bytes=result_record_bytes(stream, rkey),
            timestamp=float(stream.timestamps[i]),
        )


@pytest.mark.parametrize("mode", MODES)
def test_copy_equals_a_fresh_cache(content, mode):
    image = make_cache(content, mode)
    clone = image.copy()
    assert state(clone) == state(make_cache(content, mode))
    assert clone.hashtable.version == image.hashtable.version


@pytest.mark.parametrize("mode", MODES)
def test_copy_shares_no_mutable_state(content, mode):
    image = make_cache(content, mode)
    shared = mutable_ids(image) & mutable_ids(image.copy())
    assert not shared


def test_state_sees_every_layer(content):
    """The comparison reaches the flash counters: a cache that served a
    query differs from a fresh one there too."""
    image = make_cache(content, CacheMode.FULL)
    served = image.copy()
    served.database.fetch(next(iter(served.database._index)))
    assert state(served) != state(image)
    assert served.database.filesystem.flash.stats.page_reads > 0
    assert image.database.filesystem.flash.stats.page_reads == 0


@pytest.mark.parametrize("mode", MODES)
def test_serving_one_copy_leaves_image_and_other_copies(
    small_log, content, mode
):
    image = make_cache(content, mode)
    before = state(image)
    served, other = image.copy(), image.copy()
    engine = PocketSearchEngine(served)
    _serve_month(engine, small_log, 1, 300)
    # A nightly refresh rewrites the table and compacts the database.
    CacheUpdateServer().refresh_with_content(
        served, build_cache_content(small_log.month(1))
    )
    assert state(served) != before
    assert state(image) == before
    assert state(other) == before
    # A copy carries served state too (access flags, scores, garbage).
    assert state(served.copy()) == state(served)


def test_image_copy_allocates_few_tracked_objects():
    """A device copy of the default community image shares the table's
    slot tuples and the stored results, so it allocates a few dozen
    GC-tracked objects, not one per cached entry."""
    from repro.experiments.common import default_content

    image = make_cache(default_content(), CacheMode.FULL)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        clone = image.copy()
        allocated = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert clone.hashtable.n_pairs == image.hashtable.n_pairs > 500
    assert allocated <= 64
