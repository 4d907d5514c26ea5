"""Pinned digests of the generated synthetic logs.

Every downstream output (replay, serve, flight bundles) starts from
``generate_logs``, so its output is pinned column by column: the sha256 of
each ``SearchLog`` column (dtype and bytes) and of the sorted unique
(personal) names, for the small test log, ``default_log()``,
``desktop_log()`` and ``default_log`` at the benchmark's seed 1 and CI's
seed 4099.  A change to the generator's arithmetic or to the order
in which it consumes its random stream moves a digest.

Regenerate the fixture only after an intended change to the logs::

    PYTHONPATH=src python -m tests.logs.test_generator_golden

Check the paper-scale two-month log (too slow for the suite) against its
own fixture; the digests are printed with the generation's wall time and
the process's peak RSS, and a mismatch exits 1::

    PYTHONPATH=src python -m tests.logs.test_generator_golden --paper-scale
"""

import hashlib
import json
import os
import sys
import time

import pytest

from repro.experiments.common import default_log, desktop_log

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
FIXTURE = os.path.join(FIXTURES, "generator_golden.json")
PAPER_SCALE_FIXTURE = os.path.join(FIXTURES, "generator_golden_paper_scale.json")

COLUMNS = (
    "user_ids",
    "timestamps",
    "pair_ids",
    "query_keys",
    "result_keys",
    "navigational",
    "device_codes",
)


def log_digests(log) -> dict:
    """sha256 of every column and of the sorted unique names of ``log``."""
    digests = {"n_events": log.n_events}
    for name in COLUMNS:
        column = getattr(log, name)
        h = hashlib.sha256(column.dtype.str.encode())
        h.update(column.tobytes())
        digests[name] = h.hexdigest()
    names = sorted(log._unique_names.items())
    digests["unique_names"] = hashlib.sha256(
        json.dumps(names).encode()
    ).hexdigest()
    return digests


def _small_log():
    # The conftest universe, rebuilt here so the module also runs as a
    # script.
    from tests.conftest import SMALL_LOG_CONFIG, SMALL_POPULATION, SMALL_VOCAB
    from repro.logs.generator import generate_logs
    from repro.logs.popularity import CommunityModel
    from repro.logs.users import UserPopulation
    from repro.logs.vocabulary import Vocabulary

    return generate_logs(
        community=CommunityModel(Vocabulary.build(SMALL_VOCAB)),
        population=UserPopulation.build(SMALL_POPULATION),
        config=SMALL_LOG_CONFIG,
    )


LOGS = {
    "small": _small_log,
    "default_seed23": default_log,
    "desktop_seed29": desktop_log,
    # The benchmark's seed and CI's.
    "default_seed1": lambda: default_log(seed=1),
    "default_seed4099": lambda: default_log(seed=4099),
}


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


class TestGeneratorGolden:
    def test_small_log(self, golden, small_log):
        assert log_digests(small_log) == golden["small"]

    def test_default_log(self, golden):
        assert log_digests(default_log()) == golden["default_seed23"]

    def test_desktop_log(self, golden):
        assert log_digests(desktop_log()) == golden["desktop_seed29"]

    @pytest.mark.parametrize("seed", [1, 4099])
    def test_benchmark_seed_logs(self, golden, seed):
        assert log_digests(default_log(seed=seed)) == golden[f"default_seed{seed}"]


def _check_paper_scale() -> int:
    import resource

    from repro.experiments.scale import paper_scale_log

    start = time.perf_counter()
    log = paper_scale_log(months=2)
    wall_s = time.perf_counter() - start
    digests = log_digests(log)
    print(json.dumps(digests, indent=2, sort_keys=True))
    # ru_maxrss is in KiB on Linux.
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"generated {log.n_events} events in {wall_s:.2f} s; "
          f"ru_maxrss {peak_mib:.1f} MiB")
    with open(PAPER_SCALE_FIXTURE) as fh:
        golden = json.load(fh)
    moved = sorted(k for k in golden.keys() | digests.keys()
                   if golden.get(k) != digests.get(k))
    if moved:
        print(f"paper-scale digests differ from {PAPER_SCALE_FIXTURE}: "
              f"{', '.join(moved)}", file=sys.stderr)
        return 1
    return 0


def _main(argv) -> None:
    if argv == ["--paper-scale"]:
        sys.exit(_check_paper_scale())
    doc = {name: log_digests(build()) for name, build in LOGS.items()}
    with open(FIXTURE, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.abspath(FIXTURE)}")


if __name__ == "__main__":
    _main(sys.argv[1:])
