"""Pinned digests of open-loop schedules.

``build_workload`` turns a log month into ``(offset, ServeRequest)``
arrivals and a device -> region map.  Every serve output downstream
(reports, flight bundles, the serve benchmark) starts from that
schedule, so four shapes of it are pinned here by the sha256 of every
arrival field and of the region map, on the default log:

* ``serve_hot`` — the twenty busiest devices at x10 for 30000 s behind
  eight regions (the serve benchmark's shape);
* ``fleet_x100`` — every device active in the month at x100 for 150 s;
* ``log_arrivals`` — the log's own arrivals, compressed x10, capped at
  forty devices, with skewed placement;
* ``burst`` — a diurnal Poisson schedule with an injected x8 burst.

A change to the thinning stream, the device draw, the per-device
template order or any request field moves a digest.

Regenerate the fixture only after an intended change to the schedules::

    PYTHONPATH=src python -m tests.serve.test_loadgen_golden
"""

import hashlib
import json
import os

import pytest

from repro.experiments.common import default_log
from repro.serve.loadgen import LoadGenConfig, build_workload

FIXTURE = os.path.join(
    os.path.dirname(__file__), os.pardir, "fixtures", "loadgen_golden.json"
)

#: Schedule month of every shape (the month ``run_loadtest`` replays).
MONTH = 1

SHAPES = {
    "serve_hot": LoadGenConfig(
        duration_s=30000.0,
        rate_multiplier=10.0,
        seed=1,
        max_devices=20,
        n_regions=8,
    ),
    "fleet_x100": LoadGenConfig(
        duration_s=150.0, rate_multiplier=100.0, seed=1
    ),
    "log_arrivals": LoadGenConfig(
        duration_s=86400.0,
        rate_multiplier=10.0,
        seed=7,
        arrivals="log",
        max_devices=40,
        n_regions=4,
        placement_skew=1.0,
    ),
    "burst": LoadGenConfig(
        duration_s=900.0,
        rate_multiplier=20.0,
        seed=3,
        t_origin_s=9 * 3600.0,
        n_regions=3,
        burst_start_s=200.0,
        burst_duration_s=120.0,
        burst_multiplier=8.0,
    ),
}


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def schedule_digests(workload) -> dict:
    """sha256 of every arrival field and of the device -> region map."""
    arrivals = [
        [
            offset,
            req.device_id,
            req.key,
            req.timestamp,
            req.clicked_url,
            req.record_bytes,
            req.navigational,
        ]
        for offset, req in workload.arrivals
    ]
    return {
        "n_requests": workload.n_requests,
        "n_devices": workload.n_devices,
        "arrivals": _digest(arrivals),
        "device_regions": _digest(sorted(workload.device_regions.items())),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_schedule_digests(golden, name):
    workload = build_workload(default_log(), MONTH, SHAPES[name])
    assert schedule_digests(workload) == golden[name]


def _main() -> None:
    log = default_log()
    doc = {
        name: schedule_digests(build_workload(log, MONTH, config))
        for name, config in SHAPES.items()
    }
    with open(FIXTURE, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.abspath(FIXTURE)}")


if __name__ == "__main__":
    _main()
