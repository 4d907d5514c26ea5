"""PocketDevice: a whole phone's worth of pocket cloudlets.

The paper's end vision (Sections 3 and 7) is not one cache but a device
hosting *many* cloudlets — search, ads, web content, maps, yellow pages —
sharing a storage partition under OS arbitration.  :class:`PocketDevice`
assembles that device:

* sizes the NVM from the Section 2 projection for a given year and tier;
* dedicates 10% of it to the cloudlet partition;
* splits the partition across the five services (defaults follow the
  relative appetites Table 2 implies);
* instantiates every cloudlet and registers it with the
  :class:`~repro.core.registry.CloudletRegistry` for budget enforcement
  and isolation.

This is the highest-level public API::

    from repro.device import PocketDevice

    device = PocketDevice.build(year=2018, tier="low")
    device.search.serve_query("site0", "www.site0.com")
    device.web.browse("www.site0.com", t_seconds=120.0)
    device.maps.serve_viewport(Region.viewport(1000, 1000))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.registry import CloudletRegistry
from repro.logs.generator import SearchLog
from repro.nvmscaling.projection import ScalingScenario, project_capacity
from repro.pocketads import AdsCloudlet
from repro.pocketmaps.cloudlet import MapCloudlet
from repro.pocketsearch.cache import PocketSearchCache
from repro.pocketsearch.content import (
    CacheContent,
    PAPER_OPERATING_POINT,
    build_cache_content,
)
from repro.pocketsearch.database import ResultDatabase
from repro.pocketsearch.engine import PocketSearchEngine
from repro.pocketweb import PocketWebCloudlet
from repro.pocketyellow.cloudlet import YellowPagesCloudlet
from repro.storage.filesystem import FlashFilesystem
from repro.storage.flash import FlashGeometry, NandFlash

MB = 1024**2
GB = 1024**3

#: Fraction of device NVM dedicated to the cloudlet partition (Section 2).
CLOUDLET_PARTITION_FRACTION = 0.10

#: Default budget split across the five services.  Web content and maps
#: dominate (their items are 60-300x larger than search results and
#: banners), mirroring the appetites of Table 2.
DEFAULT_BUDGET_SHARES: Dict[str, float] = {
    "search": 0.02,
    "ads": 0.01,
    "web": 0.42,
    "maps": 0.40,
    "yellow": 0.15,
}


@dataclass(frozen=True)
class DeviceSpec:
    """The resolved storage plan of a built device."""

    year: int
    tier: str
    nvm_bytes: int
    partition_bytes: int
    budgets: Dict[str, int]


class PocketDevice:
    """A simulated phone hosting all five pocket cloudlets."""

    def __init__(
        self,
        spec: DeviceSpec,
        registry: CloudletRegistry,
        search: PocketSearchEngine,
        ads: AdsCloudlet,
        web: PocketWebCloudlet,
        maps: MapCloudlet,
        yellow: YellowPagesCloudlet,
    ) -> None:
        self.spec = spec
        self.registry = registry
        self.search = search
        self.ads = ads
        self.web = web
        self.maps = maps
        self.yellow = yellow

    # -- construction ---------------------------------------------------------

    @classmethod
    def plan(
        cls,
        year: int = 2018,
        tier: str = "low",
        budget_shares: Optional[Dict[str, float]] = None,
    ) -> DeviceSpec:
        """Size the device and partition budgets without building it.

        Args:
            year: device generation, >= 2010 (drives the NVM projection).
            tier: "low" or "high" end.
            budget_shares: per-service fractions of the cloudlet
                partition; must sum to <= 1.

        Raises:
            ValueError: on an unknown tier or bad shares.
        """
        if tier not in ("low", "high"):
            raise ValueError(f"tier must be 'low' or 'high', got {tier!r}")
        shares = dict(budget_shares or DEFAULT_BUDGET_SHARES)
        missing = set(DEFAULT_BUDGET_SHARES) - set(shares)
        if missing:
            raise ValueError(f"budget_shares missing services: {sorted(missing)}")
        if any(v < 0 for v in shares.values()) or sum(shares.values()) > 1.000001:
            raise ValueError("budget shares must be non-negative and sum to <= 1")
        projection = project_capacity(year, ScalingScenario.ALL_TECHNIQUES)
        nvm = int(
            projection.low_end_bytes if tier == "low" else projection.high_end_bytes
        )
        partition = int(nvm * CLOUDLET_PARTITION_FRACTION)
        budgets = {
            name: max(int(partition * share), 1 * MB)
            for name, share in shares.items()
        }
        return DeviceSpec(
            year=year,
            tier=tier,
            nvm_bytes=nvm,
            partition_bytes=partition,
            budgets=budgets,
        )

    @classmethod
    def build(
        cls,
        year: int = 2018,
        tier: str = "low",
        search_content: Optional[CacheContent] = None,
        log: Optional[SearchLog] = None,
        budget_shares: Optional[Dict[str, float]] = None,
    ) -> "PocketDevice":
        """Assemble the device.

        Args:
            year, tier, budget_shares: see :meth:`plan`.
            search_content: pre-mined community content for PocketSearch
                (and the ads index).  When omitted and ``log`` is given,
                content is mined from the log's month 0; otherwise the
                search cache starts personalization-only.
            log: optional search log to mine content from.
        """
        spec = cls.plan(year=year, tier=tier, budget_shares=budget_shares)
        if search_content is None and log is not None:
            search_content = build_cache_content(log.month(0), PAPER_OPERATING_POINT)

        # One physical flash part backs every cloudlet; each gets its own
        # filesystem namespace slice via distinct file-name prefixes, and
        # the registry enforces the byte budgets.
        flash = NandFlash(FlashGeometry(total_blocks=16_384))
        search_cache = PocketSearchCache(
            database=ResultDatabase(FlashFilesystem(flash), name_prefix="ps")
        )
        if search_content is not None:
            search_cache.load_community(search_content)
        search = PocketSearchEngine(search_cache)

        ads = AdsCloudlet(search_cache, budget_bytes=spec.budgets["ads"])
        if search_content is not None:
            ads.load_from_content(search_content)
        web = PocketWebCloudlet(budget_bytes=spec.budgets["web"])
        maps = MapCloudlet(budget_bytes=spec.budgets["maps"])
        yellow = YellowPagesCloudlet(budget_bytes=spec.budgets["yellow"])

        registry = CloudletRegistry(
            total_budget_bytes=spec.partition_bytes,
            index_budget_bytes=256 * MB,
        )
        from repro.core.cloudlet import Cloudlet

        class _Slot(Cloudlet):
            """Registry-facing budget slot for a concrete cloudlet."""

            def lookup_local(self, key):
                return None

            def store_local(self, key, value, nbytes):
                pass

            def evict(self, nbytes):
                return 0

            def local_cost(self, key):
                return (0.0, 0.0)

            def remote_cost(self, key):
                return (0.0, 0.0)

        registry.register(
            _Slot("search", spec.budgets["search"]),
            index_bytes=search_cache.dram_bytes or 1,
        )
        for name in ("ads", "web", "maps", "yellow"):
            registry.register(_Slot(name, spec.budgets[name]), index_bytes=1)
        return cls(spec, registry, search, ads, web, maps, yellow)

    # -- reporting ---------------------------------------------------------------

    def storage_report(self) -> Dict[str, dict]:
        """Per-service budget and usage snapshot."""
        usage = {
            "search": self.search.cache.flash_bytes,
            "ads": self.ads.bytes_stored,
            "web": self.web.store.bytes_stored,
            "maps": self.maps.bytes_stored,
            "yellow": self.yellow.bytes_stored,
        }
        return {
            name: {
                "budget_bytes": self.spec.budgets[name],
                "used_bytes": used,
                "used_frac": used / self.spec.budgets[name],
            }
            for name, used in usage.items()
        }
