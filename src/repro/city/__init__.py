"""City-scale UE kernels.

The paper's scale-up study stops at tens of UEs; this package pushes a
single sky-cell to 10⁵–10⁶ by keeping population state in flat
struct-of-array blocks (:mod:`repro.city.population`), running the MAC
and OLLA shard-by-shard with peak memory O(shard)
(:mod:`repro.city.mac`), and driving placement through the
tile-streamed map oracle over deduplicated REM cells
(:mod:`repro.city.scenario`).  Every sharded/streamed path is
bit-identical to the small-scale reference kernels it decomposes.
"""

from repro.city.mac import CityMACResult, ShardRoundRobin, run_city_mac
from repro.city.population import DEFAULT_SHARD_UES, UEPopulation, shard_size
from repro.city.scenario import CityScenario

__all__ = [
    "CityMACResult",
    "CityScenario",
    "DEFAULT_SHARD_UES",
    "ShardRoundRobin",
    "UEPopulation",
    "run_city_mac",
    "shard_size",
]
