"""Section 2 experiments: Table 1, Figure 2, Table 2."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.nvmscaling.capacity import TABLE2_BUDGET_BYTES, table2_rows
from repro.nvmscaling.projection import (
    CapacityProjection,
    ScalingScenario,
    project_capacity_series,
)
from repro.nvmscaling.trends import TECHNOLOGY_ROADMAP


def table1() -> List[dict]:
    """Table 1: the technology scaling trend rows."""
    return [
        {
            "year": p.year,
            "technology": p.technology,
            "tech_nm": p.feature_nm,
            "scaling_factor": p.scaling_factor,
            "chip_stack": p.chip_stack,
            "cell_layers": p.cell_layers,
            "bits_per_cell": p.bits_per_cell,
        }
        for p in TECHNOLOGY_ROADMAP
    ]


def figure2() -> Dict[str, List[CapacityProjection]]:
    """Figure 2: capacity evolution per scaling scenario."""
    return {
        scenario.value: project_capacity_series(scenario)
        for scenario in ScalingScenario
    }


def figure2_milestones() -> Dict[str, float]:
    """The headline numbers the paper calls out from Figure 2."""
    all_techniques = project_capacity_series(ScalingScenario.ALL_TECHNIQUES)
    by_year = {p.year: p for p in all_techniques}
    return {
        "high_end_2018_gb": by_year[2018].high_end_gb,
        "low_end_2018_gb": by_year[2018].low_end_gb,
        "low_end_final_gb": all_techniques[-1].low_end_gb,
    }


def table2() -> List[Tuple[str, int, int]]:
    """Table 2: items storable in the 25.6 GB cloudlet budget."""
    return table2_rows(TABLE2_BUDGET_BYTES)
