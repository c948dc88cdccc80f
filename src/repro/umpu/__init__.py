"""UMPU: the hardware-accelerated Harbor system.

Functional-unit models of the paper's architectural extensions (MMC,
safe-stack unit, domain tracker, configuration registers), the machine
that wires them onto the simulated AVR core, and the structural
gate-count area model.
"""

from repro.umpu.area import (
    GateCountRow,
    PAPER_TABLE6,
    Structure,
    baseline_core_area,
    core_growth,
    domain_tracker_area,
    fetch_decoder_area,
    fixed_config_savings,
    gate_count_table,
    glue_area,
    mmc_area,
    safe_stack_area,
)
from repro.umpu.cpu import HarborLayout, UmpuMachine
from repro.umpu.domain_tracker import (
    CROSS_DOMAIN_CALL_CYCLES,
    CROSS_DOMAIN_RET_CYCLES,
    DomainTracker,
)
from repro.umpu.mmc import MMC_STALL_CYCLES, MemMapController
from repro.umpu.registers import UmpuRegisters
from repro.umpu.runtime import build_umpu_runtime, umpu_runtime_source
from repro.umpu.safe_stack_unit import SafeStackUnit
from repro.umpu.system import UmpuSystem

__all__ = [
    "GateCountRow",
    "PAPER_TABLE6",
    "Structure",
    "baseline_core_area",
    "core_growth",
    "domain_tracker_area",
    "fetch_decoder_area",
    "fixed_config_savings",
    "gate_count_table",
    "glue_area",
    "mmc_area",
    "safe_stack_area",
    "HarborLayout",
    "UmpuMachine",
    "CROSS_DOMAIN_CALL_CYCLES",
    "CROSS_DOMAIN_RET_CYCLES",
    "DomainTracker",
    "MMC_STALL_CYCLES",
    "MemMapController",
    "UmpuRegisters",
    "SafeStackUnit",
    "build_umpu_runtime",
    "umpu_runtime_source",
    "UmpuSystem",
]
