"""MBus reproduction: an ultra-low power interconnect bus (ISCA 2015).

A full-system, laptop-scale reproduction of Pannuto et al.'s MBus:
the edge-accurate protocol simulator (:mod:`repro.core` on
:mod:`repro.sim`), power and energy models (:mod:`repro.power`),
baseline buses for comparison (:mod:`repro.baselines`), timing and
throughput analysis (:mod:`repro.timing`), synthesis area estimation
(:mod:`repro.synthesis`), an MCU bitbang cost model
(:mod:`repro.bitbang`), the paper's two microbenchmark systems
(:mod:`repro.systems`), a declarative scenario API
(:mod:`repro.scenario`) — JSON-round-trippable topology specs,
composable workloads, and a backend-agnostic runner with structured
reports — a deterministic fault-injection and reliability subsystem
(:mod:`repro.faults`) exercising the paper's robustness claims, and
a campaign layer (:mod:`repro.campaign`) that turns every parameter
study into content-addressed trials with pluggable serial/process
executors, an on-disk resumable result cache, and queryable result
sets.
"""

from repro.campaign import (
    Campaign,
    Grid,
    ResultSet,
    ResultStore,
    load_campaign,
)

from repro.core import (
    Address,
    ControlCode,
    MBusSystem,
    MBusTiming,
    Message,
    TransactionModel,
    TransactionResult,
)
from repro.faults import (
    BitFlip,
    ClockDrift,
    DropEdge,
    FaultSpec,
    NodePowerLoss,
    RandomGlitches,
    ReliabilityReport,
    StuckAt,
    WireGlitch,
    load_faults,
)
from repro.scenario import (
    Broadcast,
    Burst,
    Interrupt,
    NodeSpec,
    OneShot,
    Periodic,
    RandomTraffic,
    RunReport,
    SystemSpec,
    Workload,
    load_scenario,
    run,
)

__version__ = "1.0.0"

__all__ = [
    "Address",
    "ControlCode",
    "MBusSystem",
    "MBusTiming",
    "Message",
    "TransactionModel",
    "TransactionResult",
    "Campaign",
    "Grid",
    "ResultSet",
    "ResultStore",
    "load_campaign",
    "BitFlip",
    "ClockDrift",
    "DropEdge",
    "FaultSpec",
    "NodePowerLoss",
    "RandomGlitches",
    "ReliabilityReport",
    "StuckAt",
    "WireGlitch",
    "load_faults",
    "Broadcast",
    "Burst",
    "Interrupt",
    "NodeSpec",
    "OneShot",
    "Periodic",
    "RandomTraffic",
    "RunReport",
    "SystemSpec",
    "Workload",
    "load_scenario",
    "run",
    "__version__",
]
