"""Deterministic fault injection and graceful degradation.

``plan``     — what to break and how often (:class:`FaultPlan`);
``injector`` — realises a plan against the memory controller's read path
               and the engine's Scan-Table walk (:class:`FaultInjector`;
               :func:`arm_bundle` arms one merge stack);
``governor`` — hysteretic PageForge -> software-KSM fallback
               (:class:`DegradationGovernor`);
``campaign`` — seeded chaos runs with per-interval invariant checks
               (:func:`run_fault_campaign`).
"""

from repro.faults.campaign import (
    CampaignResult,
    run_fault_campaign,
    run_fault_suite,
)
from repro.faults.governor import DegradationGovernor
from repro.faults.injector import (
    FaultInjectionStats,
    FaultInjector,
    ProcessCrash,
    arm_bundle,
)
from repro.faults.plan import FaultPlan

__all__ = [
    "CampaignResult",
    "DegradationGovernor",
    "FaultInjectionStats",
    "FaultInjector",
    "FaultPlan",
    "ProcessCrash",
    "arm_bundle",
    "run_fault_campaign",
    "run_fault_suite",
]
