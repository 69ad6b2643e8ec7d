"""Pluggable merge backends: the registry and its built-in entries.

Importing this package registers the five built-in configurations —
``baseline``, ``ksm``, ``pageforge`` (the paper's three) plus ``uksm``
and ``esx`` (Section 7.2's related designs) — so
``get_backend(name)`` is the single dispatch point everywhere a mode
string used to be compared, and :func:`offer_hints` the one way merge
hints reach any backend's :class:`MergerBundle`.
"""

# Importing the implementation modules is what registers them.
from repro.sim.backends.base import MergeBackend, MergerBundle, offer_hints
from repro.sim.backends.baseline import BaselineBackend
from repro.sim.backends.cachecost import CacheCostSink
from repro.sim.backends.esx import ESXBackend
from repro.sim.backends.ksm import KSMSoftwareBackend
from repro.sim.backends.pageforge import PageForgeBackend
from repro.sim.backends.registry import (
    available_backends,
    get_backend,
    recoverable_backends,
    register_backend,
)
from repro.sim.backends.uksm import UKSMBackend

__all__ = [
    "BaselineBackend",
    "CacheCostSink",
    "ESXBackend",
    "KSMSoftwareBackend",
    "MergeBackend",
    "MergerBundle",
    "PageForgeBackend",
    "UKSMBackend",
    "available_backends",
    "get_backend",
    "offer_hints",
    "recoverable_backends",
    "register_backend",
]
