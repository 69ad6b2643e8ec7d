"""The no-merging baseline: the paper's reference configuration."""

from repro.sim.backends.base import MergeBackend
from repro.sim.backends.registry import register_backend


@register_backend("baseline")
class BaselineBackend(MergeBackend):
    """Same-page merging disabled; every hook stays a no-op.

    The base class builds no bundle, schedules nothing, and registers
    no counters, so this class only exists to make "no merging" a
    first-class registry entry rather than a fall-through.  With no
    bundle the auditor wraps the bare hypervisor, and ``offer_hints``
    reports every user-guided merge hint as ignored rather than
    silently dropping it.
    """
