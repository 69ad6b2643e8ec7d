"""Unified metrics: one registry over every component's counters.

Stats in this codebase grew per component — ``KSMTimingStats`` on the
simulated daemon, ``MemoryControllerStats`` on each controller,
``PageForgeStats`` on the engine, dataclass counters on the hypervisor
and DRAM model.  Each is the right *local* shape, but exporting them
used to mean every caller reaching into a different object with a
different layout.

:class:`MetricsRegistry` is the seam: components (and merge backends)
register named *providers* — zero-argument callables returning a dict or
a stats dataclass — and :meth:`MetricsRegistry.snapshot` flattens them
all into one ``{"provider/key": scalar}`` map.  That map is what
``analysis.export.metrics_to_rows`` serialises, so every backend's
telemetry leaves the simulator through a single path.

Only scalars survive flattening: nested dicts/dataclasses recurse into
``a/b/c`` keys, numpy scalars are coerced to Python numbers, and
non-scalar leaves (e.g. the engine's raw per-table cycle list) are
dropped — providers expose distributions through summary statistics
instead.
"""

from dataclasses import dataclass, is_dataclass


@dataclass
class KSMTimingStats:
    """Cycle attribution inside the KSM process (Table 4 columns 3-4)."""

    compare_cycles: float = 0.0
    hash_cycles: float = 0.0
    other_cycles: float = 0.0
    intervals: int = 0

    @property
    def total_cycles(self):
        return self.compare_cycles + self.hash_cycles + self.other_cycles

    def charge(self, compare, hashing, other):
        """Add one software scan interval's cycles."""
        self.compare_cycles += compare
        self.hash_cycles += hashing
        self.other_cycles += other
        self.intervals += 1

    def shares(self):
        total = self.total_cycles
        if total <= 0:
            return 0.0, 0.0, 0.0
        return (
            self.compare_cycles / total,
            self.hash_cycles / total,
            self.other_cycles / total,
        )


def summarize(values, percentiles=(95,)):
    """Collapse a sample list into flat summary scalars.

    Providers must expose scalars (``_flatten`` drops lists), so
    distribution-shaped telemetry — replication lag samples, latency
    histories — goes through this: ``{"count", "mean", "min", "max"}``
    plus one ``p<N>`` key per requested percentile (default ``p95``,
    matching the historical shape).  Fractional percentiles keep their
    shortest spelling (``p99.9``).  An empty sample yields all-zero
    stats rather than NaNs.
    """
    values = [float(v) for v in values]
    keys = [f"p{float(p):g}" for p in percentiles]
    if not values:
        out = {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0}
        out.update({key: 0.0 for key in keys})
        return out
    ordered = sorted(values)
    out = {
        "count": len(ordered),
        "mean": sum(ordered) / len(ordered),
        "min": ordered[0],
        "max": ordered[-1],
    }
    for p, key in zip(percentiles, keys):
        rank = min(len(ordered) - 1, int(float(p) / 100.0 * len(ordered)))
        out[key] = ordered[rank]
    return out


def _flatten(prefix, value, out):
    if is_dataclass(value) and not isinstance(value, type):
        # vars(), not asdict(): stats dataclasses hold defaultdict
        # fields that asdict cannot reconstruct; recursion handles the
        # nesting either way.
        value = vars(value)
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}/{key}", sub, out)
        return
    if hasattr(value, "item"):  # numpy scalar
        value = value.item()
    if isinstance(value, bool):
        out[prefix] = int(value)
    elif isinstance(value, (int, float, str)):
        out[prefix] = value
    # Anything else (lists, objects) is not a scalar metric: dropped.


class MetricsRegistry:
    """Named metric providers -> one flat snapshot.

    Providers are zero-argument callables returning a dict (possibly
    nested) or a stats dataclass; they are invoked lazily at snapshot
    time so registering one costs nothing during simulation.
    """

    def __init__(self):
        self._providers = {}

    def register(self, name, provider):
        """Register ``provider`` under ``name`` (replacing any previous).

        Returns the registry so component wiring can chain calls.
        """
        if not callable(provider):
            raise TypeError(f"provider for {name!r} must be callable")
        self._providers[name] = provider
        return self

    @property
    def names(self):
        return tuple(sorted(self._providers))

    def collect(self, name):
        """One provider's raw (unflattened) payload."""
        return self._providers[name]()

    def snapshot(self):
        """Every provider flattened into ``{"name/key": scalar}``."""
        out = {}
        for name in sorted(self._providers):
            _flatten(name, self._providers[name](), out)
        return out
