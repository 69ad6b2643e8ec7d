"""A core: its id and busy-time accounting."""

from dataclasses import dataclass


@dataclass
class CoreStats:
    """Busy-time accounting for one core."""

    query_busy_s: float = 0.0
    kernel_busy_s: float = 0.0
    queries_served: int = 0
    kernel_slices: int = 0

    def utilization(self, elapsed_s):
        if elapsed_s <= 0:
            return 0.0
        return (self.query_busy_s + self.kernel_busy_s) / elapsed_s

    def kernel_share(self, elapsed_s):
        """Fraction of wall time spent in kernel work (Table 4 col 2)."""
        if elapsed_s <= 0:
            return 0.0
        return self.kernel_busy_s / elapsed_s


class Core:
    """One out-of-order core: its id and busy-time accounting.

    The per-core FIFO that serialises queries and kernel work lives in
    :class:`~repro.sim.load.LoadGenerator`, which charges each item's
    service time to ``stats``.
    """

    def __init__(self, core_id):
        self.core_id = core_id
        self.stats = CoreStats()

    def __repr__(self):
        return f"Core(id={self.core_id})"
