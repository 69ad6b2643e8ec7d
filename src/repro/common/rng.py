"""Deterministic random-number plumbing.

Every stochastic component (memory-image synthesis, arrival processes,
write churn) draws from a :class:`DeterministicRNG` derived from a single
experiment seed, so that whole experiments are reproducible bit-for-bit
and components do not perturb one another when added or removed.
"""

import hashlib

import numpy as np


class DeterministicRNG:
    """A named, seeded wrapper around :class:`numpy.random.Generator`.

    The ``name`` participates in seeding so that two components given the
    same base seed but different names produce independent streams.
    """

    def __init__(self, seed, name="root"):
        self.seed = int(seed)
        self.name = str(name)
        material = f"{self.seed}:{self.name}".encode("utf-8")
        digest = hashlib.sha256(material).digest()
        self._gen = np.random.Generator(
            np.random.PCG64(int.from_bytes(digest[:8], "little"))
        )

    @property
    def generator(self):
        """The underlying :class:`numpy.random.Generator`."""
        return self._gen

    def derive(self, name):
        """A new independent RNG whose stream is keyed by ``name``."""
        return DeterministicRNG(self.seed, f"{self.name}/{name}")

    # Checkpointing -------------------------------------------------------------

    def get_state(self):
        """The underlying PCG64 state as a JSON-serialisable dict.

        Capturing and later restoring the state resumes the stream at
        the exact draw where it was captured — the property the recovery
        subsystem's crash-equivalence guarantee rests on.
        """
        return self._gen.bit_generator.state

    def set_state(self, state):
        """Restore a state captured by :meth:`get_state`."""
        self._gen.bit_generator.state = state

    # Convenience pass-throughs -------------------------------------------------

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high=high, size=size)

    def random(self, size=None):
        return self._gen.random(size=size)

    def exponential(self, scale, size=None):
        return self._gen.exponential(scale, size=size)

    def lognormal(self, mean, sigma, size=None):
        return self._gen.lognormal(mean, sigma, size=size)

    def choice(self, options, size=None, replace=True, p=None):
        return self._gen.choice(options, size=size, replace=replace, p=p)

    def shuffle(self, array):
        self._gen.shuffle(array)

    def bytes_array(self, n_bytes):
        """Uniformly random bytes as a ``uint8`` numpy array."""
        return self._gen.integers(0, 256, size=n_bytes, dtype=np.uint8)

