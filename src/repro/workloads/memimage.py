"""Synthetic VM memory images with realistic inter-VM duplication.

The paper's Figure 7 decomposes every VM's pages into three populations:

* **Unmergeable** (~45%): unique contents, or contents that change too
  frequently to merge.  We synthesise both kinds — truly unique pages and
  *churn* pages that are duplicated across VMs but rewritten continuously,
  so the hash-stability check (Algorithm 1, line 12) keeps rejecting them.
* **Mergeable Zero** (~5%): zero pages left over from hypervisor
  first-touch zeroing; they all merge into a single frame.
* **Mergeable Non-Zero** (~50%): OS, library, package, and dataset pages
  shared with co-located VMs.  Most are common to *all* VMs running the
  same image (the paper compresses them to 6.6% of the original), the
  rest to smaller VM subsets.

Content is real random bytes; shared groups reuse the identical array, so
merging, hashing, and ECC keys operate on genuine data.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.common.units import PAGE_BYTES

#: Bytes every generated page shares before diverging (guest images).
COMMON_PREFIX_BYTES = 1536


class ContentFactory:
    """Generates page contents with realistic cross-page similarity.

    Real OS/library pages are not uniformly random: distinct pages often
    share long common prefixes (struct layouts, padding, zero runs), so a
    memcmp-ordered tree walk reads hundreds of bytes before diverging,
    and two *different* pages can agree on any 1 KB window — the source
    of hash-key false positives (Figure 8).  The factory reproduces this
    by deriving pages from a pool of templates and mutating a few bytes
    at random offsets.
    """

    def __init__(self, rng, n_templates=24, mutations=(2, 6),
                 common_prefix_bytes=COMMON_PREFIX_BYTES):
        self.rng = rng
        self.common_prefix_bytes = int(common_prefix_bytes)
        # All templates share a common prefix (think: identical headers,
        # zero runs, struct layouts), so any two pages agree on at least
        # that much — a tree-walk comparison always reads hundreds of
        # bytes, which is why page comparison dominates KSM's runtime
        # (Table 4: 51.8% of the KSM process).
        common = rng.bytes_array(self.common_prefix_bytes)
        self.templates = []
        for _ in range(n_templates):
            t = rng.bytes_array(PAGE_BYTES)
            t[: self.common_prefix_bytes] = common
            self.templates.append(t)
        self.mutations = mutations

    def make(self):
        """A fresh page: a template copy with a few byte mutations.

        Mutations land beyond the common prefix, preserving the shared-
        prefix structure (the churner's later writes may land anywhere).
        """
        template = self.templates[
            int(self.rng.integers(0, len(self.templates)))
        ]
        page = template.copy()
        k = int(self.rng.integers(self.mutations[0], self.mutations[1] + 1))
        offsets = self.rng.integers(
            self.common_prefix_bytes, PAGE_BYTES, size=k
        )
        values = self.rng.integers(0, 256, size=k)
        for off, val in zip(offsets, values):
            page[int(off)] = np.uint8(val)
        return page


@dataclass(frozen=True)
class MemoryImageProfile:
    """Composition of one application's per-VM memory image."""

    n_pages_per_vm: int
    unmergeable_frac: float = 0.45
    zero_frac: float = 0.05
    # Of the mergeable non-zero pages: fraction shared by every VM vs by
    # a pair of VMs.  0.92/0.08 reproduces the paper's compression of the
    # mergeable population to ~13% of itself (6.6% of all pages) with
    # 10 VMs: 0.92/10 + 0.08/2 = 0.132.
    all_shared_frac: float = 0.92
    # Of the unmergeable pages: fraction that are duplicated but churn.
    churn_frac: float = 0.25

    def counts(self):
        """(unique, churn, zero, shared_all, pair_shared) pages per VM."""
        n = self.n_pages_per_vm
        n_um = int(round(n * self.unmergeable_frac))
        n_zero = int(round(n * self.zero_frac))
        n_mg = n - n_um - n_zero
        n_churn = int(round(n_um * self.churn_frac))
        n_unique = n_um - n_churn
        n_all = int(round(n_mg * self.all_shared_frac))
        n_pair = n_mg - n_all
        return n_unique, n_churn, n_zero, n_all, n_pair

    @classmethod
    def for_app(cls, app_config, n_pages_per_vm):
        """Profile matching an :class:`ApplicationConfig`'s page mix."""
        return cls(
            n_pages_per_vm=n_pages_per_vm,
            unmergeable_frac=app_config.unmergeable_frac,
            zero_frac=app_config.zero_frac,
        )


@dataclass
class BuiltImages:
    """Result of building all VM images for one application."""

    vms: List[object]
    profile: MemoryImageProfile
    churn_pages: List[Tuple[int, int]]  # (vm_id, gpn)
    category_gpns: Dict[str, range] = field(default_factory=dict)

    @property
    def n_vms(self):
        return len(self.vms)

    def expected_merged_footprint(self, churn_active=False):
        """Steady-state frame count merging should reach (for checks).

        ``churn_active=True`` models a running :class:`WriteChurner`:
        churn pages are rewritten faster than they can stabilise, so
        they stay private.  Without churn they are identical across VMs
        and merge like any other duplicate.
        """
        n_unique, n_churn, n_zero, n_all, n_pair = self.profile.counts()
        n_vms = self.n_vms
        frames = n_unique * n_vms  # unique pages stay private
        if churn_active:
            frames += n_churn * n_vms
        else:
            frames += n_churn  # identical across VMs -> one frame each
        frames += 1 if n_zero and n_vms else 0  # all zero pages -> 1 frame
        frames += n_all  # one frame per all-shared content
        frames += n_pair * ((n_vms + 1) // 2)  # one frame per VM pair
        return frames


class WriteChurner:
    """Rewrites churn pages so they never stabilise.

    Each activation writes a fresh counter stamp into every selected
    churn page, changing its jhash/ECC checksum; pages that were merged
    by mistake get CoW-broken, restoring the pre-merge footprint.
    """

    def __init__(self, hypervisor, churn_pages, rng, fraction_per_tick=1.0):
        self.hypervisor = hypervisor
        self.churn_pages = list(churn_pages)
        self.rng = rng
        self.fraction_per_tick = fraction_per_tick
        self._stamp = 0
        self.writes_issued = 0

    def tick(self):
        """One churn round; returns the number of pages written."""
        if not self.churn_pages:
            return 0
        n = max(1, int(len(self.churn_pages) * self.fraction_per_tick))
        indices = self.rng.choice(
            len(self.churn_pages), size=min(n, len(self.churn_pages)),
            replace=False,
        )
        self._stamp += 1
        stamp = np.frombuffer(
            np.int64(self._stamp).tobytes(), dtype=np.uint8
        ).copy()
        written = 0
        for idx in np.atleast_1d(indices):
            vm_id, gpn = self.churn_pages[int(idx)]
            vm = self.hypervisor.vms[vm_id]
            offset = int(self.rng.integers(0, PAGE_BYTES - stamp.size))
            self.hypervisor.guest_write(vm, gpn, offset, stamp)
            written += 1
        self.writes_issued += written
        return written


def build_vm_images(hypervisor, profile, n_vms, rng, name_prefix="vm",
                    mergeable=True, common_prefix_bytes=COMMON_PREFIX_BYTES):
    """Create and populate ``n_vms`` VM images under ``hypervisor``.

    Guest address layout (identical across VMs, as identical guest images
    produce): ``[unique | churn | zero | shared-all | pair-shared]``.
    Every non-zero page shares its first ``common_prefix_bytes`` bytes
    (see :class:`ContentFactory`).  Returns a :class:`BuiltImages`.
    """
    n_unique, n_churn, n_zero, n_all, n_pair = profile.counts()
    factory = ContentFactory(
        rng.derive("content-factory"), common_prefix_bytes=common_prefix_bytes
    )

    # Pre-generate shared contents once so VMs genuinely share bytes.
    shared_all_contents = [factory.make() for _ in range(n_all)]
    # Pair-shared contents: one per (page slot, VM pair).
    pair_contents = {
        (slot, pair): factory.make()
        for slot in range(n_pair)
        for pair in range((n_vms + 1) // 2)
    }
    # Churn contents start duplicated across VMs (they would merge if
    # they ever held still).
    churn_contents = [factory.make() for _ in range(n_churn)]

    vms = []
    churn_pages = []
    for vm_index in range(n_vms):
        vm = hypervisor.create_vm(
            name=f"{name_prefix}{vm_index}", pinned_core=vm_index
        )
        gpn = 0
        for _ in range(n_unique):
            hypervisor.populate_page(
                vm, gpn, factory.make(),
                category="unmergeable", mergeable=mergeable,
            )
            gpn += 1
        for slot in range(n_churn):
            hypervisor.populate_page(
                vm, gpn, churn_contents[slot],
                category="unmergeable", mergeable=mergeable,
            )
            churn_pages.append((vm.vm_id, gpn))
            gpn += 1
        for _ in range(n_zero):
            hypervisor.touch_page(
                vm, gpn, category="zero", mergeable=mergeable
            )
            gpn += 1
        for slot in range(n_all):
            hypervisor.populate_page(
                vm, gpn, shared_all_contents[slot],
                category="mergeable", mergeable=mergeable,
            )
            gpn += 1
        pair = vm_index // 2
        for slot in range(n_pair):
            hypervisor.populate_page(
                vm, gpn, pair_contents[(slot, pair)],
                category="mergeable", mergeable=mergeable,
            )
            gpn += 1
        vms.append(vm)

    layout = {}
    cursor = 0
    for cat, size in (
        ("unique", n_unique), ("churn", n_churn), ("zero", n_zero),
        ("shared_all", n_all), ("pair_shared", n_pair),
    ):
        layout[cat] = range(cursor, cursor + size)
        cursor += size

    return BuiltImages(
        vms=vms, profile=profile, churn_pages=churn_pages,
        category_gpns=layout,
    )
