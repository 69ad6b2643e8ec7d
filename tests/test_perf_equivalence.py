"""Vectorized-vs-scalar bit-for-bit equivalence properties.

Every hot path the bench harness times has a scalar reference
implementation; these properties pin the vectorized versions to them
bit-for-bit, so a throughput optimisation can never silently change a
merge decision, an ECC code, a checksum, or an event dispatch order.
"""

import math
from collections import Counter, deque
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cache import CoreCacheHierarchy, SetAssocCache, SnoopBus
from repro.cache.bus import ProbeResult
from repro.cache.mesi import MESIState
from repro.common.config import (
    CacheConfig,
    MachineConfig,
    PageForgeConfig,
    ProcessorConfig,
)
from repro.common.units import PAGE_BYTES
from repro.core import (
    PageForgeAPI,
    PageForgeEngine,
    PageForgeTreeStrategy,
    miss_sentinel,
)
from repro.core.hashkey import ecc_hash_key
from repro.core.scan_table import ScanTableCorruption
from repro.ecc.engine import ECCEngine
from repro.ecc.hamming import (
    CODEWORD_BITS,
    DecodeStatus,
    _encode_words_swar,
    decode_word,
    encode_line,
    encode_page,
    encode_words,
    inject_error,
)
from repro.ksm.compare import (
    _first_mismatch,
    compare_pages,
    compare_pages_scalar,
)
from repro.ksm.daemon import KSMDaemon, StaleNodeError, node_ppn_resolver
from repro.ksm.jhash import jhash2, jhash2_batch, page_checksum
from repro.ksm.rbtree import ContentRBTree, RBNode, WalkOutcome
from repro.mem import MemoryController, PhysicalMemory
from repro.mem.dram import DRAMModel
from repro.mem.requests import AccessSource
from repro.recovery.serialize import capture_controller, restore_controller
from repro.sim.backends import CacheCostSink
from repro.sim.engine import EventQueue
from repro.sim.memmodel import MemoryModel
from repro.sim.system import SimulationScale
from repro.virt import Hypervisor

# Page pairs: a shared prefix of random length, then independent tails —
# exercises equal pages, early divergence, and deep divergence.
_page_pairs = st.tuples(
    st.integers(0, PAGE_BYTES),      # shared prefix length
    st.integers(0, 2**32 - 1),       # content seed
    st.booleans(),                   # force-equal pair
)


def _make_pair(prefix_len, seed, equal):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 256, size=PAGE_BYTES, dtype=np.uint8)
    if equal:
        return a, a.copy()
    b = a.copy()
    tail = rng.integers(0, 256, size=PAGE_BYTES - prefix_len, dtype=np.uint8)
    b[prefix_len:] = tail
    return a, b


@given(_page_pairs)
@settings(max_examples=60)
def test_compare_pages_matches_scalar(params):
    a, b = _make_pair(*params)
    assert compare_pages(a, b) == compare_pages_scalar(a, b)
    assert compare_pages(b, a) == compare_pages_scalar(b, a)
    # bytes and ndarray inputs agree (the walk fast path passes bytes).
    assert compare_pages(a.tobytes(), b.tobytes()) == compare_pages(a, b)


def _first_mismatch_reference(a, b):
    """The first differing index, one byte at a time."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return None


def _diverging_pages(position, seed, noisy_tail, size=PAGE_BYTES):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 256, size=size, dtype=np.uint8)
    b = a.copy()
    b[position] ^= np.uint8(rng.integers(1, 256))
    if noisy_tail:
        b[position + 1:] = rng.integers(0, 256, size=size - position - 1,
                                        dtype=np.uint8)
    return a.tobytes(), b.tobytes()


# Edges of the first 64-byte probe, of the 128-byte XOR window and of
# the binary search's halves, and powers of four.
@pytest.mark.parametrize(
    "position", [0, 1, 63, 64, 65, 127, 128, 255, 256, 1023, 1024, 2047,
                 2048, 3584, 4095]
)
@pytest.mark.parametrize("noisy_tail", [False, True])
def test_first_mismatch_at_probe_edges(position, noisy_tail):
    for seed in range(4):
        a, b = _diverging_pages(position, seed, noisy_tail)
        assert _first_mismatch(a, b) == position
        assert _first_mismatch(b, a) == _first_mismatch_reference(a, b)


@given(st.integers(0, PAGE_BYTES - 1), st.integers(0, 2**32 - 1),
       st.booleans(), st.sampled_from([PAGE_BYTES, 1, 8, 64, 100, 1000]))
@settings(max_examples=200)
def test_first_mismatch_matches_byte_loop(position, seed, noisy_tail, size):
    position %= size
    a, b = _diverging_pages(position, seed, noisy_tail, size)
    assert _first_mismatch(a, b) == _first_mismatch_reference(a, b)
    assert _first_mismatch(a, b) == position


@given(st.integers(0, 2**32 - 1), st.integers(1, 600))
@settings(max_examples=40)
def test_encode_words_matches_swar(seed, n_words):
    words = np.random.default_rng(seed).integers(
        0, 2**64, size=n_words, dtype=np.uint64
    )
    np.testing.assert_array_equal(
        encode_words(words), _encode_words_swar(words)
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_ecc_hash_key_cached_codes_match_fresh_encode(seed):
    page = np.random.default_rng(seed).integers(
        0, 256, size=PAGE_BYTES, dtype=np.uint8
    )
    codes = encode_page(page)
    assert ecc_hash_key(page) == ecc_hash_key(page, codes=codes)


def _decode_line_reference(line_bytes, stored_code):
    """SECDED line decode with a fresh encode of every line."""
    line = np.array(line_bytes, dtype=np.uint8, copy=True)
    words = line.view(np.uint64)
    stored = np.asarray(stored_code, dtype=np.uint8)
    ok, corrected = True, 0
    for idx in np.nonzero(encode_words(words) != stored)[0]:
        outcome = decode_word(int(words[idx]), int(stored[idx]))
        if outcome.status in (DecodeStatus.CORRECTED,
                              DecodeStatus.PARITY_BIT_ERROR):
            words[idx] = np.uint64(outcome.word)
            corrected += 1
        elif outcome.status is DecodeStatus.UNCORRECTABLE:
            ok = False
    return line, ok, corrected


@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(0, 7),
                       st.integers(0, CODEWORD_BITS - 1)), max_size=3),
)
@settings(max_examples=80)
def test_memoized_line_decode_matches_fresh_encode(seed, flips):
    line = np.random.default_rng(seed).integers(
        0, 256, size=64, dtype=np.uint8
    )
    code = encode_line(line)
    engine = ECCEngine()
    engine.decode_line(line, code)  # the clean bytes are memoized now
    words = line.copy().view(np.uint64)
    checks = code.copy()
    for word, bit in flips:
        w, c = inject_error(int(words[word]), int(checks[word]), bit)
        words[word], checks[word] = np.uint64(w), np.uint8(c)
    damaged = words.view(np.uint8)
    for _ in range(2):  # a memo miss, then a hit
        out, ok = engine.decode_line(damaged, checks)
        ref, ref_ok, _corrected = _decode_line_reference(damaged, checks)
        assert ok == ref_ok
        np.testing.assert_array_equal(out, ref)
    _ref, _ok, corrected = _decode_line_reference(damaged, checks)
    assert engine.stats.words_corrected == 2 * corrected
    assert engine.stats.lines_decoded == 3


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 300))
@settings(max_examples=25)
def test_jhash2_batch_matches_scalar_rows(seed, n_rows, n_words):
    rows = np.random.default_rng(seed).integers(
        0, 2**32, size=(n_rows, n_words), dtype=np.uint32
    )
    batch = jhash2_batch(rows, 17)
    for i in range(n_rows):
        assert int(batch[i]) == jhash2(rows[i], 17)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15)
def test_page_checksum_is_jhash2_of_window(seed):
    page = np.random.default_rng(seed).integers(
        0, 256, size=PAGE_BYTES, dtype=np.uint8
    )
    assert page_checksum(page, n_bytes=1024, initval=17) == jhash2(
        np.ascontiguousarray(page[:1024]).view(np.uint32), 17
    )


# Event times drawn from a tiny grid so ties are common — the property
# is about FIFO stability under ties, not about ordering distinct times.
_event_times = st.lists(
    st.integers(0, 4).map(lambda t: t / 4.0), min_size=0, max_size=60
)


@given(_event_times)
@settings(max_examples=60)
def test_schedule_batch_dispatch_order_matches_per_call(times):
    def dispatch_order(loader):
        q = EventQueue()
        order = []
        loader(q, order)
        q.run()
        return order

    def per_call(q, order):
        for i, t in enumerate(times):
            q.schedule(t, order.append, (t, i))

    def batched(q, order):
        q.schedule_batch(
            (t, order.append, ((t, i),)) for i, t in enumerate(times)
        )

    def split(q, order):
        # Half per-call, half batched into a non-empty heap: exercises
        # the heapify path with the same global sequence numbering.
        half = len(times) // 2
        for i, t in enumerate(times[:half]):
            q.schedule(t, order.append, (t, i))
        q.schedule_batch(
            (t, order.append, ((t, half + i),))
            for i, t in enumerate(times[half:])
        )

    reference = dispatch_order(per_call)
    assert dispatch_order(batched) == reference
    assert dispatch_order(split) == reference


@given(_event_times, _event_times)
@settings(max_examples=30)
def test_schedule_batch_interleaved_with_run(first, second):
    """Bulk loads landing mid-run must merge into the live heap."""
    order = []
    q = EventQueue()

    def load_second():
        q.schedule_batch(
            (q.now + t, order.append, (("second", t, i),))
            for i, t in enumerate(second)
        )

    q.schedule(0.0, load_second)
    for i, t in enumerate(first):
        q.schedule(t, order.append, ("first", t, i))
    q.run()
    assert len(order) == len(first) + len(second)
    times_seen = [t for _tag, t, _i in order]
    assert times_seen == sorted(times_seen)


# PageForge line path: the bus presence index, the batched controller
# read and the engine's batched compare, each against the per-line path.

_TINY_L1 = CacheConfig(name="L1", size_bytes=4 * 64, ways=2,
                       round_trip_cycles=2, mshrs=4)
_TINY_L2 = CacheConfig(name="L2", size_bytes=8 * 64, ways=2,
                       round_trip_cycles=6, mshrs=4)
_TINY_L3 = CacheConfig(name="L3", size_bytes=16 * 64, ways=4,
                       round_trip_cycles=20, mshrs=4, shared=True)
_STATES = list(MESIState)


def _scan_probe(bus, addr, exclude_core=None):
    """The ordered snoop scan, without the presence index."""
    for core_id, caches in bus._private:
        if core_id == exclude_core:
            continue
        for cache in caches:
            state = cache.peek(addr)
            if state is not None and state.can_supply:
                return ProbeResult(hit=True, supplier=f"core-{core_id}",
                                   was_dirty=state.is_dirty)
    if bus.l3 is not None:
        state = bus.l3.peek(addr)
        if state is not None and state.can_supply:
            return ProbeResult(hit=True, supplier="L3",
                               was_dirty=state.is_dirty)
    return ProbeResult(hit=False)


def _registered_caches(bus):
    caches = [cache for _core, level in bus._private for cache in level]
    return caches + ([bus.l3] if bus.l3 is not None else [])


def _recount(bus):
    counts = Counter()
    for cache in _registered_caches(bus):
        for cache_set in cache._sets:
            counts.update(cache_set.keys())
    return dict(counts)


# Line addresses over three pages: small enough that tiny caches evict
# and that probes hit resident lines often.
_addrs = st.integers(0, 3 * 64 - 1)
_cache_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "lookup", "set_state", "invalidate",
                         "invalidate_page", "register"]),
        st.integers(0, 6),       # which cache (mod the registered count)
        _addrs,
        st.sampled_from(_STATES),
    ),
    max_size=80,
)


@given(_cache_ops, st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_bus_presence_index_tracks_every_registered_cache(ops, preload):
    bus = SnoopBus()
    for core_id in range(2):
        bus.register_private(core_id, [SetAssocCache(_TINY_L1),
                                       SetAssocCache(_TINY_L2)])
    bus.register_shared(SetAssocCache(_TINY_L3))
    # A core whose caches already hold lines when it registers.
    late = [SetAssocCache(_TINY_L1), SetAssocCache(_TINY_L2)]
    for i in range(preload * 5):
        late[i % 2].insert((i * 7) % (3 * 64), MESIState.SHARED)
    for op, which, addr, state in ops:
        caches = _registered_caches(bus)
        cache = caches[which % len(caches)]
        if op == "insert":
            cache.insert(addr, state)
        elif op == "lookup":
            cache.lookup(addr)
        elif op == "set_state":
            cache.set_state(addr, state)
        elif op == "invalidate":
            cache.invalidate(addr)
        elif op == "invalidate_page":
            cache.invalidate_page(addr // 64)
        elif late is not None:
            bus.register_private(2, late)
            late = None
        assert bus._presence == _recount(bus)
        for exclude in (None, 0, 1, 2):
            probes = bus.snoop_probes
            assert bus.probe(addr, exclude) == _scan_probe(bus, addr, exclude)
            assert bus.snoop_probes == probes + 1


def _scan_read_shared(bus, addr, requesting_core):
    """``SnoopBus.read_shared`` as an ordered scan of every cache."""
    result = ProbeResult(hit=False)
    for core_id, caches in bus._private:
        if core_id == requesting_core:
            continue
        for cache in caches:
            state = cache.peek(addr)
            if state is not None and state.can_supply:
                if state in (MESIState.MODIFIED, MESIState.EXCLUSIVE):
                    cache.set_state(addr, MESIState.SHARED)
                result = ProbeResult(hit=True, supplier=f"core-{core_id}",
                                     was_dirty=state.is_dirty)
    if bus.l3 is not None and not result.hit:
        state = bus.l3.peek(addr)
        if state is not None:
            result = ProbeResult(hit=True, supplier="L3",
                                 was_dirty=state.is_dirty)
    bus.snoop_probes += 1
    return result


def _scan_read_exclusive(bus, addr, requesting_core):
    """``SnoopBus.read_exclusive`` as an ordered scan of every cache."""
    result = ProbeResult(hit=False)
    for core_id, caches in bus._private:
        if core_id == requesting_core:
            continue
        for cache in caches:
            state = cache.peek(addr)
            if state is not None and state.is_valid:
                dirty = cache.invalidate(addr)
                result = ProbeResult(hit=True, supplier=f"core-{core_id}",
                                     was_dirty=dirty)
    bus.snoop_probes += 1
    return result


def _scan_invalidate_page(cache, ppn):
    """``SetAssocCache.invalidate_page`` as one invalidate per line."""
    dirty_any = False
    for line_index in range(64):
        dirty_any |= cache.invalidate(ppn * 64 + line_index)
    return dirty_any


def _scan_invalidate_page_everywhere(bus, ppn):
    for cache in _registered_caches(bus):
        _scan_invalidate_page(cache, ppn)


def _cache_state(cache):
    """Every set's entries in LRU order, plus the cache's stats."""
    return (
        [[(addr, e.state, e.owner) for addr, e in cache_set.items()]
         for cache_set in cache._sets],
        _stats(cache.stats),
    )


def _bus_state(bus, standalone):
    return (
        [_cache_state(cache) for cache in _registered_caches(bus)],
        _cache_state(standalone),
        bus.snoop_probes, bus.supplied_from_cache, dict(bus._presence),
    )


_coherence_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "lookup", "set_state", "invalidate",
                         "read_shared", "read_exclusive", "invalidate_page",
                         "invalidate_page_everywhere"]),
        st.integers(0, 6),       # which registered cache
        st.integers(0, 3),       # requesting core (3 = none registered)
        # Five lines on each of three pages: ops often find a line
        # resident, and the tiny caches still evict.
        st.builds(lambda page, line: page * 64 + line,
                  st.integers(0, 2), st.sampled_from([0, 1, 5, 32, 63])),
        st.sampled_from(_STATES),
    ),
    max_size=80,
)


@given(_coherence_ops)
@settings(max_examples=80, deadline=None)
def test_bus_presence_shortcuts_match_ordered_scan(ops):
    """read_shared, read_exclusive and invalidate_page skip the cache
    scan for an address no registered cache holds; the result must be
    the ordered scan's, down to states, LRU order and stats.  A
    standalone cache (no bus) keeps its per-line loop."""
    runs = []
    for shortcut in (True, False):
        bus = SnoopBus()
        for core_id in range(3):
            bus.register_private(core_id, [SetAssocCache(_TINY_L1),
                                           SetAssocCache(_TINY_L2)])
        bus.register_shared(SetAssocCache(_TINY_L3))
        standalone = SetAssocCache(_TINY_L2)
        if shortcut:
            read_shared, read_exclusive = bus.read_shared, bus.read_exclusive
            invalidate_page = SetAssocCache.invalidate_page
            everywhere = bus.invalidate_page_everywhere
        else:
            read_shared = partial(_scan_read_shared, bus)
            read_exclusive = partial(_scan_read_exclusive, bus)
            invalidate_page = _scan_invalidate_page
            everywhere = partial(_scan_invalidate_page_everywhere, bus)
        trace = []
        for op, which, core, addr, state in ops:
            cache = _registered_caches(bus)[which]
            if op == "insert":
                # The standalone cache sees every insert, and every
                # page invalidation below.
                out = (cache.insert(addr, state),
                       standalone.insert(addr, state))
            elif op == "lookup":
                out = cache.lookup(addr)
            elif op == "set_state":
                out = cache.set_state(addr, state)
            elif op == "invalidate":
                out = cache.invalidate(addr)
            elif op == "read_shared":
                out = read_shared(addr, core)
            elif op == "read_exclusive":
                out = read_exclusive(addr, core)
            elif op == "invalidate_page":
                out = (invalidate_page(cache, addr // 64),
                       invalidate_page(standalone, addr // 64))
            else:
                out = everywhere(addr // 64)
            trace.append((out, _bus_state(bus, standalone)))
            assert bus._presence == _recount(bus)
        runs.append(trace)
    assert runs[0] == runs[1]


# Scan-Table refill: the one-pass load against today's BFS reference.


def _reference_load_batch(api, hypervisor, tree, start_node):
    """A Scan-Table load as a deque BFS with an ``id()`` index, a
    ``clear_entries`` pass, and one ``insert_PPN`` per node after a
    ``node.key()`` staleness test."""
    capacity = api.table.n_entries
    nodes, children = [], []
    frontier = deque([start_node])
    while frontier and len(nodes) < capacity:
        node = frontier.popleft()
        left, right = tree.children(node)
        nodes.append(node)
        children.append((left, right))
        if left is not None:
            frontier.append(left)
        if right is not None:
            frontier.append(right)
    index_of = {id(node): i for i, node in enumerate(nodes)}
    api.clear_entries()
    is_last = True
    for i, (node, (left, right)) in enumerate(zip(nodes, children)):
        if left is not None and id(left) in index_of:
            less = index_of[id(left)]
        else:
            less = miss_sentinel(i, "left")
            if left is not None:
                is_last = False
        if right is not None and id(right) in index_of:
            more = index_of[id(right)]
        else:
            more = miss_sentinel(i, "right")
            if right is not None:
                is_last = False
        node.key()  # raises StaleNodeError for a stale node
        if node.payload[0] == "stable":
            ppn = node.payload[1]
        else:
            _tag, vm_id, gpn = node.payload
            ppn = hypervisor.vms[vm_id].mapping(gpn).ppn
        api.insert_PPN(i, ppn, less, more)
    return nodes, is_last


_N_VMS, _GPNS, _N_STABLE = 3, 12, 16
_N_PAGES = _N_VMS * _GPNS + _N_STABLE  # guest pages first, then stable


def _stale_tree(seed, n_members, removed, stale_ops):
    """A mixed stable/unstable tree with daemon key functions, some of
    whose nodes then go stale in each of the four ways."""
    rng = np.random.default_rng(seed)
    memory = PhysicalMemory((_N_PAGES + 8) * PAGE_BYTES)
    hypervisor = Hypervisor(physical_memory=memory)
    daemon = KSMDaemon(hypervisor)
    vms = [hypervisor.create_vm(f"vm{i}") for i in range(_N_VMS)]
    # Pages share a prefix of random length, so compares go deep.
    base = rng.integers(0, 256, size=PAGE_BYTES, dtype=np.uint8)
    contents = []
    for _ in range(_N_PAGES):
        page = base.copy()
        cut = int(rng.integers(0, PAGE_BYTES))
        page[cut:] = rng.integers(0, 256, size=PAGE_BYTES - cut,
                                  dtype=np.uint8)
        contents.append(page)
    nodes = []
    for k in range(_N_PAGES):
        if k < _N_VMS * _GPNS:
            vm, gpn = vms[k // _GPNS], k % _GPNS
            hypervisor.populate_page(vm, gpn, contents[k], mergeable=True)
            nodes.append(RBNode(daemon._unstable_key_fn(vm.vm_id, gpn),
                                payload=("unstable", vm.vm_id, gpn)))
        else:
            frame = memory.allocate()
            frame.fill(contents[k])
            nodes.append(RBNode(daemon._stable_key_fn(frame.ppn),
                                payload=("stable", frame.ppn)))
    tree = ContentRBTree("mixed")
    inserted = []
    for k in rng.permutation(_N_PAGES)[:n_members]:
        if tree.insert(nodes[k]).match is None:
            inserted.append(nodes[k])
    for k in removed:
        if len(inserted) > 1:
            tree.remove(inserted.pop(k % len(inserted)))
    for how, k in stale_ops:
        node = inserted[k % len(inserted)]
        if node.payload[0] == "stable":
            if memory.is_allocated(node.payload[1]):
                memory.decref(node.payload[1])  # the stable frame frees
            continue
        _tag, vm_id, gpn = node.payload
        vm = hypervisor.vms.get(vm_id)
        if vm is None or not vm.is_mapped(gpn):
            continue
        if how == "destroy":
            hypervisor.destroy_vm(vm)
        elif how == "unmap":
            vm.unmap(gpn)
        else:  # merge it into another live page: both turn CoW
            other = vms[(vm_id + 1) % _N_VMS]
            if other.vm_id in hypervisor.vms and other.is_mapped(gpn):
                hypervisor.merge_pages(other, gpn, vm, gpn, verify=False)
    return hypervisor, tree, nodes


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, _N_PAGES),                 # pages inserted
    st.lists(st.integers(0, _N_PAGES), max_size=6),   # then removed
    st.lists(st.tuples(st.sampled_from(["destroy", "unmap", "merge"]),
                       st.integers(0, _N_PAGES)), max_size=3),
    st.lists(st.integers(0, _N_PAGES), min_size=1, max_size=6),
    st.sampled_from([3, 7, 31]),
)
@settings(max_examples=60, deadline=None)
def test_one_pass_refill_matches_bfs_reference(
        seed, n_members, removed, stale_ops, starts, n_entries):
    hypervisor, tree, nodes = _stale_tree(
        seed, n_members, removed, stale_ops
    )
    memory = hypervisor.memory
    config = PageForgeConfig(other_pages_entries=n_entries)

    def api():
        mc = MemoryController(0, memory, verify_ecc=False)
        return PageForgeAPI(PageForgeEngine(mc, config=config))

    strategy = PageForgeTreeStrategy(api(), hypervisor)
    reference_api = api()
    reference_refills = 0
    in_order = list(tree)
    for pick in starts:
        start = tree.root if pick == 0 else in_order[pick % len(in_order)]
        table = strategy.api.table
        before = [vars(e).copy() for e in table.entries]
        try:
            batch = strategy._load_batch(tree, start)
        except StaleNodeError as exc:
            with pytest.raises(StaleNodeError) as ref_exc:
                _reference_load_batch(reference_api, hypervisor, tree, start)
            assert str(exc) == str(ref_exc.value)
            # Resolved before any write: the table is as it was.
            assert [vars(e) for e in table.entries] == before
        else:
            ref_nodes, ref_last = _reference_load_batch(
                reference_api, hypervisor, tree, start
            )
            reference_refills += 1
            assert batch.nodes == ref_nodes
            assert batch.is_last == ref_last
            assert [vars(e) for e in table.entries] == [
                vars(e) for e in reference_api.table.entries
            ]
        assert strategy.table_refills == reference_refills
    # The resolver raises exactly where the key function does, and
    # otherwise names the frame the key reads.
    resolve = node_ppn_resolver(hypervisor)
    for node in nodes:
        try:
            key = node.key()
        except StaleNodeError as exc:
            with pytest.raises(StaleNodeError) as res_exc:
                resolve([node])
            assert str(res_exc.value) == str(exc)
        else:
            assert memory.frame(resolve([node])[0]).content_bytes == key


@given(
    st.lists(st.tuples(st.integers(0, 2**20), st.integers(-1, 400),
                       st.integers(-1, 400)), max_size=7),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 2**20)),
             max_size=7),
)
@settings(max_examples=40, deadline=None)
def test_fill_entries_matches_clear_and_insert(rows, prior):
    def fresh_api():
        memory = PhysicalMemory(PAGE_BYTES)
        mc = MemoryController(0, memory, verify_ecc=False)
        config = PageForgeConfig(other_pages_entries=7)
        api = PageForgeAPI(PageForgeEngine(mc, config=config))
        for index, ppn in prior:  # a previous load's leftovers
            api.insert_PPN(index, ppn, index, index)
        return api

    filled, reference = fresh_api(), fresh_api()
    filled.fill_entries(rows)
    reference.clear_entries()
    for i, (ppn, less, more) in enumerate(rows):
        reference.insert_PPN(i, ppn, less, more)
    assert [vars(e) for e in filled.table.entries] == [
        vars(e) for e in reference.table.entries
    ]
    with pytest.raises(ValueError):
        filled.fill_entries(rows + [(0, -1, -1)] * (8 - len(rows)))


# The tree's Scan-Table batch cache against uncached loads.

_CACHE_KEYS = 96
_CACHE_LIMITS = (1, 3, 7, 31)


class _CachedTreeMachine:
    """A stable tree whose node ``k`` holds a page ordered by ``k``,
    loaded by one driver strategy per table size (sharing the tree's
    batch cache) and by the deque-BFS reference."""

    def __init__(self):
        memory = PhysicalMemory(_CACHE_KEYS * PAGE_BYTES)
        self.hypervisor = Hypervisor(physical_memory=memory)
        self.nodes = []
        for k in range(_CACHE_KEYS):
            frame = memory.allocate()
            page = np.zeros(PAGE_BYTES, dtype=np.uint8)
            page[:2] = (k >> 8, k & 0xFF)
            frame.fill(page)
            self.nodes.append(RBNode(lambda f=frame: f.content_bytes,
                                     payload=("stable", frame.ppn)))
        self.tree = ContentRBTree("cached")

        def api(limit):
            mc = MemoryController(0, memory, verify_ecc=False)
            config = PageForgeConfig(other_pages_entries=limit)
            return PageForgeAPI(PageForgeEngine(mc, config=config))

        self.strategies = {
            limit: PageForgeTreeStrategy(api(limit), self.hypervisor)
            for limit in _CACHE_LIMITS
        }
        self.references = {limit: api(limit) for limit in _CACHE_LIMITS}
        # One link builder at every limit: the cache must key on both.
        self.shared_build = self.strategies[31]._batch_links

    def insert(self, k):
        node = self.nodes[k]
        if node.parent is None:  # not in the tree
            self.tree.insert(node)

    def apply(self, op):
        kind, args = op[0], op[1:]
        tree = self.tree
        if kind == "insert":
            for k in args[0]:
                self.insert(k)
        elif kind == "run":  # sorted runs force one rotation case each
            base, count, step = args
            for i in range(count):
                self.insert((base + i * step) % _CACHE_KEYS)
        elif kind == "remove":
            members = list(tree)
            if members:
                tree.remove(members[args[0] % len(members)])
        elif kind == "reset":  # then the old root returns, as a leaf
            old_root = tree.root if len(tree) else None
            for node in tree:
                node.parent = None
            tree.reset()
            if old_root is not None:
                tree.insert(old_root)
        elif kind == "load":
            self.load(*args)
        elif kind == "shape":
            self.shape(*args)
        else:  # cache a batch at every node, so any rotation meets one
            for node in list(tree):
                self.check(node, args[0], self.shared_build)

    def start(self, path):
        """The node reached from the root by ``path`` (True = left),
        stopping at a leaf; None for an empty tree."""
        tree = self.tree
        if not len(tree):
            return None
        node = tree.root
        for go_left in path:
            child = tree.children(node)[0 if go_left else 1]
            if child is None:
                break
            node = child
        return node

    def load(self, path, limit):
        """A driver load, against the uncached shape and the reference."""
        tree = self.tree
        start = self.start(path)
        if start is None:
            return
        strategy = self.strategies[limit]
        batch = strategy._load_batch(tree, start)
        ref_batch, _less, _more = strategy._batch_links(
            *tree.breadth_first(start, limit)
        )
        assert batch.nodes == ref_batch.nodes
        assert batch.is_last == ref_batch.is_last
        reference = self.references[limit]
        bfs_nodes, bfs_last = _reference_load_batch(
            reference, self.hypervisor, tree, start
        )
        assert batch.nodes == bfs_nodes and batch.is_last == bfs_last
        assert [vars(e) for e in strategy.api.table.entries] == [
            vars(e) for e in reference.table.entries
        ]

    def shape(self, path, limit):
        """A cached shape under the shared builder."""
        start = self.start(path)
        if start is not None:
            self.check(start, limit, self.shared_build)

    def check(self, start, limit, build):
        tree = self.tree
        batch, less, more = tree.batch(start, limit, build)
        ref_nodes, children = tree.breadth_first(start, limit)
        ref_batch, ref_less, ref_more = build(ref_nodes, children)
        assert batch.nodes == ref_nodes
        assert (less, more) == (ref_less, ref_more)
        assert batch.is_last == ref_batch.is_last

    def check_cached(self):
        """Every cached batch of a node in the tree is still exact."""
        members = set(map(id, self.tree))
        for start, (limit, build, *_batch) in list(
                self.tree._batches.items()):
            if id(start) in members:
                self.check(start, limit, build)


_cache_key = st.integers(0, _CACHE_KEYS - 1)
_cache_start = st.lists(st.booleans(), max_size=5)
_cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.lists(_cache_key, max_size=8)),
        st.tuples(st.just("run"), _cache_key, st.integers(3, 24),
                  st.sampled_from([1, -1, 2, -3])),
        st.tuples(st.just("remove"), st.integers(0, _CACHE_KEYS)),
        st.tuples(st.just("reset")),
        st.tuples(st.just("load"), _cache_start,
                  st.sampled_from(_CACHE_LIMITS)),
        st.tuples(st.just("shape"), _cache_start,
                  st.sampled_from(_CACHE_LIMITS)),
        st.tuples(st.just("cache_all"), st.sampled_from(_CACHE_LIMITS)),
    ),
    min_size=1, max_size=40,
)


@given(_cache_ops)
# Random inserts under small cached batches: a recolouring climbs, then a
# rotation lands on a node whose batch missed the inserted node's parent.
@example([
    ("insert", [17, 72, 8, 32, 15, 63, 57, 60, 83, 48, 26, 12, 62, 3, 49,
                55, 77, 0, 89]),
    ("cache_all", 3),
    *[("insert", [k]) for k in (34, 29, 13, 40, 82, 2, 94)],
])
@settings(max_examples=80, deadline=None)
def test_cached_batches_match_uncached_loads(ops):
    """After inserts (with both rotation cases of the insert fixup),
    removes and resets, every cached load gives the nodes, links,
    ``is_last`` and table of an uncached one, and so does every batch
    the cache still holds."""
    machine = _CachedTreeMachine()
    for op in ops:
        machine.apply(op)
        machine.check_cached()
        machine.tree.validate()
        # Keep batches cached near the root, where rotations land, at
        # two limits of one builder.
        for path, limit in (([], 31), ([], 7), ([True], 3), ([False], 7)):
            machine.shape(path, limit)
        machine.load([], 31)


def test_cached_walk_after_insert_matches_fresh_strategy():
    """A strategy whose batches are cached walks as a freshly built one
    after an insert lands inside a cached batch."""
    machine = _CachedTreeMachine()
    tree = machine.tree
    for k in range(0, _CACHE_KEYS - 1, 2):  # even keys; 48 nodes: refills
        machine.insert(k)
    strategy = machine.strategies[31]
    memory = machine.hypervisor.memory

    def walk(walker, k):
        before = walker.table_refills
        outcome = walker.walk(tree, memory.frame(machine.nodes[k].payload[1]))
        return (
            outcome.match, outcome.parent, outcome.direction,
            outcome.comparisons, outcome.bytes_compared,
            walker.table_refills - before,
            [vars(e) for e in walker.api.table.entries],
        )

    first = walk(strategy, 61)
    assert first[0] is None and first[5] >= 2
    machine.insert(61)  # lands under the batch the walk fell off
    mc = MemoryController(0, memory, verify_ecc=False)
    fresh = PageForgeTreeStrategy(PageForgeAPI(PageForgeEngine(mc)),
                                  machine.hypervisor)
    # The cached strategy walks first: a fresh strategy's different
    # link builder displaces the batches it loads.
    keys = (63, 59, 61)
    assert [walk(strategy, k) for k in keys] == [walk(fresh, k) for k in keys]


@pytest.mark.parametrize("sampling", [1, 8])
@pytest.mark.parametrize("position", [0, 1, 63, 64, 1535, 4095, None])
def test_argmax_first_difference_matches_nonzero(position, sampling):
    """``process_table`` finds the first differing byte with ``argmax``
    of the inequality mask: the comparison's sign and lines compared are
    the ``nonzero`` rule's, and equal pages are a duplicate."""
    memory = PhysicalMemory(2 * PAGE_BYTES)
    rng = np.random.default_rng(sampling)
    a = rng.integers(0, 256, size=PAGE_BYTES, dtype=np.uint8)
    b = a.copy()
    if position is not None:
        b[position] ^= 0x5A
        b[position + 1:] = rng.integers(0, 256, size=PAGE_BYTES - position - 1,
                                        dtype=np.uint8)
    candidate, other = memory.allocate(), memory.allocate()
    candidate.fill(a)
    other.fill(b)
    mc = MemoryController(0, memory, verify_ecc=False)
    engine = PageForgeEngine(mc, line_sampling=sampling)
    api = PageForgeAPI(engine)
    api.fill_entries([(other.ppn, miss_sentinel(0, "left"),
                       miss_sentinel(0, "right"))])
    api.insert_PFE(candidate.ppn, last_refill=False, ptr=0)
    api.trigger()
    info = api.get_PFE_info()
    diffs = (a != b).nonzero()[0]
    if diffs.size:
        first = int(diffs[0])
        assert first == position
        direction = "left" if a[first] < b[first] else "right"
        assert not info.duplicate
        assert info.ptr == miss_sentinel(0, direction)
        assert engine.stats.line_pairs_compared == first // 64 + 1
    else:
        assert info.duplicate and info.ptr == 0
        assert engine.stats.line_pairs_compared == PAGE_BYTES // 64


def _frames_and_controller(seed, n_pages=3):
    memory = PhysicalMemory(n_pages * PAGE_BYTES)
    rng = np.random.default_rng(seed)
    for _ in range(n_pages):
        memory.allocate().fill(
            rng.integers(0, 256, size=PAGE_BYTES, dtype=np.uint8)
        )
    return memory, MemoryController(0, memory, verify_ecc=False)


def _stats(stats):
    """A stats dataclass as plain values (asdict cannot copy the
    lambda-backed defaultdicts)."""
    return {
        name: dict(value) if isinstance(value, dict) else value
        for name, value in vars(stats).items()
    }


def _controller_state(mc):
    dram = mc.dram
    return {
        "mc": _stats(mc.stats),
        "dram": _stats(dram.stats),
        "rows": list(dram._open_rows),
        "buckets": {b: dict(v) for b, v in dram.bandwidth._buckets.items()},
        "totals": list(dram.bandwidth._totals.items()),
        "pending": list(mc._pending_reads.items()),
        "reads": [f.reads for f in mc.memory.frames()],
    }


@given(st.integers(0, 2**22 - 1), st.integers(0, 63))
@settings(max_examples=200, deadline=None)
def test_page_geometry_matches_map_line(ppn, line):
    mc = MemoryController(0, PhysicalMemory(PAGE_BYTES), verify_ecc=False)
    _channel, bank, row = mc.dram.map_line(ppn, line)
    bank_tables = mc._bank_tables
    assert len(bank_tables) == 2  # Table 2's geometry
    assert bank_tables[ppn % len(bank_tables)][line] == bank
    assert ppn // mc._pages_per_row == row


@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 2), min_size=1, max_size=2),
    st.sets(st.integers(0, 63), min_size=1, max_size=20),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 63),
                       st.integers(-40, 400)), max_size=24),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 63)), max_size=12),
    st.sampled_from([0, 8]),
    # The second start time lies 40 cycles before a bandwidth-window
    # boundary, so one call records into two windows.
    st.sampled_from([1e-6, 0.005 - 2e-8]),
    st.sampled_from([0, 128, 1024]),
    st.integers(1, 3),
)
@settings(max_examples=100, deadline=None)
def test_batched_page_read_matches_per_line_reads(
        seed, ppns, lines, pending, warm, step, time_seconds, traffic,
        n_calls):
    """A read session's lockstep reads and deferred accounting leave the
    controller as the per-line ``read_line`` calls do."""
    lines = sorted(lines)
    runs = []
    for batched in (False, True):
        memory, mc = _frames_and_controller(seed)
        frequency = mc.dram.cpu_frequency_hz
        for ppn, line in warm:  # open rows
            mc.dram.access_line(ppn, line, False, "core", 0.0)
        for ppn, line, cycles in pending:  # in flight or already done
            mc._pending_reads[(ppn << 6) | line] = (
                time_seconds + cycles / frequency
            )
        session = mc.read_session(AccessSource.PAGEFORGE)
        latencies = []
        # Later calls start where the previous one ended, so they
        # coalesce with its reads, before one flush.
        start = time_seconds
        for _ in range(n_calls):
            if batched:
                latency = session.read(
                    [memory.frame(ppn) for ppn in ppns], lines, start, step
                )
                if traffic:
                    session.add_traffic(start, traffic)
            else:
                latency = cycles = 0
                for line in lines:
                    now = start + cycles / frequency
                    slowest = max(
                        mc.read_line(ppn, line, AccessSource.PAGEFORGE,
                                     now)[0].latency
                        for ppn in ppns
                    )
                    latency += slowest
                    cycles += slowest + step
                if traffic:
                    mc.dram.stats.bytes_by_source["pageforge"] += traffic
                    mc.dram.bandwidth.record(start, traffic, "pageforge")
            latencies.append(latency)
            start += (latency + len(lines) * step) / frequency
        coalesced = session.flush() if batched else mc.stats.coalesced_requests
        runs.append((latencies, coalesced, _controller_state(mc)))
    assert runs[0] == runs[1]


def test_reused_read_session_follows_restored_controller():
    """A controller's read session is reused across tables; after a
    restore rebinds the pending-read buffer and the open rows, its reads
    time as a fresh controller's do."""
    memory, mc = _frames_and_controller(5)
    fresh_memory, fresh = _frames_and_controller(5)
    frames = [memory.frame(ppn) for ppn in (0, 1)]
    fresh_frames = [fresh_memory.frame(ppn) for ppn in (0, 1)]
    session = mc.read_session(AccessSource.PAGEFORGE)
    session.read(frames, range(0, 64, 8), 0.0, 8)
    session.flush()
    assert mc.pending_reads and mc.read_session(AccessSource.PAGEFORGE) is session
    restore_controller(mc, capture_controller(fresh))
    latencies = [
        controller.read_session(AccessSource.PAGEFORGE).read(
            page_frames, range(0, 64, 8), 0.0, 8
        )
        for controller, page_frames in ((mc, frames), (fresh, fresh_frames))
    ]
    assert latencies[0] == latencies[1]
    assert list(mc._pending_reads.items()) == list(
        fresh._pending_reads.items()
    )
    assert mc.dram._open_rows == fresh.dram._open_rows


def _noop_fault_hook(ppn, line_index, data, code):
    return data, code, 0


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, 4, 8]),
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 63),
                       st.sampled_from(_STATES)), max_size=20),
    st.integers(1, 6),
    # Tables starting just before a bandwidth-window boundary record
    # into two windows.
    st.sampled_from([0.0, 0.005 - 2e-7]),
    st.integers(0, 5),
)
@settings(max_examples=40, deadline=None)
def test_engine_batched_compare_matches_per_line(seed, sampling, cached,
                                                 n_tables, start, corrupt):
    """The fused Scan-Table walk leaves everything as the per-line path.

    The reference arms a no-op fault hook, which sends every read of
    every table through ``_fetch_line`` (and, at ``line_sampling=1``,
    lets the fetched data decide each comparison).  Table ``corrupt``
    (if any) loops its links back onto its first entry, so its walk
    raises ``ScanTableCorruption`` after two comparisons; the table
    and the accounting flushed at the raise must match too.
    """
    n_pages = 12
    runs = []
    for forced_per_line in (False, True):
        rng = np.random.default_rng(seed)
        memory = PhysicalMemory(n_pages * PAGE_BYTES)
        base = rng.integers(0, 256, size=PAGE_BYTES, dtype=np.uint8)
        for i in range(n_pages):
            page = base.copy()
            if i % 4:  # every fourth page is a duplicate of the base
                cut = int(rng.integers(0, PAGE_BYTES))
                page[cut:] = rng.integers(0, 256, size=PAGE_BYTES - cut,
                                          dtype=np.uint8)
            memory.allocate().fill(page)
        bus = SnoopBus()
        l3 = SetAssocCache(ProcessorConfig().l3)
        bus.register_shared(l3)
        private = SetAssocCache(_TINY_L2)
        bus.register_private(0, [private])
        for i, (ppn, line, state) in enumerate(cached):
            (l3 if i % 2 else private).insert(ppn * 64 + line, state)
        mc = MemoryController(0, memory, verify_ecc=False)
        if forced_per_line:
            mc.fault_hook = _noop_fault_hook
        engine = PageForgeEngine(mc, bus=bus, line_sampling=sampling)
        api = PageForgeAPI(engine)
        outcomes = []
        for t in range(n_tables):
            candidate = int(rng.integers(0, n_pages))
            if t == corrupt:
                # Two entries unlike the candidate: 0 -> 1 -> 0.
                unlike = [
                    ppn for ppn in range(n_pages)
                    if not memory.frame(ppn).same_contents(
                        memory.frame(candidate))
                ]
                for i in range(2):
                    api.insert_PPN(i, int(rng.choice(unlike)), 1 - i, 1 - i)
            else:
                n_entries = int(rng.integers(1, 8))
                others = rng.integers(0, n_pages, size=n_entries)
                for i, ppn in enumerate(others):
                    # Links only point forward, so a walk never cycles.
                    less, more = (
                        int(rng.integers(i + 1, n_entries + 1))
                        for _ in range(2)
                    )
                    api.insert_PPN(
                        i, int(ppn),
                        less if less < n_entries
                        else miss_sentinel(i, "left"),
                        more if more < n_entries
                        else miss_sentinel(i, "right"),
                    )
            api.insert_PFE(candidate, last_refill=bool(rng.integers(0, 2)))
            # Tables start a few hundred cycles apart: earlier reads are
            # often still in flight, so requests coalesce.
            time_seconds = start + float(rng.integers(0, 400)) / 2e9
            if t == corrupt:
                with pytest.raises(ScanTableCorruption) as exc:
                    engine.process_table(time_seconds)
                outcomes.append((
                    str(exc.value), [vars(e) for e in api.table.entries],
                    _stats(engine.stats), _controller_state(mc),
                ))
            else:
                engine.process_table(time_seconds)
            outcomes.append(
                (api.get_PFE_info(), dict(engine.keygen._minikeys))
            )
            api.table.clear_entries()
        runs.append((
            outcomes, _stats(engine.stats),
            bus.snoop_probes, bus.supplied_from_cache,
            _controller_state(mc),
        ))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("sampling", [1, 8])
def test_fused_walk_flushes_before_per_line_reads(sampling):
    """A comparison that falls back to ``_fetch_line`` (a cached line)
    follows one on the read session across a bandwidth-window boundary:
    the session's buckets must reach the window first, as the per-line
    reads would have recorded them."""
    runs = []
    for forced_per_line in (False, True):
        memory, mc = _frames_and_controller(3, n_pages=3)
        candidate, first, second = (f.ppn for f in memory.frames())
        for ppn in (first, second):  # differ from the candidate late
            page = memory.frame(candidate).data.copy()
            page[-1 - ppn] ^= 0xFF
            memory.frame(ppn).fill(page)
        bus = SnoopBus()
        l3 = SetAssocCache(ProcessorConfig().l3)
        bus.register_shared(l3)
        l3.insert(second * 64, MESIState.SHARED)
        if forced_per_line:
            mc.fault_hook = _noop_fault_hook
        engine = PageForgeEngine(mc, bus=bus, line_sampling=sampling)
        api = PageForgeAPI(engine)
        api.insert_PPN(0, first, 1, 1)
        api.insert_PPN(1, second, miss_sentinel(1, "left"),
                       miss_sentinel(1, "right"))
        api.insert_PFE(candidate, last_refill=True)
        engine.process_table(mc.dram.bandwidth.window_seconds - 1e-6)
        state = _controller_state(mc)
        assert len(state["totals"]) == 2
        runs.append((_stats(engine.stats), bus.snoop_probes, state))
    assert runs[0] == runs[1]


# KSM cost sink: one fused stream_pages call per hook against the
# per-line access loop it replaced.


class _PerLineCostSink:
    """The cost sink as it was before the fused kernel: one
    ``CoreCacheHierarchy.access`` per sampled line, and a path node
    resolved to ``None`` (skipped) when its page is gone."""

    SAMPLE = 16

    def __init__(self, system):
        self.system = system
        self.category = "other"
        self.reset()

    def reset(self):
        self.stall_cycles = 0.0
        self.stalls_by_category = {"compare": 0.0, "hash": 0.0}
        self.lines_streamed = 0

    def _stream(self, ppn, n_lines):
        system = self.system
        hierarchy = system.hierarchies[system.ksm_core]
        sample = self.SAMPLE
        base = ppn * 64
        sampled = 0
        sampled_misses = 0
        sampled_stall = 0
        for i in range(0, n_lines, sample):
            addr = base + (i % 64)
            result = hierarchy.access(addr, is_write=False, source="ksm")
            sampled += 1
            sampled_stall += result.latency_cycles
            if result.level == "MEM":
                sampled_misses += 1
            system.advance_mem_clock(result.latency_cycles)
        if sampled == 0:
            return
        measured_miss = sampled_misses / sampled
        floor = system.scale.scan_miss_floor
        miss_frac = max(measured_miss, floor)
        stall = sampled_stall * n_lines / sampled
        if measured_miss < floor:
            extra_misses = (floor - measured_miss) * n_lines
            miss_cost = (
                system.scale.core_memory_overhead_cycles
                + system.scale.dram_latency_cycles
            )
            stall += extra_misses * miss_cost
        self.stall_cycles += stall
        self.stalls_by_category[self.category] = (
            self.stalls_by_category.get(self.category, 0.0) + stall
        )
        unsampled = n_lines - sampled
        if unsampled > 0:
            dram_bytes = int(unsampled * 64 * miss_frac)
            if dram_bytes:
                system.dram.stats.bytes_by_source["ksm"] += dram_bytes
                system.dram.bandwidth.record(
                    system._mem_now, dram_bytes, "ksm"
                )
        self.lines_streamed += n_lines

    def _node_ppn(self, node):
        payload = node.payload
        hyp = self.system.hypervisor
        try:
            if payload[0] == "stable":
                if hyp.memory.is_allocated(payload[1]):
                    return payload[1]
                return None
            _tag, vm_id, gpn = payload
            vm = hyp.vms.get(vm_id)
            if vm is not None and vm.is_mapped(gpn):
                return vm.mapping(gpn).ppn
        except (KeyError, StaleNodeError):
            pass
        return None

    def on_walk(self, candidate_ppn, outcome):
        self.category = "compare"
        if not outcome.path:
            return
        per_node_bytes = outcome.bytes_compared / len(outcome.path)
        n_lines = max(1, math.ceil(per_node_bytes / 64))
        for node in outcome.path:
            node_ppn = self._node_ppn(node)
            if node_ppn is not None:
                self._stream(node_ppn, n_lines)
        self._stream(candidate_ppn, n_lines)

    def on_hash_bytes(self, ppn, n_bytes):
        self.category = "hash"
        self._stream(ppn, max(1, math.ceil(n_bytes / 64)))

    def on_merge_verify(self, ppn_a, ppn_b, n_bytes):
        self.category = "compare"
        n_lines = max(1, math.ceil(n_bytes / 64))
        self._stream(ppn_a, n_lines)
        self._stream(ppn_b, n_lines)


class _SinkMachine:
    """What a cost sink reads of ``ServerSystem``, on tiny caches: three
    cores, a 4-set L3, the timed memory model and a hypervisor whose
    pages back stable and unstable tree nodes."""

    N_PAGES = 6

    def __init__(self, sink_cls):
        proc = ProcessorConfig(n_cores=3, l1=_TINY_L1, l2=_TINY_L2,
                               l3=_TINY_L3)
        machine = MachineConfig(processor=proc)
        self.scale = SimulationScale()
        self.dram = DRAMModel(machine.dram,
                              cpu_frequency_hz=proc.frequency_hz)
        self.memmodel = MemoryModel(machine, self.scale, None, self.dram,
                                    proc.frequency_hz)
        self.bus = SnoopBus()
        self.l3 = SetAssocCache(proc.l3)
        self.bus.register_shared(self.l3)
        self.hierarchies = [
            CoreCacheHierarchy(i, proc, self.l3, self.bus,
                               memory_latency_fn=self.memmodel.core_miss_latency)
            for i in range(proc.n_cores)
        ]
        self.ksm_core = 0
        self.hypervisor = Hypervisor(capacity_bytes=8 * PAGE_BYTES)
        vm = self.hypervisor.create_vm("vm0")
        self.nodes, self.ppns = [], []
        for gpn in range(self.N_PAGES):
            ppn = self.hypervisor.touch_page(vm, gpn, mergeable=True).ppn
            payload = (("stable", ppn) if gpn % 2
                       else ("unstable", vm.vm_id, gpn))
            self.nodes.append(RBNode(lambda: b"", payload=payload))
            self.ppns.append(ppn)
        self.sink = sink_cls(self)

    @property
    def _mem_now(self):
        return self.memmodel.now_s

    def advance_mem_clock(self, cycles):
        self.memmodel.advance(cycles)

    def apply(self, op):
        kind, args = op[0], op[1:]
        sink = self.sink
        if kind == "walk":
            path, candidate, n_lines = args
            sink.on_walk(self.ppns[candidate], WalkOutcome(
                match=None, parent=None, direction="root",
                comparisons=len(path),
                bytes_compared=n_lines * 64 * len(path),
                path=[self.nodes[i] for i in path],
            ))
        elif kind == "hash":
            page, n_lines = args
            sink.on_hash_bytes(self.ppns[page], n_lines * 64)
        elif kind == "verify":
            page_a, page_b, n_lines = args
            sink.on_merge_verify(self.ppns[page_a], self.ppns[page_b],
                                 n_lines * 64 - 5)
        elif kind == "move":
            self.ksm_core = args[0]
        elif kind == "remote":
            core, page, line, write = args
            self.hierarchies[core].access(self.ppns[page] * 64 + line,
                                          is_write=write, source="app")
        elif kind == "invalid":
            page, line = args
            for cache in self._caches():
                cache.set_state(self.ppns[page] * 64 + line,
                                MESIState.INVALID)
        elif kind == "mshr":
            l2 = self.hierarchies[self.ksm_core].l2
            for _ in range(args[0]):
                l2.acquire_mshr()
        else:
            self.memmodel.touch(self.memmodel.now_s + args[0])

    def _caches(self):
        return [c for h in self.hierarchies for c in (h.l1, h.l2)] + [self.l3]

    def state(self):
        bandwidth = self.dram.bandwidth
        return (
            [_cache_state(cache) for cache in self._caches()],
            [h.l2._outstanding for h in self.hierarchies],
            dict(self.bus._presence), self.bus.snoop_probes,
            self.bus.supplied_from_cache,
            self.memmodel.now_s,
            _stats(self.dram.stats), list(self.dram._open_rows),
            {b: dict(v) for b, v in bandwidth._buckets.items()},
            list(bandwidth._totals.items()),
            self.sink.stall_cycles, dict(self.sink.stalls_by_category),
            self.sink.lines_streamed,
        )


_N_LINES = st.sampled_from([1, 15, 16, 17, 64])
_page = st.integers(0, _SinkMachine.N_PAGES - 1)
_sink_ops = st.lists(
    st.one_of(
        # Paths may repeat a page, and may hold the candidate.
        st.tuples(st.just("walk"), st.lists(_page, max_size=5), _page,
                  _N_LINES),
        st.tuples(st.just("hash"), _page, _N_LINES),
        st.tuples(st.just("verify"), _page, _page, _N_LINES),
        st.tuples(st.just("move"), st.integers(0, 2)),
        # Other cores' reads and writes: lines in private caches to
        # supply or demote, and MODIFIED lines for the L3 to write back.
        st.tuples(st.just("remote"), st.integers(0, 2), _page,
                  st.sampled_from([0, 16, 32, 48, 5]), st.booleans()),
        # INVALID entries left in the sets: a miss whose fills reuse them.
        st.tuples(st.just("invalid"), _page, st.sampled_from([0, 16])),
        st.tuples(st.just("mshr"), st.integers(1, 4)),
        st.tuples(st.just("tick"), st.sampled_from([1e-4, 0.003, 0.02])),
    ),
    min_size=1, max_size=30,
)


@given(_sink_ops)
@settings(max_examples=150, deadline=None)
def test_fused_cost_sink_matches_per_line_access(ops):
    """Each hook's one ``stream_pages`` call leaves caches, stats, the
    presence index, the bus counters, the memory clock, DRAM and
    bandwidth accounting and the sink's float sums exactly where the
    per-line ``access`` loop leaves them, after every call."""
    fused = _SinkMachine(CacheCostSink)
    per_line = _SinkMachine(_PerLineCostSink)
    assert fused.state() == per_line.state()
    for op in ops:
        fused.apply(op)
        per_line.apply(op)
        assert fused.state() == per_line.state()
