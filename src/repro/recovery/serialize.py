"""State capture/restore for every mutable component of the merging stack.

A checkpoint must reproduce a run *bit-for-bit* after restore, so these
functions serialise not just the logical state (frames, page tables,
trees) but every piece of incidental state that subsequent execution can
observe:

* the physical allocator's free list **in order** (``allocate`` pops
  from the tail, so a reordered free list hands out different PPNs);
* rmap sharer sets **in iteration order** (rebuilt by inserting in that
  order, the restored sets iterate identically);
* red-black tree *shape and colors* (walk paths, comparison counts and
  Scan-Table batches all depend on the exact structure);
* the Scan Table's PFE (the driver skips re-inserting a candidate whose
  PPN is already resident) and the engine's half-assembled hash key;
* every RNG stream, DRAM open-row array, pending-read buffer and stats
  counter, so even pure telemetry fingerprints match.

Everything is reduced to JSON-safe types (ints, floats, strings, lists,
dicts, None); page bytes travel base64-encoded and the checkpoint layer
compresses the whole payload.
"""

import base64
from dataclasses import asdict, fields

import numpy as np

from repro.ksm.daemon import KSMPassStats, _Candidate
from repro.ksm.rbtree import RBNode
from repro.mem.frame import PageFrame
from repro.mem.requests import AccessSource

#: Bump whenever the serialised layout changes incompatibly.
STATE_FORMAT_VERSION = 1


def jsonify(value):
    """Recursively coerce numpy scalars/arrays to plain Python types."""
    if isinstance(value, dict):
        return {k: jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()]
    return value


def _b64(array):
    return base64.b64encode(np.ascontiguousarray(array).tobytes()).decode(
        "ascii"
    )


def _unb64(text):
    return np.frombuffer(
        base64.b64decode(text.encode("ascii")), dtype=np.uint8
    ).copy()


def _stats_dict(stats):
    return jsonify(asdict(stats))


def _restore_dataclass(instance, data):
    for f in fields(instance):
        if f.name in data:
            setattr(instance, f.name, data[f.name])
    return instance


def _source_key(key):
    """AccessSource enum -> stable string key."""
    return key.value if isinstance(key, AccessSource) else str(key)


def _source_from_key(key):
    try:
        return AccessSource(key)
    except ValueError:
        return key


# ---------------------------------------------------------------------------
# Physical memory + hypervisor
# ---------------------------------------------------------------------------

def capture_memory(memory):
    return {
        "capacity_pages": memory.capacity_pages,
        "next_ppn": memory._next_ppn,
        "free_ppns": list(memory._free_ppns),
        "peak_allocated": memory.peak_allocated,
        "total_allocations": memory.total_allocations,
        "total_frees": memory.total_frees,
        "frames": [
            {
                "ppn": ppn,
                "data": _b64(frame.data),
                "refcount": frame.refcount,
                "writes": frame.writes,
                "reads": frame.reads,
            }
            for ppn, frame in memory._frames.items()
        ],
    }


def restore_memory(memory, state):
    if memory.capacity_pages != state["capacity_pages"]:
        raise ValueError(
            f"capacity mismatch: {memory.capacity_pages} != "
            f"{state['capacity_pages']}"
        )
    memory._frames.clear()
    for spec in state["frames"]:
        frame = PageFrame(spec["ppn"], data=_unb64(spec["data"]))
        frame.refcount = spec["refcount"]
        frame.writes = spec["writes"]
        frame.reads = spec["reads"]
        memory._frames[frame.ppn] = frame
    memory._next_ppn = state["next_ppn"]
    memory._free_ppns = list(state["free_ppns"])
    memory.peak_allocated = state["peak_allocated"]
    memory.total_allocations = state["total_allocations"]
    memory.total_frees = state["total_frees"]
    return memory


def capture_hypervisor(hyp):
    return {
        "memory": capture_memory(hyp.memory),
        "next_vm_id": hyp._next_vm_id,
        "stats": _stats_dict(hyp.stats),
        "vms": [
            {
                "vm_id": vm.vm_id,
                "name": vm.name,
                "pinned_core": vm.pinned_core,
                "mappings": [
                    [m.gpn, m.ppn, m.mergeable, m.cow, m.category]
                    for m in vm._table.values()
                ],
            }
            for vm in hyp.vms.values()
        ],
        "rmap": [
            [ppn, [list(pair) for pair in sharers]]
            for ppn, sharers in hyp._rmap.items()
            if sharers
        ],
        "cow_ppns": list(hyp._cow_ppns),
    }


def restore_hypervisor(hyp, state):
    """Restore into a freshly constructed, empty hypervisor."""
    from repro.virt.vm import VirtualMachine

    restore_memory(hyp.memory, state["memory"])
    hyp.vms.clear()
    for vm_spec in state["vms"]:
        vm = VirtualMachine(vm_spec["vm_id"], name=vm_spec["name"])
        vm.pinned_core = vm_spec["pinned_core"]
        for gpn, ppn, mergeable, cow, category in vm_spec["mappings"]:
            mapping = vm.map_page(
                gpn, ppn, mergeable=mergeable, category=category
            )
            mapping.cow = cow
        hyp.vms[vm.vm_id] = vm
    hyp._next_vm_id = state["next_vm_id"]
    _restore_dataclass(hyp.stats, state["stats"])
    hyp._rmap.clear()
    for ppn, sharers in state["rmap"]:
        for vm_id, gpn in sharers:
            hyp._rmap[ppn].add((vm_id, gpn))
    hyp._cow_ppns = set()
    for ppn in state["cow_ppns"]:
        hyp._cow_ppns.add(ppn)
    return hyp


# ---------------------------------------------------------------------------
# KSM daemon (trees, checksums, pass queue)
# ---------------------------------------------------------------------------

def _encode_tree(tree):
    nil = tree._nil

    def encode(node):
        if node is nil:
            return None
        return {
            "c": node.color,
            "p": list(node.payload),
            "l": encode(node.left),
            "r": encode(node.right),
        }

    return encode(tree.root)


def _node_key_fn(daemon, payload):
    if payload[0] == "stable":
        return daemon._stable_key_fn(payload[1])
    if payload[0] == "unstable":
        return daemon._unstable_key_fn(payload[1], payload[2])
    raise ValueError(f"unknown payload: {payload!r}")


def _decode_tree(tree, daemon, encoded):
    nil = tree._nil
    count = 0

    def decode(spec, parent):
        nonlocal count
        if spec is None:
            return nil
        payload = tuple(spec["p"])
        node = RBNode(_node_key_fn(daemon, payload), payload=payload)
        node.color = spec["c"]
        node.parent = parent
        node.left = decode(spec["l"], node)
        node.right = decode(spec["r"], node)
        count += 1
        return node

    tree.root = decode(encoded, nil)
    tree._size = count
    tree._batches.clear()
    return tree


def capture_daemon(daemon):
    return {
        "stable_tree": _encode_tree(daemon.stable_tree),
        "unstable_tree": _encode_tree(daemon.unstable_tree),
        "checksums": [
            [vm_id, gpn, value]
            for (vm_id, gpn), value in daemon._checksums.items()
        ],
        "pass_queue": [[c.vm_id, c.gpn] for c in daemon._pass_queue],
        "pass_index": daemon._pass_index,
        "total_merges": daemon.total_merges,
        "pass_merges_at_start": daemon._pass_merges_at_start,
        "stats": _stats_dict(daemon.stats),
        "pass_history": [_stats_dict(p) for p in daemon.pass_history],
    }


def restore_daemon(daemon, state):
    _decode_tree(daemon.stable_tree, daemon, state["stable_tree"])
    _decode_tree(daemon.unstable_tree, daemon, state["unstable_tree"])
    daemon._checksums = {
        (vm_id, gpn): value for vm_id, gpn, value in state["checksums"]
    }
    daemon._pass_queue.clear()
    for vm_id, gpn in state["pass_queue"]:
        daemon._pass_queue.append(_Candidate(vm_id, gpn))
    daemon._pass_index = state["pass_index"]
    daemon.total_merges = state["total_merges"]
    daemon._pass_merges_at_start = state["pass_merges_at_start"]
    _restore_dataclass(daemon.stats, state["stats"])
    daemon.pass_history = [
        KSMPassStats(**p) for p in state["pass_history"]
    ]
    return daemon


# ---------------------------------------------------------------------------
# Memory controller, DRAM, ECC
# ---------------------------------------------------------------------------

def capture_controller(controller):
    dram = controller.dram
    return {
        "stats": {
            "reads_by_source": {
                _source_key(k): v
                for k, v in controller.stats.reads_by_source.items()
            },
            "writes_by_source": {
                _source_key(k): v
                for k, v in controller.stats.writes_by_source.items()
            },
            "coalesced_requests": controller.stats.coalesced_requests,
            "network_serviced": controller.stats.network_serviced,
            "dram_serviced": controller.stats.dram_serviced,
            "expired_reads": controller.stats.expired_reads,
        },
        "pending_reads": [
            [addr, t] for addr, t in controller._pending_reads.items()
        ],
        "ecc_stats": _stats_dict(controller.ecc.stats),
        "dram": {
            "open_rows": list(dram._open_rows),
            "stats": {
                "reads": dram.stats.reads,
                "writes": dram.stats.writes,
                "row_hits": dram.stats.row_hits,
                "row_misses": dram.stats.row_misses,
                "bytes_by_source": dict(dram.stats.bytes_by_source),
            },
            "bandwidth": [
                [bucket, dict(by_src)]
                for bucket, by_src in dram.bandwidth._buckets.items()
            ],
        },
    }


def restore_controller(controller, state):
    cs = state["stats"]
    controller.stats.reads_by_source.clear()
    for key, value in cs["reads_by_source"].items():
        controller.stats.reads_by_source[_source_from_key(key)] = value
    controller.stats.writes_by_source.clear()
    for key, value in cs["writes_by_source"].items():
        controller.stats.writes_by_source[_source_from_key(key)] = value
    controller.stats.coalesced_requests = cs["coalesced_requests"]
    controller.stats.network_serviced = cs["network_serviced"]
    controller.stats.dram_serviced = cs["dram_serviced"]
    controller.stats.expired_reads = cs["expired_reads"]
    controller._pending_reads = {
        addr: t for addr, t in state["pending_reads"]
    }
    _restore_dataclass(controller.ecc.stats, state["ecc_stats"])

    dram = controller.dram
    ds = state["dram"]
    dram._open_rows = list(ds["open_rows"])
    dram.stats.reads = ds["stats"]["reads"]
    dram.stats.writes = ds["stats"]["writes"]
    dram.stats.row_hits = ds["stats"]["row_hits"]
    dram.stats.row_misses = ds["stats"]["row_misses"]
    dram.stats.bytes_by_source.clear()
    for key, value in ds["stats"]["bytes_by_source"].items():
        dram.stats.bytes_by_source[key] = value
    dram.bandwidth._buckets.clear()
    for bucket, by_src in ds["bandwidth"]:
        for src, n in by_src.items():
            dram.bandwidth._buckets[int(bucket)][src] = n
    return controller


# ---------------------------------------------------------------------------
# PageForge engine, Scan Table, driver strategy
# ---------------------------------------------------------------------------

def capture_driver(driver):
    engine = driver.engine
    table = engine.table
    pfe = table.pfe
    return {
        "backend": driver.backend,
        "controller": capture_controller(engine.controller),
        "scan_table": {
            "pfe": {
                "valid": pfe.valid,
                "ppn": pfe.ppn,
                "hash_key": pfe.hash_key,
                "ptr": pfe.ptr,
                "scanned": pfe.scanned,
                "duplicate": pfe.duplicate,
                "hash_ready": pfe.hash_ready,
                "last_refill": pfe.last_refill,
            },
            "entries": [
                [e.valid, e.ppn, e.less, e.more] for e in table.entries
            ],
        },
        "keygen_minikeys": {
            str(section): value
            for section, value in engine.keygen._minikeys.items()
        },
        "engine_stats": _stats_dict(engine.stats),
        "strategy": {
            "now": driver.strategy.now,
            "cycles_consumed": driver.strategy.cycles_consumed,
            "table_refills": driver.strategy.table_refills,
            "fault_stats": _stats_dict(driver.strategy.fault_stats),
        },
        "daemon": capture_daemon(driver.daemon),
    }


def restore_driver(driver, state):
    # Backend first: it rewires the daemon's strategy/checksum hooks,
    # which restore_daemon's tree rebuild does not depend on.
    driver.set_backend(state["backend"])
    restore_controller(driver.engine.controller, state["controller"])

    table = driver.engine.table
    ts = state["scan_table"]
    _restore_dataclass(table.pfe, ts["pfe"])
    for entry, (valid, ppn, less, more) in zip(table.entries, ts["entries"]):
        entry.valid = valid
        entry.ppn = ppn
        entry.less = less
        entry.more = more

    driver.engine.keygen._minikeys = {
        int(section): value
        for section, value in state["keygen_minikeys"].items()
    }
    engine_stats = dict(state["engine_stats"])
    table_cycles = engine_stats.pop("table_cycles")
    _restore_dataclass(driver.engine.stats, engine_stats)
    driver.engine.stats.table_cycles = list(table_cycles)

    st = state["strategy"]
    driver.strategy.now = st["now"]
    driver.strategy.cycles_consumed = st["cycles_consumed"]
    driver.strategy.table_refills = st["table_refills"]
    _restore_dataclass(driver.strategy.fault_stats, st["fault_stats"])

    restore_daemon(driver.daemon, state["daemon"])
    return driver


# ---------------------------------------------------------------------------
# ESX-style hash-bucket merger
# ---------------------------------------------------------------------------

def capture_esx(merger):
    # Bucket keys are raw jhash ints; a JSON dict would stringify them,
    # so both buckets and the pending queue travel as ordered pair
    # lists.  Queue entries are reduced to (vm_id, gpn) and re-resolved
    # against the restored hypervisor's live mapping objects.
    return {
        "stats": _stats_dict(merger.stats),
        "buckets": [
            [key, list(ppns)] for key, ppns in merger._buckets.items()
        ],
        "queue": [
            [vm.vm_id, mapping.gpn] for vm, mapping in merger._queue
        ],
    }


def restore_esx(merger, state):
    _restore_dataclass(merger.stats, state["stats"])
    merger._buckets = {
        int(key): list(ppns) for key, ppns in state["buckets"]
    }
    hyp = merger.hypervisor
    merger._queue = [
        (hyp.vms[vm_id], hyp.vms[vm_id].mapping(gpn))
        for vm_id, gpn in state["queue"]
        if vm_id in hyp.vms and hyp.vms[vm_id].is_mapped(gpn)
    ]
    return merger


# ---------------------------------------------------------------------------
# Fault injector + governor
# ---------------------------------------------------------------------------

def capture_injector(injector):
    return {
        "stats": _stats_dict(injector.stats),
        "line_rng": injector._line_rng.get_state(),
        "walk_rng": injector._walk_rng.get_state(),
        "vm_rng": injector._vm_rng.get_state(),
    }


def restore_injector(injector, state):
    _restore_dataclass(injector.stats, state["stats"])
    injector._line_rng.set_state(state["line_rng"])
    injector._walk_rng.set_state(state["walk_rng"])
    injector._vm_rng.set_state(state["vm_rng"])
    return injector


def capture_governor(governor):
    return {
        "backend": governor.backend,
        "ewma": governor.ewma,
        "transitions": [list(t) for t in governor.transitions],
        "intervals_degraded": governor.intervals_degraded,
        "interval_index": governor._interval_index,
        "healthy_probes": governor._healthy_probes,
        "last_events": governor._last_events,
        "last_lines": governor._last_lines,
    }


def restore_governor(governor, state):
    governor.backend = state["backend"]
    governor.ewma = state["ewma"]
    governor.transitions = [tuple(t) for t in state["transitions"]]
    governor.intervals_degraded = state["intervals_degraded"]
    governor._interval_index = state["interval_index"]
    governor._healthy_probes = state["healthy_probes"]
    governor._last_events = state["last_events"]
    governor._last_lines = state["last_lines"]
    return governor


# ---------------------------------------------------------------------------
# Write churner (used by the checkpointable savings runner)
# ---------------------------------------------------------------------------

def capture_churner(churner):
    return {
        "fraction_per_tick": churner.fraction_per_tick,
        "stamp": churner._stamp,
        "writes_issued": churner.writes_issued,
        "rng": churner.rng.get_state(),
    }


def restore_churner(churner, state):
    churner.fraction_per_tick = state["fraction_per_tick"]
    churner._stamp = state["stamp"]
    churner.writes_issued = state["writes_issued"]
    churner.rng.set_state(state["rng"])
    return churner


def page_digests(hypervisor):
    """blake2b-8 digest of every mapped guest page, keyed "vm:gpn"."""
    import hashlib

    digests = {}
    for vm_id, vm in hypervisor.vms.items():
        for mapping in vm.mappings():
            frame = hypervisor.memory.frame(mapping.ppn)
            digests[f"{vm_id}:{mapping.gpn}"] = hashlib.blake2b(
                frame.data.tobytes(), digest_size=8
            ).hexdigest()
    return digests
