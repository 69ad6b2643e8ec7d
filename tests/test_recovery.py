"""Checkpointing, journaling, and crash-equivalent recovery."""

import json

import numpy as np
import pytest

from repro.common.io import atomic_write_bytes, atomic_write_text
from repro.common.rng import DeterministicRNG
from repro.common.units import PAGE_BYTES
from repro.faults import FaultPlan, ProcessCrash
from repro.recovery import (
    CheckpointCorrupt,
    CheckpointStore,
    JournalCorrupt,
    MergeJournal,
    RecoverableRun,
    RecoveryDivergence,
    ReplicationSession,
    RunSpec,
    dump_checkpoint,
    load_checkpoint,
    read_journal,
)
from repro.recovery import serialize
from repro.recovery.journal import encode_record
from repro.virt import Hypervisor


# ---------------------------------------------------------------------------
# Atomic writes + RNG state
# ---------------------------------------------------------------------------

def test_atomic_write_replaces_and_leaves_no_tmp(tmp_path):
    target = tmp_path / "out.bin"
    atomic_write_bytes(target, b"first")
    atomic_write_bytes(target, b"second")
    assert target.read_bytes() == b"second"
    atomic_write_text(target, "third")
    assert target.read_text() == "third"
    leftovers = [p for p in tmp_path.iterdir() if p.name != "out.bin"]
    assert leftovers == []


def test_rng_state_roundtrip_resumes_stream():
    rng = DeterministicRNG(42, "ckpt")
    rng.random(size=10)
    state = rng.get_state()
    expected = rng.random(size=5)
    fresh = DeterministicRNG(42, "ckpt")
    fresh.set_state(json.loads(json.dumps(state)))  # through JSON
    assert np.array_equal(fresh.random(size=5), expected)


# ---------------------------------------------------------------------------
# Checkpoint files
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_and_header(tmp_path):
    path = tmp_path / "c.pfck"
    state = {"a": [1, 2, 3], "b": {"x": "y"}}
    dump_checkpoint(path, state, step=7, journal_seq=99, meta={"k": 1})
    loaded, header = load_checkpoint(path)
    assert loaded == state
    assert header["step"] == 7
    assert header["journal_seq"] == 99
    assert header["meta"] == {"k": 1}


def test_checkpoint_corruption_detected(tmp_path):
    path = tmp_path / "c.pfck"
    dump_checkpoint(path, {"a": 1}, step=0)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF  # flip a payload bit
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(path)
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(__file__)  # bad magic


def test_store_falls_back_past_corrupt_newest(tmp_path):
    store = CheckpointStore(tmp_path, keep=3)
    store.save(1, {"v": 1})
    store.save(2, {"v": 2})
    # Truncate the newest file mid-payload (crash during a non-atomic
    # copy, disk rot, ...).
    newest = store.path_for(2)
    newest.write_bytes(newest.read_bytes()[:40])
    state, header = store.latest()
    assert state == {"v": 1}
    assert header["step"] == 1
    assert store.skipped_corrupt == 1


def test_store_prunes_to_keep(tmp_path):
    store = CheckpointStore(tmp_path, keep=2)
    for step in range(5):
        store.save(step, {"v": step})
    assert store.steps() == [3, 4]


# ---------------------------------------------------------------------------
# The merge journal
# ---------------------------------------------------------------------------

def test_journal_append_flush_and_read(rng, tmp_path):
    path = tmp_path / "j.jsonl"
    journal = MergeJournal(path, flush_every=2).open()
    journal._emit("merge", {"wv": 0, "wg": 1, "lv": 1, "lg": 1, "ppn": 5,
                            "digest": "aa"})
    journal._emit("merge", {"wv": 0, "wg": 2, "lv": 1, "lg": 2, "ppn": 6,
                            "digest": "bb"})  # triggers flush
    journal._emit("unmerge", {"v": 1, "g": 2, "ppn": 9})  # pending
    journal.close()  # close flushes the tail
    records, dropped = read_journal(path)
    assert dropped == 0
    assert [r["op"] for r in records] == ["merge", "merge", "unmerge"]
    assert [r["seq"] for r in records] == [0, 1, 2]
    # Attached to a hypervisor, it records each merge op as it lands.
    attached = MergeJournal(tmp_path / "hyp.jsonl", flush_every=1).open()
    _merged_setup(rng, journal=attached)
    attached.detach()
    attached.close()
    records, _ = read_journal(tmp_path / "hyp.jsonl")
    assert [r["op"] for r in records] == ["merge", "merge", "break_cow"]


def test_journal_crash_drops_unflushed_tail(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = MergeJournal(path, flush_every=10).open()
    journal._emit("merge", {"ppn": 1})
    journal.flush()
    journal._emit("merge", {"ppn": 2})  # never flushed
    journal.simulate_crash()
    records, dropped = read_journal(path)
    assert len(records) == 1 and dropped == 0
    assert records[0]["args"] == {"ppn": 1}


def test_journal_torn_tail_is_dropped(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = MergeJournal(path, flush_every=10).open()
    journal._emit("merge", {"ppn": 1})
    journal.flush()
    journal._emit("merge", {"ppn": 2})
    journal.simulate_crash(torn=True)  # half the record reaches disk
    records, dropped = read_journal(path)
    assert [r["args"]["ppn"] for r in records] == [1]
    assert dropped == 1


def test_journal_corruption_mid_file_raises(tmp_path):
    path = tmp_path / "j.jsonl"
    good = encode_record({"seq": 0, "interval": 0, "op": "merge",
                          "args": {}})
    tampered = encode_record({"seq": 1, "interval": 0, "op": "merge",
                              "args": {"ppn": 3}})
    tampered = tampered.replace(b'"ppn": 3', b'"ppn": 4', 1)
    tail = encode_record({"seq": 2, "interval": 0, "op": "commit",
                          "args": {}})
    path.write_bytes(good + tampered + tail)
    with pytest.raises(JournalCorrupt):
        read_journal(path)


def test_journal_verify_mode_detects_divergence(tmp_path):
    journal = MergeJournal(tmp_path / "j.jsonl", flush_every=1).open()
    journal.begin_verify([
        {"seq": 0, "interval": 0, "op": "merge", "args": {"ppn": 5}},
    ])
    with pytest.raises(RecoveryDivergence):
        journal._emit("merge", {"ppn": 6})
    journal.close()


def test_journal_verify_then_append(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = MergeJournal(path, flush_every=1).open()
    journal.begin_verify([
        {"seq": 3, "interval": 1, "op": "merge", "args": {"ppn": 5}},
    ])
    journal.interval = 1
    journal._emit("merge", {"ppn": 5})  # matches -> cursor drained
    assert journal.mode == "append"
    journal._emit("unmerge", {"v": 0, "g": 1, "ppn": 2})  # appended
    journal.close()
    records, _ = read_journal(path)
    assert [r["seq"] for r in records] == [4]
    assert records[0]["op"] == "unmerge"


# ---------------------------------------------------------------------------
# Full-state serialisation
# ---------------------------------------------------------------------------

def _merged_setup(rng, journal=None):
    hyp = Hypervisor(capacity_bytes=32 << 20)
    shared = rng.bytes_array(PAGE_BYTES)
    vms = []
    for i in range(3):
        vm = hyp.create_vm(f"vm{i}")
        hyp.populate_page(vm, 0, shared, mergeable=True)
        hyp.populate_page(vm, 1, rng.bytes_array(PAGE_BYTES),
                          mergeable=True)
        vms.append(vm)
    if journal is not None:
        journal.attach_hypervisor(hyp)
    hyp.merge_pages(vms[0], 0, vms[1], 0)
    hyp.merge_pages(vms[0], 0, vms[2], 0)
    hyp.break_cow(vms[1], 0)
    return hyp, vms


def test_hypervisor_state_roundtrip(rng):
    hyp, _vms = _merged_setup(rng)
    state = json.loads(json.dumps(serialize.capture_hypervisor(hyp)))
    fresh = Hypervisor(capacity_bytes=32 << 20)
    serialize.restore_hypervisor(fresh, state)
    fresh.verify_consistency()
    assert serialize.page_digests(fresh) == serialize.page_digests(hyp)
    assert fresh.stats == hyp.stats
    assert fresh.memory._free_ppns == hyp.memory._free_ppns
    assert fresh._cow_ppns == hyp._cow_ppns
    # Allocation behaviour is part of the observable state: the next
    # allocations must hand out the same PPNs in the same order.
    a = [hyp.memory.allocate().ppn for _ in range(3)]
    b = [fresh.memory.allocate().ppn for _ in range(3)]
    assert a == b


# ---------------------------------------------------------------------------
# Crash-equivalence of the recoverable runner
# ---------------------------------------------------------------------------

def _small_spec(**overrides):
    plan = overrides.pop("plan", None) or FaultPlan(
        seed=3, vm_destroy_prob=0.05, unmerge_churn_prob=0.3,
        crash_after_ops=35,
    )
    defaults = dict(app="moses", mode="ksm", seed=3, pages_per_vm=40,
                    n_vms=3, intervals=6, checkpoint_every=2, plan=plan)
    defaults.update(overrides)
    return RunSpec(**defaults)


def test_crash_equivalence_ksm(tmp_path):
    spec = _small_spec()
    out = ReplicationSession(spec, tmp_path / "crashed", n_replicas=0).run()
    crashed = out["result"]
    assert out["crashes"] >= 1
    reference = RecoverableRun(
        spec.without_crashes(), tmp_path / "ref"
    ).run()
    assert crashed["fingerprint"] == reference["fingerprint"]
    # Recovered state passes the PR-3 verification machinery.
    assert crashed["validation"]["auditor_clean"]
    assert crashed["validation"]["zero_false_merges"]
    assert reference["validation"]["auditor_clean"]


def test_crash_equivalence_with_interval_crashes(tmp_path):
    plan = FaultPlan(seed=11, process_crash_prob=0.4,
                     vm_destroy_prob=0.05, unmerge_churn_prob=0.3)
    spec = _small_spec(seed=11, plan=plan, intervals=8)
    out = ReplicationSession(spec, tmp_path / "crashed", n_replicas=0).run(
        max_attempts=16
    )
    crashed = out["result"]
    reference = RecoverableRun(
        spec.without_crashes(), tmp_path / "ref"
    ).run()
    assert out["crashes"] >= 1  # prob 0.4 over 8 intervals
    assert crashed["fingerprint"] == reference["fingerprint"]
    assert crashed["validation"]["auditor_clean"]
    assert crashed["validation"]["zero_false_merges"]


@pytest.mark.slow
def test_crash_equivalence_pageforge(tmp_path):
    plan = FaultPlan(
        seed=5, single_bit_rate=5e-4, drop_rate=2e-4,
        table_corruption_rate=5e-4, vm_destroy_prob=0.05,
        unmerge_churn_prob=0.3, crash_after_ops=30,
    )
    spec = _small_spec(mode="pageforge", seed=5, plan=plan,
                       pages_per_vm=30, intervals=4)
    out = ReplicationSession(spec, tmp_path / "crashed", n_replicas=0).run()
    crashed = out["result"]
    reference = RecoverableRun(
        spec.without_crashes(), tmp_path / "ref"
    ).run()
    assert out["crashes"] >= 1
    assert crashed["fingerprint"] == reference["fingerprint"]
    assert crashed["validation"]["auditor_clean"]
    assert crashed["validation"]["zero_false_merges"]


def test_resume_survives_corrupt_newest_checkpoint(tmp_path):
    # Crash late enough (op 60: mid-interval 5) that checkpoints at
    # intervals 2 and 4 are already on disk.
    spec = _small_spec(plan=FaultPlan(
        seed=3, vm_destroy_prob=0.05, unmerge_churn_prob=0.3,
        crash_after_ops=60,
    ))
    workdir = tmp_path / "run"
    run = RecoverableRun(spec, workdir)
    try:
        run.run()
    except ProcessCrash:
        run.journal.detach()
        run.journal.simulate_crash()
    # Corrupt the newest checkpoint: recovery must fall back to the
    # previous one and still converge to the reference fingerprint.
    steps = run.store.steps()
    assert steps, "crash expected after at least one checkpoint"
    newest = run.store.path_for(steps[-1])
    newest.write_bytes(newest.read_bytes()[:64])
    resumed = RecoverableRun.resume(workdir, attempt=1)
    result = resumed.run()
    reference = RecoverableRun(
        spec.without_crashes(), tmp_path / "ref"
    ).run()
    assert result["fingerprint"] == reference["fingerprint"]
    assert result["skipped_corrupt_checkpoints"] >= 1


def test_tampered_journal_raises_divergence(tmp_path):
    spec = _small_spec()
    workdir = tmp_path / "run"
    run = RecoverableRun(spec, workdir)
    try:
        run.run()
    except ProcessCrash:
        run.journal.detach()
        run.journal.simulate_crash()
    journal_path = workdir / "journal.jsonl"
    records, _ = read_journal(journal_path)
    assert records
    # Rewrite the last surviving record with a different merge target —
    # the re-execution must notice it is not reproducing this history.
    victim = dict(records[-1])
    victim["args"] = dict(victim["args"])
    if victim["op"] == "commit":
        victim["args"]["footprint"] = victim["args"]["footprint"] + 1
    else:
        victim["args"]["ppn"] = victim["args"].get("ppn", 0) + 1
    with open(journal_path, "wb") as handle:
        for record in records[:-1]:
            handle.write(encode_record(
                {k: v for k, v in record.items() if k != "crc"}
            ))
        handle.write(encode_record(
            {k: v for k, v in victim.items() if k != "crc"}
        ))
    resumed = RecoverableRun.resume(workdir, attempt=1)
    with pytest.raises(RecoveryDivergence):
        resumed.run()


def test_spec_json_roundtrip():
    spec = _small_spec()
    clone = RunSpec.from_json(spec.to_json())
    assert clone == spec
    assert clone.plan == spec.plan
    quiet = spec.without_crashes()
    assert quiet.plan.crash_after_ops == 0
    assert quiet.plan.process_crash_prob == 0.0
    assert quiet.plan.vm_destroy_prob == spec.plan.vm_destroy_prob


# ---------------------------------------------------------------------------
# Checkpoint/resume of the Fig. 7 savings experiment
# ---------------------------------------------------------------------------

def test_savings_resume_matches_uninterrupted(tmp_path):
    from repro.sim.runner import run_memory_savings

    # Big enough that one 4000-page scan tick is ~one pass — the run
    # then spans several ticks and actually crosses a checkpoint.
    kwargs = dict(app="moses", pages_per_vm=2000, n_vms=2, seed=7,
                  engine="ksm", max_passes=4)
    uninterrupted = run_memory_savings(**kwargs)
    ckpt_dir = tmp_path / "ckpts"
    first = run_memory_savings(
        checkpoint_every=2, checkpoint_dir=ckpt_dir, **kwargs
    )
    assert first.pages_after == uninterrupted.pages_after
    store = CheckpointStore(ckpt_dir)
    assert store.steps(), "expected at least one checkpoint"
    resumed = run_memory_savings(
        checkpoint_every=2, checkpoint_dir=ckpt_dir, resume=True, **kwargs
    )
    assert resumed.pages_after == uninterrupted.pages_after
    assert resumed.merges == uninterrupted.merges
    assert resumed.after_by_category == uninterrupted.after_by_category
    assert resumed.pages_before == uninterrupted.pages_before


def test_latency_mode_summaries_resume(tmp_path):
    from repro.sim.runner import run_latency_experiment
    from repro.sim.system import SimulationScale

    scale = SimulationScale(pages_per_vm=60, n_vms=2, duration_s=0.05,
                            warmup_s=0.05)
    first = run_latency_experiment(
        "moses", modes=("baseline",), scale=scale, seed=7,
        checkpoint_dir=tmp_path,
    )
    assert (tmp_path / "latency-moses-baseline.json").exists()
    resumed = run_latency_experiment(
        "moses", modes=("baseline",), scale=scale, seed=7,
        checkpoint_dir=tmp_path, resume=True,
    )
    assert (
        resumed.summaries["baseline"] == first.summaries["baseline"]
    )
