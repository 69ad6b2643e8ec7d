"""Text renderers for every reproduced table and figure."""

import numpy as np

from repro.workloads.tailbench import geometric_mean


def _rule(width=78):
    return "-" * width


def format_fig7_memory_savings(results):
    """Figure 7: pages allocated without/with merging, by category.

    ``results`` is a list of :class:`MemorySavingsResult` (one per app).
    """
    lines = [
        "Figure 7: Memory allocation without and with page merging",
        _rule(),
        f"{'app':>10s} {'before':>8s} {'after':>8s} {'norm':>7s} "
        f"{'unmergeable':>12s} {'zero':>6s} {'mergeable':>10s}",
        _rule(),
    ]
    for r in results:
        norm = r.normalized_after()
        lines.append(
            f"{r.app_name:>10s} {r.pages_before:>8d} {r.pages_after:>8d} "
            f"{r.pages_after / r.pages_before:>7.2%} "
            f"{norm.get('unmergeable', 0.0):>12.2%} "
            f"{norm.get('zero', 0.0):>6.2%} "
            f"{norm.get('mergeable', 0.0):>10.2%}"
        )
    savings = [r.savings_frac for r in results]
    lines.append(_rule())
    lines.append(
        f"{'average':>10s} memory-footprint reduction: "
        f"{np.mean(savings):.1%}  (paper: 48%)"
    )
    return "\n".join(lines)


def format_fig8_hash_keys(results):
    """Figure 8: hash-key comparison outcomes, jhash vs ECC keys."""
    lines = [
        "Figure 8: Outcome of hash key comparisons",
        _rule(),
        f"{'app':>10s} {'jhash match':>12s} {'jhash miss':>11s} "
        f"{'ECC match':>10s} {'ECC miss':>9s} {'extra ECC FP':>13s}",
        _rule(),
    ]
    for r in results:
        lines.append(
            f"{r.app_name:>10s} {r.jhash_match_frac:>12.2%} "
            f"{1 - r.jhash_match_frac:>11.2%} "
            f"{r.ecc_match_frac:>10.2%} {1 - r.ecc_match_frac:>9.2%} "
            f"{r.extra_ecc_false_positive_frac:>13.2%}"
        )
    extra = np.mean([r.extra_ecc_false_positive_frac for r in results])
    lines.append(_rule())
    lines.append(
        f"{'average':>10s} additional ECC false-positive matches: "
        f"{extra:.1%}  (paper: 3.7%)"
    )
    return "\n".join(lines)


def _format_latency_figure(results, metric, title, paper_ksm, paper_pf):
    lines = [
        title,
        _rule(),
        f"{'app':>10s} {'baseline':>9s} {'ksm':>7s} {'pageforge':>10s}",
        _rule(),
    ]
    ksm_norms, pf_norms = [], []
    for r in results:
        if metric == "mean":
            ksm_norm = r.normalized_mean("ksm")
            pf_norm = r.normalized_mean("pageforge")
        else:
            ksm_norm = r.normalized_p95("ksm")
            pf_norm = r.normalized_p95("pageforge")
        ksm_norms.append(ksm_norm)
        pf_norms.append(pf_norm)
        lines.append(
            f"{r.app_name:>10s} {'1.00':>9s} {ksm_norm:>7.2f} "
            f"{pf_norm:>10.2f}"
        )
    lines.append(_rule())
    lines.append(
        f"{'geomean':>10s} {'1.00':>9s} {geometric_mean(ksm_norms):>7.2f} "
        f"{geometric_mean(pf_norms):>10.2f}"
        f"   (paper: KSM {paper_ksm}, PageForge {paper_pf})"
    )
    return "\n".join(lines)


def format_fig9_mean_latency(results):
    """Figure 9: mean sojourn latency normalised to Baseline."""
    return _format_latency_figure(
        results, "mean",
        "Figure 9: Mean sojourn latency normalized to Baseline",
        "1.68x", "1.10x",
    )


def format_fig10_tail_latency(results):
    """Figure 10: 95th-percentile latency normalised to Baseline."""
    return _format_latency_figure(
        results, "p95",
        "Figure 10: 95th percentile latency normalized to Baseline",
        "2.36x", "1.11x",
    )


def format_fig11_bandwidth(results):
    """Figure 11: peak memory bandwidth during active deduplication."""
    lines = [
        "Figure 11: Memory bandwidth in the most memory-intensive phase",
        _rule(),
        f"{'app':>10s} {'baseline':>9s} {'ksm':>8s} {'pageforge':>10s}"
        "   (GB/s)",
        _rule(),
    ]
    per_mode = {"baseline": [], "ksm": [], "pageforge": []}
    for r in results:
        row = [f"{r.app_name:>10s}"]
        for mode in ("baseline", "ksm", "pageforge"):
            bw = r.summaries[mode].bandwidth_peak_gbps
            per_mode[mode].append(bw)
            row.append(f"{bw:>8.2f}" if mode != "baseline" else f"{bw:>9.2f}")
        lines.append(" ".join(row))
    lines.append(_rule())
    lines.append(
        f"{'average':>10s} "
        f"{np.mean(per_mode['baseline']):>9.2f} "
        f"{np.mean(per_mode['ksm']):>8.2f} "
        f"{np.mean(per_mode['pageforge']):>10.2f}"
        "   (paper: 2 / 10 / 12 GB/s)"
    )
    return "\n".join(lines)


def format_table2_configuration(machine):
    """Table 2: architectural parameters actually in force."""
    proc, dram, virt = machine.processor, machine.dram, machine.virtualization
    rows = [
        ("Multicore chip; Frequency",
         f"{proc.n_cores} OoO cores; {proc.frequency_hz / 1e9:.0f} GHz"),
        ("L1 cache", f"{proc.l1.size_bytes // 1024} KB, {proc.l1.ways} way, "
                     f"{proc.l1.round_trip_cycles} cycles RT, "
                     f"{proc.l1.mshrs} MSHRs"),
        ("L2 cache", f"{proc.l2.size_bytes // 1024} KB, {proc.l2.ways} way, "
                     f"{proc.l2.round_trip_cycles} cycles RT"),
        ("L3 cache", f"{proc.l3.size_bytes // (1024*1024)} MB, "
                     f"{proc.l3.ways} way, shared, "
                     f"{proc.l3.round_trip_cycles} cycles RT"),
        ("Network; Coherence",
         f"{proc.bus_width_bits}b bus; {proc.coherence}"),
        ("Capacity; Channels",
         f"{dram.capacity_bytes >> 30} GB; {dram.channels}"),
        ("Ranks/Channel; Banks/Rank",
         f"{dram.ranks_per_channel}; {dram.banks_per_rank}"),
        ("Frequency; Data rate",
         f"{dram.frequency_hz / 1e9:.0f} GHz; DDR"),
        ("# VMs; Core/VM; Mem/VM",
         f"{virt.n_vms}; {virt.cores_per_vm}; "
         f"{virt.mem_per_vm_bytes >> 20} MB"),
        ("KSM", f"sleep={machine.ksm.sleep_millisecs} ms; "
                f"pages_to_scan={machine.ksm.pages_to_scan}"),
        ("PageForge", f"{machine.pageforge.other_pages_entries} Other Pages "
                      f"+ 1 PFE; {machine.pageforge.hash_key_bits}-bit "
                      "ECC hash key"),
    ]
    width = max(len(k) for k, _v in rows)
    lines = ["Table 2: Architectural parameters", _rule()]
    lines += [f"{k:<{width}s}  {v}" for k, v in rows]
    return "\n".join(lines)


def format_table4_ksm_characterization(results):
    """Table 4: KSM-configuration characterisation."""
    lines = [
        "Table 4: Characterization of the KSM configuration",
        _rule(),
        f"{'app':>10s} {'cyc avg%':>9s} {'cyc max%':>9s} "
        f"{'compare%':>9s} {'hash%':>7s} "
        f"{'L3 miss (KSM)':>14s} {'L3 miss (base)':>15s}",
        _rule(),
    ]
    rows = []
    for r in results:
        ksm = r.summaries["ksm"]
        base = r.summaries["baseline"]
        rows.append((
            ksm.kernel_share_avg, ksm.kernel_share_max,
            ksm.ksm_compare_share, ksm.ksm_hash_share,
            ksm.l3_miss_rate, base.l3_miss_rate,
        ))
        lines.append(
            f"{r.app_name:>10s} {ksm.kernel_share_avg:>9.1%} "
            f"{ksm.kernel_share_max:>9.1%} {ksm.ksm_compare_share:>9.1%} "
            f"{ksm.ksm_hash_share:>7.1%} {ksm.l3_miss_rate:>14.1%} "
            f"{base.l3_miss_rate:>15.1%}"
        )
    avg = np.mean(np.array(rows), axis=0)
    lines.append(_rule())
    lines.append(
        f"{'average':>10s} {avg[0]:>9.1%} {avg[1]:>9.1%} {avg[2]:>9.1%} "
        f"{avg[3]:>7.1%} {avg[4]:>14.1%} {avg[5]:>15.1%}"
    )
    lines.append(
        "(paper averages: 6.8% / 33.4% cycles, 51.8% compare, 14.8% hash, "
        "39.2% vs 33.8% L3 miss)"
    )
    return "\n".join(lines)


def format_fault_campaign(results):
    """Resilience summary of one chaos suite ({mode: CampaignResult}).

    One row per mode plus a per-subsystem fault/recovery breakdown for
    the PageForge run — the paper's safety argument as a table: injected
    faults on the left, zero content violations on the right.
    """
    lines = [
        "Fault-injection campaign: savings and invariants under chaos",
        _rule(),
        f"{'mode':>10s} {'savings':>8s} {'merges':>7s} {'rollbk':>7s} "
        f"{'content-viol':>13s} {'consist-viol':>13s} {'backend':>9s}",
        _rule(),
    ]
    for mode in ("baseline", "ksm", "pageforge"):
        r = results.get(mode)
        if r is None:
            continue
        lines.append(
            f"{mode:>10s} {r.savings_frac:>8.2%} {r.merges:>7d} "
            f"{r.merge_rollbacks:>7d} {r.content_violations:>13d} "
            f"{r.consistency_violations:>13d} "
            f"{r.final_backend or '-':>9s}"
        )
    lines.append(_rule())
    pf = results.get("pageforge")
    if pf is not None:
        inj = pf.injected
        lines += [
            "PageForge fault/recovery breakdown:",
            f"  injected: {inj.get('single_bit_flips', 0)} single-bit, "
            f"{inj.get('double_bit_flips', 0)} double-bit, "
            f"{inj.get('silent_corruptions', 0)} silent, "
            f"{inj.get('requests_dropped', 0)} drops, "
            f"{inj.get('latency_spikes', 0)} spikes, "
            f"{inj.get('table_corruptions', 0)} table SEUs, "
            f"{inj.get('vms_destroyed', 0)} VMs destroyed, "
            f"{inj.get('pages_unmerged', 0)} pages unmerged",
            f"  recovered: {pf.batch_retries} batch retries, "
            f"{pf.batches_abandoned} abandoned, "
            f"{pf.walk_failures} walk failures, "
            f"{pf.candidates_poisoned} candidates poisoned, "
            f"{pf.expired_reads} expired reads, "
            f"{pf.corrected_words} ECC words corrected",
            f"  governor: transitions {pf.backend_transitions}, "
            f"{pf.intervals_degraded}/{pf.intervals_run} intervals degraded",
            f"  fingerprint: {pf.fingerprint}",
        ]
        ksm = results.get("ksm")
        if ksm is not None and ksm.savings_frac > 0:
            lines.append(
                f"  savings vs software KSM under same plan: "
                f"{pf.savings_frac / ksm.savings_frac:.1%}"
            )
    clean = all(r.clean for r in results.values())
    lines.append(_rule())
    lines.append(
        "invariant 'merged content is byte-identical to its sources': "
        + ("HELD under every fault class" if clean else "VIOLATED")
    )
    return "\n".join(lines)


def format_table5_pageforge(results, power_model):
    """Table 5: PageForge design characteristics."""
    cycles = [
        r.summaries["pageforge"].pf_mean_table_cycles for r in results
        if "pageforge" in r.summaries
    ]
    stds = [
        r.summaries["pageforge"].pf_std_table_cycles for r in results
        if "pageforge" in r.summaries
    ]
    lines = [
        "Table 5: PageForge design characteristics",
        _rule(),
        f"Processing the Scan table: {np.mean(cycles):,.0f} cycles "
        f"(std across apps {np.std(cycles):,.0f}; "
        f"paper: 7,486 +- 1,296)",
        "OS checking period: 12,000 cycles (paper: 12,000)",
        _rule(),
    ]
    for report in power_model.report():
        lines.append(
            f"{report.name:<22s} {report.area_mm2:>7.3f} mm^2 "
            f"{report.power_w:>7.3f} W"
        )
    lines.append(_rule())
    for report in power_model.comparison_points():
        lines.append(
            f"{report.name:<40s} {report.area_mm2:>8.2f} mm^2 "
            f"{report.power_w:>7.2f} W"
        )
    return "\n".join(lines)


def format_differential(results):
    """Merge-equivalence verdicts: backends vs the full-compare oracle.

    ``results`` is a list of :class:`~repro.verify.DifferentialResult`
    (one per seeded workload).
    """
    lines = [
        "Differential merge-equivalence: backends vs full-compare oracle",
        _rule(),
    ]
    for r in results:
        verdict = "OK" if r.ok else "DIVERGED"
        lines.append(
            f"{r.app_name} seed={r.seed} "
            f"({r.pages_per_vm} pages x {r.n_vms} VMs): "
            f"{r.oracle_pairs} duplicate pairs in "
            f"{r.oracle_classes} content classes -> {verdict}"
        )
        for backend in sorted(r.reports):
            lines.append(f"  {r.reports[backend].summary()}")
        for divergence in r.divergences():
            lines.append(f"  !! {divergence.describe()}")
    lines.append(_rule())
    n_ok = sum(1 for r in results if r.ok)
    lines.append(f"{n_ok}/{len(results)} workloads equivalent")
    return "\n".join(lines)


def format_invariant_audit(auditor):
    """Check/violation accounting of one InvariantAuditor run."""
    lines = [auditor.summary(), _rule()]
    for kind in sorted(auditor.checks):
        lines.append(f"  {kind:<28s} {auditor.checks[kind]:>8d} checks")
    for violation in auditor.violations:
        lines.append(f"  !! {violation}")
    return "\n".join(lines)


def format_golden_drift(drifts, regen_command=None):
    """Golden-figure comparison outcome (empty drift list = pass)."""
    if not drifts:
        return "golden figures: all metrics within tolerance"
    lines = [f"golden figures: {len(drifts)} metric(s) drifted", _rule()]
    for drift in drifts:
        lines.append(f"  {drift.describe()}")
    if regen_command:
        lines.append(_rule())
        lines.append(
            "If the change is intentional, regenerate the goldens with:"
        )
        lines.append(f"  {regen_command}")
    return "\n".join(lines)
