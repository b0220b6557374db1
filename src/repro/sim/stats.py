"""Simulation statistics: everything the paper's figures report.

One :class:`SimStats` instance per run aggregates per-core counters, miss
latency breakdowns (Figure 1/18), dependent-miss accounting (Figure 2/6),
EMC activity (Figures 15/17/19/22), and traffic counters feeding the energy
model (Figures 23/24).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .component import (KIND_FULL, CarryoverReport, SimComponent,
                        dataclass_state, reset_dataclass_stats,
                        restore_dataclass)

#: Identity fields preserved by :meth:`SimStats.reset_stats` — they name
#: *which* run this is, not what happened during it.
_IDENTITY_FIELDS = frozenset({"core_id", "benchmark"})


class CounterBank:
    """Int-keyed flat accumulator for counters bumped in a hot loop.

    Attribute increments on a stats dataclass cost an attribute load, an
    add, and an attribute store per event; a bank turns each into one
    list-index add, and the owning dataclass absorbs the deltas once at a
    safe flush point (one where no events can observe the counters
    mid-loop).  The bank itself is transient accumulation state — flush
    before any snapshot — and never part of the stats tree.

    Index counters by position in ``fields``::

        bank = CounterBank(("rrt_reads", "rrt_writes"))
        counts = bank.counts
        counts[0] += 1          # rrt_reads
        ...
        stats.energy.absorb(bank)
    """

    __slots__ = ("fields", "counts")

    def __init__(self, fields) -> None:
        self.fields = tuple(fields)
        self.counts: List[int] = [0] * len(self.fields)

    def drain(self, owner) -> None:
        """Add the accumulated deltas onto ``owner``'s fields and zero
        the bank.  Prefer the owner-side wrapper (e.g.
        :meth:`EnergyCounters.absorb`) so the mutation stays with the
        counters' owner."""
        counts = self.counts
        for i, name in enumerate(self.fields):
            delta = counts[i]
            if delta:
                setattr(owner, name, getattr(owner, name) + delta)
                counts[i] = 0


@dataclass(slots=True)
class LatencyAccumulator:
    """Streaming mean over latency samples, with component splits and a
    log2-bucketed histogram (bucket i counts samples in [2^i, 2^(i+1)))."""

    count: int = 0
    total: int = 0
    dram_total: int = 0
    onchip_total: int = 0
    queue_total: int = 0
    buckets: Dict[int, int] = field(default_factory=dict)

    def add(self, total: int, dram: int, queue: int = 0) -> None:
        self.count += 1
        self.total += total
        self.dram_total += dram
        self.onchip_total += total - dram
        self.queue_total += queue
        bucket = max(0, int(total).bit_length() - 1)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def histogram(self) -> List[tuple]:
        """(low_bound, high_bound, count) rows in ascending latency order."""
        return [(1 << b, (1 << (b + 1)) - 1, n)
                for b, n in sorted(self.buckets.items())]

    def percentile(self, fraction: float) -> int:
        """Approximate percentile from the log2 histogram (upper bound of
        the bucket containing the requested rank)."""
        if not self.count:
            return 0
        rank = max(1, int(self.count * fraction))
        seen = 0
        for bucket, n in sorted(self.buckets.items()):
            seen += n
            if seen >= rank:
                return (1 << (bucket + 1)) - 1
        return (1 << (max(self.buckets) + 1)) - 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def mean_dram(self) -> float:
        return self.dram_total / self.count if self.count else 0.0

    @property
    def mean_onchip(self) -> float:
        return self.onchip_total / self.count if self.count else 0.0

    @property
    def mean_queue(self) -> float:
        return self.queue_total / self.count if self.count else 0.0


@dataclass(slots=True)
class CoreStats:
    """Per-core architectural and memory behaviour counters."""

    core_id: int = 0
    benchmark: str = ""
    instructions: int = 0
    finished_at: Optional[int] = None
    l1_hits: int = 0
    l1_misses: int = 0
    llc_hits: int = 0
    llc_misses: int = 0
    # Dependent-miss accounting (Figure 2 / 6).
    dependent_misses: int = 0
    dependent_chain_ops_total: int = 0       # ops strictly between src & dep
    dependent_covered_by_prefetch: int = 0   # dep-derived hits on pf lines
    source_misses_with_dependent: int = 0
    source_misses_total: int = 0
    mispredicted_branches: int = 0
    full_window_stall_cycles: int = 0

    def ipc(self) -> float:
        if not self.finished_at:
            return 0.0
        return self.instructions / self.finished_at

    def mpki(self) -> float:
        if not self.instructions:
            return 0.0
        return 1000.0 * self.llc_misses / self.instructions


@dataclass(slots=True)
class EMCStats:
    """EMC activity counters (Figures 15, 17, 19, 22; Section 6.5)."""

    chains_generated: int = 0
    chains_executed: int = 0
    chains_cancelled_branch: int = 0
    chains_cancelled_tlb: int = 0
    chains_cancelled_disambiguation: int = 0
    chains_rejected_no_context: int = 0
    chains_no_load: int = 0           # walks that found no dependent load
    chains_from_cache: int = 0        # chain-cache hits (extension)
    chain_uops_total: int = 0
    chain_live_ins_total: int = 0
    chain_live_outs_total: int = 0
    chain_gen_cycles: int = 0
    uops_executed: int = 0
    loads_executed: int = 0
    stores_executed: int = 0
    dcache_hits: int = 0
    dcache_misses: int = 0
    llc_requests: int = 0
    llc_hits_on_prefetched: int = 0
    direct_dram_requests: int = 0
    llc_path_requests: int = 0
    tlb_hits: int = 0
    tlb_misses: int = 0
    miss_pred_correct: int = 0
    miss_pred_wrong: int = 0
    # Bypass confusion matrix: positive = predicted miss (direct-to-DRAM).
    bypass_true_pos: int = 0
    bypass_false_pos: int = 0
    bypass_false_neg: int = 0

    # -- mutation API for the chain-generation unit --------------------------
    # The CGU lives in the core but its counters are the EMC's; these
    # methods keep the mutation next to the counters (SIM005).
    def note_chain_generated(self, uops: int, live_ins: int,
                             live_outs: int, gen_cycles: int,
                             from_cache: bool = False) -> None:
        """Record one generated dependence chain (Section 4.2)."""
        self.chains_generated += 1
        if from_cache:
            self.chains_from_cache += 1
        self.chain_gen_cycles += gen_cycles
        self.chain_uops_total += uops
        self.chain_live_ins_total += live_ins
        self.chain_live_outs_total += live_outs

    def note_chain_no_load(self) -> None:
        """A backward walk found no dependent load to off-load."""
        self.chains_no_load += 1

    def note_rejected_no_context(self) -> None:
        """A chain was dropped because every issue context was busy."""
        self.chains_rejected_no_context += 1

    @property
    def dcache_hit_rate(self) -> float:
        total = self.dcache_hits + self.dcache_misses
        return self.dcache_hits / total if total else 0.0

    @property
    def bypass_precision(self) -> float:
        """Of the loads sent straight to DRAM, the fraction that really
        were off-chip."""
        issued = self.bypass_true_pos + self.bypass_false_pos
        return self.bypass_true_pos / issued if issued else 0.0

    @property
    def bypass_recall(self) -> float:
        """Of the loads that really were off-chip, the fraction the
        predictor sent straight to DRAM."""
        actual = self.bypass_true_pos + self.bypass_false_neg
        return self.bypass_true_pos / actual if actual else 0.0

    @property
    def avg_chain_uops(self) -> float:
        if not self.chains_generated:
            return 0.0
        return self.chain_uops_total / self.chains_generated

    @property
    def avg_live_ins(self) -> float:
        if not self.chains_generated:
            return 0.0
        return self.chain_live_ins_total / self.chains_generated

    @property
    def avg_live_outs(self) -> float:
        if not self.chains_generated:
            return 0.0
        return self.chain_live_outs_total / self.chains_generated


@dataclass(slots=True)
class EnergyCounters:
    """Raw event counts consumed by :mod:`repro.energy`."""

    core_uops: int = 0
    l1_accesses: int = 0
    llc_accesses: int = 0
    dram_reads: int = 0
    dram_writes: int = 0
    dram_activations: int = 0
    ring_control_hops: int = 0
    ring_data_hops: int = 0
    emc_uops: int = 0
    emc_cache_accesses: int = 0
    # Chain-generation events the paper charges explicitly (Section 5).
    cdb_broadcasts: int = 0
    rrt_reads: int = 0
    rrt_writes: int = 0
    rob_chain_reads: int = 0

    # -- mutation API (SIM008: counters change only via their owner) -----
    def note_core_uops(self, count: int) -> None:
        """``count`` uops dispatched to a core's functional units."""
        self.core_uops += count

    def note_l1_access(self) -> None:
        """One L1 lookup (hit or miss)."""
        self.l1_accesses += 1

    def note_emc_uop(self) -> None:
        """A chain uop executed on the EMC's compute logic."""
        self.emc_uops += 1

    def note_emc_cache_access(self) -> None:
        """One EMC data-cache lookup."""
        self.emc_cache_accesses += 1

    def absorb(self, bank: CounterBank) -> None:
        """Fold a hot-loop :class:`CounterBank`'s deltas into these
        counters and zero the bank (the owner-mediated flush point)."""
        bank.drain(self)


@dataclass
class SimStats(SimComponent):
    """Top-level statistics for one simulation run.

    The whole tree (per-core counters, EMC counters, energy counters,
    latency accumulators) is *statistical* state: :meth:`reset_stats`
    zeroes everything in place except the identity fields
    ``core_id``/``benchmark``.  In-place matters — components alias into
    this tree (``core.stats is stats.cores[i]``, ``emc.stats is
    stats.emc``, ``System.energy_counters is stats.energy``) and those
    aliases must survive a reset or restore.
    """

    cores: List[CoreStats] = field(default_factory=list)
    emc: EMCStats = field(default_factory=EMCStats)
    energy: EnergyCounters = field(default_factory=EnergyCounters)
    # Latency of LLC misses, split by who issued them (Figure 18).
    core_miss_latency: LatencyAccumulator = field(
        default_factory=LatencyAccumulator)
    emc_miss_latency: LatencyAccumulator = field(
        default_factory=LatencyAccumulator)
    total_cycles: int = 0
    # True when the post-finish drain hit its event budget and in-flight
    # traffic counters (DRAM, ring, energy) are therefore incomplete.
    drain_truncated: bool = False
    llc_misses_from_emc: int = 0
    llc_misses_from_core: int = 0
    prefetches_issued: int = 0
    prefetches_useful: int = 0

    def core(self, core_id: int) -> CoreStats:
        return self.cores[core_id]

    # -- SimComponent protocol -----------------------------------------------
    def reset_stats(self) -> None:
        """Zero every counter in place, preserving identity fields."""
        reset_dataclass_stats(self, preserve=_IDENTITY_FIELDS)

    def config_state(self) -> dict:
        return {"num_cores": len(self.cores)}

    def snapshot(self, kind: str = KIND_FULL) -> dict:
        state = self._header(kind)
        state["tree"] = dataclass_state(self)
        return state

    def restore(self, state: dict) -> None:
        restore_dataclass(self, self._check(state)["tree"])

    def reseat(self, state: dict, report: CarryoverReport,
               path: str = "") -> None:
        """Adopt a stats snapshot across a core-count change.

        Statistical state is zeroed at the warmup boundary, so nothing
        here is warmed carryover worth accounting: surviving cores'
        counters restore in place (aliases into the tree survive),
        added cores keep their fresh identity-only counters, and
        surplus cores' counters leave with their cores.
        """
        state = self._check(state, match_config=False)
        tree = dict(state["tree"])
        saved_cores = list(tree["cores"])[:len(self.cores)]
        for core_stats in self.cores[len(saved_cores):]:
            saved_cores.append(dataclass_state(core_stats))
        tree["cores"] = saved_cores
        restore_dataclass(self, tree)

    # -- derived, figure-facing metrics --------------------------------------
    def total_instructions(self) -> int:
        return sum(c.instructions for c in self.cores)

    def aggregate_ipc(self) -> float:
        """Sum of per-core IPCs, each over that core's own completion time —
        the paper's multiprogrammed performance metric."""
        return sum(c.ipc() for c in self.cores)

    def emc_miss_fraction(self) -> float:
        """Fraction of all LLC misses generated by the EMC (Figure 15)."""
        total = self.llc_misses_from_emc + self.llc_misses_from_core
        return self.llc_misses_from_emc / total if total else 0.0

    def dependent_miss_fraction(self) -> float:
        """Fraction of LLC (load) misses that depend on a prior LLC miss
        (Figure 2)."""
        misses = sum(c.llc_misses for c in self.cores)
        dependent = sum(c.dependent_misses for c in self.cores)
        return dependent / misses if misses else 0.0

    def avg_dependent_chain_ops(self) -> float:
        """Average ops between a source miss and its dependent miss (Fig 6)."""
        dependent = sum(c.dependent_misses for c in self.cores)
        ops = sum(c.dependent_chain_ops_total for c in self.cores)
        return ops / dependent if dependent else 0.0

    def dependent_prefetch_coverage(self) -> float:
        """Fraction of dependent cache misses converted to hits by the
        prefetcher (Figure 3)."""
        covered = sum(c.dependent_covered_by_prefetch for c in self.cores)
        missed = sum(c.dependent_misses for c in self.cores)
        total = covered + missed
        return covered / total if total else 0.0

    def prefetch_accuracy(self) -> float:
        if not self.prefetches_issued:
            return 0.0
        return self.prefetches_useful / self.prefetches_issued
