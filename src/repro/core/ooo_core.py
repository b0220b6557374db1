"""Trace-driven out-of-order core model.

Models what the paper's mechanism needs from a core: a 256-entry ROB with
register-dataflow scheduling (wakeup lists, not per-cycle scans), a
reservation-station capacity limit, an L1 with MSHR coalescing, statistical
branch-misprediction stalls, full-window-stall detection, runtime
dependent-miss classification (the backward dataflow walk), and the
chain-generation unit of Section 4.2 (RRT + live-in vector + pseudo
wake-up walk, Algorithm 1).

Cores "doze": a core that can neither fetch, issue, nor retire stops
scheduling tick events and is woken by memory completions.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from functools import partial
from typing import Deque, Dict, List, Optional, Tuple

from ..emc.chain import ChainUop, DependenceChain
from ..memsys.cache import SetAssocCache, line_addr
from ..memsys.request import MemRequest
from ..memsys.vm import PageTable
from ..sim.component import (KIND_FULL, CarryoverReport, SimComponent,
                             SnapshotError, rebase_clock,
                             require_empty)
from ..sim.stats import CoreStats, CounterBank
from ..uarch.isa import effective_address, execute_alu
from ..uarch.uop import MASK64, UOP_LATENCY, Trace, UopType
from .inflight import DONE, ISSUED, READY, WAITING, InflightUop

#: backward-walk depth limit for dependent-miss classification
MISS_WALK_LIMIT = 24

# Module-level aliases: a member read off the enum class goes through the
# enum metaclass, several times the cost of a global load.
LOAD = UopType.LOAD
STORE = UopType.STORE
BRANCH = UopType.BRANCH


@dataclass(frozen=True)
class CoreProgress:
    """Public point-in-time snapshot of a core's execution state.

    This is the supported surface for diagnostics (deadlock reports,
    watchdogs, progress displays); it insulates callers from the core's
    private fetch/window bookkeeping.
    """

    core_id: int
    fetched: int          # uops fetched from the current trace pass
    trace_len: int        # uops in one trace pass
    rob_occupancy: int
    ready: int            # uops ready to issue
    finished: bool        # completed its first full (measured) trace pass
    wrap_count: int       # interference-only wrapped passes completed
    rob_head: Optional[object]   # oldest in-flight uop, or None


class OutOfOrderCore(SimComponent):
    """One core: front-end, window, L1, and the chain-generation unit."""

    def __init__(self, core_id: int, trace: Trace, system) -> None:
        self.core_id = core_id
        self.system = system
        self.cfg = system.cfg.core
        self.wheel = system.wheel
        self.tracer = system.tracer
        self.image = system.images[core_id]
        self.page_table = PageTable(asid=core_id,
                                    allocator=system.frame_allocator)
        self.stats = CoreStats(core_id=core_id, benchmark=trace.name)

        self._trace = trace.uops
        self._trace_len = len(trace.uops)
        self._fetch_index = 0
        self.rob: Deque[InflightUop] = deque()
        self.ready: Deque[InflightUop] = deque()
        self.rename: Dict[int, InflightUop] = {}
        self.regfile: Dict[int, int] = {}
        self._by_seq: Dict[int, InflightUop] = {}
        self.rs_occupancy = 0

        l1cfg = system.cfg.l1
        self.l1 = SetAssocCache(l1cfg.size_bytes, l1cfg.ways)
        self.l1_latency = l1cfg.latency
        self.l1_mshr_capacity = l1cfg.mshr_entries
        self.l1_pending: Dict[int, List[InflightUop]] = {}

        # Branch handling: fetch stops after a mispredicted branch until it
        # resolves plus the pipeline-restart penalty.
        self._fetch_blocked = False

        # 3-bit saturating dependent-miss-likelihood counter (Section 4.2).
        self.dep_miss_counter = 4
        self._chain_gen_busy_until = 0
        # PC-indexed LRU chain cache (extension; empty when disabled).
        self._chain_cache: "OrderedDict[int, bool]" = OrderedDict()
        # Flat accumulator for the chain-generation energy events; always
        # drained into the energy counters before _build_chain returns, so
        # it holds no state between events (never snapshotted).
        self._chain_energy = CounterBank(
            ("cdb_broadcasts", "rrt_reads", "rrt_writes",
             "rob_chain_reads"))

        # The per-cycle path reads these every tick; the config of a core
        # never changes after construction (fork and reconfigure build
        # new cores), so they are bound once here.
        core_cfg = self.cfg
        self._fetch_width = core_cfg.fetch_width
        self._issue_width = core_cfg.issue_width
        self._retire_width = core_cfg.retire_width
        self._rob_entries = core_cfg.rob_entries
        self._rs_entries = core_cfg.rs_entries
        self._mispredict_penalty = core_cfg.mispredict_penalty
        self._emc_enabled = system.cfg.emc.enabled
        self._dep_counter_trigger = system.cfg.emc.dep_counter_trigger

        self._tick_scheduled = False
        self._doze_started: Optional[int] = None
        # "finished" = completed its first full trace window (the paper's
        # per-benchmark instruction budget).  The core then keeps running
        # wrapped-around copies of its trace to preserve interference until
        # every core completes, but its statistics are frozen.
        self.finished = False
        self.stats_frozen = False
        self.wrap_count = 0
        # Warmup window: while set, fetch stops at this retired-instruction
        # count and a core exhausting its trace wraps *without* finishing.
        self._warmup_limit: Optional[int] = None

    # ------------------------------------------------------------------
    # scheduling / doze
    # ------------------------------------------------------------------
    def start(self) -> None:
        # Stagger core start-up a little: real multiprogrammed workloads do
        # not begin in lock-step, and homogeneous mixes otherwise phase-lock
        # on the DRAM batch scheduler, amplifying butterfly effects.
        self._tick_scheduled = True
        self.wheel.schedule(1 + 53 * self.core_id, self._first_tick)

    def _first_tick(self) -> None:
        self._tick_scheduled = False
        self._tick()

    def _schedule_tick(self, delay: int = 0) -> None:
        if self._tick_scheduled:
            return
        self._tick_scheduled = True
        self.wheel.schedule(delay, self._tick)

    def wake(self) -> None:
        """Called by any completion event that may unblock this core.

        :meth:`_complete` carries an inlined copy of this body."""
        doze_started = self._doze_started
        if doze_started is not None:
            # Attribute dozed time blocked on a full window to stall stats.
            if (len(self.rob) >= self._rob_entries
                    or self.rs_occupancy >= self._rs_entries):
                # CoreStats is donated to SimStats.cores at construction;
                # SimStats.reset_stats zeroes it recursively.
                self.stats.full_window_stall_cycles += (  # simlint: disable=SIM011
                    self.wheel.now - doze_started)
            self._doze_started = None
        self._schedule_tick()

    def progress(self) -> CoreProgress:
        """Snapshot fetch/window state without exposing internals."""
        return CoreProgress(
            core_id=self.core_id,
            fetched=self._fetch_index,
            trace_len=len(self._trace),
            rob_occupancy=len(self.rob),
            ready=len(self.ready),
            finished=self.finished,
            wrap_count=self.wrap_count,
            rob_head=self.rob[0] if self.rob else None,
        )

    # ------------------------------------------------------------------
    # phase lifecycle (warmup / measure boundary)
    # ------------------------------------------------------------------
    def begin_warmup(self, limit: int) -> None:
        """Arm the warmup gate: fetch stops once ``limit`` instructions
        have retired, and trace exhaustion wraps instead of finishing."""
        self._warmup_limit = limit

    @property
    def warmup_done(self) -> bool:
        """True once this core has retired its warmup quota (vacuously
        true outside a warmup window)."""
        return (self._warmup_limit is None
                or self.stats.instructions >= self._warmup_limit)

    def _require_quiesced(self) -> None:
        require_empty(self, rob=self.rob, ready=self.ready,
                      by_seq=self._by_seq, l1_pending=self.l1_pending)
        if self.rs_occupancy != 0:
            raise SnapshotError(
                f"core {self.core_id}: rs_occupancy={self.rs_occupancy} "
                "with an empty window")

    def end_warmup(self, origin: int) -> None:
        """Cross the warmup/measure boundary on a quiesced core.

        Drops the warmup gate, rebases clock-valued state against the
        rewound wheel, and prunes the retired-uop dependence DAG to the
        classification horizon so it (and any checkpoint built from it)
        stays bounded.  ``origin`` is the wheel time the boundary was
        taken at (the new cycle zero).
        """
        self._require_quiesced()
        self._warmup_limit = None
        self.wrap_count = 0
        self._tick_scheduled = False
        self._doze_started = None
        self._chain_gen_busy_until = rebase_clock(
            self._chain_gen_busy_until, origin)
        if self._fetch_index >= len(self._trace):
            # Warmup consumed an exact number of whole passes; measure
            # from the top of the trace rather than finishing instantly.
            self._fetch_index = 0
        self._rebase_and_prune(origin)

    def _rebase_and_prune(self, origin: int) -> None:
        """Retired uops reachable from the rename table feed
        ``find_miss_root`` during the measure window.  Rebase their cycle
        timestamps — *unclamped*, because ``done_cycle`` ordering against
        future ``dispatch_cycle`` values must survive the rewind — and cut
        producer links past the walk horizon so the DAG cannot grow
        without bound across the boundary."""
        depth_of: Dict[int, int] = {}
        order: List[InflightUop] = []
        level: List[InflightUop] = list(self.rename.values())
        depth = 0
        while level and depth <= MISS_WALK_LIMIT:
            nxt: List[InflightUop] = []
            for iu in level:
                if id(iu) in depth_of:
                    continue
                depth_of[id(iu)] = depth
                order.append(iu)
                nxt.extend(iu.producers())
            level = nxt
            depth += 1
        for iu in order:
            # Every node here is retired: wake-up lists, memory-ordering
            # links, and chain membership are dead weight.
            iu.consumers.clear()
            iu.chain = None
            iu.source_of_chain = None
            iu.mem_dep_p = None
            for field in ("dispatch_cycle", "issue_cycle", "done_cycle"):
                value = getattr(iu, field)
                if value is not None:
                    setattr(iu, field, value - origin)
            if depth_of[id(iu)] >= MISS_WALK_LIMIT:
                iu.p1 = iu.p2 = None

    # ------------------------------------------------------------------
    # SimComponent protocol
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        # CoreStats is owned (and reset) by SimStats; only the L1's own
        # counters live below this component.
        self.l1.reset_stats()

    def config_state(self) -> dict:
        return {"core_id": self.core_id}

    def snapshot(self, kind: str = KIND_FULL) -> dict:
        self._require_quiesced()
        state = self._header(kind)
        state.update(
            fetch_index=self._fetch_index,
            rename=dict(self.rename),
            regfile=dict(self.regfile),
            l1=self.l1.snapshot(kind),
            page_table=self.page_table.snapshot(kind),
            fetch_blocked=self._fetch_blocked,
            dep_miss_counter=self.dep_miss_counter,
            chain_gen_busy_until=self._chain_gen_busy_until,
            chain_cache=OrderedDict(self._chain_cache),
            finished=self.finished,
            stats_frozen=self.stats_frozen,
            wrap_count=self.wrap_count,
            warmup_limit=self._warmup_limit,
        )
        return state

    def restore(self, state: dict) -> None:
        state = self._check(state)
        self._adopt(state)
        self.l1.restore(state["l1"])
        self._chain_cache.clear()
        self._chain_cache.update(state["chain_cache"])

    def reseat(self, state: dict, report: CarryoverReport,
               path: str = "") -> None:
        """Adopt a snapshot across a config change.  Everything but the
        L1 (re-hashed into its new geometry) and the chain cache
        (trimmed to the live ``emc.chain_cache_entries`` capacity,
        newest-first) is config-independent."""
        state = self._check(state)
        self._adopt(state)
        self.l1.reseat(state["l1"], report, f"{path}/l1")
        saved_cc = state["chain_cache"]
        cap = self.system.cfg.emc.chain_cache_entries
        keep = list(saved_cc.items())[max(0, len(saved_cc) - cap):] \
            if cap else []
        self._chain_cache.clear()
        self._chain_cache.update(keep)
        report.record(f"{path}/chain_cache", len(keep), len(saved_cc))

    def _adopt(self, state: dict) -> None:
        """Shared restore/reseat body for the config-independent fields."""
        self._fetch_index = state["fetch_index"]
        self.rob.clear()
        self.ready.clear()
        self._by_seq.clear()
        self.l1_pending.clear()
        self.rs_occupancy = 0
        self.rename.clear()
        self.rename.update(state["rename"])
        self.regfile.clear()
        self.regfile.update(state["regfile"])
        self.page_table.restore(state["page_table"])
        self._fetch_blocked = state["fetch_blocked"]
        self.dep_miss_counter = state["dep_miss_counter"]
        self._chain_gen_busy_until = state["chain_gen_busy_until"]
        self._tick_scheduled = False
        self._doze_started = None
        self.finished = state["finished"]
        self.stats_frozen = state["stats_frozen"]
        self.wrap_count = state["wrap_count"]
        self._warmup_limit = state["warmup_limit"]

    def _can_fetch(self) -> bool:
        if (self._fetch_blocked or len(self.rob) >= self._rob_entries
                or self.rs_occupancy >= self._rs_entries
                or self._fetch_index >= self._trace_len):
            return False
        if self.stats_frozen and self.system.all_finished:
            return False    # draining: wrapped interference is over
        return (self._warmup_limit is None
                # warmup target reached: quiesce for the boundary
                or self.stats.instructions < self._warmup_limit)

    def _tick(self) -> None:
        """One core cycle: retire, issue, fetch/dispatch, chain
        generation, then reschedule or doze.

        The stage bodies are merged into this single method on purpose.
        On the paper's workloads the window is full most cycles and each
        stage touches about one uop, so fixed per-tick and per-call
        overhead — not the per-uop work — dominates host time.  Hence:

        - one shared set of locals per tick instead of four stage calls;
        - widths, capacities and the EMC switch bound once at
          construction (a core's config never changes), and uop states
          and types read from module-level aliases, not the enum classes;
        - the retired-instruction and dispatched-uop counters bumped once
          per group, not once per uop;
        - the fetch group bounded once by the room left in the window,
          the RS and the trace;
        - :meth:`_can_fetch` called once per tick.  Dispatch can only
          change the window, the RS, the trace position and the fetch
          block, so after a fetch group only those are re-tested; chain
          generation can free RS entries, so a generated chain re-runs
          the full gate.  Every fetch decision still goes through the
          method, so a test can wedge a core by patching it.

        The rare trace-exhausted path stays in :meth:`_on_window_empty`.
        """
        self._tick_scheduled = False
        rob = self.rob
        ready = self.ready
        now = self.wheel.now

        # -- retire ------------------------------------------------------
        if rob and rob[0].state is DONE:
            retire_width = self._retire_width
            by_seq_pop = self._by_seq.pop
            rename_get = self.rename.get
            regfile = self.regfile
            popleft = rob.popleft
            retired = 0
            while True:
                iu = popleft()
                uop = iu.uop
                by_seq_pop(uop.seq, None)
                dest = uop.dest
                if rename_get(dest) is iu:
                    # Keep the committed value readable after the entry
                    # leaves the window.
                    regfile[dest] = iu.value
                retired += 1
                if (retired >= retire_width or not rob
                        or rob[0].state is not DONE):
                    break
            if not self.stats_frozen:
                self.stats.instructions += retired
        if not rob and self._fetch_index >= self._trace_len:
            self._on_window_empty()

        # -- issue -------------------------------------------------------
        if ready:
            issue_width = self._issue_width
            popleft = ready.popleft
            regfile_get = self.regfile.get
            issued = 0
            while ready and issued < issue_width:
                iu = popleft()
                if iu.migrated or iu.state is not READY:
                    continue
                uop = iu.uop
                op = uop.op
                if op is LOAD and not self._l1_mshr_free(iu):
                    ready.appendleft(iu)    # still READY: retry next cycle
                    break
                iu.state = ISSUED
                iu.issue_cycle = now
                if iu.rs_held:
                    iu.rs_held = False
                    self.rs_occupancy -= 1
                if op is LOAD:
                    self._execute_load(iu)
                elif op is STORE:
                    self._execute_store(iu)
                else:
                    # ALU execution, with both operand reads inlined.
                    p = iu.p1
                    if p is not None:
                        a = p.value
                    else:
                        reg = uop.src1
                        a = 0 if reg is None else regfile_get(reg, 0)
                    p = iu.p2
                    if p is not None:
                        b = p.value
                    else:
                        reg = uop.src2
                        b = 0 if reg is None else regfile_get(reg, 0)
                    latency = UOP_LATENCY[op]
                    schedule = self.wheel.schedule
                    if op is BRANCH and uop.mispredicted:
                        schedule(latency + self._mispredict_penalty,
                                 self._unblock_fetch)
                    schedule(latency, partial(self._complete, iu,
                                              execute_alu(uop, a, b)))
                issued += 1

        # -- fetch / dispatch -------------------------------------------
        can_fetch = self._can_fetch()
        if can_fetch:
            trace = self._trace
            rename = self.rename
            rename_get = rename.get
            by_seq = self._by_seq
            rob_append = rob.append
            ready_append = ready.append
            fetch_index = first = self._fetch_index
            # Each dispatched uop takes one trace slot, one ROB entry and
            # one RS entry, so the group is bounded up front by the least
            # room left among the three.
            room = min(self._trace_len - fetch_index,
                       self._rob_entries - len(rob),
                       self._rs_entries - self.rs_occupancy)
            width = self._fetch_width
            stop = fetch_index + (width if width < room else room)
            while fetch_index < stop:
                uop = trace[fetch_index]
                fetch_index += 1
                p1 = rename_get(uop.src1)
                p2 = rename_get(uop.src2)
                iu = InflightUop(uop, now, p1, p2)
                deps = 0
                if p1 is not None and p1.state is not DONE:
                    deps = 1
                    p1.consumers.append(iu)
                if p2 is not None and p2.state is not DONE:
                    deps += 1
                    p2.consumers.append(iu)
                if uop.mem_dep is not None:
                    dep = by_seq.get(uop.mem_dep)
                    if dep is not None and dep.state is not DONE:
                        iu.mem_dep_p = dep
                        deps += 1
                        dep.consumers.append(iu)
                if uop.dest is not None:
                    rename[uop.dest] = iu
                rob_append(iu)
                by_seq[uop.seq] = iu
                if deps:
                    iu.deps = deps
                else:
                    iu.state = READY
                    ready_append(iu)
                if uop.mispredicted and uop.op is BRANCH:
                    self._fetch_blocked = True
                    if not self.stats_frozen:
                        self.stats.mispredicted_branches += 1
                    break
            self._fetch_index = fetch_index
            self.rs_occupancy += fetch_index - first
            if not self.stats_frozen:
                self.system.energy_counters.note_core_uops(
                    fetch_index - first)
            # Room is left in all three exactly when the fetch width, not
            # the room, ended an unblocked group.
            can_fetch = width < room and not self._fetch_blocked

        # -- chain generation + reschedule ------------------------------
        # Chain generation runs only when the EMC is on, the
        # dependent-miss counter says chains pay, the window is actually
        # full, stats are live and the unit is idle — the same early-outs
        # the method itself performs, hoisted here to keep the common tick
        # cheap.
        if (self._emc_enabled
                and self.dep_miss_counter >= self._dep_counter_trigger
                and (len(rob) >= self._rob_entries
                     or self.rs_occupancy >= self._rs_entries)
                and not self.stats_frozen
                and now >= self._chain_gen_busy_until
                and self._maybe_generate_chain()):
            can_fetch = self._can_fetch()
        if ready or can_fetch or (rob and rob[0].state is DONE):
            if not self._tick_scheduled:
                self._schedule_tick(1)
        else:
            self._doze_started = now

    def _on_window_empty(self) -> None:
        """The window drained with the trace exhausted: wrap (warmup or
        interference generation) or finish the measured pass."""
        if self._warmup_limit is not None:
            # Warming up: wrap without finishing so the measured window
            # always starts from a running (not completed) machine.
            if self.stats.instructions < self._warmup_limit:
                self._fetch_index = 0
                self.wrap_count += 1
            return
        if not self.finished:
            self.finished = True
            self.stats_frozen = True
            self.stats.finished_at = self.wheel.now
            self.system.on_core_finished(self.core_id)
        if not self.system.all_finished:
            # Wrap around: keep generating interference for the cores
            # still inside their measurement window (§5 methodology).
            self._fetch_index = 0
            self.wrap_count += 1

    # ------------------------------------------------------------------
    # issue / execute helpers
    # ------------------------------------------------------------------
    def _source_value(self, reg: Optional[int],
                      producer: Optional[InflightUop]) -> int:
        if reg is None:
            return 0
        if producer is not None:
            return producer.value
        return self.regfile.get(reg, 0)

    def _l1_mshr_free(self, iu: InflightUop) -> bool:
        # Loads to a line already pending coalesce and never need an entry.
        uop = iu.uop
        reg = uop.src1
        if reg is None:
            vaddr = uop.imm & MASK64
        else:
            p1 = iu.p1
            base = p1.value if p1 is not None else self.regfile.get(reg, 0)
            vaddr = (base + uop.imm) & MASK64
        paddr = self.page_table.translate(vaddr)
        line = line_addr(paddr)
        iu.vaddr, iu.paddr = vaddr, paddr
        if self.l1.probe(line) is not None:
            return True
        l1_pending = self.l1_pending
        if line in l1_pending:
            return True
        return len(l1_pending) < self.l1_mshr_capacity

    def _unblock_fetch(self) -> None:
        self._fetch_blocked = False
        self.wake()

    def _execute_store(self, iu: InflightUop) -> None:
        base = self._source_value(iu.uop.src1, iu.p1)
        vaddr = effective_address(iu.uop, base)
        iu.vaddr = vaddr
        iu.paddr = self.page_table.translate(vaddr)
        if iu.uop.src2 is not None:
            value = self._source_value(iu.uop.src2, iu.p2)
        else:
            value = iu.uop.imm
        self.image.write(vaddr, value)
        # Write-through, write-allocate L1: install the line so spill fills
        # (and other store-then-load patterns) hit locally.
        self.l1.fill(line_addr(iu.paddr))
        self.l1.access(line_addr(iu.paddr), write=True)
        self.system.energy_counters.note_l1_access()
        self.system.store_writethrough(self.core_id, iu.paddr, iu.uop.pc)
        self.wheel.schedule(1, partial(self._complete, iu, value))

    def _execute_load(self, iu: InflightUop) -> None:
        if iu.vaddr is None:
            base = self._source_value(iu.uop.src1, iu.p1)
            iu.vaddr = effective_address(iu.uop, base)
            iu.paddr = self.page_table.translate(iu.vaddr)
        line = line_addr(iu.paddr)
        frozen = self.stats_frozen
        l1_latency = self.l1_latency
        schedule = self.wheel.schedule
        if not frozen:
            self.system.energy_counters.note_l1_access()
        if self.l1.access(line) is not None:
            if not frozen:
                self.stats.l1_hits += 1
            schedule(l1_latency,
                     partial(self._complete, iu, self.image.read(iu.vaddr)))
            return
        if not frozen:
            self.stats.l1_misses += 1
        waiters = self.l1_pending.get(line)
        if waiters is not None:
            waiters.append(iu)
            return
        self.l1_pending[line] = [iu]
        req = MemRequest(core_id=self.core_id, vaddr=iu.vaddr,
                         paddr=iu.paddr, line=line, pc=iu.uop.pc,
                         uop=iu, callback=self._l1_fill,
                         t_start=self.wheel.now + l1_latency)
        schedule(l1_latency,
                 lambda: self.system.hierarchy.demand_request(req))

    def _l1_fill(self, req: MemRequest) -> None:
        # Installing the line and waking dependents costs an L1 access.
        self.tracer.instant(req, "l1.fill")
        self.wheel.schedule(self.l1_latency, partial(self._l1_fill_done, req))

    def _l1_fill_done(self, req: MemRequest) -> None:
        line = req.line
        self.l1.fill(line)
        waiters = self.l1_pending.pop(line, [])
        for iu in waiters:
            if iu.migrated:
                continue   # value will arrive via the chain's live-outs
            iu.llc_miss_pending = False
            value = self.image.read(iu.vaddr)
            self._complete(iu, value)
        self.tracer.instant(req, "core.wakeup")
        self.wake()

    # ------------------------------------------------------------------
    # completion / wakeup
    # ------------------------------------------------------------------
    def _complete(self, iu: InflightUop, value: int) -> None:
        if iu.state is DONE:
            return
        now = self.wheel.now
        iu.value = value
        iu.state = DONE
        iu.done_cycle = now
        iu.llc_miss_pending = False
        if iu.rs_held:
            iu.rs_held = False
            self.rs_occupancy -= 1
        if iu.source_of_chain is not None:
            # Belt and braces against the data-raced-ahead-of-chain case: a
            # chain parked on this source can always start once the source
            # value is architecturally available.
            self.system.notify_source_complete(iu.source_of_chain)
            iu.source_of_chain = None
        consumers = iu.consumers
        if consumers:
            ready_append = self.ready.append
            for consumer in consumers:
                deps = consumer.deps - 1
                consumer.deps = deps
                if (not deps and consumer.state is WAITING
                        and not consumer.migrated):
                    consumer.state = READY
                    ready_append(consumer)
        # wake(), inlined: a completion either ends a doze or lands while
        # the tick is already scheduled, and this runs once per uop.
        doze_started = self._doze_started
        if doze_started is not None:
            if (len(self.rob) >= self._rob_entries
                    or self.rs_occupancy >= self._rs_entries):
                self.stats.full_window_stall_cycles += (
                    now - doze_started)
            self._doze_started = None
        if not self._tick_scheduled:
            self._schedule_tick()

    # ------------------------------------------------------------------
    # dependent-miss classification (backward dataflow walk)
    # ------------------------------------------------------------------
    def find_miss_root(self, iu: InflightUop) -> Optional[Tuple[InflightUop, int]]:
        """Find the nearest ancestor load that LLC-missed and whose data had
        not returned when ``iu`` was dispatched.  Returns (root, edge_depth)
        with the minimum edge count, or None."""
        best_depth = 0
        best_node: Optional[InflightUop] = None
        dispatch_cycle = iu.dispatch_cycle
        stack: List[Tuple[InflightUop, int]] = [
            (p, 1) for p in (iu.p1, iu.p2) if p is not None]
        pop = stack.pop
        push = stack.append
        visited: set = set()
        visited_add = visited.add
        while stack:
            node, depth = pop()
            if depth > MISS_WALK_LIMIT or node in visited:
                continue
            visited_add(node)
            if (node.uop.op is LOAD and node.was_llc_miss
                    and (node.done_cycle is None
                         or node.done_cycle >= dispatch_cycle)):
                if best_node is None or depth < best_depth:
                    best_depth = depth
                    best_node = node
                continue
            depth += 1
            p = node.p1
            if p is not None:
                push((p, depth))
            p = node.p2
            if p is not None:
                push((p, depth))
        if best_node is None:
            return None
        return best_node, best_depth

    def classify_llc_outcome(self, req: MemRequest, hit: bool,
                             prefetched: bool) -> None:
        """Called by the hierarchy when the LLC outcome of a core demand
        load is known; updates dependent-miss statistics and flags."""
        iu: Optional[InflightUop] = req.uop
        if iu is None or req.is_store:
            return
        root = self.find_miss_root(iu)
        frozen = self.stats_frozen
        if hit:
            if not frozen:
                self.stats.llc_hits += 1
                if prefetched and root is not None:
                    self.stats.dependent_covered_by_prefetch += 1
            return
        if not frozen:
            self.stats.llc_misses += 1
            self.stats.source_misses_total += 1
        iu.was_llc_miss = True
        iu.llc_miss_pending = True
        # Loads coalesced on the same line share the outcome (they are just
        # as stalled, and just as eligible to root a chain); they are not
        # double-counted in the miss statistics.
        for waiter in self.l1_pending.get(req.line, ()):
            if waiter is not iu and not waiter.was_llc_miss:
                waiter.was_llc_miss = True
                waiter.llc_miss_pending = True
        # Wake the core: if it dozed on a full window, the chain-generation
        # check must run now that the head is known to be an LLC miss.
        self.wake()
        # The 3-bit dependent-miss-likelihood counter (Section 4.2) trains
        # here: a miss that is itself dependent on a prior miss is the
        # evidence that chains are worth generating.
        if root is not None:
            root_iu, depth = root
            iu.is_dependent_miss = True
            req.dependent = True
            if not root_iu.had_dependent:
                root_iu.had_dependent = True
                if not frozen:
                    self.stats.source_misses_with_dependent += 1
            if not frozen:
                self.stats.dependent_misses += 1
                self.stats.dependent_chain_ops_total += max(0, depth - 1)
            self.dep_miss_counter = min(7, self.dep_miss_counter + 1)
        else:
            self.dep_miss_counter = max(0, self.dep_miss_counter - 1)

    # ------------------------------------------------------------------
    # chain generation (Section 4.2, Algorithm 1)
    # ------------------------------------------------------------------
    def _maybe_generate_chain(self) -> bool:
        """Generate and send one chain if the core is in a full-window
        stall and the trigger allows it; True when a chain was sent (its
        uops left the RS)."""
        system = self.system
        if not self._emc_enabled or self.stats_frozen:
            return False
        # Full-window stall: dispatch is blocked (ROB or RS exhausted) while
        # an LLC miss blocks retirement.  The RS-full case matters because a
        # dependence-heavy window parks unissued uops in the RS long before
        # the ROB itself fills.
        if (len(self.rob) < self._rob_entries
                and self.rs_occupancy < self._rs_entries):
            return False
        if self.wheel.now < self._chain_gen_busy_until:
            return False
        if self.dep_miss_counter < self._dep_counter_trigger:
            return False
        # Pick the oldest outstanding LLC miss that still has un-issued
        # dependents: accelerating the retirement-blocking slice frees the
        # window soonest (migrating a younger miss's slice would freeze
        # retirement behind it and throttle the core's own MLP).  A source
        # whose slice turns out to contain no dependent load (e.g. only a
        # branch consumer) is skipped and the next pending miss is tried.
        chain = None
        attempts = 0
        for iu in self.rob:
            if (not iu.llc_miss_pending or iu.uop.op is not LOAD
                    or iu.migrated or iu.chain_attempted):
                continue
            if not any(c.state is WAITING and not c.migrated
                       for c in iu.consumers):
                continue
            if not system.emc_context_available(iu.paddr):
                # Leave the source eligible: a later stall evaluation
                # retries once a context frees up.
                system.stats.emc.note_rejected_no_context()
                return False
            attempts += 1
            iu.chain_attempted = True
            chain = self._build_chain(iu)
            if chain is not None or attempts >= 8:
                break
        if chain is None:
            return False
        # Optional chain cache: a repeat source PC skips the multi-cycle
        # dataflow walk (the shape was learned last time).
        cache_size = system.cfg.emc.chain_cache_entries
        cached = False
        if cache_size:
            pc = chain.source_ref.uop.pc
            cached = pc in self._chain_cache
            self._chain_cache[pc] = True
            self._chain_cache.move_to_end(pc)
            while len(self._chain_cache) > cache_size:
                self._chain_cache.popitem(last=False)
        gen_cycles = 1 if cached else len(chain) + 1
        self._chain_gen_busy_until = self.wheel.now + gen_cycles
        system.stats.emc.note_chain_generated(
            uops=len(chain), live_ins=chain.live_in_count,
            live_outs=chain.live_out_count, gen_cycles=gen_cycles,
            from_cache=cached)
        self.wheel.schedule(gen_cycles, lambda: system.send_chain(chain))
        self._schedule_tick(1)
        return True

    #: how far past the chain cap the forward walk explores before the
    #: backward slice filter trims it down to address-generating uops.
    #: Kept small: long chains put deep dependent loads on the chain's
    #: completion path, delaying the live-out return that unblocks the core.
    _WALK_OVERSHOOT = 2

    def _build_chain(self, source: InflightUop) -> Optional[DependenceChain]:
        """Algorithm 1 plus the paper's slice filter.

        Phase 1 — forward pseudo-wake-up walk: starting from the source
        miss, a ROB entry is *woken* when it is EMC-executable, every source
        is ready or chain-produced, and at least one source is
        chain-produced.

        Phase 2 — backward slice: "only the operations that are required to
        generate the address for the dependent cache miss are included", so
        the candidate set is filtered to loads, spill stores they order
        after, and their transitive producers.  A dependent *mispredicted*
        branch truncates the walk — everything past it is wrong-path from
        the EMC's point of view and the EMC will cancel there (§4.3).
        """
        # Chain-generation energy events accumulate in a flat CounterBank
        # (list-index adds on the walk's hot path) and drain into the
        # energy counters on every exit from the real walk below.
        counts = self._chain_energy.counts
        CDB, RRT_R, RRT_W, ROB_R = 0, 1, 2, 3
        try:
            return self._build_chain_inner(source, counts,
                                           CDB, RRT_R, RRT_W, ROB_R)
        finally:
            self.system.energy_counters.absorb(self._chain_energy)

    def _build_chain_inner(self, source: InflightUop, counts: List[int],
                           CDB: int, RRT_R: int, RRT_W: int, ROB_R: int
                           ) -> Optional[DependenceChain]:
        emc_cfg = self.system.cfg.emc
        woken = {source.seq}            # seqs whose dest is chain-produced
        value_depth = {source.seq: 0}   # load-indirection depth per value
        candidates: List[InflightUop] = []
        max_walk = emc_cfg.max_chain_uops * self._WALK_OVERSHOOT
        counts[CDB] += 1                # pseudo wake-up of the source miss

        rob = list(self.rob)
        try:
            start = rob.index(source) + 1
        except ValueError:
            return None
        mispredict_truncated = False

        def slot(producer: Optional[InflightUop]) -> str:
            if producer is None or producer.state is DONE:
                return "ready"
            if producer.seq in woken:
                return "woken"
            return "blocked"

        for iu in rob[start:]:
            if len(candidates) >= max_walk:
                break
            if iu.state is not WAITING or iu.migrated:
                continue
            uop = iu.uop
            s1 = slot(iu.p1) if uop.src1 is not None else "absent"
            s2 = slot(iu.p2) if uop.src2 is not None else "absent"
            if "blocked" in (s1, s2):
                continue
            woken_via_mem = (iu.mem_dep_p is not None
                             and iu.mem_dep_p.seq in woken)
            if "woken" not in (s1, s2) and not woken_via_mem:
                continue                # independent of the chain
            if uop.op is BRANCH:
                if uop.mispredicted:
                    # The EMC would run onto the wrong path here; stop.
                    mispredict_truncated = True
                    break
                continue                # correct directions ship as metadata
            if not uop.emc_allowed:
                continue
            if uop.op is STORE and not uop.is_spill_fill:
                continue
            if iu.mem_dep_p is not None:
                dep = iu.mem_dep_p
                if dep.state is not DONE and dep.seq not in woken:
                    continue
            depth = max((value_depth.get(p.seq, 0) for p in iu.producers()
                         if p.seq in woken), default=0)
            if uop.op is LOAD:
                fill_forwarded = (uop.is_spill_fill and iu.mem_dep_p is not None
                                  and iu.mem_dep_p.seq in woken)
                if not fill_forwarded:
                    # A spill fill forwards from the EMC LSQ — it is not a
                    # level of memory indirection.
                    depth += 1
                if depth > emc_cfg.max_load_depth:
                    continue            # too deep: it would gate live-outs
            counts[CDB] += 1
            woken.add(iu.seq)           # stores wake fills via mem_dep
            if uop.dest is not None:
                value_depth[iu.seq] = depth
            candidates.append(iu)

        # Phase 2: backward slice from the memory uops.
        in_chain: Dict[int, InflightUop] = {c.seq: c for c in candidates}
        keep: Dict[int, bool] = {}
        for iu in reversed(candidates):
            needed = keep.get(iu.seq, False) or iu.uop.is_mem
            keep[iu.seq] = needed
            if not needed:
                continue
            for producer in iu.producers():
                if producer.seq in in_chain:
                    keep[producer.seq] = True
            if iu.mem_dep_p is not None and iu.mem_dep_p.seq in in_chain:
                keep[iu.mem_dep_p.seq] = True
        kept = [c for c in candidates if keep.get(c.seq, False)]
        # Drop spill stores whose fill load did not survive the filter.
        fills_present = {c.uop.mem_dep for c in kept
                         if c.uop.mem_dep is not None}
        kept = [c for c in kept
                if not (c.uop.op is STORE
                        and c.seq not in fills_present)]
        kept = kept[: emc_cfg.max_chain_uops]
        if not any(c.uop.op is LOAD for c in kept):
            self.system.stats.emc.note_chain_no_load()
            return None

        # Assign EMC physical registers and build the shippable chain.
        rrt: Dict[int, int] = {source.seq: 0}
        seq_to_index: Dict[int, int] = {source.seq: -1}
        next_epr = 1
        chain_uops: List[ChainUop] = []
        live_ins = 0
        counts[RRT_W] += 1
        for iu in kept:
            if next_epr >= emc_cfg.prf_entries:
                break
            uop = iu.uop
            cu = ChainUop(uop=uop, dest_epr=None, index=len(chain_uops),
                          core_ref=iu)
            counts[ROB_R] += 1
            skip = False
            for slot_no, (reg, producer) in enumerate(
                    ((uop.src1, iu.p1), (uop.src2, iu.p2)), start=1):
                if reg is None:
                    continue
                counts[RRT_R] += 1
                if producer is not None and producer.seq in rrt:
                    if producer.seq not in seq_to_index:
                        skip = True     # producer fell off the EPR cap
                        break
                    index = seq_to_index[producer.seq]
                    if slot_no == 1:
                        cu.src1_epr = rrt[producer.seq]
                        cu.src1_index = index
                    else:
                        cu.src2_epr = rrt[producer.seq]
                        cu.src2_index = index
                    cu.dep_indices.append(index)
                elif producer is not None and producer.state is not DONE:
                    skip = True         # producer was filtered out
                    break
                else:
                    value = self._source_value(reg, producer)
                    if slot_no == 1:
                        cu.src1_value = value
                    else:
                        cu.src2_value = value
                    live_ins += 1
            if skip:
                continue
            if iu.mem_dep_p is not None:
                if iu.mem_dep_p.seq in seq_to_index:
                    cu.dep_indices.append(seq_to_index[iu.mem_dep_p.seq])
                elif iu.mem_dep_p.state is not DONE:
                    continue    # ordering store missing from the chain
            if uop.dest is not None:
                cu.dest_epr = next_epr
                rrt[iu.seq] = next_epr
                next_epr += 1
                counts[RRT_W] += 1
            seq_to_index[iu.seq] = cu.index
            chain_uops.append(cu)

        if not any(cu.uop.op is LOAD for cu in chain_uops):
            self.system.stats.emc.note_chain_no_load()
            return None
        chain = DependenceChain(
            core_id=self.core_id,
            source_seq=source.seq,
            source_line=line_addr(source.paddr),
            source_vaddr=source.vaddr,
            source_dest_epr=0,
            uops=chain_uops,
            live_in_count=live_ins,
            source_ref=source,
            generated_at=self.wheel.now,
            mispredict_truncated=mispredict_truncated,
        )
        for cu in chain_uops:
            iu = cu.core_ref
            iu.migrated = True
            iu.chain = chain
            if iu.rs_held:
                # "These uops are read out of the instruction window and
                # sent to the EMC" — they free their RS entries like any
                # issued uop would.
                iu.rs_held = False
                self.rs_occupancy -= 1
        source.source_of_chain = chain
        return chain

    # ------------------------------------------------------------------
    # chain reconciliation (live-outs / cancellation)
    # ------------------------------------------------------------------
    def apply_chain_liveouts(self, chain: DependenceChain,
                             values: Dict[int, int]) -> None:
        """Live-outs arrived: complete every migrated uop with its
        EMC-computed value (physical-register tag broadcast, Section 4.3)."""
        for cu in chain.uops:
            iu: InflightUop = cu.core_ref
            iu.migrated = False
            if iu.state is WAITING or iu.state is READY:
                self._complete(iu, values.get(cu.index, 0))
        self.wake()

    def cancel_chain(self, chain: DependenceChain) -> None:
        """The EMC halted (mispredicted branch, TLB miss, disambiguation):
        un-migrate every uop so the core re-executes the chain normally."""
        for cu in chain.uops:
            iu: InflightUop = cu.core_ref
            if not iu.migrated:
                continue
            iu.migrated = False
            if iu.state is WAITING:
                # Back into the window; RS occupancy may transiently exceed
                # capacity (hardware would drain re-insertions gradually).
                if not iu.rs_held:
                    iu.rs_held = True
                    self.rs_occupancy += 1
                if iu.deps == 0:
                    iu.state = READY
                    self.ready.append(iu)
        self.wake()
