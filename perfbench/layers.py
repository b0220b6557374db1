"""Host-time attribution per simulator layer, from the benchmark's own files.

:class:`LayerTracer` wraps the public entry points (and the event-wheel
callback targets) of each simulator layer by patching their classes, so
no ``src/`` change is needed.  Each wrapper keeps, per method, the call
count, the *self* time (its duration minus the time of wrapped calls it
made) and the inclusive time.  Coarse phases (build, construct, warmup,
measure, fork, checkpoint, farm job) additionally become spans in a
Chrome-trace file; the per-call work stays as aggregates, so a traced run
never writes a million spans.

The wrappers must be installed before a ``System`` is built: the hot paths
bind methods (``wheel.advance``, ``self._l1_fill``) at construction.

Around every ``System.run`` (the measured window) the tracer snapshots its
aggregates and a few counters the simulator keeps itself, and checks that
both saw the same number of operations (:data:`CROSS_CHECKS`); a hot path
the wrappers missed shows up as a mismatch.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.analysis import parallel
from repro.core.ooo_core import OutOfOrderCore
from repro.emc.controller import EMC
from repro.emc.miss_predictor import OffChipPredictor
from repro.interconnect import Interconnect
from repro.memsys.cache import SetAssocCache
from repro.memsys.dram import DRAMChannel
from repro.memsys.hierarchy import MemoryHierarchy
from repro.memsys.llc import LLC
from repro.prefetch import Prefetcher
from repro.sim.events import EventWheel
from repro.sim.system import System
from repro.workloads import mixes

#: layer -> (class, methods).  Subclasses that override a listed method
#: are wrapped too, so every fabric, predictor and prefetcher kind counts.
LAYER_METHODS: Dict[str, Tuple[Tuple[type, Tuple[str, ...]], ...]] = {
    "sim.wheel": ((EventWheel, ("advance", "run")),),
    "core": ((OutOfOrderCore, (
        "_tick", "_complete", "_l1_fill", "_l1_fill_done", "_unblock_fetch",
        "wake", "classify_llc_outcome", "apply_chain_liveouts",
        "cancel_chain")),),
    "memsys.cache": ((SetAssocCache, ("access", "probe", "fill",
                                      "invalidate")),),
    "memsys.hierarchy": (
        (MemoryHierarchy, (
            "demand_request", "_at_slice", "_llc_probe", "_allocate_llc_miss",
            "_to_mc", "_at_mc", "_dram_done", "_fill_llc", "_fill_llc_done",
            "_on_fill", "_delivered", "store_writethrough", "_store_at_slice",
            "_store_at_slice_now", "_writeback", "_enqueue_with_retry",
            "_issue_prefetch", "emc_fetch", "_emc_llc_probe",
            "_emc_llc_outcome", "_emc_to_dram", "_emc_fill_llc",
            "_emc_delivered", "_emc_invalidate")),
        (LLC, ("access", "probe", "fill", "mark_emc"))),
    "memsys.dram": ((DRAMChannel, ("enqueue", "_pick")),),
    "interconnect": ((Interconnect, ("send",)),),
    "emc": (
        (EMC, ("accept_chain", "on_dram_line", "start_if_parked",
               "invalidate_line", "cancel_for_disambiguation", "_tick",
               "_complete", "_cancel", "_retry_load")),
        # The core<->EMC chain transport lives on System.
        (System, ("send_chain", "return_liveouts", "chain_cancelled",
                  "fetch_pte", "notify_source_complete", "notify_core_lsq"))),
    "emc.predictor": ((OffChipPredictor, ("predict_miss", "update")),),
    "prefetch": ((Prefetcher, ("observe",)),),
}

#: work a call did beyond being one call: events dispatched by the
#: wheel, DRAM requests accepted, uops built
WORK: Dict[str, Callable[[object], int]] = {
    "EventWheel.advance": lambda executed: executed,
    "EventWheel.run": lambda executed: executed,
    "DRAMChannel.enqueue": lambda accepted: 1 if accepted else 0,
    "phase.build": lambda built: len(built[0].uops),
}

#: coarse phases: span name -> (owner, attribute)
PHASES: Dict[str, Tuple[object, str]] = {
    "build": (mixes, "build_trace"),
    "construct": (System, "__init__"),
    "warmup": (System, "warmup"),
    "measure": (System, "run"),
    "fork": (System, "fork"),
    "checkpoint": (System, "checkpoint"),
    "checkpoint_load": (System, "from_checkpoint"),
    "farm_job": (parallel, "execute_job"),
}


def _caches(system: System) -> List[SetAssocCache]:
    caches = [core.l1 for core in system.cores]
    caches += [sl.cache for sl in system.hierarchy.llc.slices]
    caches += [emc.dcache for emc in system.emcs if emc is not None]
    return caches


#: operation -> (layer, its wrapped methods, whether their work (else
#: their calls) is summed, the simulator's running count of the same
#: operation)
CROSS_CHECKS: Dict[str, Tuple[str, Tuple[str, ...], bool,
                              Callable[[System], int]]] = {
    "interconnect.send": ("interconnect", ("send",), False,
                          lambda s: s.ring.stats.messages),
    "memsys.cache.access": ("memsys.cache", ("access",), False,
                            lambda s: sum(c.stats.hits + c.stats.misses
                                          for c in _caches(s))),
    "memsys.dram.accepted": ("memsys.dram", ("enqueue",), True,
                             lambda s: sum(d.stats.accesses
                                           for d in s.hierarchy.dram)),
    "emc.predictor.predict": ("emc.predictor", ("predict_miss",), False,
                              lambda s: (s.stats.emc.miss_pred_correct
                                         + s.stats.emc.miss_pred_wrong)),
    "sim.events": ("sim.wheel", ("advance", "run"), True,
                   lambda s: s.wheel._seq),
}


_ZERO = (0, 0.0, 0.0, 0)


def _subclasses(cls: type) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


class LayerTracer:
    """Per-method call/self-time aggregates plus coarse Chrome spans.

    ``totals`` covers everything since installation; ``measure`` only the
    measured windows (``System.run`` calls).  Each aggregate is a list
    ``[calls, self_s, inclusive_s, work]``.
    """

    def __init__(self, layers: bool = True) -> None:
        #: False installs the coarse phases only, a handful of calls per
        #: run: the clock of the untraced runs
        self.layers = layers
        self.totals: Dict[str, List[float]] = {}
        self.measure: Dict[str, List[float]] = {}
        self.layer_of: Dict[str, str] = {}
        self.spans: List[Tuple[str, float, float]] = []
        #: the simulator's own counts over the measured windows
        self.sim_counts: Dict[str, int] = {}
        self.check_failures: List[str] = []
        self.checks_run = 0
        self._stack: List[float] = [0.0]
        self._origin = perf_counter()
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, key: str, fn: Callable, span: Optional[str] = None,
              work: Optional[Callable[[object], int]] = None) -> Callable:
        rec = self.totals.setdefault(key, [0, 0.0, 0.0, 0])
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack[-2] += elapsed
                rec[0] += 1
                rec[1] += elapsed - stack.pop()
                rec[2] += elapsed
                if span is not None:
                    spans.append((span, start, elapsed))
            if work is not None:
                rec[3] += work(result)
            return result
        return wrapper

    def _patch(self, owner: object, name: str, replacement: object) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _measured(self, run: Callable) -> Callable:
        """Snapshot aggregates and simulator counters around a window."""

        @functools.wraps(run)
        def measured_run(system, *args, **kwargs):
            before = {k: list(v) for k, v in self.totals.items()}
            sim_before = {name: check[-1](system)
                          for name, check in CROSS_CHECKS.items()}
            stats = run(system, *args, **kwargs)
            delta = {key: [rec[i] - before.get(key, _ZERO)[i]
                           for i in range(4)]
                     for key, rec in self.totals.items()}
            for key, moved in delta.items():
                acc = self.measure.setdefault(key, [0, 0.0, 0.0, 0])
                for i in range(4):
                    acc[i] += moved[i]
            sim_delta = {name: check[-1](system) - sim_before[name]
                         for name, check in CROSS_CHECKS.items()}
            for name, moved in sim_delta.items():
                self.sim_counts[name] = self.sim_counts.get(name, 0) + moved
            if self.layers:
                self._cross_check(delta, sim_delta)
            return stats
        return measured_run

    def _cross_check(self, delta: Dict[str, List[float]],
                     sim_delta: Dict[str, int]) -> None:
        for name, (layer, methods, use_work, _count) in CROSS_CHECKS.items():
            traced = sum(moved[3 if use_work else 0]
                         for key, moved in delta.items()
                         if self.layer_of.get(key) == layer
                         and key.rsplit(".", 1)[1] in methods)
            self.checks_run += 1
            if traced != sim_delta[name]:
                self.check_failures.append(
                    f"{name}: wrappers saw {traced}, simulator counted "
                    f"{sim_delta[name]}")

    def install(self) -> None:
        for layer, entries in (LAYER_METHODS.items() if self.layers else ()):
            for base, names in entries:
                for cls in _subclasses(base):
                    for name in names:
                        fn = cls.__dict__.get(name)
                        if not callable(fn):
                            continue
                        key = f"{cls.__name__}.{name}"
                        self.layer_of[key] = layer
                        self._patch(cls, name,
                                    self._wrap(key, fn, work=WORK.get(key)))
        for span, (owner, name) in PHASES.items():
            original = owner.__dict__[name]
            key = f"phase.{span}"
            self.layer_of[key] = "phase"
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(key, original.__func__,
                                                 span=span))
            else:
                wrapped = self._wrap(key, original, span=span,
                                     work=WORK.get(key))
                if span == "measure":
                    wrapped = self._measured(wrapped)
            self._patch(owner, name, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading -----------------------------------------------------------

    def layer(self, layer: str) -> List[float]:
        """``[calls, self_s, inclusive_s, work]`` of one layer, summed
        over the measured windows."""
        out = [0, 0.0, 0.0, 0]
        for key, rec in self.measure.items():
            if self.layer_of.get(key) == layer:
                for i in range(4):
                    out[i] += rec[i]
        return out

    def method(self, key: str, measure: bool = True) -> List[float]:
        source = self.measure if measure else self.totals
        return list(source.get(key, _ZERO))

    def phase_s(self, span: str) -> float:
        return self.totals.get(f"phase.{span}", _ZERO)[2]

    def phase_durations(self, span: str) -> List[float]:
        return [elapsed for name, _start, elapsed in self.spans
                if name == span]

    def write_chrome_trace(self, path: str, process_name: str) -> None:
        """Coarse spans as Chrome-trace complete events (microseconds)."""
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": process_name}}]
        for name, start, elapsed in self.spans:
            events.append({"name": name, "cat": "phase", "ph": "X",
                           "pid": 1, "tid": 1,
                           "ts": round((start - self._origin) * 1e6, 3),
                           "dur": round(elapsed * 1e6, 3)})
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
