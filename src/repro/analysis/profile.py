"""Host-side profiling harness (``repro profile``).

Profiles the *host* Python execution of one pinned simulation — the same
quad-mix configuration ``repro bench`` times — so hot-frame reports are
comparable across revisions and directly actionable against the bench
trend (``BENCH_<rev>.json``).  Wall-clock and profiler use live here in
the analysis layer, where SIM003 permits them; simulated behaviour is
untouched.

The harness separates the two phases a revision can regress
independently:

``build``
    Config construction plus workload generation (trace synthesis and
    memory-image population).

``sim``
    The event-wheel run itself: warmup, measured window, drain.

``cProfile`` is always available; ``pyinstrument`` is used instead when
installed and requested (``--engine pyinstrument``), falling back with a
note otherwise.  Use ``--out FILE.pstats`` to dump raw stats for
``snakeviz``/``pstats`` spelunking.

``--engine opcodes`` counts executed bytecodes per function instead of
timing anything (``sys.settrace`` with ``f_trace_opcodes``), normalised
per instruction the pinned run retires in its measured window.  The
counts do not depend on the host's speed or load, only on the code and
the Python version, so two revisions can be compared on a noisy host.
It runs the phase one to two orders of magnitude slower than untraced.
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .bench import (BENCH_MIX, BENCH_N_INSTRS, BENCH_PREFETCHER, BENCH_SEED,
                    BENCH_WARMUP)

#: phases the harness can profile in isolation
PHASES = ("build", "sim", "all")

#: profiling engines; pyinstrument is optional and gated at runtime
ENGINES = ("cprofile", "pyinstrument", "opcodes")


@dataclass(frozen=True)
class ProfileReport:
    """One profiled phase: its report text and where raw stats went."""

    phase: str
    engine: str
    text: str
    out_path: Optional[str] = None

    def format(self) -> str:
        header = f"== phase: {self.phase} ({self.engine}) =="
        lines = [header, self.text.rstrip()]
        if self.out_path:
            lines.append(f"raw profile written to {self.out_path}")
        return "\n".join(lines)


def _have_pyinstrument() -> bool:
    try:
        import pyinstrument  # noqa: F401
    except ImportError:
        return False
    return True


def _profile_cprofile(fn: Callable[[], object], sort: str, limit: int,
                      out_path: Optional[str]) -> Tuple[str, object]:
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        value = fn()
    finally:
        profiler.disable()
    if out_path:
        profiler.dump_stats(out_path)
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.strip_dirs().sort_stats(sort).print_stats(limit)
    return buf.getvalue(), value


def _profile_pyinstrument(fn: Callable[[], object],
                          out_path: Optional[str]) -> Tuple[str, object]:
    from pyinstrument import Profiler
    profiler = Profiler()
    profiler.start()
    try:
        value = fn()
    finally:
        profiler.stop()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(profiler.output_html())
    return profiler.output_text(unicode=True, color=False), value


def _function_name(code, owner: Optional[str]) -> str:
    # co_qualname is new in Python 3.11; before it, a method is named by
    # the class of the ``self`` it was first called on.
    qualname = getattr(code, "co_qualname", None)
    if qualname is None:
        qualname = f"{owner}.{code.co_name}" if owner else code.co_name
    return (f"{qualname} "
            f"({code.co_filename.rsplit('/', 1)[-1]}:{code.co_firstlineno})")


def count_opcodes(fn: Callable[[], object]
                  ) -> Tuple[Dict[str, int], Dict[str, int], object]:
    """Run ``fn`` with a tracer that counts every executed bytecode.

    Returns ``(bytecodes, calls, value)``: per-function executed
    bytecodes and calls (keyed ``qualname (file:line)``), and what ``fn``
    returned.  Builtins run in C and execute no bytecode; their cost
    shows up in the count of the Python function that called them.
    """
    opcodes: Counter = Counter()
    calls: Counter = Counter()
    owners: Dict[object, Optional[str]] = {}
    need_owner = not hasattr(count_opcodes.__code__, "co_qualname")

    def local(frame, event, _arg):
        if event == "opcode":
            opcodes[frame.f_code] += 1
        return local

    def on_call(frame, _event, _arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        code = frame.f_code
        if need_owner and code not in owners:
            this = frame.f_locals.get("self")
            owners[code] = None if this is None else type(this).__name__
        calls[code] += 1
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        value = fn()
    finally:
        sys.settrace(previous)
    # Several code objects can share a name (a lambda per line); fold
    # them so the report reads by function.
    by_name: Counter = Counter()
    calls_by_name: Counter = Counter()
    for code, count in opcodes.items():
        by_name[_function_name(code, owners.get(code))] += count
    for code, count in calls.items():
        calls_by_name[_function_name(code, owners.get(code))] += count
    return dict(by_name), dict(calls_by_name), value


def _format_opcodes(bytecodes: Dict[str, int], calls: Dict[str, int],
                    per: int, unit: str, limit: int) -> str:
    total = sum(bytecodes.values())
    lines = [f"{total:,} bytecodes over {per:,} {unit}s: "
             f"{total / per:,.1f} per {unit}",
             f"{'per ' + unit:>12} {'share':>6} {'calls':>10}  function"]
    ranked = sorted(bytecodes.items(), key=lambda item: (-item[1], item[0]))
    for name, count in ranked[:limit]:
        lines.append(f"{count / per:12.1f} {count / total:6.1%} "
                     f"{calls.get(name, 0):10,}  {name}")
    return "\n".join(lines)


def _profile_opcodes(fn: Callable[[], object], limit: int,
                     out_path: Optional[str]) -> Tuple[str, object]:
    bytecodes, calls, value = count_opcodes(fn)
    stats = getattr(value, "stats", None)
    if stats is not None:
        # A simulation: per instruction retired in the measured window.
        per, unit = stats.total_instructions(), "instr"
    else:
        # A built (config, workload): per uop built.
        per, unit = sum(len(trace.uops) for trace, _ in value[1]), "uop"
    per = max(1, per)
    if out_path:
        with open(out_path, "w") as fh:
            json.dump({"per": per, "unit": unit, "bytecodes": bytecodes,
                       "calls": calls}, fh, indent=1, sort_keys=True)
    return _format_opcodes(bytecodes, calls, per, unit, limit), value


def _run_one(fn: Callable[[], object], phase: str, engine: str, sort: str,
             limit: int, out_path: Optional[str]) -> Tuple[ProfileReport,
                                                           object]:
    if engine == "opcodes":
        text, value = _profile_opcodes(fn, limit, out_path)
        return ProfileReport(phase=phase, engine=engine, text=text,
                             out_path=out_path), value
    chosen = engine
    if engine == "pyinstrument" and not _have_pyinstrument():
        chosen = "cprofile"
    if chosen == "pyinstrument":
        text, value = _profile_pyinstrument(fn, out_path)
    else:
        text, value = _profile_cprofile(fn, sort, limit, out_path)
        if engine == "pyinstrument":
            text = ("pyinstrument not installed; fell back to cProfile\n"
                    + text)
    return ProfileReport(phase=phase, engine=chosen, text=text,
                         out_path=out_path), value


def profile_run(mix: str = BENCH_MIX,
                n_instrs: int = BENCH_N_INSTRS,
                warmup_instrs: int = BENCH_WARMUP,
                prefetcher: str = BENCH_PREFETCHER,
                emc: bool = True,
                seed: int = BENCH_SEED,
                phase: str = "all",
                engine: str = "cprofile",
                sort: str = "cumulative",
                limit: int = 30,
                out_path: Optional[str] = None) -> list:
    """Profile the pinned quad-mix run; returns one report per phase.

    ``phase`` selects which phase(s) run *under the profiler*; both
    always execute (the sim phase needs the build phase's output).
    """
    if phase not in PHASES:
        raise ValueError(f"unknown phase {phase!r}; choose from {PHASES}")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    from ..sim.runner import run_system
    from .parallel import build_job_config, build_job_workload, job

    pinned = job(mix, n_instrs, prefetcher=prefetcher, emc=emc, seed=seed,
                 warmup_instrs=warmup_instrs)

    def build():
        return build_job_config(pinned), build_job_workload(pinned)

    reports = []
    if phase == "all":
        def whole():
            cfg, workload = build()
            return run_system(cfg, workload, warmup_instrs=warmup_instrs)
        report, _ = _run_one(whole, "all", engine, sort, limit, out_path)
        reports.append(report)
        return reports

    if phase == "build":
        report, built = _run_one(build, "build", engine, sort, limit,
                                 out_path)
        reports.append(report)
    else:
        built = build()
    if phase == "sim":
        cfg, workload = built

        def sim():
            return run_system(cfg, workload, warmup_instrs=warmup_instrs)
        report, _ = _run_one(sim, "sim", engine, sort, limit, out_path)
        reports.append(report)
    return reports
