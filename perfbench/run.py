"""The repository benchmark: host speed of the simulator, end to end and
per layer.

    python3 perfbench/run.py --workload h4-emc --seed 1 --seconds 25 --trace 0

Run from the repository root.  With ``--trace 0`` it repeats the workload
with tracing off for about ``--seconds`` and reports the end-to-end
metrics over the repetitions; with ``--trace 1`` it alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones.  Every repetition's simulated output is checked.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each run also writes a full record (host fingerprint, deterministic work
counters, every repetition) to ``.perfbench/out/``, and a traced run a
Chrome-trace file of its coarse spans.  ``--write-reference`` re-records
the reference digests of ``reference.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

#: (name, unit) of the end-to-end metrics, in BENCHMARK.json order
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("sim_instrs_per_s", "instrs/s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of the per-layer metrics of a traced run
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("workloads.build_s", "s"),
    ("workloads.ns_per_uop", "ns"),
    ("sim.construct_s", "s"),
    ("sim.warmup_s", "s"),
    ("sim.fork_s", "s"),
    ("sim.checkpoint_s", "s"),
    ("sim.events", "count"),
    ("sim.wheel.self_s", "s"),
    ("sim.ns_per_event", "ns"),
    ("core.ticks", "count"),
    ("core.tick.self_s", "s"),
    ("core.ns_per_tick", "ns"),
    ("core.ipc", "instrs/cycle"),
    ("core.full_window_stall_frac", "ratio"),
    ("memsys.cache.calls", "count"),
    ("memsys.cache.self_s", "s"),
    ("memsys.hierarchy.calls", "count"),
    ("memsys.hierarchy.self_s", "s"),
    ("memsys.dram.calls", "count"),
    ("memsys.dram.self_s", "s"),
    ("memsys.l1.hit_rate", "ratio"),
    ("memsys.llc.hit_rate", "ratio"),
    ("memsys.dram.row_conflict_rate", "ratio"),
    ("memsys.miss_queue_cycles", "cycles"),
    ("interconnect.sends", "count"),
    ("interconnect.self_s", "s"),
    ("interconnect.avg_latency_cycles", "cycles"),
    ("emc.calls", "count"),
    ("emc.self_s", "s"),
    ("emc.chains_generated", "count"),
    ("emc.chains_executed", "count"),
    ("emc.miss_fraction", "ratio"),
    ("predictor.calls", "count"),
    ("predictor.self_s", "s"),
    ("predictor.precision", "ratio"),
    ("predictor.recall", "ratio"),
    ("prefetch.calls", "count"),
    ("prefetch.self_s", "s"),
    ("prefetch.accuracy", "ratio"),
    ("farm.jobs", "count"),
    ("farm.job_s_p50", "s"),
    ("farm.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

#: (tracer layer, calls metric, self-time metric) of the host layers
HOST_LAYERS = (("memsys.cache", "memsys.cache.calls", "memsys.cache.self_s"),
               ("memsys.hierarchy", "memsys.hierarchy.calls",
                "memsys.hierarchy.self_s"),
               ("memsys.dram", "memsys.dram.calls", "memsys.dram.self_s"),
               ("interconnect", "interconnect.sends", "interconnect.self_s"),
               ("emc", "emc.calls", "emc.self_s"),
               ("emc.predictor", "predictor.calls", "predictor.self_s"),
               ("prefetch", "prefetch.calls", "prefetch.self_s"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(report) -> Dict[str, float]:
    """Medians over the untraced repetitions that produced results, each
    host time in seconds of the reference host (``hostspeed.py``);
    memory is each repetition's own peak."""
    done = [rep for rep in report.reps if rep.produced] or report.reps
    return {
        "setup_s": statistics.median(rep.ref_s["setup_s"] for rep in done),
        "sim_instrs_per_s": statistics.median(rep.ref_instrs_per_s
                                              for rep in done),
        "wall_s": statistics.median(rep.ref_s["wall_s"] for rep in done),
        "peak_rss_mb": statistics.median(rep.peak_rss_mb for rep in done),
    }


def simulated(results) -> Dict[str, float]:
    """Simulated per-layer metrics, pooled over every result of a rep."""
    cores = [core for r in results for core in r.stats.cores]
    emc = [r.stats.emc for r in results]
    tp = sum(e.bypass_true_pos for e in emc)
    accesses = sum(r.dram_accesses for r in results)
    messages = sum(r.ring.messages for r in results)
    return {
        "core.ipc": _ratio(sum(c.ipc() for c in cores), len(cores)),
        "core.full_window_stall_frac": _ratio(
            sum(c.full_window_stall_cycles for c in cores),
            sum(r.stats.total_cycles * len(r.stats.cores) for r in results)),
        "memsys.l1.hit_rate": _ratio(
            sum(c.l1_hits for c in cores),
            sum(c.l1_hits + c.l1_misses for c in cores)),
        "memsys.llc.hit_rate": _ratio(
            sum(c.llc_hits for c in cores),
            sum(c.llc_hits + c.llc_misses for c in cores)),
        "memsys.dram.row_conflict_rate": _ratio(
            sum(r.dram_row_conflict_rate * r.dram_accesses
                for r in results), accesses),
        "memsys.miss_queue_cycles": sum(
            r.stats.core_miss_latency.queue_total
            + r.stats.emc_miss_latency.queue_total for r in results),
        "interconnect.avg_latency_cycles": _ratio(
            sum(r.ring.total_latency for r in results), messages),
        "emc.chains_generated": sum(e.chains_generated for e in emc),
        "emc.chains_executed": sum(e.chains_executed for e in emc),
        "emc.miss_fraction": _ratio(
            sum(r.stats.llc_misses_from_emc for r in results),
            sum(r.stats.llc_misses_from_emc + r.stats.llc_misses_from_core
                for r in results)),
        "predictor.precision": _ratio(
            tp, sum(e.bypass_true_pos + e.bypass_false_pos for e in emc)),
        "predictor.recall": _ratio(
            tp, sum(e.bypass_true_pos + e.bypass_false_neg for e in emc)),
        "prefetch.accuracy": _ratio(
            sum(r.stats.prefetches_useful for r in results),
            sum(r.stats.prefetches_issued for r in results)),
    }


def per_layer(traced, untraced) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition and its untraced twin."""
    tracer = traced.tracer
    build = tracer.method("phase.build", measure=False)
    wheel = tracer.layer("sim.wheel")
    ticks = tracer.method("OutOfOrderCore._tick")[0]
    core = tracer.layer("core")
    jobs = tracer.phase_durations("farm_job")
    out = {
        "workloads.build_s": build[2],
        "workloads.ns_per_uop": _ratio(build[2] * 1e9, build[3]),
        "sim.construct_s": tracer.phase_s("construct"),
        "sim.warmup_s": tracer.phase_s("warmup"),
        "sim.fork_s": tracer.phase_s("fork"),
        "sim.checkpoint_s": (tracer.phase_s("checkpoint")
                             + tracer.phase_s("checkpoint_load")),
        "sim.events": wheel[3],
        "sim.wheel.self_s": wheel[1],
        "sim.ns_per_event": _ratio(wheel[1] * 1e9, wheel[3]),
        "core.ticks": ticks,
        "core.tick.self_s": core[1],
        "core.ns_per_tick": _ratio(core[1] * 1e9, ticks),
        "farm.jobs": len(jobs),
        "farm.job_s_p50": statistics.median(jobs) if jobs else 0.0,
        "farm.overhead_s": traced.wall_s - sum(jobs) if jobs else 0.0,
        "trace.overhead_ratio": _ratio(traced.wall_s, untraced.wall_s),
    }
    for layer, calls, self_s in HOST_LAYERS:
        agg = tracer.layer(layer)
        out[calls] = agg[0]
        out[self_s] = agg[1]
    out.update(simulated(traced.results))
    return out


def fingerprint() -> Dict[str, object]:
    """The host and code a record was measured on."""
    from repro.analysis.bench import current_rev
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, _dirs, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "git_rev": current_rev(),
            "src_sha256": digest.hexdigest()[:16]}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _median_metrics(rows: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median; the lower middle of an even count, so every
    value (and every count's type) is one that was measured."""
    return {name: statistics.median_low(row[name] for row in rows)
            for name in rows[0]}


def result_line(report, traced: bool) -> Tuple[dict, Dict[str, float]]:
    if traced:
        pairs = [(t, u) for t, u in zip(report.traced, report.reps)
                 if t.produced and u.produced]
        values = (_median_metrics([per_layer(t, u) for t, u in pairs])
                  if pairs else {name: 0.0 for name, _unit in PER_LAYER})
        units = PER_LAYER
    else:
        values = end_to_end(report)
        units = END_TO_END
    line = {
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }
    return line, values


def write_record(report, traced: bool, values: Dict[str, float],
                 out_dir: str) -> str:
    record = {
        "workload": report.workload,
        "seed": report.seed,
        "trace": int(traced),
        "host": fingerprint(),
        "attempted": report.attempted,
        "failed": report.failed,
        "error_rate": _ratio(report.failed, report.attempted),
        "failures": report.failures,
        "metrics": values,
        "reps": [{"traced": is_traced,
                  "setup_s": rep.setup_s, "wall_s": rep.wall_s,
                  "measure_s": rep.measure_s,
                  "instrs_per_s": rep.instrs_per_s,
                  "host_speed": rep.speed, "reference_s": rep.ref_s,
                  "peak_rss_mb": rep.peak_rss_mb,
                  "counters": rep.work, "digests": rep.digests}
                 for reps, is_traced in ((report.reps, False),
                                         (report.traced, True))
                 for rep in reps],
    }
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{report.workload}-seed{report.seed}-trace{int(traced)}"
    path = os.path.join(out_dir, f"{stem}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if traced and report.traced:
        report.traced[-1].tracer.write_chrome_trace(
            os.path.join(out_dir, f"{stem}.trace.json"), stem)
    return path


def print_summary(report, traced: bool, values: Dict[str, float],
                  record_path: str) -> None:
    print(f"perfbench {report.workload} seed={report.seed} "
          f"trace={int(traced)}: {len(report.reps)} untraced + "
          f"{len(report.traced)} traced repetitions, "
          f"{report.failed}/{report.attempted} operations failed")
    rows: List[Tuple[str, float, str]] = [
        (name, values[name], unit)
        for name, unit in (PER_LAYER if traced else END_TO_END)]
    rows.append(("error_rate", _ratio(report.failed, report.attempted),
                 "ratio"))
    for name, value, unit in rows:
        print(f"  {name:34s} {value:>16.6g} {unit}")
    if not traced:
        speeds = [rep.speed for rep in report.reps]
        print(f"  host speed (probe / reference rate): median "
              f"{statistics.median(speeds):.3f}, range {min(speeds):.3f}-"
              f"{max(speeds):.3f}; unscaled timings are in the record")
    for failure in report.failures[:20]:
        print(f"  FAILED {failure}")
    print(f"  record: {os.path.relpath(record_path)}")


def write_reference(workdir: str) -> None:
    """Record every workload's digests at each simulation seed of a run
    at the reference seed."""
    import suite
    digests: Dict[str, Dict[str, str]] = {}
    for workload in suite.WORKLOADS:
        digests[workload] = {}
        for index in range(suite.SUB_SEEDS):
            sim_seed = suite.rep_seed(suite.REFERENCE_SEED, index)
            rep = suite.one_rep(workload, sim_seed, False, workdir)
            suite.check(rep, {})
            if rep.failures:
                raise SystemExit(f"{workload}: {rep.failures}")
            digests[workload].update(rep.digests)
        print(f"{workload}: {len(digests[workload])} digest(s)")
    with open(suite.REFERENCE_PATH, "w") as fh:
        json.dump({"seed": suite.REFERENCE_SEED, "digests": digests}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="h4-emc")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="re-record reference.json and exit")
    args = parser.parse_args(argv)
    # Benchmark this checkout's source, never an installed copy.
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no simulator source under {ROOT}/src",
              file=sys.stderr)
        return 2
    import suite
    workdir = os.path.join(ROOT, ".perfbench", "work")
    os.makedirs(workdir, exist_ok=True)
    if args.write_reference:
        write_reference(workdir)
        return 0
    if args.workload not in suite.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(suite.WORKLOADS)}")
    reference = (suite.load_reference(args.workload)
                 if args.seed == suite.REFERENCE_SEED else None)
    traced = bool(args.trace)
    report = suite.run(args.workload, args.seed, args.seconds, traced,
                       workdir, reference=reference)
    line, values = result_line(report, traced)
    path = write_record(report, traced, values,
                        os.path.join(ROOT, ".perfbench", "out"))
    print_summary(report, traced, values, path)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
