"""The benchmark's workloads and what one repetition of each measures.

Three workloads (see README.md for why each was chosen):

- ``h4-emc`` and ``lowmpki-core``: one quad-core simulation each, built,
  warmed and measured in this process.
- ``fork-sweep``: the six-point farm spec ``sweep.yaml`` served through a
  fresh SQLite queue per repetition, by a pool of :data:`FARM_WORKERS`
  processes, or leased in this process when the repetition is traced.

Repetitions rotate through :data:`SUB_SEEDS` simulation seeds derived
from the run's ``--seed`` (:func:`rep_seed`), so a run's median pools
many inputs rather than resting on one seed's amount of work (which
moves the h4-emc rate by 8% from one seed to the next).

Every repetition checks its simulated output: ``validate_run`` plus a
SHA-256 over the flattened stats tree, compared with the recorded
reference or else with the run's first repetition of the same
simulation seed.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import resource
import shutil
import sqlite3
import tempfile
from contextlib import closing, nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple, Union

from hostspeed import HostSampler
from layers import LayerTracer
from repro.analysis.farm import (JobQueue, collect_results, run_worker,
                                 serve_queue, write_outputs)
from repro.analysis.spec import load_spec
from repro.analysis.validate import ValidationError, validate_run
from repro.lint.sanitize import flatten_tree
from repro.sim.runner import RunResult, run_system
from repro.uarch.params import quad_core_config
from repro.workloads.mixes import build_named

HERE = os.path.dirname(os.path.abspath(__file__))
SWEEP_SPEC = os.path.join(HERE, "sweep.yaml")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
#: the seed whose digests ``reference.json`` records
REFERENCE_SEED = 1
#: simulation seeds one run rotates through (see :func:`rep_seed`): fewer
#: than the repetitions a run of any workload usually makes, so some seed
#: recurs and is checked, yet enough that no one seed sets the median
SUB_SEEDS = 8
#: farm pool size of the untraced sweep (the container's ``nproc``)
FARM_WORKERS = 2


@dataclass(frozen=True)
class Single:
    """One quad-core simulation: stream prefetcher, EMC with MAP-I, ring."""

    benchmarks: Tuple[str, ...]
    n_instrs: int = 12000
    warmup: int = 2000


@dataclass(frozen=True)
class Sweep:
    """The farm sweep; ``None`` keeps the sizes ``sweep.yaml`` declares."""

    n_instrs: Optional[int] = None
    warmup: Optional[int] = None


Sizes = Union[Single, Sweep]

SIZES: Dict[str, Sizes] = {
    "h4-emc": Single(("mcf", "sphinx3", "soplex", "libquantum")),
    "lowmpki-core": Single(("calculix", "gobmk", "bzip2", "h264ref")),
    "fork-sweep": Sweep(),
}
WORKLOADS = tuple(SIZES)


@dataclass
class Rep:
    """One repetition: its results, host timings and failures.

    An operation is one simulation: one per single-run repetition, one
    per point of a sweep.  :func:`check` fills ``digests``, ``work`` and
    ``produced``, after which ``results`` may be released.
    """

    labels: List[str] = field(default_factory=list)
    results: List[RunResult] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    #: deterministic work counters (:func:`work_counters`)
    work: Dict[str, Optional[int]] = field(default_factory=dict)
    #: whether the repetition produced results
    produced: bool = False
    failures: List[str] = field(default_factory=list)
    failed_labels: Set[str] = field(default_factory=set)
    #: ``perf_counter`` at the start of the repetition
    start: float = 0.0
    setup_s: float = 0.0
    wall_s: float = 0.0
    measure_s: float = 0.0
    #: the same three timings in seconds of the reference host
    #: (:meth:`scale`); untraced runs only
    ref_s: Dict[str, float] = field(default_factory=dict)
    #: probe rate during the repetition / the reference rate
    speed: float = 1.0
    #: peak resident memory during the repetition (:func:`peak_rss_mb`)
    peak_rss_mb: float = 0.0
    tracer: Optional[LayerTracer] = None

    def fail(self, label: str, message: str) -> None:
        self.failures.append(f"{label}: {message}")
        self.failed_labels.add(label)

    @property
    def attempted(self) -> int:
        return len(self.labels)

    @property
    def failed(self) -> int:
        return len(self.failed_labels)

    @property
    def instrs_per_s(self) -> float:
        """Measured instructions per host second of ``System.run``; for
        the sweep, per second of the whole sweep."""
        seconds = self.measure_s or self.wall_s
        return self.work["instructions"] / seconds if seconds else 0.0

    @property
    def ref_instrs_per_s(self) -> float:
        """:attr:`instrs_per_s` on the reference host."""
        seconds = self.ref_s["measure_s"] or self.ref_s["wall_s"]
        return self.work["instructions"] / seconds if seconds else 0.0

    def scale(self, sampler: HostSampler) -> None:
        """Fill :attr:`ref_s` from the host speed ``sampler`` saw during
        each timed region of this repetition."""
        self.speed = sampler.speed() or 1.0
        self.ref_s = {
            "setup_s": sampler.reference_s(self.start, self.setup_s),
            "measure_s": sampler.reference_s(self.start + self.setup_s,
                                             self.measure_s),
            "wall_s": sampler.reference_s(self.start, self.wall_s),
        }


def reset_peak_rss() -> None:
    """Start a new peak-RSS window for this process, where Linux allows
    it (``clear_refs``); elsewhere the window is the process lifetime."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident memory of this process since :func:`reset_peak_rss`,
    or of the waited-for children (the sweep's pool), whichever is
    larger."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
    except OSError:
        pass
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def rep_seed(seed: int, index: int) -> int:
    """Simulation seed of repetition ``index`` of a run at ``seed``.

    A run cycles through :data:`SUB_SEEDS` seeds, disjoint between runs,
    so a run's median does not hang on one seed's work; a seed that
    recurs within a run is checked against its first repetition.
    """
    return SUB_SEEDS * seed + index % SUB_SEEDS


def labelled(label: str, seed: int) -> str:
    """Run label of one simulation at simulation seed ``seed``."""
    return f"{label}@seed{seed}"


def stats_digest(result: RunResult) -> str:
    """SHA-256 over the flattened stats tree of one run."""
    flat = flatten_tree(result.stats)
    text = json.dumps(flat, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference(workload: str) -> Dict[str, str]:
    """Recorded digests (run label -> digest) of every simulation seed
    of a run at :data:`REFERENCE_SEED`."""
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["digests"][workload]


def work_counters(rep: Rep) -> Dict[str, Optional[int]]:
    """Deterministic work counters of one repetition: a change means the
    simulator did different work, not that the host ran slower."""
    results = rep.results
    tracer = rep.tracer
    sim_counts = tracer.sim_counts if tracer is not None else {}
    ticks = (tracer.method("OutOfOrderCore._tick")[0]
             if tracer is not None and tracer.layers else None)
    return {
        "sim_cycles": sum(r.stats.total_cycles for r in results),
        "instructions": sum(r.stats.total_instructions() for r in results),
        "events": sim_counts.get("sim.events"),
        "core_ticks": ticks,
        "fabric_messages": sum(r.ring_messages for r in results),
        "dram_accesses": sum(r.dram_accesses for r in results),
    }


def check(rep: Rep, expected: Dict[str, str]) -> None:
    """Validate every result of ``rep``, compare its digest and count
    its work.

    ``expected`` maps run label to digest; a label it lacks is adopted
    from this repetition, so later repetitions must match it.
    """
    for label, result in zip(rep.labels, rep.results):
        try:
            validate_run(result)
        except ValidationError as exc:
            rep.fail(label, f"invalid run: {exc}")
        digest = stats_digest(result)
        rep.digests[label] = digest
        want = expected.setdefault(label, digest)
        if digest != want:
            rep.fail(label, f"stats digest {digest[:16]} != expected "
                            f"{want[:16]}")
    if rep.tracer is not None:
        for problem in rep.tracer.check_failures:
            for label in rep.labels:
                rep.fail(label, f"call-count cross-check: {problem}")
    rep.work = work_counters(rep)
    rep.produced = bool(rep.results)


# ---------------------------------------------------------------------------
# one repetition
# ---------------------------------------------------------------------------

def single_rep(name: str, sizes: Single, seed: int,
               tracer: LayerTracer) -> Rep:
    """Build, construct, warm and measure one quad-core simulation."""
    label = labelled(name, seed)
    rep = Rep(labels=[label], tracer=tracer)
    with tracer.installed():
        start = rep.start = perf_counter()
        try:
            workload = build_named(sizes.benchmarks, sizes.n_instrs,
                                   seed=seed)
            cfg = quad_core_config(prefetcher="stream", emc=True, seed=seed)
            result = run_system(cfg, workload, label=name,
                                warmup_instrs=sizes.warmup)
        except Exception as exc:     # any crash is a failed operation
            rep.fail(label, repr(exc))
            return rep
        finally:
            rep.wall_s = perf_counter() - start
    (measure_start, rep.measure_s), = [
        (begin, elapsed) for span, begin, elapsed in tracer.spans
        if span == "measure"]
    rep.setup_s = measure_start - start
    rep.results = [result]
    return rep


def retried_jobs(queue_dir: str) -> List[Tuple[str, int]]:
    """Jobs the farm ran more than once: its silent retry still counts."""
    with closing(sqlite3.connect(
            os.path.join(queue_dir, "queue.sqlite"))) as conn:
        return conn.execute(
            "SELECT label, attempts FROM jobs WHERE attempts > 1 "
            "ORDER BY label").fetchall()


def sweep_rep(seed: int, sizes: Sweep, workdir: str,
              tracer: Optional[LayerTracer]) -> Rep:
    """One farm sweep on a fresh queue and result store.

    With a tracer the jobs are leased in this process by
    :func:`~repro.analysis.farm.run_worker`, so every span lands here;
    without one the farm's async scheduler serves them with a pool.
    """
    queue_dir = tempfile.mkdtemp(prefix="sweep-", dir=workdir)
    rep = Rep(labels=["sweep"], tracer=tracer)
    try:
        with tracer.installed() if tracer is not None else nullcontext():
            start = rep.start = perf_counter()
            try:
                spec = dataclasses.replace(
                    load_spec(SWEEP_SPEC), seeds=(seed,),
                    **{k: v for k, v in dataclasses.asdict(sizes).items()
                       if v is not None})
                jobs = spec.jobs()
                rep.labels = [labelled(job.label, seed) for job in jobs]
                JobQueue(queue_dir).enqueue(jobs, spec_name=spec.name)
                rep.setup_s = perf_counter() - start
                if tracer is not None:
                    run_worker(queue_dir)
                else:
                    serve_queue(queue_dir, jobs, jobs=FARM_WORKERS)
                results = collect_results(queue_dir, jobs)
                write_outputs(spec, results, os.path.join(queue_dir, "out"))
                rep.results = results
            except Exception as exc:  # any crash fails every point
                for label in rep.labels:
                    rep.fail(label, repr(exc))
            finally:
                rep.wall_s = perf_counter() - start
        if os.path.exists(os.path.join(queue_dir, "queue.sqlite")):
            for label, attempts in retried_jobs(queue_dir):
                rep.fail(labelled(label, seed),
                         f"needed {attempts} attempts")
    finally:
        shutil.rmtree(queue_dir, ignore_errors=True)
    return rep


def one_rep(workload: str, seed: int, traced: bool, workdir: str,
            sizes: Optional[Sizes] = None, in_process: bool = False) -> Rep:
    """Run one repetition of ``workload`` at simulation seed ``seed``.

    ``traced`` installs every layer wrapper; untraced single runs still
    install the coarse phase clock (a few calls per run).  The untraced
    sweep uses the farm pool unless ``in_process`` asks for the
    in-process worker of the traced sweep, its tracing-off twin.
    """
    sizes = sizes or SIZES[workload]
    if isinstance(sizes, Single):
        return single_rep(workload, sizes, seed, LayerTracer(layers=traced))
    tracer = LayerTracer(layers=traced) if traced or in_process else None
    return sweep_rep(seed, sizes, workdir, tracer)


# ---------------------------------------------------------------------------
# a whole run: repetitions until the time is up
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    """Every repetition of one run; ``traced`` holds the traced halves of
    the traced run's pairs, ``reps`` the untraced ones."""

    workload: str
    seed: int
    reps: List[Rep] = field(default_factory=list)
    traced: List[Rep] = field(default_factory=list)

    @property
    def all_reps(self) -> List[Rep]:
        return self.reps + self.traced

    @property
    def attempted(self) -> int:
        return sum(rep.attempted for rep in self.all_reps)

    @property
    def failed(self) -> int:
        return sum(rep.failed for rep in self.all_reps)

    @property
    def failures(self) -> List[str]:
        return [f for rep in self.all_reps for f in rep.failures]


def run(workload: str, seed: int, seconds: float, traced: bool,
        workdir: str, reference: Optional[Dict[str, str]] = None,
        sizes: Optional[Sizes] = None, min_reps: int = 3) -> RunReport:
    """Repeat ``workload`` for about ``seconds``.

    Untraced: at least ``min_reps`` repetitions; another starts only if
    it should end within ``seconds``.  Traced: pairs of an untraced and a
    traced repetition (the base of the tracing overhead), at least one.
    Repetition (or pair) ``i`` simulates seed ``rep_seed(seed, i)``.
    Every repetition is checked against ``reference`` (label -> digest),
    or against the first repetition of its seed when there is none, so
    traced and untraced runs must agree too.

    An untraced run samples the host's speed all through each
    repetition (:class:`~hostspeed.HostSampler`) and scales its timings
    by it; a traced run does not, as the sampler's bursts would land in
    the self time of whatever layer was running.  Each repetition gets
    its own peak-RSS window.
    """
    if workload not in SIZES:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    sweep = isinstance(sizes or SIZES[workload], Sweep)
    expected: Dict[str, str] = dict(reference or {})
    report = RunReport(workload, seed)
    start = perf_counter()

    def timed(sim_seed: int, traced_rep: bool) -> Rep:
        # Keep what earlier repetitions left alive out of this one's
        # garbage collections.
        gc.collect()
        gc.freeze()
        reset_peak_rss()
        sampler = HostSampler()
        with nullcontext() if traced else sampler:
            rep = one_rep(workload, sim_seed, traced_rep, workdir, sizes,
                          in_process=traced and sweep)
        rep.peak_rss_mb = peak_rss_mb()
        if not traced:
            rep.scale(sampler)
        check(rep, expected)
        return rep

    while True:
        sim_seed = rep_seed(seed, len(report.reps))
        rep = timed(sim_seed, False)
        # Only traced repetitions need their results later; holding every
        # untraced one would grow the process and its peak_rss_mb.
        rep.results = []
        report.reps.append(rep)
        last = rep.wall_s
        if traced:
            rep = timed(sim_seed, True)
            report.traced.append(rep)
            last += rep.wall_s
        enough = len(report.reps) >= (1 if traced else min_reps)
        if enough and perf_counter() - start + last > seconds:
            return report
