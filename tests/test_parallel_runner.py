"""Tests for the parallel experiment-execution layer
(repro.analysis.parallel): job specs, caching, retry/timeout policy,
deterministic ordering, and serial/parallel bit-identity."""

import dataclasses
import os
import pickle
import time

import pytest

from repro.analysis import parallel
from repro.analysis.farm import JobQueue, run_worker
from repro.analysis.parallel import (ParallelRunError, RunJob,
                                     build_job_config, build_job_workload,
                                     execute_job, job, job_hash, run_jobs)
from repro.sim.runner import run_system
from repro.workloads import mixes

N = 400   # per-core instructions: tiny but structurally complete


# ---------------------------------------------------------------------------
# determinism (same seed -> identical SimStats, serial and parallel)
# ---------------------------------------------------------------------------

def _assert_identical(a, b):
    assert a.stats == b.stats                 # full bit-identical SimStats
    assert a.stats.total_cycles == b.stats.total_cycles
    assert [c.ipc() for c in a.stats.cores] == \
           [c.ipc() for c in b.stats.cores]
    assert (a.stats.energy.ring_control_hops,
            a.stats.energy.ring_data_hops) == \
           (b.stats.energy.ring_control_hops,
            b.stats.energy.ring_data_hops)
    assert a.per_core_ipc == b.per_core_ipc
    assert a.energy == b.energy


def _run_own_config(one):
    return run_system(build_job_config(one), build_job_workload(one),
                      warmup_instrs=one.warmup_instrs)


def test_same_seed_runs_are_identical():
    _assert_identical(_run_own_config(job("H4", N, seed=3)),
                      _run_own_config(job("H4", N, seed=3)))


def test_serial_and_parallel_are_bit_identical():
    jobs_list = [job("H4", N, seed=3), job("H3", N, emc=True, seed=3)]
    serial = run_jobs(jobs_list, jobs=1)
    fanned = run_jobs(jobs_list, jobs=2)
    for s, p in zip(serial, fanned):
        _assert_identical(s, p)


def test_results_keep_input_order():
    jobs_list = [job(mix, N, seed=1, label=mix) for mix in ("H4", "H1", "H3")]
    results = run_jobs(jobs_list, jobs=2)
    assert [r.label for r in results] == ["H4", "H1", "H3"]


# ---------------------------------------------------------------------------
# job specs
# ---------------------------------------------------------------------------

def test_job_kinds_build_expected_configs():
    solo = RunJob(workload=("named", "mcf"), n_instrs=N, topology="single")
    assert execute_job(solo).config.num_cores == 1
    eight = job("eight:H1", N, num_mcs=2, emc=True)
    result = execute_job(eight)
    assert result.config.num_cores == 8 and result.config.num_mcs == 2
    with pytest.raises(ValueError):
        job("named:mcf+lbm", N)               # needs 4 or 8 names


@pytest.mark.parametrize("text, workload, topology", [
    ("H4", ("mix", "H4"), "quad"),
    ("mix:H4", ("mix", "H4"), "quad"),
    ("eight:H3", ("eight", "H3"), "eight"),
    ("homog:mcf", ("homog", "mcf", 4), "quad"),
    ("homog:mcf:8", ("homog", "mcf", 8), "eight"),
    ("named:mcf+lbm+milc+bwaves", ("named", "mcf", "lbm", "milc", "bwaves"),
     "quad"),
])
def test_job_parses_spec_workload_strings(text, workload, topology):
    built = job(text, N)
    assert (built.workload, built.topology) == (workload, topology)
    assert parallel.parse_workload(text) == (workload, topology)


@pytest.mark.parametrize("text", [
    "H99", "eight:nope", "homog:mcf:6", "homog:nope", "named:mcf+nope+a+b",
    "bogus:H4", "", 7])
def test_job_rejects_bad_workload_strings(text):
    with pytest.raises(ValueError):
        job(text, N)


def test_job_fields_and_explicit_topology():
    built = job("H4", N, prefetcher="ghb", emc=True, seed=2, fabric="mesh",
                warmup_instrs=100, topology="eight",
                overrides={"llc.latency": 20, "emc.num_contexts": 4})
    assert built.topology == "eight" and built.effective_cores() == 8
    assert built.overrides == (("emc.num_contexts", 4), ("llc.latency", 20))
    assert (built.prefetcher, built.emc, built.seed, built.fabric,
            built.warmup_instrs) == ("ghb", True, 2, "mesh", 100)


def test_job_overrides_and_hash():
    base = job("H4", N)
    tuned = job("H4", N, overrides={"emc.num_contexts": 4})
    assert base.key() != tuned.key()
    assert job_hash(base) != job_hash(tuned)
    assert job_hash(base) == job_hash(job("H4", N, label="other"))
    assert execute_job(tuned).config.emc.num_contexts == 4


def test_bad_override_fails_the_job():
    with pytest.raises(ParallelRunError):
        run_jobs([job("H4", N, overrides={"emc.no_such": 1})])


# ---------------------------------------------------------------------------
# on-disk cache
# ---------------------------------------------------------------------------

def test_cache_roundtrip_and_hit(tmp_path, monkeypatch):
    cache = str(tmp_path)
    pinned = job("H4", N, seed=5)
    first = run_jobs([pinned], cache_dir=cache)[0]
    assert any(f.startswith("run-") for f in os.listdir(cache))
    # A hit must not execute anything: sabotage execution and re-run.
    monkeypatch.setattr(parallel, "execute_job",
                        lambda _job: (_ for _ in ()).throw(AssertionError))
    again = run_jobs([pinned], cache_dir=cache)[0]
    _assert_identical(first, again)


@pytest.mark.parametrize("junk", [
    b"not a pickle",   # UnpicklingError (bad opcode)
    b"garbage\n",      # ValueError ('g' is a real opcode with a bad operand)
    b"",               # EOFError
])
def test_corrupt_cache_entry_is_recomputed(tmp_path, junk):
    cache = str(tmp_path)
    pinned = job("H4", N, seed=5)
    expected = run_jobs([pinned], cache_dir=cache)[0]
    path = os.path.join(cache, f"run-{job_hash(pinned)}.pkl")
    with open(path, "wb") as fh:
        fh.write(junk)
    result = run_jobs([pinned], cache_dir=cache)[0]
    _assert_identical(expected, result)


def test_parallel_workers_fill_the_cache(tmp_path):
    cache = str(tmp_path)
    jobs_list = [job("H4", N, seed=7), job("H3", N, seed=7)]
    run_jobs(jobs_list, jobs=2, cache_dir=cache)
    for one in jobs_list:
        with open(os.path.join(cache, f"run-{job_hash(one)}.pkl"),
                  "rb") as fh:
            assert pickle.load(fh).stats.total_cycles > 0


# ---------------------------------------------------------------------------
# retry / timeout
# ---------------------------------------------------------------------------

def test_flaky_job_is_retried_once(monkeypatch):
    calls = {"n": 0}
    real = execute_job

    def flaky(one, cache_dir=None):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("transient")
        return real(one, cache_dir)

    monkeypatch.setattr(parallel, "execute_job", flaky)
    result = run_jobs([job("H4", N)])[0]
    assert calls["n"] == 2 and result.stats.total_cycles > 0


def test_twice_failing_job_raises(monkeypatch):
    def broken(_job, _cache_dir=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(parallel, "execute_job", broken)
    with pytest.raises(ParallelRunError, match="failed twice"):
        run_jobs([job("H4", N)])


def test_per_job_timeout(monkeypatch):
    def stuck(_job, _cache_dir=None):
        time.sleep(5)

    monkeypatch.setattr(parallel, "execute_job", stuck)
    started = time.monotonic()
    with pytest.raises(ParallelRunError):
        run_jobs([job("H4", N)], timeout=0.2)
    assert time.monotonic() - started < 4     # both attempts were cut short


def test_progress_callback_sees_every_job():
    seen = []
    run_jobs([job("H4", N), job("H1", N)],
             progress=lambda done, total, label, elapsed:
             seen.append((done, total)))
    assert seen == [(1, 2), (2, 2)]


# ---------------------------------------------------------------------------
# sweeps through the runner
# ---------------------------------------------------------------------------

def _sweep_spec(**axes):
    from repro.analysis.spec import ExperimentSpec
    return ExperimentSpec(
        name="sweep", description="",
        axes=(("workload", ("H4",)), ("emc", (True,)))
        + tuple((axis, tuple(values)) for axis, values in axes.items()),
        include=(), exclude=(), seeds=(1,), n_instrs=N)


def test_sweep_jobs_matches_serial_sweep(tmp_path):
    spec = _sweep_spec(**{"emc.num_contexts": [1, 2],
                          "emc.max_load_depth": [1, 2]})
    serial = run_jobs(spec.jobs())
    fanned = run_jobs(spec.jobs(), jobs=2, cache_dir=str(tmp_path))
    assert len(serial) == len(fanned) == 4
    for s, p in zip(serial, fanned):
        _assert_identical(s, p)


def test_sweep_jobs_base_overrides_are_kept():
    spec = _sweep_spec(**{"llc.latency": [20], "emc.num_contexts": [1, 2]})
    for result in run_jobs(spec.jobs()):
        cfg = result.config
        assert cfg.llc.latency == 20 and cfg.emc.enabled


# ---------------------------------------------------------------------------
# a failed result write
# ---------------------------------------------------------------------------

def _failing_dump(monkeypatch):
    def broken(*_args, **_kwargs):
        raise TypeError("cannot pickle")

    monkeypatch.setattr(parallel.pickle, "dump", broken)


def test_failed_cache_store_raises_and_leaves_no_temp_file(tmp_path,
                                                           monkeypatch):
    result = execute_job(job("H4", N))
    _failing_dump(monkeypatch)
    with pytest.raises(TypeError):
        parallel._cache_store(str(tmp_path), job("H4", N), result)
    assert os.listdir(tmp_path) == []


def test_run_jobs_cache_stays_best_effort(tmp_path, monkeypatch):
    _failing_dump(monkeypatch)
    with pytest.warns(RuntimeWarning, match="cannot pickle"):
        result = run_jobs([job("H4", N)], cache_dir=str(tmp_path))[0]
    assert result.stats.total_cycles > 0
    assert os.listdir(tmp_path) == []


def test_farm_fails_a_job_whose_result_cannot_be_stored(tmp_path,
                                                        monkeypatch):
    from repro.analysis.farm import MAX_ATTEMPTS, queue_status
    _failing_dump(monkeypatch)
    JobQueue(str(tmp_path)).enqueue([job("H4", N, label="h4")], "store")
    assert run_worker(str(tmp_path)) == 0
    status = queue_status(str(tmp_path))
    assert status.counts["failed"] == 1 and status.counts["done"] == 0
    assert "cannot pickle" in status.failures[0][1]
    assert MAX_ATTEMPTS > 1             # ...after its retries, not at once
    stored = os.listdir(os.path.join(str(tmp_path), "results"))
    assert not [name for name in stored if name.endswith(".tmp")]


# ---------------------------------------------------------------------------
# a job builds only the traces it runs
# ---------------------------------------------------------------------------

def _count_builds(monkeypatch):
    """Record the benchmark name of every trace built from here on."""
    built = []
    real = mixes.build_trace

    def counting(name, *args, **kwargs):
        built.append(name)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(mixes, "build_trace", counting)
    return built


def test_checkpoint_resumed_job_builds_traces_only_to_grow(tmp_path,
                                                           monkeypatch):
    built = _count_builds(monkeypatch)
    cache = str(tmp_path)
    base = job("H4", N, warmup_instrs=100)
    execute_job(base, cache)                  # fresh warmup: 4 traces
    assert len(built) == 4
    points = {"same count": (dataclasses.replace(base, emc=True), 0),
              "shrink": (dataclasses.replace(base, num_cores=2), 0),
              "grow": (dataclasses.replace(base, num_cores=8), 8)}
    for name, (point, expected) in points.items():
        built.clear()
        resumed = execute_job(point, cache)
        assert resumed.warmed_from == "checkpoint", name
        assert len(built) == expected, name
        # ...and runs exactly what a cache-less fresh warmup runs.
        assert resumed.stats == execute_job(point).stats, name


def test_fresh_grow_builds_the_larger_workload_once(tmp_path, monkeypatch):
    built = _count_builds(monkeypatch)
    result = execute_job(dataclasses.replace(
        job("H4", N, warmup_instrs=100), num_cores=8), str(tmp_path))
    assert result.warmed_from == "fresh"
    assert len(built) == 8


H6_SWEEP = """\
name: h6-sweep
n_instrs: 400
warmup: 100
matrix:
  workload: [H6]
  topology: [ring, mesh]
  emc: [false, true]
  predictor: [map-i, hermes]
exclude:
  - emc: false
    predictor: hermes
"""


def test_worker_sweep_builds_one_workload(tmp_path, monkeypatch):
    pytest.importorskip("yaml")
    from repro.analysis.spec import parse_spec
    jobs = parse_spec(H6_SWEEP, "h6.yaml").jobs()
    assert len(jobs) == 6
    built = _count_builds(monkeypatch)
    JobQueue(str(tmp_path)).enqueue(jobs, "h6-sweep")
    assert run_worker(str(tmp_path)) == 6
    # The first job warms and checkpoints the shared base; the other
    # five resume from it and build nothing.
    assert sorted(built) == sorted(mixes.MIXES["H6"])
