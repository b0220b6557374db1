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
from repro.analysis.parallel import (ParallelRunError, eight_job,
                                     execute_job, job_hash, mix_job,
                                     named_job, run_jobs, solo_job)
from repro.analysis.sweep import sweep_jobs, sweep_mix
from repro.sim.runner import run_quad_mix
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


def test_same_seed_runs_are_identical():
    _assert_identical(run_quad_mix("H4", N, seed=3),
                      run_quad_mix("H4", N, seed=3))


def test_serial_and_parallel_are_bit_identical():
    jobs_list = [mix_job("H4", N, seed=3),
                 mix_job("H3", N, emc=True, seed=3)]
    serial = run_jobs(jobs_list, jobs=1)
    fanned = run_jobs(jobs_list, jobs=2)
    for s, p in zip(serial, fanned):
        _assert_identical(s, p)


def test_results_keep_input_order():
    jobs_list = [mix_job("H4", N, seed=1), mix_job("H1", N, seed=1),
                 mix_job("H3", N, seed=1)]
    results = run_jobs(jobs_list, jobs=2)
    assert [r.label for r in results] == [j.label for j in jobs_list]


# ---------------------------------------------------------------------------
# job specs
# ---------------------------------------------------------------------------

def test_job_kinds_build_expected_configs():
    assert execute_job(solo_job("mcf", N)).config.num_cores == 1
    eight = eight_job("H1", N, num_mcs=2, emc=True)
    result = execute_job(eight)
    assert result.config.num_cores == 8 and result.config.num_mcs == 2
    with pytest.raises(ValueError):
        named_job(["mcf", "lbm"], N)          # needs 4 or 8 names


def test_job_overrides_and_hash():
    base = mix_job("H4", N)
    tuned = mix_job("H4", N, overrides={"emc.num_contexts": 4})
    assert base.key() != tuned.key()
    assert job_hash(base) != job_hash(tuned)
    assert job_hash(base) == job_hash(mix_job("H4", N, label="other"))
    assert execute_job(tuned).config.emc.num_contexts == 4


def test_bad_override_fails_the_job():
    with pytest.raises(ParallelRunError):
        run_jobs([mix_job("H4", N, overrides={"emc.no_such": 1})])


# ---------------------------------------------------------------------------
# on-disk cache
# ---------------------------------------------------------------------------

def test_cache_roundtrip_and_hit(tmp_path, monkeypatch):
    cache = str(tmp_path)
    job = mix_job("H4", N, seed=5)
    first = run_jobs([job], cache_dir=cache)[0]
    assert any(f.startswith("run-") for f in os.listdir(cache))
    # A hit must not execute anything: sabotage execution and re-run.
    monkeypatch.setattr(parallel, "execute_job",
                        lambda _job: (_ for _ in ()).throw(AssertionError))
    again = run_jobs([job], cache_dir=cache)[0]
    _assert_identical(first, again)


@pytest.mark.parametrize("junk", [
    b"not a pickle",   # UnpicklingError (bad opcode)
    b"garbage\n",      # ValueError ('g' is a real opcode with a bad operand)
    b"",               # EOFError
])
def test_corrupt_cache_entry_is_recomputed(tmp_path, junk):
    cache = str(tmp_path)
    job = mix_job("H4", N, seed=5)
    expected = run_jobs([job], cache_dir=cache)[0]
    path = os.path.join(cache, f"run-{job_hash(job)}.pkl")
    with open(path, "wb") as fh:
        fh.write(junk)
    result = run_jobs([job], cache_dir=cache)[0]
    _assert_identical(expected, result)


def test_parallel_workers_fill_the_cache(tmp_path):
    cache = str(tmp_path)
    jobs_list = [mix_job("H4", N, seed=7), mix_job("H3", N, seed=7)]
    run_jobs(jobs_list, jobs=2, cache_dir=cache)
    for job in jobs_list:
        with open(os.path.join(cache, f"run-{job_hash(job)}.pkl"),
                  "rb") as fh:
            assert pickle.load(fh).stats.total_cycles > 0


# ---------------------------------------------------------------------------
# retry / timeout
# ---------------------------------------------------------------------------

def test_flaky_job_is_retried_once(monkeypatch):
    calls = {"n": 0}
    real = execute_job

    def flaky(job, cache_dir=None):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("transient")
        return real(job, cache_dir)

    monkeypatch.setattr(parallel, "execute_job", flaky)
    result = run_jobs([mix_job("H4", N)])[0]
    assert calls["n"] == 2 and result.stats.total_cycles > 0


def test_twice_failing_job_raises(monkeypatch):
    def broken(_job, _cache_dir=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(parallel, "execute_job", broken)
    with pytest.raises(ParallelRunError, match="failed twice"):
        run_jobs([mix_job("H4", N)])


def test_per_job_timeout(monkeypatch):
    def stuck(_job, _cache_dir=None):
        time.sleep(5)

    monkeypatch.setattr(parallel, "execute_job", stuck)
    started = time.monotonic()
    with pytest.raises(ParallelRunError):
        run_jobs([mix_job("H4", N)], timeout=0.2)
    assert time.monotonic() - started < 4     # both attempts were cut short


def test_progress_callback_sees_every_job():
    seen = []
    run_jobs([mix_job("H4", N), mix_job("H1", N)],
             progress=lambda done, total, label, elapsed:
             seen.append((done, total)))
    assert seen == [(1, 2), (2, 2)]


# ---------------------------------------------------------------------------
# sweeps through the runner
# ---------------------------------------------------------------------------

def test_sweep_jobs_matches_serial_sweep(tmp_path):
    grid = {"emc.num_contexts": [1, 2], "emc.max_load_depth": [1, 2]}
    serial = sweep_mix(grid, mix="H4", n_instrs=N)
    fanned = sweep_mix(grid, mix="H4", n_instrs=N, jobs=2,
                       cache_dir=str(tmp_path))
    assert len(serial.points) == len(fanned.points) == 4
    for s, p in zip(serial.points, fanned.points):
        assert s.overrides == p.overrides
        _assert_identical(s.result, p.result)


def test_sweep_jobs_base_overrides_are_kept():
    base = mix_job("H4", N, overrides={"llc.latency": 20})
    result = sweep_jobs({"emc.enabled": [True]}, base)
    cfg = result.points[0].result.config
    assert cfg.llc.latency == 20 and cfg.emc.enabled


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
    base = mix_job("H4", N, warmup_instrs=100)
    execute_job(base, cache)                  # fresh warmup: 4 traces
    assert len(built) == 4
    points = {"same count": (dataclasses.replace(base, emc=True), 0),
              "shrink": (dataclasses.replace(base, num_cores=2), 0),
              "grow": (dataclasses.replace(base, num_cores=8), 8)}
    for name, (job, expected) in points.items():
        built.clear()
        resumed = execute_job(job, cache)
        assert resumed.warmed_from == "checkpoint", name
        assert len(built) == expected, name
        # ...and runs exactly what a cache-less fresh warmup runs.
        assert resumed.stats == execute_job(job).stats, name


def test_fresh_grow_builds_the_larger_workload_once(tmp_path, monkeypatch):
    built = _count_builds(monkeypatch)
    result = execute_job(dataclasses.replace(
        mix_job("H4", N, warmup_instrs=100), num_cores=8), str(tmp_path))
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
