"""The benchmark's own tests, at tiny scale.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run as bench  # noqa: E402
import suite  # noqa: E402
from hostspeed import BURST_EVENTS, HostSampler  # noqa: E402
from layers import LayerTracer  # noqa: E402
from repro.interconnect import Interconnect  # noqa: E402
from repro.sim.runner import run_system  # noqa: E402
from repro.uarch.params import quad_core_config  # noqa: E402
from repro.workloads.mixes import build_mix  # noqa: E402

TINY = suite.Single(("mcf", "sphinx3", "soplex", "libquantum"),
                    n_instrs=400, warmup=100)
TINY_SWEEP = suite.Sweep(n_instrs=300, warmup=100)


def tiny_run(tmp_path, seed=1, traced=False, reference=None, sizes=TINY,
             workload="h4-emc"):
    return suite.run(workload, seed, 0.0, traced, str(tmp_path),
                     reference=reference, sizes=sizes, min_reps=2)


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("traced,kind", [(False, "end_to_end"),
                                         (True, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(tmp_path, traced,
                                                         kind):
    report = tiny_run(tmp_path, traced=traced)
    line, _values = bench.result_line(report, traced)
    assert line["correct"] and line["failed"] == 0
    printed = {name: m["unit"] for name, m in line["metrics"].items()}
    assert printed == declared(kind)
    if not traced:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_regions_are_scaled_by_the_bursts_inside_them():
    sampler = HostSampler()
    # A burst in 0.5 ms per 1000 events is twice the reference rate; in
    # 2 ms, half.
    fast, slow = BURST_EVENTS * 0.5e-6, BURST_EVENTS * 2e-6
    sampler.bursts = [(0.1, fast), (0.2, fast), (1.5, slow)]
    assert sampler.speed(0.0, 1.0) == pytest.approx(2.0)
    assert sampler.reference_s(0.0, 1.0) == pytest.approx(
        (1.0 - 2 * fast) * 2.0)
    assert sampler.reference_s(1.0, 1.0) == pytest.approx((1.0 - slow) * 0.5)
    # No burst in the region: the speed of the whole sampling.
    assert sampler.reference_s(5.0, 1.0) == pytest.approx(1.0)


def test_untraced_runs_report_reference_host_times(tmp_path):
    report = tiny_run(tmp_path)
    values = bench.end_to_end(report)
    for rep in report.reps:
        assert rep.speed > 0
        assert 0 < rep.ref_s["measure_s"] < rep.ref_s["wall_s"]
    assert values["wall_s"] == statistics.median(
        rep.ref_s["wall_s"] for rep in report.reps)
    assert values["sim_instrs_per_s"] == statistics.median(
        rep.ref_instrs_per_s for rep in report.reps)


def test_wrong_reference_digest_fails_every_operation(tmp_path):
    wrong = {suite.labelled("h4-emc", suite.rep_seed(1, index)): "0" * 64
             for index in range(suite.SUB_SEEDS)}
    report = tiny_run(tmp_path, reference=wrong)
    assert report.attempted == 2
    assert report.failed == report.attempted        # error_rate 1.0
    assert all("stats digest" in f for f in report.failures)


def test_same_seed_repeats_and_another_seed_differs(tmp_path):
    first = tiny_run(tmp_path, seed=1)
    again = tiny_run(tmp_path, seed=1)
    other = tiny_run(tmp_path, seed=2)
    assert first.failed == again.failed == other.failed == 0
    for rep, rep_again in zip(first.reps, again.reps):
        assert rep.digests == rep_again.digests
        assert rep.work == rep_again.work
    assert (set(first.reps[0].digests.values())
            != set(other.reps[0].digests.values()))


def test_repetitions_rotate_through_sub_seeds_and_recur(tmp_path):
    reps = suite.SUB_SEEDS + 1
    report = suite.run("h4-emc", 1, 0.0, False, str(tmp_path), sizes=TINY,
                       min_reps=reps)
    assert report.failed == 0
    labels = [rep.labels[0] for rep in report.reps]
    assert len(set(labels)) == suite.SUB_SEEDS
    assert labels[suite.SUB_SEEDS] == labels[0]
    assert (report.reps[suite.SUB_SEEDS].digests
            == report.reps[0].digests)


def test_traced_run_matches_untraced_and_passes_cross_checks(tmp_path):
    report = tiny_run(tmp_path, traced=True)
    assert report.failed == 0
    (untraced,), (traced,) = report.reps, report.traced
    assert untraced.digests == traced.digests
    assert traced.tracer.checks_run > 0
    assert not traced.tracer.check_failures
    assert traced.work["core_ticks"] > 0


def test_cross_check_catches_a_path_the_wrappers_miss():
    original = vars(Interconnect)["send"]
    tracer = LayerTracer()
    with tracer.installed():
        # A send path that bypasses the wrapper, as an inlined copy would.
        Interconnect.send = original
        cfg = quad_core_config(prefetcher="stream", emc=True, seed=1)
        run_system(cfg, build_mix("H4", 300, seed=1), warmup_instrs=100)
    assert any(f.startswith("interconnect.send")
               for f in tracer.check_failures)
    assert vars(Interconnect)["send"] is original


def test_sweep_traced_in_process_and_untraced_pool_agree(tmp_path):
    report = tiny_run(tmp_path, traced=True, sizes=TINY_SWEEP,
                      workload="fork-sweep")
    assert report.failed == 0, report.failures
    pool = suite.one_rep("fork-sweep", suite.rep_seed(1, 0), False,
                         str(tmp_path), TINY_SWEEP)
    suite.check(pool, dict(report.reps[0].digests))
    assert not pool.failures and len(pool.digests) == 6
    values = bench.per_layer(report.traced[0], report.reps[0])
    assert values["farm.jobs"] == 6
    assert values["sim.fork_s"] > 0 and values["sim.checkpoint_s"] > 0


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "h4-emc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
