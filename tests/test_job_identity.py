"""Job identities pinned as literals.

A job's hash names its result file in every on-disk cache and result
store, and its warmup key names its warmup checkpoint.  A change to how
jobs are built that moves any of these hashes silently orphans every
existing cache, so the values below are recorded literals: they may only
change together with ``CACHE_SCHEMA``.
"""

import os

import pytest

from repro.analysis.parallel import CACHE_SCHEMA, RunJob, job, job_hash
from repro.cli import _grid_spec, build_parser, main

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def test_cache_schema_is_the_pinned_one():
    assert CACHE_SCHEMA == 6


@pytest.mark.parametrize("built, digest", [
    (job("H4", 500, prefetcher="ghb", emc=True),
     "8443f9fc3e1efc7aea61769a302a1501"),
    (job("H1", 300, prefetcher="stream", seed=3, warmup_instrs=100,
         overrides={"llc.latency": 20, "emc.num_contexts": 4}),
     "967de23aa6659ad4bbc7d34efc815cb6"),
    (job("eight:H3", 500, emc=True, num_mcs=2),
     "858fb194286e798d6ab8964d8a96ec79"),
    (job("homog:mcf:8", 500, prefetcher="stream"),
     "c44812d992be28dc3ca213707228bd96"),
    (job("named:mcf+lbm+milc+bwaves", 500, emc=True),
     "ed76448ca47e1875111e7239baa98393"),
    (RunJob(workload=("named", "mcf"), n_instrs=500, topology="single"),
     "a78c1a49977621593fa62a39bfff93a6"),
], ids=["mix", "mix-overrides-warmup", "eight", "homog8", "named", "solo"])
def test_job_hash_per_workload_kind(built, digest):
    assert job_hash(built) == digest


def _cli_points(argv, axes):
    spec = _grid_spec(argv[0], build_parser().parse_args(argv), axes)
    return [job_hash(one) for one in spec.jobs()]


def test_sweep_point_hashes():
    assert _cli_points(
        ["sweep", "--mix", "H4", "-n", "400", "--emc",
         "--set", "emc.num_contexts=1,2"],
        {"emc.num_contexts": [1, 2]}) == [
        "8d1bdc6de6cc5d66032e83503b67bffe",
        "f1b1a2d59950b5d7c6407e4e529b58fe"]
    assert _cli_points(
        ["sweep", "--mix", "H3", "-n", "400", "--emc", "--seed", "2",
         "--prefetcher", "ghb", "--warmup", "100", "--topology", "mesh",
         "--num-cores", "8", "--predictor", "hermes",
         "--set", "dram.t_rcd=20", "--set", "emc.num_contexts=4"],
        {"dram.t_rcd": [20], "emc.num_contexts": [4]}) == [
        "d3c83322ed34b72123c7a6f74c40d9a9"]


def test_compare_point_hashes():
    assert _cli_points(
        ["compare", "--mix", "H4", "-n", "500"],
        {"prefetcher": ["none", "ghb"], "emc": [False, True]})[1::2] == [
        "3d066361f098bfe68533c9e59d815dab",
        "8443f9fc3e1efc7aea61769a302a1501"]


def test_sweep_command_writes_the_pinned_cache_files(tmp_path, capsys):
    assert main(["sweep", "--mix", "H4", "-n", "400", "--emc",
                 "--set", "emc.num_contexts=1,2",
                 "--cache-dir", str(tmp_path)]) == 0
    assert sorted(os.listdir(tmp_path)) == [
        "run-8d1bdc6de6cc5d66032e83503b67bffe.pkl",
        "run-f1b1a2d59950b5d7c6407e4e529b58fe.pkl"]


def test_emc_sweep_example_labels_and_hashes():
    pytest.importorskip("yaml")
    from repro.analysis.spec import load_spec
    spec = load_spec(os.path.join(EXAMPLES, "farm", "emc_sweep.yaml"))
    assert [(one.label, job_hash(one)) for one in spec.jobs()] == [
        ("emc-sweep/H4[prefetcher=none,emc=off]",
         "dc880f70af9331c310cc29b0a860c337"),
        ("emc-sweep/H4[prefetcher=none,emc=on]",
         "75af9b0d8c24ba86cc82578191913720"),
        ("emc-sweep/H4[prefetcher=stream,emc=off]",
         "0d48ba321fff9c10fe6d2d518fdb7de0"),
        ("emc-sweep/H4[prefetcher=stream,emc=on]",
         "8c852f813ca1f166aed90c8a66611562"),
        ("emc-sweep/H4[prefetcher=ghb,emc=on]",
         "de2b871b8c8d917cd6c1d718fcdd6b37"),
    ]
