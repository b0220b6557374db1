"""Pinned stats identity of the core path.

Each case is a small run with warmup on; its SHA-256 is taken over the
flattened stats tree (the digest ``perfbench`` records, at test sizes).
The literals were recorded before the core's per-cycle path was reworked
for host speed, so any later core change that moves one simulated
statistic fails here, on a workload the other pinned checks do not cover:
the low-MPKI quad keeps the core and the event wheel busy with almost no
memory traffic.

A change that is *meant* to move simulated behaviour re-records these
literals (``python tests/test_core_identity.py`` prints them) and says so.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis.parallel import execute_job, job
from repro.lint.sanitize import flatten_tree

#: case name -> the job it runs
CASES = {
    "lowmpki-quad": job("named:calculix+gobmk+bzip2+h264ref", 1500,
                        prefetcher="stream", emc=True, seed=3,
                        warmup_instrs=400),
    "h4-emc-stream": job("H4", 1200, prefetcher="stream", emc=True, seed=2,
                         warmup_instrs=300),
    "eight-mesh-hermes": job("eight:H3", 500, emc=True, fabric="mesh",
                             predictor="hermes", num_mcs=2, seed=1,
                             warmup_instrs=150),
}

#: case name -> SHA-256 of ``flatten_tree(result.stats)``
EXPECTED = {
    "lowmpki-quad":
        "b7a82789377174fd938cb92f17ea644374cd73d7d09db0a0cbf434f60d5b2a08",
    "h4-emc-stream":
        "c1667150493c4aaea8934ef78049e7a6507d049b418f37152c5dacbeb3901f3a",
    "eight-mesh-hermes":
        "40aa63c3efc00bbf3ba3c3bff7b2c28ab87a51c1f3d4e1195ba49d78a0ba7047",
}


def stats_digest(name: str) -> str:
    result = execute_job(CASES[name])
    flat = flatten_tree(result.stats)
    text = json.dumps(flat, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_core_path_keeps_every_stat(name):
    assert stats_digest(name) == EXPECTED[name]


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}: {stats_digest(case)!r},")
