"""Tests for config-knob sweeps: dotted config paths and ``repro sweep``."""

import pytest

from repro.cli import main
from repro.uarch.params import (get_config_field, quad_core_config,
                                set_config_field)


def test_set_get_nested_field():
    cfg = quad_core_config()
    set_config_field(cfg, "emc.num_contexts", 4)
    assert cfg.emc.num_contexts == 4
    assert get_config_field(cfg, "emc.num_contexts") == 4
    set_config_field(cfg, "llc.latency", 20)
    assert cfg.llc.latency == 20


def test_set_unknown_field_raises():
    cfg = quad_core_config()
    with pytest.raises(AttributeError):
        set_config_field(cfg, "emc.no_such_knob", 1)
    with pytest.raises(AttributeError):
        set_config_field(cfg, "nosection.x", 1)


def _sweep_rows(capsys, *sets):
    argv = ["sweep", "--mix", "H4", "-n", "400", "--emc"]
    for grid in sets:
        argv += ["--set", grid]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[2:-1]]
    return lines[1].split(), rows, lines[-1]


def test_sweep_runs_full_grid(capsys):
    headers, rows, _best = _sweep_rows(capsys, "emc.num_contexts=1,2",
                                       "emc.max_load_depth=1,2")
    assert headers[:2] == ["emc.num_contexts", "emc.max_load_depth"]
    assert [tuple(row[:2]) for row in rows] == [
        ("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")]
    for row in rows:
        assert float(row[2]) > 0


def test_sweep_best_and_table(capsys):
    headers, rows, best = _sweep_rows(capsys, "emc.enabled=false,true")
    assert headers == ["emc.enabled", "perf", "emc_frac"]
    assert len(rows) == 2
    top = max(rows, key=lambda row: float(row[1]))
    assert best == (f"best: {{'emc.enabled': {top[0]}}} -> {top[1]}")
