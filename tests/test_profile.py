"""``repro profile --engine opcodes``: host-independent bytecode counts."""

import json

from repro.analysis.profile import count_opcodes, profile_run
from repro.cli import main


def _opcode_run(path):
    return profile_run(n_instrs=200, warmup_instrs=50, phase="sim",
                       engine="opcodes", limit=15, out_path=str(path))


def test_opcode_counts_repeat_exactly_and_name_the_core_tick(tmp_path):
    first = _opcode_run(tmp_path / "a.json")
    second = _opcode_run(tmp_path / "b.json")
    with open(tmp_path / "a.json") as fh:
        a = json.load(fh)
    with open(tmp_path / "b.json") as fh:
        b = json.load(fh)
    assert a == b
    assert first[0].text == second[0].text
    assert a["unit"] == "instr" and a["per"] > 0
    ticks = [name for name in a["bytecodes"]
             if name.startswith("OutOfOrderCore._tick ")]
    assert len(ticks) == 1 and a["calls"][ticks[0]] > 0
    assert "OutOfOrderCore._tick" in first[0].text
    assert first[0].engine == "opcodes"


def test_count_opcodes_counts_bytecodes_and_calls_per_function():
    def leaf(x):
        return x + 1

    def work():
        return sum(leaf(i) for i in range(10))

    bytecodes, calls, value = count_opcodes(work)
    assert value == 55
    leaf_name = next(name for name in calls if "leaf (" in name)
    assert calls[leaf_name] == 10
    assert bytecodes[leaf_name] % 10 == 0 and bytecodes[leaf_name] > 0


def test_cli_accepts_the_opcodes_engine(capsys):
    assert main(["profile", "--engine", "opcodes", "--phase", "sim",
                 "-n", "100", "--warmup", "20", "--limit", "5"]) == 0
    out = capsys.readouterr().out
    assert "== phase: sim (opcodes) ==" in out
    assert "per instr" in out
