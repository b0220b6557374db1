"""The completion path's inlined wake-up: doze accounting and the
single tick event per wake-up."""

from repro.core.inflight import UopState
from repro.sim.system import System
from repro.uarch.params import CoreConfig
from repro.uarch.uop import UopType
from repro.workloads.memory_image import MemoryImage

from .helpers import TraceWriter, tiny_config

ROB = 6


def _stalling_system() -> System:
    """One core with a 6-entry window: two loads to distinct far lines
    (DRAM misses) head the trace, then independent adds fill the window
    behind them, so the core dozes on a full window until memory
    returns."""
    image = MemoryImage()
    image.write(0x100000, 5)
    image.write(0x900000, 9)
    tw = TraceWriter()
    tw.add(UopType.LOAD, dest=1, imm=0x100000)
    tw.add(UopType.LOAD, dest=2, imm=0x900000)
    for i in range(40):
        tw.add(UopType.ADD, dest=3 + i % 4, imm=i)
    cfg = tiny_config()
    cfg.core = CoreConfig(rob_entries=ROB)
    system = System(cfg, [(tw.trace(), image)])
    system.cores[0].start()
    return system


def test_full_window_stall_cycles_equal_the_cycles_dozed_on_a_full_window():
    system = _stalling_system()
    core = system.cores[0]
    wheel = system.wheel
    dozed = 0
    while not core.finished:
        started = core._doze_started
        assert wheel.step()
        if started is not None and core._doze_started is None:
            # Woken by this event; the window it dozed on is still
            # in place (only a tick retires or dispatches).
            if len(core.rob) >= ROB:
                dozed += wheel.now - started
    assert dozed > 100          # it really waited on DRAM
    assert core.stats.full_window_stall_cycles == dozed


def test_completion_adds_one_tick_event_only_when_no_tick_is_scheduled():
    system = _stalling_system()
    core = system.cores[0]
    wheel = system.wheel
    # Step into a doze on the full window that has lasted a while.
    while not (core._doze_started is not None and len(core.rob) >= ROB
               and wheel.now > core._doze_started):
        assert wheel.step()
    first, second = core.rob[0], core.rob[1]
    assert first.uop.op is UopType.LOAD and second.uop.op is UopType.LOAD
    assert first.state is UopState.ISSUED
    assert second.state is UopState.ISSUED
    assert not core._tick_scheduled

    # A dozing core: the completion ends the doze and schedules the tick.
    before = wheel._seq
    stall = core.stats.full_window_stall_cycles
    dozed = wheel.now - core._doze_started
    core._complete(first, 5)
    assert wheel._seq - before == 1
    assert core._tick_scheduled and core._doze_started is None
    assert core.stats.full_window_stall_cycles == stall + dozed

    # The tick is already scheduled: no second tick event.
    before = wheel._seq
    stall = core.stats.full_window_stall_cycles
    core._complete(second, 9)
    assert wheel._seq == before
    assert core.stats.full_window_stall_cycles == stall
    assert second.state is UopState.DONE

    # The machine still runs to completion afterwards.
    stats = system.run()
    assert stats.cores[0].instructions == 42
