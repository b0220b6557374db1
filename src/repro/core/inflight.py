"""In-flight uop state: the ROB entry the scheduler and the chain generator
both operate on."""

from __future__ import annotations

import enum
from typing import List, Optional

from ..uarch.uop import MicroOp


class UopState(enum.Enum):
    WAITING = "waiting"    # in ROB/RS, operands outstanding
    READY = "ready"        # operands available, awaiting an issue slot
    ISSUED = "issued"      # executing (FU or memory system)
    DONE = "done"          # result available, awaiting retirement


# Module-level aliases: the core's per-uop paths compare states by
# identity many times per cycle, and a global load is cheaper than an
# attribute lookup on the enum class.
WAITING = UopState.WAITING
READY = UopState.READY
ISSUED = UopState.ISSUED
DONE = UopState.DONE


class InflightUop:
    """One dynamic uop in the core's instruction window.

    Producer references (``p1``/``p2``/``mem_dep_p``) are kept even after
    producers complete: the dependent-miss classifier walks them backwards,
    and the chain generator consults them during the dataflow walk.
    """

    __slots__ = (
        "uop", "state", "deps", "consumers", "value", "vaddr", "paddr",
        "p1", "p2", "mem_dep_p", "migrated", "chain", "source_of_chain",
        "rs_held",
        "llc_miss_pending", "was_llc_miss", "had_dependent",
        "is_dependent_miss", "chain_attempted",
        "dispatch_cycle", "issue_cycle", "done_cycle",
    )

    def __init__(self, uop: MicroOp, dispatch_cycle: int,
                 p1: Optional["InflightUop"] = None,
                 p2: Optional["InflightUop"] = None) -> None:
        self.uop = uop
        self.state = WAITING
        self.deps = 0
        self.consumers: List["InflightUop"] = []
        self.value: int = 0
        self.vaddr: Optional[int] = None
        self.paddr: Optional[int] = None
        self.p1 = p1
        self.p2 = p2
        self.mem_dep_p: Optional["InflightUop"] = None
        self.migrated = False          # shipped to the EMC
        self.chain = None              # DependenceChain membership
        self.source_of_chain = None    # chain rooted at this source miss
        self.rs_held = True
        self.llc_miss_pending = False  # LLC miss outstanding right now
        self.was_llc_miss = False      # this load missed the LLC
        self.had_dependent = False     # a dependent miss rooted at this load
        self.is_dependent_miss = False
        self.chain_attempted = False
        self.dispatch_cycle = dispatch_cycle
        self.issue_cycle: Optional[int] = None
        self.done_cycle: Optional[int] = None

    @property
    def seq(self) -> int:
        return self.uop.seq

    def producers(self):
        """Register producers in operand order (None entries skipped)."""
        out = []
        if self.p1 is not None:
            out.append(self.p1)
        if self.p2 is not None:
            out.append(self.p2)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "M" if self.migrated else ""
        return f"<IU {self.uop!r} {self.state.value}{flags}>"
