"""Functional semantics of the micro-op ISA.

A single :func:`execute_alu` routine is shared by the core and the EMC so the
two execution sites are value-equivalent by construction.  Memory semantics
live in :mod:`repro.workloads.memory_image`.
"""

from __future__ import annotations

from .uop import MASK64, MicroOp, UopType


def _sext32(value: int) -> int:
    """Sign-extend the low 32 bits of ``value`` to 64 bits."""
    value &= 0xFFFFFFFF
    if value & 0x80000000:
        value |= 0xFFFFFFFF00000000
    return value


# Module-level aliases: reading a member off the enum class goes through
# the enum metaclass and costs several times a global load.
_ADD, _SUB, _MOV = UopType.ADD, UopType.SUB, UopType.MOV
_AND, _OR, _XOR, _NOT = UopType.AND, UopType.OR, UopType.XOR, UopType.NOT
_SHL, _SHR, _SEXT = UopType.SHL, UopType.SHR, UopType.SEXT
_FP, _VEC, _BRANCH, _NOP = UopType.FP, UopType.VEC, UopType.BRANCH, UopType.NOP


def execute_alu(uop: MicroOp, a: int, b: int) -> int:
    """Compute the result of a non-memory, non-branch uop.

    ``a`` and ``b`` are the values of ``src1``/``src2`` (0 when absent).  The
    immediate participates per-op: binary ops use ``src2`` when present and
    the immediate otherwise, matching how the trace generators emit uops.

    The dispatch tests the ops the trace generators emit most often first
    (add, xor, branch, FP, shift-right); the order changes no result.
    """
    op = uop.op
    rhs = b if uop.src2 is not None else uop.imm
    if op is _ADD:
        return (a + rhs) & MASK64
    if op is _XOR:
        return (a ^ rhs) & MASK64
    if op is _BRANCH or op is _NOP:
        return 0
    if op is _FP or op is _VEC:
        # Floating point / vector results never feed addresses in our traces;
        # a deterministic token keeps execution reproducible.
        return (a * 3 + rhs + 0x5F5E100) & MASK64
    if op is _SHR:
        return (a & MASK64) >> (rhs & 63)
    if op is _SUB:
        return (a - rhs) & MASK64
    if op is _MOV:
        # MOV either copies a register or materializes an immediate.
        return a if uop.src1 is not None else (uop.imm & MASK64)
    if op is _AND:
        return a & rhs & MASK64
    if op is _OR:
        return (a | rhs) & MASK64
    if op is _NOT:
        return (~a) & MASK64
    if op is _SHL:
        return (a << (rhs & 63)) & MASK64
    if op is _SEXT:
        return _sext32(a)
    raise ValueError(f"execute_alu cannot execute {op}")


def effective_address(uop: MicroOp, base: int) -> int:
    """Effective address of a LOAD/STORE: ``base + imm`` (64-bit wrap)."""
    if not uop.is_mem:
        raise ValueError(f"not a memory uop: {uop}")
    if uop.src1 is None:
        return uop.imm & MASK64
    return (base + uop.imm) & MASK64
