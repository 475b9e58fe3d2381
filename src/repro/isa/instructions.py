"""Instruction definitions for the micro-simulator.

Instructions are represented by a single dataclass carrying a mnemonic and
its operands; semantics and timing live in :mod:`repro.isa.executor`.  The
supported subset covers what Listing 1 of the paper and the fused activation
need: integer ALU/branch/load/store instructions, double-precision FP loads
and arithmetic, and the pseudo-instructions of the stream-register and
``frep`` extensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

INT_ALU_OPS = frozenset(
    {"add", "addi", "sub", "slli", "srli", "and", "or", "xor", "mul", "li", "mv"}
)
INT_LOAD_OPS = frozenset({"lw", "lh", "lhu", "lb", "lbu"})
INT_STORE_OPS = frozenset({"sw", "sh", "sb"})
BRANCH_OPS = frozenset({"bne", "beq", "blt", "bge"})
FP_LOAD_OPS = frozenset({"fld"})
FP_STORE_OPS = frozenset({"fsd"})
FP_ALU_OPS = frozenset({"fadd.d", "fsub.d", "fmul.d", "fmadd.d", "fmax.d", "fmv.d"})
SSR_OPS = frozenset({"ssr.cfg.indirect", "ssr.cfg.affine", "ssr.enable", "ssr.disable"})
FREP_OPS = frozenset({"frep"})

ALL_OPS = (
    INT_ALU_OPS
    | INT_LOAD_OPS
    | INT_STORE_OPS
    | BRANCH_OPS
    | FP_LOAD_OPS
    | FP_STORE_OPS
    | FP_ALU_OPS
    | SSR_OPS
    | FREP_OPS
    | frozenset({"nop"})
)

LOAD_BYTES = {"lw": 4, "lh": 2, "lhu": 2, "lb": 1, "lbu": 1, "fld": 8}
STORE_BYTES = {"sw": 4, "sh": 2, "sb": 1, "fsd": 8}


@dataclass(frozen=True)
class Instruction:
    """A single instruction: mnemonic plus operand tuple.

    Operands are register names (strings such as ``"t0"`` or ``"ft1"``),
    immediates (ints/floats) or label names for branches.
    """

    op: str
    operands: Tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.op not in ALL_OPS:
            raise ValueError(f"unknown mnemonic {self.op!r}")
        object.__setattr__(self, "operands", tuple(self.operands))

    @property
    def is_fp(self) -> bool:
        """Whether the instruction occupies the FP datapath."""
        return self.op in FP_ALU_OPS or self.op in FP_LOAD_OPS or self.op in FP_STORE_OPS

    @property
    def destination(self) -> str:
        """Destination register name, or an empty string if none."""
        if self.op in INT_ALU_OPS or self.op in INT_LOAD_OPS or self.op in FP_LOAD_OPS:
            return str(self.operands[0])
        if self.op in FP_ALU_OPS:
            return str(self.operands[0])
        return ""

    def sources(self) -> Tuple[str, ...]:
        """Register names read by the instruction (best-effort, for hazards)."""
        if self.op in BRANCH_OPS:
            return tuple(str(o) for o in self.operands[:2])
        if self.op in INT_STORE_OPS or self.op in FP_STORE_OPS:
            return tuple(str(o) for o in self.operands[:1]) + tuple(
                str(o) for o in self.operands[2:3]
            )
        if self.op in ("li",):
            return ()
        return tuple(str(o) for o in self.operands[1:] if isinstance(o, str))

    def __str__(self) -> str:
        rendered = ", ".join(str(o) for o in self.operands)
        return f"{self.op} {rendered}".strip()
