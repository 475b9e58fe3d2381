"""Tests for instruction definitions, memory and program containers."""

import numpy as np
import pytest

from repro.isa.instructions import Instruction
from repro.isa.memory import Memory
from repro.isa.program import Program


class TestInstruction:
    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(ValueError):
            Instruction("frobnicate", ())

    def test_classification_flags(self):
        assert Instruction("fadd.d", ("fa0", "ft1", "fa0")).is_fp
        assert not Instruction("addi", ("t0", "t0", 1)).is_fp

    def test_destination_and_sources(self):
        instr = Instruction("add", ("t0", "t1", "t2"))
        assert instr.destination == "t0"
        assert set(instr.sources()) == {"t1", "t2"}

    def test_branch_sources(self):
        instr = Instruction("bne", ("t0", "t1", "loop"))
        assert set(instr.sources()) == {"t0", "t1"}

    def test_str_rendering(self):
        assert str(Instruction("addi", ("t0", "t0", 2))) == "addi t0, t0, 2"


class TestMemory:
    def test_int_round_trip(self):
        memory = Memory(1024)
        memory.write_int(10, 0xBEEF, 2)
        assert memory.read_int(10, 2) == 0xBEEF

    def test_signed_read(self):
        memory = Memory(64)
        memory.write_int(0, -5, 4)
        assert memory.read_int(0, 4, signed=True) == -5

    def test_f64_round_trip(self):
        memory = Memory(64)
        memory.write_f64(8, 3.25)
        assert memory.read_f64(8) == 3.25

    def test_out_of_bounds_raises(self):
        memory = Memory(16)
        with pytest.raises(IndexError):
            memory.read_int(15, 4)

    def test_array_placement(self, rng):
        memory = Memory(4096)
        weights = rng.normal(size=16)
        idcs = np.arange(16, dtype=np.uint16)
        w_addr = memory.place_f64_array("weights", weights)
        i_addr = memory.place_u16_array("idcs", idcs)
        assert np.allclose(memory.read_f64_array(w_addr, 16), weights)
        assert memory.read_int(i_addr + 2 * 5, 2) == 5
        assert memory.base_address("weights") == w_addr

    def test_duplicate_allocation_rejected(self):
        memory = Memory(128)
        memory.allocate("a", 8)
        with pytest.raises(ValueError):
            memory.allocate("a", 8)


class TestProgram:
    def test_emit_and_labels(self):
        program = Program(name="p")
        program.label("start").emit("addi", "t0", "t0", 1).emit("bne", "t0", "t1", "start")
        assert len(program) == 2
        assert program.target("start") == 0

    def test_duplicate_label_rejected(self):
        program = Program()
        program.label("a")
        with pytest.raises(ValueError):
            program.label("a")

    def test_missing_label_raises(self):
        with pytest.raises(KeyError):
            Program().target("nowhere")

    def test_extend_shifts_labels(self):
        first = Program()
        first.emit("nop")
        second = Program()
        second.label("loop").emit("nop")
        first.extend(second)
        assert first.target("loop") == 1

    def test_listing_contains_labels_and_instructions(self):
        program = Program()
        program.label("SpVA").emit("addi", "t0", "t0", 1)
        listing = program.listing()
        assert "SpVA:" in listing
        assert "addi t0, t0, 1" in listing

    def test_instruction_at_out_of_range(self):
        assert Program().instruction_at(3) is None
