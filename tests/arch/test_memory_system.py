"""Tests for the TCDM and instruction cache models."""

import pytest

from repro.arch.icache import InstructionCache
from repro.arch.tcdm import Tcdm, TcdmAllocationError


class TestTcdmAllocation:
    def test_capacity_and_free_bytes(self):
        tcdm = Tcdm()
        assert tcdm.capacity_bytes == 128 * 1024
        tcdm.allocate("weights", 1000)
        assert tcdm.used_bytes >= 1000
        assert tcdm.free_bytes <= tcdm.capacity_bytes - 1000

    def test_alignment(self):
        tcdm = Tcdm()
        tcdm.allocate("a", 3)
        buffer = tcdm.allocate("b", 8, align=8)
        assert buffer.offset % 8 == 0

    def test_overflow_raises(self):
        tcdm = Tcdm()
        with pytest.raises(TcdmAllocationError):
            tcdm.allocate("huge", 1024 * 1024)

    def test_duplicate_name_rejected(self):
        tcdm = Tcdm()
        tcdm.allocate("a", 8)
        with pytest.raises(ValueError):
            tcdm.allocate("a", 8)

    def test_reset_frees_everything(self):
        tcdm = Tcdm()
        tcdm.allocate("a", 1024)
        tcdm.reset()
        assert tcdm.used_bytes == 0
        assert tcdm.buffers() == []

    def test_buffers_sorted_by_offset(self):
        tcdm = Tcdm()
        tcdm.allocate("a", 16)
        tcdm.allocate("b", 16)
        names = [b.name for b in tcdm.buffers()]
        assert names == ["a", "b"]


class TestTcdmConflicts:
    def test_bank_mapping_interleaves_words(self):
        tcdm = Tcdm()
        assert tcdm.bank_of(0) == 0
        assert tcdm.bank_of(8) == 1
        assert tcdm.bank_of(8 * 32) == 0

    def test_single_requester_never_stalls(self):
        assert Tcdm().conflict_stall_factor(1) == pytest.approx(1.0)

    def test_stall_factor_increases_with_requesters(self):
        tcdm = Tcdm()
        factors = [tcdm.conflict_stall_factor(k) for k in (1, 2, 4, 8)]
        assert factors == sorted(factors)
        # Eight cores on 32 banks collide only mildly (~10 % slowdown).
        assert 1.05 < factors[-1] < 1.25

    def test_invalid_requester_count(self):
        with pytest.raises(ValueError):
            Tcdm().conflict_stall_factor(0)

    def test_record_accesses(self):
        tcdm = Tcdm()
        tcdm.record_accesses(10)
        tcdm.record_accesses(5)
        assert tcdm.total_accesses == 15
        with pytest.raises(ValueError):
            tcdm.record_accesses(-1)


class TestInstructionCache:
    def test_kernel_fits(self):
        icache = InstructionCache()
        assert icache.kernel_fits(4 * 1024)
        assert not icache.kernel_fits(16 * 1024)

    def test_miss_cycles_grow_with_instructions_and_tiles(self):
        icache = InstructionCache()
        small = icache.miss_cycles(1_000, tiles=1)
        large = icache.miss_cycles(1_000_000, tiles=1)
        more_tiles = icache.miss_cycles(1_000, tiles=4)
        assert large > small
        assert more_tiles > small

    def test_miss_cycles_are_small_fraction_of_execution(self):
        """The gap-to-ideal contribution of the i-cache must stay modest."""
        icache = InstructionCache()
        instructions = 1_000_000
        assert icache.miss_cycles(instructions, tiles=8) < 0.05 * instructions

    def test_negative_inputs_rejected(self):
        icache = InstructionCache()
        with pytest.raises(ValueError):
            icache.miss_cycles(-1)
        with pytest.raises(ValueError):
            icache.miss_cycles(1, tiles=-1)
