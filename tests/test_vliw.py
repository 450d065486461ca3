"""VLIW core, synchronization device, and bridge tests."""

import pytest

from repro.arch.model import default_target_arch
from repro.errors import BusError, HazardError, SimulationError
from repro.isa.c6x.instructions import TargetInstr, TOp
from repro.isa.c6x.packets import C6xProgram, ExecutePacket
from repro.isa.c6x.units import Unit
from repro.soc.bus import standard_bus
from repro.vliw.bridge import BusBridge
from repro.vliw.core import C6xCore
from repro.vliw.platform import PrototypingPlatform
from repro.vliw.syncdev import (
    REG_CMD,
    REG_CORR_CMD,
    REG_CORR_STATUS,
    REG_STATUS,
    SyncDevice,
)

TARGET = default_target_arch()


def _program(packets, labels=None) -> C6xProgram:
    program = C6xProgram(target=TARGET)
    program.packets = [ExecutePacket(instrs=list(p)) for p in packets]
    program.labels = {"__entry": 0, **(labels or {})}
    for packet in program.packets:
        used: set[Unit] = set()
        for instr in packet.instrs:
            if instr.op is not TOp.NOP and instr.unit is None:
                instr.unit = _free_unit(instr, used)
                used.add(instr.unit)
    return program.finalize()


def _free_unit(instr, used) -> Unit:
    from repro.isa.c6x.instructions import UNIT_KINDS
    from repro.isa.c6x.units import UNITS_BY_KIND

    for kind in UNIT_KINDS[instr.op]:
        for unit in UNITS_BY_KIND[kind]:
            if unit not in used:
                return unit
    raise AssertionError("no free unit in test packet")


def _core(packets, labels=None, rate=1.0, strict=True):
    bus = standard_bus()
    sync = SyncDevice(rate=rate)
    bridge = BusBridge(bus, sync)
    # sync_access_stall=0: these tests probe protocol behaviour, not the
    # fixed external-bus cost of reaching the device.
    core = C6xCore(_program(packets, labels), sync, bridge, strict=strict,
                   sync_access_stall=0)
    return core, sync, bus


def _run(core, limit=10_000):
    while not core.halted:
        core.step_packet()
        if core.cycles > limit:
            raise AssertionError("runaway core")
    return core


class TestAluAndPackets:
    def test_mvk_and_add(self):
        core, _, _ = _core([
            [TargetInstr(TOp.MVK, dst=0, imm=20),
             TargetInstr(TOp.MVK, dst=1, imm=22)],
            [TargetInstr(TOp.ADD, dst=2, src1=0, src2=1)],
            [TargetInstr(TOp.HALT)],
        ])
        _run(core)
        assert core.regs[2] == 42

    def test_mvkl_mvkh_pair(self):
        core, _, _ = _core([
            [TargetInstr(TOp.MVKL, dst=0, imm=-16657)],  # 0xBEEF s16
            [TargetInstr(TOp.MVKH, dst=0, imm=0xDEAD)],
            [TargetInstr(TOp.HALT)],
        ])
        _run(core)
        assert core.regs[0] == 0xDEADBEEF

    def test_parallel_reads_see_old_values(self):
        # swap in one packet: both read pre-packet state
        core, _, _ = _core([
            [TargetInstr(TOp.MVK, dst=0, imm=1),
             TargetInstr(TOp.MVK, dst=1, imm=2)],
            [TargetInstr(TOp.ADD, dst=0, src1=1, imm=0),
             TargetInstr(TOp.ADD, dst=1, src1=0, imm=0)],
            [TargetInstr(TOp.HALT)],
        ])
        _run(core)
        assert (core.regs[0], core.regs[1]) == (2, 1)

    def test_predication(self):
        core, _, _ = _core([
            [TargetInstr(TOp.MVK, dst=0, imm=0),
             TargetInstr(TOp.MVK, dst=1, imm=7)],
            [TargetInstr(TOp.MVK, dst=2, imm=1, pred=0)],  # nullified
            [TargetInstr(TOp.MVK, dst=3, imm=1, pred=0, pred_sense=False)],
            [TargetInstr(TOp.MVK, dst=4, imm=1, pred=1)],
            [TargetInstr(TOp.HALT)],
        ])
        _run(core)
        assert core.regs[2] == 0
        assert core.regs[3] == 1
        assert core.regs[4] == 1


class TestDelaySlots:
    def test_load_delay_visible(self):
        # Reading the load's destination during the shadow is a hazard
        # in strict mode.
        core, _, _ = _core([
            [TargetInstr(TOp.LDW, dst=0, src1=1, imm=0)],
            [TargetInstr(TOp.ADD, dst=2, src1=0, imm=1)],
            [TargetInstr(TOp.HALT)],
        ])
        core.regs[1] = TARGET.data_base
        with pytest.raises(HazardError):
            _run(core)

    def test_load_result_after_delay(self):
        packets = [
            [TargetInstr(TOp.MVKL, dst=1, imm=0)],
            [TargetInstr(TOp.MVKH, dst=1, imm=TARGET.data_base >> 16)],
            [TargetInstr(TOp.LDW, dst=0, src1=1, imm=0)],
        ]
        packets += [[TargetInstr(TOp.NOP, imm=1)]] * TARGET.load_delay_slots
        packets += [
            [TargetInstr(TOp.ADD, dst=2, src1=0, imm=1)],
            [TargetInstr(TOp.HALT)],
        ]
        core, _, _ = _core(packets)
        core._mem[0:4] = (41).to_bytes(4, "little")
        _run(core)
        assert core.regs[2] == 42

    def test_branch_delay_slots_execute(self):
        labels = {"target": 8}
        packets = [
            [TargetInstr(TOp.B, target="target")],
        ]
        # 5 delay slots, each incrementing r0
        for _ in range(TARGET.branch_delay_slots):
            packets.append([TargetInstr(TOp.ADD, dst=0, src1=0, imm=1)])
        packets.append([TargetInstr(TOp.ADD, dst=0, src1=0, imm=100)])  # skipped
        packets.append([TargetInstr(TOp.ADD, dst=0, src1=0, imm=100)])  # skipped
        packets.append([TargetInstr(TOp.HALT)])  # index 8 = target
        core, _, _ = _core(packets, labels)
        _run(core)
        assert core.regs[0] == TARGET.branch_delay_slots

    def test_branch_in_delay_slots_rejected(self):
        labels = {"a": 3, "b": 4}
        packets = [
            [TargetInstr(TOp.B, target="a")],
            [TargetInstr(TOp.B, target="b")],
            [TargetInstr(TOp.NOP, imm=1)],
            [TargetInstr(TOp.HALT)],
            [TargetInstr(TOp.HALT)],
        ]
        core, _, _ = _core(packets, labels)
        with pytest.raises(SimulationError):
            _run(core)

    def test_indirect_branch_via_addr_map(self):
        labels = {"fn": 7}
        packets = [
            [TargetInstr(TOp.MVKL, dst=0, imm=0x1234)],
            [TargetInstr(TOp.MVKH, dst=0, imm=0x8000)],
            [TargetInstr(TOp.B, src1=0)],
        ]
        packets += [[TargetInstr(TOp.NOP, imm=1)]] * 5
        packets += [[TargetInstr(TOp.HALT)]]
        core, _, _ = _core(packets, labels)
        core.program.addr_to_packet[0x8000_1234] = 8
        _run(core)
        assert core.halted

    def test_indirect_branch_unmapped_rejected(self):
        packets = [
            [TargetInstr(TOp.MVK, dst=0, imm=0x100)],
            [TargetInstr(TOp.B, src1=0)],
        ] + [[TargetInstr(TOp.NOP, imm=1)]] * 6
        core, _, _ = _core(packets)
        with pytest.raises(SimulationError):
            _run(core)


class TestMemoryAccess:
    """The host-side accessors bound-check like the core's own loads."""

    def _core(self):
        core, _, _ = _core([[TargetInstr(TOp.HALT)]])
        core.write_mem(TARGET.data_base, 0x1234_5678, 4)
        return core

    def test_reads_inside_memory(self):
        core = self._core()
        assert core.read_mem(TARGET.data_base, 4) == 0x1234_5678
        assert core.data_window(TARGET.data_base, 2) == b"\x78\x56"
        end = TARGET.internal_base + TARGET.internal_size
        assert core.data_window(end - 4, 4) == bytes(4)

    @pytest.mark.parametrize("addr", [
        TARGET.data_base - 4,  # negative offset: would wrap to the end
        TARGET.internal_base + TARGET.internal_size - 2,  # runs past end
        TARGET.internal_base + TARGET.internal_size,
    ])
    def test_read_mem_outside_memory(self, addr):
        with pytest.raises(BusError):
            self._core().read_mem(addr, 4)

    @pytest.mark.parametrize("addr", [
        TARGET.data_base - 4,
        TARGET.internal_base + TARGET.internal_size - 2,
    ])
    def test_data_window_outside_memory(self, addr):
        with pytest.raises(BusError):
            self._core().data_window(addr, 4)


class TestSyncDevice:
    def test_generation_parallel_to_execution(self):
        sync_base = TARGET.sync_base
        packets = [
            [TargetInstr(TOp.MVKL, dst=1, imm=sync_base & 0xFFFF)],
            [TargetInstr(TOp.MVKH, dst=1, imm=sync_base >> 16)],
            [TargetInstr(TOp.MVK, dst=0, imm=3)],
            [TargetInstr(TOp.STW, src1=0, src2=1, imm=REG_CMD)],
            [TargetInstr(TOp.NOP, imm=1)],
            [TargetInstr(TOp.NOP, imm=1)],
            [TargetInstr(TOp.NOP, imm=1)],
            [TargetInstr(TOp.LDW, dst=2, src1=1, imm=REG_STATUS)],
            [TargetInstr(TOp.HALT)],
        ]
        core, sync, _ = _core(packets)
        _run(core)
        assert sync.emulated_cycles == 3
        assert core.stats.sync_stall_cycles == 0  # generation finished

    def test_wait_stalls_until_done(self):
        sync_base = TARGET.sync_base
        packets = [
            [TargetInstr(TOp.MVKL, dst=1, imm=sync_base & 0xFFFF)],
            [TargetInstr(TOp.MVKH, dst=1, imm=sync_base >> 16)],
            [TargetInstr(TOp.MVK, dst=0, imm=50)],
            [TargetInstr(TOp.STW, src1=0, src2=1, imm=REG_CMD)],
            [TargetInstr(TOp.LDW, dst=2, src1=1, imm=REG_STATUS)],
            [TargetInstr(TOp.HALT)],
        ]
        core, sync, _ = _core(packets)
        _run(core)
        assert sync.emulated_cycles == 50
        assert core.stats.sync_stall_cycles > 0

    def test_double_start_rejected(self):
        sync = SyncDevice()
        sync.write(REG_CMD, 10)
        with pytest.raises(SimulationError):
            sync.write(REG_CMD, 5)

    def test_correction_channel(self):
        sync = SyncDevice(rate=2.0)
        sync.write(REG_CORR_CMD, 4)
        assert sync.read_blocks(REG_CORR_STATUS)
        sync.tick()
        sync.tick()
        assert not sync.read_blocks(REG_CORR_STATUS)
        assert sync.emulated_cycles == 4

    def test_fractional_rate(self):
        sync = SyncDevice(rate=0.5)
        sync.write(REG_CMD, 2)
        ticks = 0
        while sync.read_blocks(REG_STATUS):
            sync.tick()
            ticks += 1
        assert ticks == 4  # 0.5 cycles per tick

    def test_flush(self):
        sync = SyncDevice()
        sync.write(REG_CMD, 100)
        sync.flush()
        assert sync.emulated_cycles == 100
        assert not sync.busy

    def test_bad_rate(self):
        with pytest.raises(SimulationError):
            SyncDevice(rate=0)

    def test_stats(self):
        sync = SyncDevice()
        sync.write(REG_CMD, 5)
        sync.write(REG_CORR_CMD, 2)
        sync.flush()
        assert sync.stats.blocks_started == 1
        assert sync.stats.corrections_started == 1
        assert sync.stats.cycles_generated == 5
        assert sync.stats.correction_cycles_generated == 2


class TestBridge:
    def test_bridge_write_reaches_bus(self):
        bridge_base = TARGET.bridge_base
        packets = [
            [TargetInstr(TOp.MVKL, dst=1, imm=bridge_base & 0xFFFF)],
            [TargetInstr(TOp.MVKH, dst=1, imm=bridge_base >> 16)],
            [TargetInstr(TOp.MVK, dst=0, imm=65)],
            [TargetInstr(TOp.STW, src1=0, src2=1, imm=0)],  # uart data
            [TargetInstr(TOp.HALT)],
        ]
        core, _, bus = _core(packets)
        _run(core)
        assert bus.device("uart").output == b"A"
        assert core.stats.bridge_stall_cycles > 0

    def test_bridge_read(self):
        bridge_base = TARGET.bridge_base
        packets = [
            [TargetInstr(TOp.MVKL, dst=1, imm=bridge_base & 0xFFFF)],
            [TargetInstr(TOp.MVKH, dst=1, imm=bridge_base >> 16)],
            [TargetInstr(TOp.LDW, dst=0, src1=1, imm=0x10)],  # timer
            [TargetInstr(TOp.NOP, imm=1)] * 1,
        ] + [[TargetInstr(TOp.NOP, imm=1)]] * 4 + [
            [TargetInstr(TOp.HALT)],
        ]
        core, _, _ = _core(packets)
        _run(core)
        assert core.regs[0] == 0  # no cycles generated yet

    def test_timestamps_use_emulated_clock(self):
        sync_base = TARGET.sync_base
        bridge_base = TARGET.bridge_base
        packets = [
            [TargetInstr(TOp.MVKL, dst=1, imm=sync_base & 0xFFFF)],
            [TargetInstr(TOp.MVKH, dst=1, imm=sync_base >> 16)],
            [TargetInstr(TOp.MVKL, dst=2, imm=bridge_base & 0xFFFF)],
            [TargetInstr(TOp.MVKH, dst=2, imm=bridge_base >> 16)],
            [TargetInstr(TOp.MVK, dst=0, imm=10)],
            [TargetInstr(TOp.STW, src1=0, src2=1, imm=REG_CMD)],
            [TargetInstr(TOp.LDW, dst=3, src1=1, imm=REG_STATUS)],
            [TargetInstr(TOp.MVK, dst=4, imm=88)],
            [TargetInstr(TOp.STW, src1=4, src2=2, imm=0)],
            [TargetInstr(TOp.HALT)],
        ]
        core, sync, bus = _core(packets)
        _run(core)
        (access,) = bus.monitor.transfers()
        assert access.cycle == 10  # stamped with the emulated clock
        assert access.value == 88


class TestPlatform:
    def test_platform_wires_exit_device(self):
        bridge_base = TARGET.bridge_base
        packets = [
            [TargetInstr(TOp.MVKL, dst=1, imm=bridge_base & 0xFFFF)],
            [TargetInstr(TOp.MVKH, dst=1, imm=bridge_base >> 16)],
            [TargetInstr(TOp.MVK, dst=0, imm=5)],
            [TargetInstr(TOp.STW, src1=0, src2=1, imm=0x20)],
            [TargetInstr(TOp.HALT)],
        ]
        platform = PrototypingPlatform(_program(packets))
        result = platform.run()
        assert result.exit_code == 5

    def test_cycle_limit(self):
        labels = {"top": 0}
        packets = [[TargetInstr(TOp.B, target="top")]] \
            + [[TargetInstr(TOp.NOP, imm=1)]] * 5
        platform = PrototypingPlatform(_program(packets, labels))
        with pytest.raises(SimulationError):
            platform.run(max_cycles=500)
