"""RTL-style simulator tests: cycle equality with the reference ISS
and the VCD waveform writer."""

import pytest

from repro.arch.model import default_source_arch
from repro.isa.tricore.assembler import assemble
from repro.programs import registry
from repro.programs.registry import build
from repro.refsim.iss import CycleAccurateISS
from repro.refsim.rtlsim import RtlSimulator
from repro.refsim.vcd import VcdWriter


class TestCycleEquality:
    @pytest.mark.parametrize("name", registry.program_names())
    def test_matches_reference_iss(self, name):
        obj = build(name)
        ref = CycleAccurateISS(obj).run()
        rtl = RtlSimulator(obj).run()
        assert rtl.cycles == ref.cycles
        assert rtl.instructions == ref.instructions
        assert rtl.regs == ref.regs
        assert rtl.data_image == ref.data_image
        assert rtl.exit_code == ref.exit_code
        assert rtl.uart_output == ref.uart_output
        assert rtl.bus_trace == ref.bus_trace
        assert rtl.cache_stats == ref.cache_stats
        assert rtl.branch_stats == ref.branch_stats

    def test_matches_with_custom_arch(self):
        arch = default_source_arch().with_icache(ways=1, sets=8,
                                                 line_size=16)
        obj = build("gcd")
        ref = CycleAccurateISS(obj, arch).run()
        rtl = RtlSimulator(obj, arch).run()
        assert rtl.cycles == ref.cycles

    def test_is_slower_than_iss(self):
        # The point of the stage-level model: more work per cycle.
        import time

        obj = build("sieve")
        t0 = time.perf_counter()
        CycleAccurateISS(obj).run()
        iss_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        RtlSimulator(obj).run()
        rtl_time = time.perf_counter() - t0
        # Not asserting a strict factor (CI noise); it must not be
        # dramatically faster.
        assert rtl_time > 0.3 * iss_time


class TestClockStepping:
    def test_one_cycle_per_clock_call(self):
        obj = assemble("_start:\n    nop\n    nop\n    halt\n")
        rtl = RtlSimulator(obj)
        before = rtl.cycle
        rtl.clock()
        assert rtl.cycle == before + 1

    def test_halted_rejects_clock(self):
        from repro.errors import SimulationError

        obj = assemble("_start:\n    halt\n")
        rtl = RtlSimulator(obj)
        rtl.run()
        with pytest.raises(SimulationError):
            rtl.clock()


class TestVcd:
    def test_waveform_dump(self):
        obj = assemble("""
        _start:
            li d1, 3
        top:
            add d1, d1, -1
            jnz d1, top
            halt
        """)
        vcd = VcdWriter()
        rtl = RtlSimulator(obj, vcd=vcd)
        rtl.run()
        text = vcd.render()
        assert "$timescale" in text
        assert "$var wire 32" in text and "pc" in text
        assert "#0" in text
        # stall signals toggled at least once (branches stall)
        assert "stall_branch" in text

    def test_writer_records_changes_only(self):
        vcd = VcdWriter()
        vcd.add_signal("sig", 1)
        vcd.record(0, sig=1)
        vcd.record(1, sig=1)  # no change, no output
        vcd.record(2, sig=0)
        body = vcd.render().split("$enddefinitions $end\n")[1]
        assert body.count("#") == 2

    def test_writer_rejects_late_signal(self):
        vcd = VcdWriter()
        vcd.add_signal("a", 1)
        vcd.record(0, a=1)
        with pytest.raises(RuntimeError):
            vcd.add_signal("b", 1)

    def test_save(self, tmp_path):
        vcd = VcdWriter()
        vcd.add_signal("a", 8)
        vcd.record(0, a=0x55)
        path = tmp_path / "wave.vcd"
        vcd.save(str(path))
        assert "b1010101" in path.read_text()
