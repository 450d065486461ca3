"""Reference-simulator tests: semantics, timing behaviours, variants."""

import dataclasses

import pytest

import repro.refsim.iss as iss_module
from repro.arch.model import default_source_arch
from repro.errors import BusError, SimulationError
from repro.fuzz import generate
from repro.isa.tricore.assembler import assemble
from repro.minic.compiler import compile_source
from repro.programs import registry
from repro.refsim.irexec import compile_expansion
from repro.refsim.iss import CycleAccurateISS, FunctionalISS, InterpretedISS
from repro.translator.ir import IRInstr, IROp
from repro.utils.bits import s32

ALL_STYLES = (InterpretedISS, FunctionalISS, CycleAccurateISS)


def run_asm(body: str, cls=FunctionalISS, arch=None, max_instructions=200_000):
    """Assemble `_start:` + body (must end in halt) and run it."""
    obj = assemble("_start:\n" + body)
    iss = cls(obj, arch)
    return iss.run(max_instructions=max_instructions)


class TestArithmeticSemantics:
    def _d(self, result, reg):
        return s32(result.regs[reg])

    def test_add_sub(self):
        res = run_asm("""
            li d1, 100
            li d2, 42
            add d3, d1, d2
            sub d4, d1, d2
            halt
        """)
        assert self._d(res, 3) == 142
        assert self._d(res, 4) == 58

    def test_mul_wraps(self):
        res = run_asm("""
            li d1, 1103515245
            li d2, 987654321
            mul d3, d1, d2
            halt
        """)
        assert res.regs[3] == (1103515245 * 987654321) & 0xFFFF_FFFF

    def test_logic(self):
        res = run_asm("""
            li d1, 0xF0F0
            li d2, 0x0FF0
            and d3, d1, d2
            or d4, d1, d2
            xor d5, d1, d2
            andn d6, d1, d2
            not d7, d1
            halt
        """)
        assert res.regs[3] == 0x00F0
        assert res.regs[4] == 0xFFF0
        assert res.regs[5] == 0xFF00
        assert res.regs[6] == 0xF000
        assert res.regs[7] == 0xFFFF_0F0F

    def test_shifts(self):
        res = run_asm("""
            li d1, -16
            shl d2, d1, 2
            shr d3, d1, 2
            shra d4, d1, 2
            halt
        """)
        assert s32(res.regs[2]) == -64
        assert res.regs[3] == 0x3FFF_FFFC
        assert s32(res.regs[4]) == -4

    def test_min_max_abs(self):
        res = run_asm("""
            li d1, -5
            li d2, 3
            min d3, d1, d2
            max d4, d1, d2
            abs d5, d1
            halt
        """)
        assert s32(res.regs[3]) == -5
        assert s32(res.regs[4]) == 3
        assert s32(res.regs[5]) == 5

    def test_compares(self):
        res = run_asm("""
            li d1, -1
            li d2, 1
            lt d3, d1, d2
            lt.u d4, d1, d2
            ge d5, d1, d2
            eq d6, d1, d1
            ne d7, d1, d2
            halt
        """)
        assert res.regs[3] == 1  # signed: -1 < 1
        assert res.regs[4] == 0  # unsigned: 0xFFFFFFFF > 1
        assert res.regs[5] == 0
        assert res.regs[6] == 1
        assert res.regs[7] == 1


class TestMemorySemantics:
    def test_word_roundtrip(self):
        res = run_asm("""
            la a2, buf
            li d1, 0x12345678
            st.w [a2], d1
            ld.w d2, [a2]
            halt
            .data
        buf:
            .space 16
        """)
        assert res.regs[2] == 0x12345678

    def test_byte_sign_extension(self):
        res = run_asm("""
            la a2, buf
            li d1, 0x80
            st.b [a2], d1
            ld.b d2, [a2]
            ld.bu d3, [a2]
            halt
            .data
        buf:
            .space 4
        """)
        assert s32(res.regs[2]) == -128
        assert res.regs[3] == 0x80

    def test_half_sign_extension(self):
        res = run_asm("""
            la a2, buf
            li d1, 0x8001
            st.h [a2], d1
            ld.h d2, [a2]
            ld.hu d3, [a2]
            halt
            .data
        buf:
            .space 4
        """)
        assert s32(res.regs[2]) == -32767
        assert res.regs[3] == 0x8001

    def test_post_increment(self):
        res = run_asm("""
            la a2, buf
            li d1, 7
            st.w [a2+]4, d1
            mov.d d3, a2
            halt
            .data
        buf:
            .space 8
        """)
        base = res.regs[3] - 4
        assert res.data_image[base - 0xD000_0000:][:4] == (7).to_bytes(4, "little")

    def test_pre_increment(self):
        res = run_asm("""
            la a2, buf
            li d1, 9
            st.w [+a2]4, d1
            halt
            .data
        buf:
            .space 8
        """)
        offset = res.bus_trace  # not via bus; check memory directly
        del offset
        # the word landed at buf+4
        from repro.isa.tricore.assembler import assemble as _asm
        assert res.data_image[4:8] == (9).to_bytes(4, "little")


class TestControlFlow:
    def test_call_ret(self):
        res = run_asm("""
            li d4, 5
            call double
            mov16 d3, d2
            halt
        double:
            add d2, d4, d4
            ret
        """)
        assert res.regs[3] == 10

    def test_indirect_call(self):
        res = run_asm("""
            la a2, fn
            calli a2
            halt
        fn:
            mov d2, 77
            ret
        """)
        assert res.regs[2] == 77

    def test_indirect_jump(self):
        res = run_asm("""
            la a2, there
            ji a2
            mov d1, 1
            halt
        there:
            mov d1, 2
            halt
        """)
        assert res.regs[1] == 2

    def test_loop_instruction(self):
        res = run_asm("""
            li d1, 0
            la a2, 0xD0000005   ; counter value 5 in an address register
            mov.d d3, a2
            mov d3, 5
            mov.a a2, d3
        top:
            add d1, d1, 1
            loop a2, top
            halt
        """)
        assert res.regs[1] == 5

    def test_cond_branches(self):
        res = run_asm("""
            li d1, 3
            li d2, 5
            jlt d1, d2, less
            mov d3, 0
            halt
        less:
            mov d3, 1
            halt
        """)
        assert res.regs[3] == 1


class TestRunControl:
    def test_halt_stops(self):
        res = run_asm("    halt\n")
        assert res.halted
        assert res.instructions == 1

    def test_exit_device_stops(self):
        res = run_asm("""
            la a2, 0xF0000020
            li d1, 99
            st.w [a2], d1
            nop
            nop
            halt
        """)
        assert res.exit_code == 99
        assert not res.halted  # stopped on the exit write, not halt

    def test_instruction_limit(self):
        with pytest.raises(SimulationError):
            run_asm("top:\n    j top\n", max_instructions=100)

    def test_step_after_halt_rejected(self):
        obj = assemble("_start:\n    halt\n")
        iss = FunctionalISS(obj)
        iss.run()
        with pytest.raises(SimulationError):
            iss.step()


class TestVariantEquivalence:
    SOURCE = """
            li d1, 0
            li d2, 10
        top:
            add d1, d1, d2
            add d2, d2, -1
            jnz d2, top
            halt
    """

    def test_interpreted_matches_cached(self):
        a = run_asm(self.SOURCE, InterpretedISS)
        b = run_asm(self.SOURCE, FunctionalISS)
        assert a.regs == b.regs
        assert a.instructions == b.instructions

    def test_cycle_accurate_same_function(self):
        a = run_asm(self.SOURCE, FunctionalISS)
        b = run_asm(self.SOURCE, CycleAccurateISS)
        assert a.regs == b.regs
        assert b.cycles > b.instructions  # some timing cost exists

    # The predecoded, compiled simulators against the interpreter that
    # decodes and interprets every step: every RunResult field, and the
    # same failure at the same point.

    @pytest.mark.parametrize("name", registry.program_names())
    def test_registry_program(self, name):
        obj = registry.build(name)
        assert FunctionalISS(obj).run() == InterpretedISS(obj).run()

    @pytest.mark.parametrize("index", range(6))
    def test_generated_program(self, index):
        obj = compile_source(generate(2026, index).render())
        assert (FunctionalISS(obj).run(max_instructions=2_000_000)
                == InterpretedISS(obj).run(max_instructions=2_000_000))

    def test_unmapped_load_fails_at_the_same_point(self):
        obj = assemble("""
        _start:
            li d1, 7
            la a2, 0x40000000
        bad:
            ld.w d2, [a2]
            halt
        """)
        stops = set()
        for cls in ALL_STYLES:
            iss = cls(obj)
            with pytest.raises(BusError):
                iss.run()
            stops.add((iss.state.pc, iss.instructions, iss.state.regs[1]))
        assert len(stops) == 1
        pc, _count, d1 = stops.pop()
        assert (pc, d1) == (obj.symbol_addr("bad"), 7)

    @pytest.mark.parametrize("expansion", [
        # reads a temp nothing wrote
        [IRInstr(IROp.ADD, dst=1, a=40, b=41)],
        # reads a temp whose only write is predicated off (d0 == 0)
        [IRInstr(IROp.MVK, dst=40, imm=5, pred=0),
         IRInstr(IROp.ADD, dst=1, a=40, imm=1)],
    ])
    def test_undefined_temp_read_raises(self, monkeypatch, expansion):
        assert compile_expansion(expansion) is None  # left to interpret
        obj = assemble("_start:\n    nop\n    halt\n")
        real = iss_module.decode_instruction

        def synthetic(fetch16, addr):
            decoded = real(fetch16, addr)
            if addr != obj.entry:
                return decoded
            return dataclasses.replace(decoded, expansion=tuple(expansion))

        monkeypatch.setattr(iss_module, "decode_instruction", synthetic)
        for cls in ALL_STYLES:
            with pytest.raises(SimulationError, match="uninitialized temp"):
                cls(obj).run()

    @pytest.mark.parametrize("cls", ALL_STYLES)
    def test_instruction_limit(self, cls):
        iss = cls(assemble("_start:\ntop:\n    j top\n"))
        with pytest.raises(SimulationError, match="instruction limit"):
            iss.run(max_instructions=100)
        assert iss.instructions == 100

    @pytest.mark.parametrize("cls", ALL_STYLES)
    def test_steps_then_run_equals_run(self, cls):
        obj = registry.build("gcd")
        iss = cls(obj)
        for _ in range(500):
            iss.step()
        assert iss.run() == cls(obj).run()


class TestTimingBehaviour:
    def test_icache_cold_misses_counted(self):
        res = run_asm("    nop\n" * 40 + "    halt\n", CycleAccurateISS)
        assert res.cache_stats.misses >= 2  # > one line of code

    def test_icache_disabled(self):
        arch = default_source_arch().with_icache(enabled=False)
        res = run_asm("    nop\n    halt\n", CycleAccurateISS, arch)
        assert res.cache_stats.misses == 0

    def test_branch_stats(self):
        res = run_asm("""
            li d1, 4
        top:
            add d1, d1, -1
            jnz d1, top
            halt
        """, CycleAccurateISS)
        assert res.branch_stats.conditional == 4
        assert res.branch_stats.taken == 3
        # BTFN predicts the backward branch taken: one mispredict (exit)
        assert res.branch_stats.mispredicted == 1

    def test_io_access_cost(self):
        arch = default_source_arch()
        body = """
            la a2, 0xF0000040
            li d1, 5
            st.w [a2], d1
            st.w [a2], d1
            halt
        """
        res = run_asm(body, CycleAccurateISS, arch)
        base = run_asm("""
            la a2, 0xD0000040
            li d1, 5
            st.w [a2], d1
            st.w [a2], d1
            halt
        """, CycleAccurateISS, arch)
        extra = res.cycles - base.cycles
        assert extra == 2 * arch.pipeline.io_access_cycles

    def test_cpi_reasonable(self):
        res = run_asm(TestVariantEquivalence.SOURCE, CycleAccurateISS)
        assert 1.0 <= res.cpi <= 3.0
