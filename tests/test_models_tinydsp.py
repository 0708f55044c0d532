"""Instruction-level semantic tests for the shipped tinydsp model."""

from repro.sim import create_simulator


def run(tools, model, source, kind="compiled", max_cycles=100_000):
    program = tools.assembler.assemble_text(source)
    simulator = create_simulator(model, kind)
    simulator.load_program(program)
    simulator.run(max_cycles)
    return simulator


class TestArithmetic:
    def test_add_wraps_32_bits(self, tinydsp, tinydsp_tools):
        sim = run(tinydsp_tools, tinydsp, """
        ldi r1, 127
        shl r1, r1, 7      ; build a big value: 127 << 7
        shl r1, r1, 7
        shl r1, r1, 7
        shl r1, r1, 4      ; 127 << 25
        add r2, r1, r1     ; wraps in 32 bits
        halt
""")
        expected = ((127 << 25) * 2) & 0xFFFFFFFF
        if expected >= 1 << 31:
            expected -= 1 << 32
        assert sim.state.R[2] == expected

    def test_adds_saturates_to_16_bits(self, tinydsp, tinydsp_tools):
        sim = run(tinydsp_tools, tinydsp, """
        ldi r1, 127
        shl r1, r1, 7        ; 16256
        shl r2, r1, 1        ; 32512
        adds r3, r1, r2      ; 48768 -> saturate 32767
        add r4, r1, r2       ; plain add: 48768
        halt
""")
        assert sim.state.R[3] == 32767
        assert sim.state.R[4] == 48768

    def test_sub_and_subs(self, tinydsp, tinydsp_tools):
        sim = run(tinydsp_tools, tinydsp, """
        ldi r1, -100
        shl r1, r1, 7       ; -12800
        shl r2, r1, 2       ; -51200 (wrapped into 32 bits, fine)
        subs r3, r1, r2     ; -12800 - -51200 = 38400 -> 32767
        sub r4, r2, r1      ; -38400
        halt
""")
        assert sim.state.R[3] == 32767
        assert sim.state.R[4] == -38400

    def test_mul_and_muls(self, tinydsp, tinydsp_tools):
        sim = run(tinydsp_tools, tinydsp, """
        ldi r1, 100
        ldi r2, 100
        mul r3, r1, r2      ; 10000
        mul r4, r3, r2      ; 1000000
        muls r5, r3, r2     ; saturates to 32767
        halt
""")
        assert sim.state.R[3] == 10000
        assert sim.state.R[4] == 1000000
        assert sim.state.R[5] == 32767

    def test_logic_ops(self, tinydsp, tinydsp_tools):
        sim = run(tinydsp_tools, tinydsp, """
        ldi r1, 0b1100
        ldi r2, 0b1010
        and r3, r1, r2
        or r4, r1, r2
        xor r5, r1, r2
        halt
""")
        assert sim.state.R[3] == 0b1000
        assert sim.state.R[4] == 0b1110
        assert sim.state.R[5] == 0b0110

    def test_shifts_are_arithmetic(self, tinydsp, tinydsp_tools):
        sim = run(tinydsp_tools, tinydsp, """
        ldi r1, -8
        shr r2, r1, 1       ; arithmetic: -4
        ldi r3, 8
        shr r4, r3, 2       ; 2
        shl r5, r3, 3       ; 64
        halt
""")
        assert sim.state.R[2] == -4
        assert sim.state.R[4] == 2
        assert sim.state.R[5] == 64

    def test_ldi_sign_extends(self, tinydsp, tinydsp_tools):
        sim = run(tinydsp_tools, tinydsp, "ldi r1, 255\nhalt\n")
        assert sim.state.R[1] == -1

    def test_mov(self, tinydsp, tinydsp_tools):
        sim = run(tinydsp_tools, tinydsp, """
        ldi r1, 55
        mov r2, r1
        halt
""")
        assert sim.state.R[2] == 55


class TestMemoryModes:
    """The non-orthogonal mode bit reused for addressing (Section 5.1)."""

    def test_direct_load_store(self, tinydsp, tinydsp_tools):
        sim = run(tinydsp_tools, tinydsp, """
        ldi r1, 77
        st r1, 13
        ld r2, 13
        halt
""")
        assert sim.state.dmem[13] == 77
        assert sim.state.R[2] == 77

    def test_indirect_load_store(self, tinydsp, tinydsp_tools):
        sim = run(tinydsp_tools, tinydsp, """
        ldi r1, 20        ; pointer
        ldi r2, -5
        st r2, *1         ; dmem[R[1]] = -5
        ld r3, *1
        halt
""")
        assert sim.state.dmem[20] == -5
        assert sim.state.R[3] == -5

    def test_direct_and_indirect_differ_only_in_mode_bit(self,
                                                         tinydsp_tools):
        asm = tinydsp_tools.assembler
        direct = asm.assemble_text("ld r1, 2").segments[0].words[0]
        indirect = asm.assemble_text("ld r1, * 2").segments[0].words[0]
        assert direct & 0x7FFF == indirect & 0x7FFF
        assert direct >> 15 == 0
        assert indirect >> 15 == 1


class TestControlFlow:
    def test_taken_branch_flush_penalty(self, tinydsp, tinydsp_tools):
        """A taken branch squashes the two younger stages: on a 4-stage
        pipeline a tight countdown loop costs 1 + 2 squashed cycles per
        iteration plus its body."""
        sim = run(tinydsp_tools, tinydsp, """
        ldi r1, 3
        ldi r2, -1
loop:   add r1, r1, r2
        brnz r1, loop
        halt
""")
        # Prologue fill (3) + 2 ldi + per-iteration (add + brnz + 2 flush)
        # with the last iteration not flushing + halt + drain.
        assert sim.state.R[1] == 0
        interp = run(tinydsp_tools, tinydsp, """
        ldi r1, 3
        ldi r2, -1
loop:   add r1, r1, r2
        brnz r1, loop
        halt
""", kind="interpretive")
        assert interp.cycles == sim.cycles

    def test_untaken_branch_costs_one_cycle(self, tinydsp, tinydsp_tools):
        taken = run(tinydsp_tools, tinydsp, """
        ldi r1, 1
        brnz r1, skip
skip:   halt
""")
        untaken = run(tinydsp_tools, tinydsp, """
        ldi r1, 0
        brnz r1, skip
skip:   halt
""")
        # The taken branch flushes two fetches that must be refetched.
        assert taken.cycles == untaken.cycles + 2

    def test_unconditional_branch(self, tinydsp, tinydsp_tools):
        sim = run(tinydsp_tools, tinydsp, """
        br over
        ldi r1, 99         ; skipped
over:   ldi r2, 1
        halt
""")
        assert sim.state.R[1] == 0
        assert sim.state.R[2] == 1

    def test_code_after_halt_never_runs(self, tinydsp, tinydsp_tools):
        sim = run(tinydsp_tools, tinydsp, """
        halt
        ldi r1, 42
""")
        assert sim.state.R[1] == 0

    def test_zero_word_is_nop(self, tinydsp, tinydsp_tools):
        sim = run(tinydsp_tools, tinydsp, """
        .org 0
        nop
        halt
""")
        assert sim.cycles > 0
