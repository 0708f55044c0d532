#!/usr/bin/env python
"""The whole loop: write a kernel in C-like source, compile it for two
very different DSPs, simulate, and profile.

The paper's conclusion points at retargetable compiler back-ends as the
next step after retargetable simulation; `repro.kcc` closes that loop
in miniature.  One kernel source compiles to the three-address tinydsp
*and* to the VLIW c62x (where the back-end pads the exposed delay
slots), runs on the compiled simulator of each, and both produce the
results predicted by an independent reference interpreter.
"""

from repro import build_toolset, load_model
from repro.kcc import compile_kernel, evaluate_kernel, parse_kernel
from repro.obs import Observer, profile_report
from repro.sim import create_simulator

KERNEL = """
array x[8] @ 0;
array y[8] @ 8;
int i = 0;
int acc = 0;
int t;
while (i != 8) {
    t = x[i] * 3;
    y[i] = t + 10;
    acc = acc + t;
    i = i + 1;
}
"""

INPUT = [4, -1, 7, 0, 2, -5, 9, 3]


def main():
    program = parse_kernel(KERNEL)

    # The golden answer, from the reference interpreter.
    golden = [0] * 64
    for address, value in enumerate(INPUT):
        golden[address] = value
    evaluate_kernel(program, golden)

    for target in ("tinydsp", "c62x"):
        assembly = compile_kernel(program, target)
        model = load_model(target)
        tools = build_toolset(model)
        obj = tools.assembler.assemble_text(assembly, name="kernel")
        simulator = create_simulator(model, "compiled")
        simulator.load_program(obj)
        for address, value in enumerate(INPUT):
            simulator.state.write_memory("dmem", address, value)
        observer = Observer(record=False)  # metrics only
        simulator.attach_observer(observer)
        stats = simulator.run(max_cycles=1_000_000)

        result = simulator.state.dmem[8:16]
        assert result == golden[8:16], (target, result, golden[8:16])
        print(
            "%-8s %3d instructions of assembly, %5d cycles, y = %s"
            % (target, obj.word_count(model.config.program_memory),
               stats.cycles, result)
        )
        report = profile_report(observer, simulator)
        hot = report.annotate(tools.disassembler, obj, limit=3)
        print("         hottest instructions:")
        for line in hot:
            print("        ", line)
        print()

    print("one kernel source, two instruction sets, identical results "
          "(and both match the reference interpreter)")

    print("\nexcerpt of the generated c62x assembly:")
    for line in compile_kernel(program, "c62x").splitlines()[2:14]:
        print("   ", line)


if __name__ == "__main__":
    main()
