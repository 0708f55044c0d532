#!/usr/bin/env python
"""Watch instructions flow through the pipeline, cycle by cycle.

Wraps the driver's front-end (``Pipeline.wrap_frontend``) to log every
fetch, then steps the engine one cycle at a time and prints pipeline
occupancy while a short tinydsp program with a taken branch executes
-- the flush of the two younger stages (the pipeline operation the
paper notes simple instruction sequencers cannot express) is clearly
visible as squashed slots.
"""

from repro import build_toolset, load_model

PROGRAM = """
        .entry start
start:  ldi r1, 2
        ldi r2, -1
loop:   add r1, r1, r2
        brnz r1, loop      ; taken once, flushing IF/ID
        ldi r3, 7
        halt
"""


def main():
    model = load_model("tinydsp")
    tools = build_toolset(model)
    program = tools.assembler.assemble_text(PROGRAM)

    listing = {}
    for line in tools.disassembler.disassemble_program(program):
        address, text = line.split(":", 1)
        listing[int(address, 16)] = text.strip()

    simulator = tools.new_simulator("interpretive")
    simulator.load_program(program)
    pipeline = simulator.engine

    stages = model.pipeline.stages
    print("cycle  " + "".join("%-22s" % s for s in stages))
    print("-" * (7 + 22 * len(stages)))

    # Track which pc each slot was fetched from by watching fetches.
    fetch_log = []

    def logging(frontend):
        def logging_frontend(pc):
            slot = frontend(pc)
            fetch_log.append(pc)
            return slot

        return logging_frontend

    pipeline.wrap_frontend(logging)
    occupancy = [None] * model.pipeline.depth

    while not simulator.halted and simulator.cycles < 40:
        before = len(fetch_log)
        pipeline.step()
        occupancy.pop()
        occupancy.insert(0, fetch_log[-1] if len(fetch_log) > before
                         else None)
        # Detect squashes: slot present in occupancy but gone from pipe.
        cells = []
        for index in range(model.pipeline.depth):
            pc = occupancy[index]
            if pc is None:
                cells.append("%-22s" % "-")
            elif pipeline.slots[index] is None:
                cells.append("%-22s" % "(squashed)")
                occupancy[index] = None
            else:
                cells.append("%-22s" % listing.get(pc, "?"))
        print("%5d  %s" % (simulator.cycles, "".join(cells)))

    print("\nhalted; r1=%d r3=%d after %d cycles"
          % (simulator.state.R[1], simulator.state.R[3],
             simulator.cycles))


if __name__ == "__main__":
    main()
