"""Cross-cycle pipeline data-hazard analysis (a lint pass).

An exposed pipeline executes each instruction's reads and writes in
the stages the model gives them, so an instruction can read a cell
before an older one has written it.  The simulators model that timing
exactly -- static scheduling composes a column in the same
deepest-stage-first order the dynamic path runs -- so a data hazard
never changes a simulation result; it is a finding about the program,
which probably does not mean what its author intended.  This pass
slides the pipeline-depth window over the recovered CFG and checks, for
every pair of packets that can be co-resident ``d`` fetches apart,
whether any access pair violates program order under the simulator's
timing model (deepest stage executes first within a cycle):

* **RAW**: the older packet writes a cell in stage ``s_w`` and the
  younger reads it in ``s_r``; the read sees the *old* value iff
  ``s_w > d + s_r``.
* **WAR**: the older reads in ``s_r`` and the younger writes in
  ``s_w``; the read sees the *new* value iff ``d + s_w < s_r``.
* **WAW**: both write; the writes land out of program order iff
  ``s_w_old > d + s_w_young``.

The boundary cases are exact: equal effective time means the older
instruction sits in the deeper stage and executes first, which *is*
program order (this is how the c62x model's ``lsq`` pipeline-register
idiom stays hazard-free at distance 1).

Program-counter cells are exempt -- PC writes are control flow, handled
by the CFG pass -- and windows are enumerated through constant-target
branches, including their delay slots, so loop back edges are covered.

Every canonical packet receives a verdict: ``hazard_free`` (proven),
``conflicting`` (a concrete hazard pair was found) or ``unknown``
(undecodable member, truncated effects, or an unknown branch target in
flight).  ``repro-lint`` reports the verdicts and the findings behind
them; ``--Werror`` fails a program with any cross-cycle hazard.
"""

from __future__ import annotations

HAZARD_FREE = "hazard_free"
CONFLICTING = "conflicting"
UNKNOWN = "unknown"

VERDICTS = (HAZARD_FREE, CONFLICTING, UNKNOWN)


def analyze_hazards(cfg, report=None):
    """Verdict per canonical packet start; findings land on ``report``."""
    verdicts = {}
    for pc, packet in cfg.packets.items():
        if packet.truncated or packet.undecoded:
            verdicts[pc] = UNKNOWN
        else:
            verdicts[pc] = HAZARD_FREE

    depth = cfg.model.pipeline.depth
    stage_names = cfg.model.pipeline.stages
    pc_name = cfg.model.pc_name
    checked = set()
    for pc in cfg.order:
        for succ_pc, distance, certain in _in_flight(cfg, pc, depth):
            if not certain:
                if verdicts.get(succ_pc) == HAZARD_FREE:
                    verdicts[succ_pc] = UNKNOWN
                if verdicts.get(pc) == HAZARD_FREE:
                    verdicts[pc] = UNKNOWN
                continue
            key = (pc, succ_pc, distance)
            if key in checked:
                continue
            checked.add(key)
            conflicts = _pair_conflicts(
                cfg.packets[pc], cfg.packets[succ_pc], distance,
                pc_name, stage_names,
            )
            if not conflicts:
                continue
            for kind, cell_desc, older_stage, younger_stage in conflicts:
                if verdicts.get(pc) != UNKNOWN:
                    verdicts[pc] = CONFLICTING
                if verdicts.get(succ_pc) != UNKNOWN:
                    verdicts[succ_pc] = CONFLICTING
                if report is not None:
                    report.add(
                        "warning", min(pc, succ_pc), "hazard.%s" % kind,
                        "cross-cycle %s hazard on %s between 0x%x "
                        "(stage %s) and 0x%x (stage %s), issued %d "
                        "cycle(s) apart"
                        % (kind.upper(), cell_desc, pc, older_stage,
                           succ_pc, younger_stage, distance),
                    )
    return verdicts


# -- window enumeration ------------------------------------------------------


def _in_flight(cfg, start, depth):
    """Packets that can be in flight with ``start``.

    Yields ``(pc, distance, certain)`` for every packet fetchable
    ``distance`` cycles after ``start`` (1 <= distance < depth) along
    some fetch path: the sequential stream, redirected by constant-
    target branches after their delay windows.  ``certain`` is False
    past an unknown-target branch, where the fetch stream cannot be
    enumerated.

    Under a flush branch policy the instructions fetched between an
    unconditional branch and its resolution are squashed before they
    execute, so they are not reported along the taken path.
    """
    results = []
    flush_policy = cfg.model.config.branch_policy == "flush"
    seen = set()

    def visit(cur_pc, distance, pending):
        if distance >= depth:
            return
        state = (cur_pc, distance, pending)
        if state in seen:
            return
        seen.add(state)
        packet = cfg.packets.get(cur_pc)
        if packet is None:
            # Mid-packet entry or off the program: the CFG checker
            # reports it; the fetch stream past it is not enumerable.
            if cfg.in_program(cur_pc):
                results.append((cur_pc, distance, False))
            return
        squashed = flush_policy and any(
            fire > distance and not conditional
            for fire, _, conditional in pending
        )
        if distance > 0 and not squashed:
            results.append((cur_pc, distance, True))
        for branch in packet.branches:
            fire = distance + branch.stage + 1
            if branch.unknown_target:
                if fire < depth:
                    results.append((cur_pc, fire, False))
                continue
            for target in branch.targets:
                pending = pending + ((fire, target, branch.conditional),)
        next_distance = distance + 1
        firing = [entry for entry in pending if entry[0] == next_distance]
        rest = tuple(
            entry for entry in pending if entry[0] > next_distance
        )
        for _, target, _ in firing:
            visit(target, next_distance, rest)
        if not firing or all(cond for _, _, cond in firing):
            visit(cur_pc + packet.extent, next_distance, rest)

    visit(start, 0, ())
    return results


# -- pairwise conflict detection ---------------------------------------------


def _occupied(stages):
    return [
        (index, cells) for index, cells in enumerate(stages) if cells
    ]


def _overlap(cells_a, cells_b, pc_name):
    from repro.analysis.effects import cell_text, cells_collide

    for cell_a in sorted(cells_a):
        if cell_a[0] == pc_name:
            continue
        for cell_b in sorted(cells_b):
            if cell_b[0] == pc_name:
                continue
            if cells_collide(cell_a, cell_b):
                return cell_text(cell_a, cell_b)
    return None


def _pair_conflicts(older, younger, distance, pc_name, stage_names):
    """Conflicts between ``older`` and ``younger`` issued ``distance``
    cycles apart.  Returns (kind, cell, older stage, younger stage)."""
    conflicts = []
    older_writes = _occupied(older.stage_writes)
    older_reads = _occupied(older.stage_reads)
    younger_writes = _occupied(younger.stage_writes)
    younger_reads = _occupied(younger.stage_reads)

    for s_w, writes in older_writes:
        for s_r, reads in younger_reads:
            if s_w > distance + s_r:
                cell = _overlap(writes, reads, pc_name)
                if cell is not None:
                    conflicts.append(
                        ("raw", cell, stage_names[s_w], stage_names[s_r])
                    )
    for s_r, reads in older_reads:
        for s_w, writes in younger_writes:
            if distance + s_w < s_r:
                cell = _overlap(reads, writes, pc_name)
                if cell is not None:
                    conflicts.append(
                        ("war", cell, stage_names[s_r], stage_names[s_w])
                    )
    for s_old, writes_old in older_writes:
        for s_young, writes_young in younger_writes:
            if s_old > distance + s_young:
                cell = _overlap(writes_old, writes_young, pc_name)
                if cell is not None:
                    conflicts.append(
                        ("waw", cell, stage_names[s_old],
                         stage_names[s_young])
                    )
    return conflicts


__all__ = [
    "HAZARD_FREE",
    "CONFLICTING",
    "UNKNOWN",
    "VERDICTS",
    "analyze_hazards",
]
