"""Control-flow recovery over assembled programs.

Reads every program word once from the program front end
(:class:`repro.simcc.frontend.ProgramFrontEnd`: decoded nodes, packet
extents and per-instruction effects) and recovers the structure static
scheduling depends on: canonical execute-packet boundaries, branch
instructions with their resolution stages and constant targets,
delay-slot extents, and basic blocks.  On top of that structure the
checker flags the control-flow defects that make a program unsafe to
schedule statically (or plain wrong):

* branches into the middle of an execute packet (``cfg.packet-middle``,
  error: the fetched packet disagrees with the assembled one),
* branch targets outside every program segment (``cfg.out-of-segment``,
  error),
* branches into another branch's delay slots (``cfg.delay-slot``,
  warning: entry mid-delay-sequence executes a partial delay window),
* unreachable packets (``cfg.unreachable``, note),
* dead writes -- a cell written twice in a basic block with no
  intervening read (``cfg.dead-write``, note).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.analysis.effects import cell_text, cells_collide


@dataclass(frozen=True)
class Branch:
    """One PC-writing instruction inside a packet."""

    address: int  # member address of the branching instruction
    stage: int  # pipeline stage index in which the PC write executes
    targets: Tuple[int, ...]  # constant targets (deduplicated, sorted)
    unknown_target: bool  # at least one PC write has a computed target
    conditional: bool  # every PC write sits under a run-time condition


@dataclass
class PacketNode:
    """One canonical execute packet (packet boundaries scanned from the
    segment base, the decomposition the fetch stream actually sees)."""

    pc: int
    extent: int
    members: tuple  # ((address, InstructionEffects), ...) decoded members
    undecoded: tuple  # member addresses that failed to decode (data?)
    branches: Tuple[Branch, ...]
    stage_reads: tuple  # per-stage merged read frozensets
    stage_writes: tuple  # per-stage merged write frozensets
    truncated: bool

    @property
    def end(self):
        return self.pc + self.extent


@dataclass
class ProgramCFG:
    """The recovered control-flow structure of one program."""

    model: object
    packets: Dict[int, PacketNode]  # canonical packet start -> node
    order: tuple  # canonical packet starts in address order
    segments: tuple  # ((base, limit), ...) program-memory segments
    entry: int

    def in_program(self, address):
        return any(base <= address < limit for base, limit in self.segments)

    def delay_cycles(self, branch):
        """Fetch cycles between issuing ``branch`` and the redirect
        taking effect: the delay-slot window in fetches."""
        if self.model.config.branch_policy == "flush":
            # The window is squashed when the branch resolves; there are
            # no architectural delay slots.
            return 0
        return branch.stage

    def delay_slot_addresses(self, packet, branch):
        """Addresses fetched into ``branch``'s delay-slot window."""
        addresses = []
        pc = packet.end
        for _ in range(self.delay_cycles(branch)):
            node = self.packets.get(pc)
            if node is None:
                break
            addresses.extend(range(node.pc, node.end))
            pc = node.end
        return addresses

    def basic_blocks(self):
        """Packets grouped into basic blocks: (leader pc, [PacketNode])."""
        leaders = set()
        for base, _ in self.segments:
            if base in self.packets:
                leaders.add(base)
        if self.entry in self.packets:
            leaders.add(self.entry)
        for packet in self.packets.values():
            for branch in packet.branches:
                for target in branch.targets:
                    if target in self.packets:
                        leaders.add(target)
                # Control transfers after the delay window; the packet
                # that follows it starts a new block.
                successor = packet.end
                for _ in range(self.delay_cycles(branch)):
                    node = self.packets.get(successor)
                    if node is None:
                        break
                    successor = node.end
                if successor in self.packets:
                    leaders.add(successor)
        blocks = []
        current = None
        for pc in self.order:
            if pc in leaders or current is None:
                current = (pc, [])
                blocks.append(current)
            current[1].append(self.packets[pc])
        return blocks


def build_cfg(front):
    """Recover the :class:`ProgramCFG` of the program ``front`` (a
    :class:`repro.simcc.frontend.ProgramFrontEnd`) holds."""
    model = front.model
    depth = model.pipeline.depth
    pc_name = model.pc_name

    packets = {}
    for pc, extent in front.packets():
        members = []
        undecoded = []
        branches = []
        truncated = False
        for address in range(pc, pc + extent):
            if front.decode(address) is None:
                undecoded.append(address)
                continue
            effects = front.effects(address)
            members.append((address, effects))
            truncated = truncated or effects.truncated
            branches.extend(_branches_of(address, effects, pc_name))
        stage_reads = []
        stage_writes = []
        for stage in range(depth):
            reads = set()
            writes = set()
            for _, effects in members:
                reads |= effects.stages[stage].reads
                writes |= effects.stages[stage].writes
            stage_reads.append(frozenset(reads))
            stage_writes.append(frozenset(writes))
        packets[pc] = PacketNode(
            pc=pc,
            extent=extent,
            members=tuple(members),
            undecoded=tuple(undecoded),
            branches=tuple(branches),
            stage_reads=tuple(stage_reads),
            stage_writes=tuple(stage_writes),
            truncated=truncated,
        )

    return ProgramCFG(
        model=model,
        packets=packets,
        order=tuple(packets),
        segments=tuple(front.segments),
        entry=front.entry,
    )


def _branches_of(address, effects, pc_name):
    writes = effects.pc_write_stages()
    if not writes:
        return []
    by_stage = {}
    for stage, pc_write in writes:
        by_stage.setdefault(stage, []).append(pc_write)
    branches = []
    for stage, pc_writes in sorted(by_stage.items()):
        targets = sorted({
            w.target for w in pc_writes if w.target is not None
        })
        branches.append(Branch(
            address=address,
            stage=stage,
            targets=tuple(targets),
            unknown_target=any(w.target is None for w in pc_writes),
            conditional=all(w.conditional for w in pc_writes),
        ))
    return branches


# -- checks ------------------------------------------------------------------


def check_cfg(cfg, report):
    """Run the control-flow checks, recording findings on ``report``."""
    _check_branch_targets(cfg, report)
    _check_reachability(cfg, report)
    _check_dead_writes(cfg, report)


def _check_branch_targets(cfg, report):
    delay_spans = {}  # address -> branch address whose delay window holds it
    for packet in cfg.packets.values():
        for branch in packet.branches:
            for address in cfg.delay_slot_addresses(packet, branch):
                delay_spans.setdefault(address, branch.address)
    for packet in cfg.packets.values():
        for branch in packet.branches:
            for target in branch.targets:
                if not cfg.in_program(target):
                    report.add(
                        "error", branch.address, "cfg.out-of-segment",
                        "branch at 0x%x targets 0x%x, outside every "
                        "program segment" % (branch.address, target),
                    )
                    continue
                if target not in cfg.packets:
                    report.add(
                        "error", branch.address, "cfg.packet-middle",
                        "branch at 0x%x targets 0x%x, the middle of the "
                        "execute packet starting at 0x%x"
                        % (branch.address, target,
                           _enclosing_packet(cfg, target)),
                    )
                    continue
                owner = delay_spans.get(target)
                if owner is not None and owner != branch.address:
                    report.add(
                        "warning", branch.address, "cfg.delay-slot",
                        "branch at 0x%x targets 0x%x, inside the delay "
                        "slots of the branch at 0x%x"
                        % (branch.address, target, owner),
                    )


def _enclosing_packet(cfg, address):
    for packet in cfg.packets.values():
        if packet.pc <= address < packet.end:
            return packet.pc
    return address


def _check_reachability(cfg, report):
    if not cfg.packets:
        return
    # Architectural successors: fall-through (always, unless behind an
    # unconditional branch whose delay window has elapsed) plus constant
    # branch targets.  Unknown targets make everything reachable.
    if any(
        branch.unknown_target
        for packet in cfg.packets.values()
        for branch in packet.branches
    ):
        return
    reachable = set()
    worklist = []
    start = cfg.entry if cfg.entry in cfg.packets else (
        cfg.order[0] if cfg.order else None
    )
    if start is None:
        return
    worklist.append(start)
    while worklist:
        pc = worklist.pop()
        if pc in reachable or pc not in cfg.packets:
            continue
        reachable.add(pc)
        packet = cfg.packets[pc]
        for branch in packet.branches:
            for target in branch.targets:
                worklist.append(target)
        if _falls_through(cfg, packet):
            worklist.append(packet.end)
        else:
            # Delay slots still execute before the redirect lands.
            successor = packet.end
            for _ in range(max(
                (cfg.delay_cycles(branch)
                 for branch in packet.branches
                 if not branch.conditional and branch.targets),
                default=0,
            )):
                worklist.append(successor)
                node = cfg.packets.get(successor)
                if node is None:
                    break
                successor = node.end
    for pc in cfg.order:
        if pc not in reachable and cfg.packets[pc].members:
            report.add(
                "note", pc, "cfg.unreachable",
                "packet at 0x%x is unreachable from the entry point"
                % pc,
            )


def _falls_through(cfg, packet):
    """Whether execution can continue past ``packet`` sequentially
    (beyond any delay slots)."""
    for branch in packet.branches:
        if not branch.conditional and (branch.targets
                                       or branch.unknown_target):
            return False
    return True


def _check_dead_writes(cfg, report):
    for _, block in cfg.basic_blocks():
        pending = {}  # exact cell -> address of unread write
        for packet in block:
            reads = set()
            for _, effects in packet.members:
                reads |= effects.reads
            # Reads anywhere in the packet retire matching pending
            # writes (wildcard-aware, conservatively).
            for cell in list(pending):
                if any(cells_collide(cell, read) for read in reads):
                    del pending[cell]
            for address, effects in packet.members:
                for cell in sorted(effects.writes):
                    resource, element = cell
                    if resource == cfg.model.pc_name:
                        continue
                    if element == "*":
                        # Computed index: unknown cell, clear the slate
                        # for that resource.
                        for known in list(pending):
                            if known[0] == resource:
                                del pending[known]
                        continue
                    previous = pending.get(cell)
                    if previous is not None:
                        report.add(
                            "note", previous, "cfg.dead-write",
                            "write at 0x%x to %s is overwritten at 0x%x "
                            "before any read"
                            % (previous, cell_text(cell), address),
                        )
                    pending[cell] = address
        # Block ends: later blocks may read the pending values.


__all__ = [
    "Branch",
    "PacketNode",
    "ProgramCFG",
    "build_cfg",
    "check_cfg",
]
