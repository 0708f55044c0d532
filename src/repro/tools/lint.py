"""Static checks on assembled VLIW programs.

On a VLIW model, instructions of one execute packet run in the same
cycle; two of them writing the same storage cell is almost always a
bug (on this substrate the later slot silently wins -- and the load
unit's in-flight address queue is a storage cell too, so two parallel
loads corrupt each other).  The linter walks the canonical execute
packets of the program front end (:mod:`repro.simcc.frontend`) and
reports write-set collisions between the members of each multi-word
packet; only those members are decoded and lowered.
"""

from __future__ import annotations

from repro.analysis.effects import packet_collisions


def lint_vliw_packets(model, program):
    """Lint every execute packet of a VLIW program.

    Returns a deduplicated list of human-readable warning strings,
    sorted by packet address; empty when clean.  Non-VLIW models always
    lint clean.  Undecodable words are data and take no part.
    """
    if not model.is_vliw:
        return []
    from repro.simcc.frontend import ProgramFrontEnd

    front = ProgramFrontEnd(model, program)
    warnings = []
    for pc, extent in front.packets():
        if extent > 1:
            members = [
                (address, front.effects(address))
                for address in range(pc, pc + extent)
                if front.decode(address) is not None
            ]
            warnings.extend(
                finding.message
                for finding in packet_collisions(members, packet_pc=pc)
            )
    return warnings
