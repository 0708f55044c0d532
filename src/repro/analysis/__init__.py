"""Simulation-compile-time program analysis.

Three passes over a (model, program) pair, sharing one report format:

1. **Effects** (:mod:`repro.analysis.effects`): per-instruction,
   per-stage read/write sets over architectural storage, read off the
   SimIR the program front end (:mod:`repro.simcc.frontend`) lowers
   once per word.
2. **CFG recovery** (:mod:`repro.analysis.cfg`): execute-packet
   boundaries, branches, delay slots, basic blocks; flags branches into
   packet middles/delay slots, out-of-segment targets, unreachable
   packets and dead writes.
3. **Hazards** (:mod:`repro.analysis.hazards`): slides the
   pipeline-depth window over the CFG and detects cross-cycle
   RAW/WAR/WAW conflicts, producing per-packet verdicts
   (``hazard_free`` / ``conflicting`` / ``unknown``).

:func:`analyze_program` runs all three for ``repro-lint`` and
:meth:`repro.api.Toolset.analyze`.  The verdicts are lint findings: a
program whose packets read and write the same storage across cycles
runs correctly, but probably not as its author meant.  No table build
runs these passes; static scheduling composes every window without a
control-capable packet (:mod:`repro.sim.static`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.cfg import ProgramCFG, build_cfg, check_cfg
from repro.analysis.effects import packet_collisions
from repro.analysis.hazards import (
    CONFLICTING,
    HAZARD_FREE,
    UNKNOWN,
    analyze_hazards,
)
from repro.analysis.report import Finding, Report


@dataclass
class AnalysisResult:
    """The combined outcome of all analysis passes for one program."""

    report: Report
    safety: Dict[int, str]  # packet start pc -> hazard verdict
    cfg: ProgramCFG

    def verdict_counts(self):
        counts = {HAZARD_FREE: 0, CONFLICTING: 0, UNKNOWN: 0}
        for verdict in self.safety.values():
            counts[verdict] = counts.get(verdict, 0) + 1
        return counts

    def to_dict(self):
        payload = self.report.to_dict()
        payload["verdicts"] = self.verdict_counts()
        payload["safety"] = {
            "0x%x" % pc: verdict
            for pc, verdict in sorted(self.safety.items())
        }
        return payload


def analyze_program(model, program, packet_lint=True, ir_lint=True,
                    observer=None):
    """Run effects, CFG, hazard and IR analysis over one program.

    ``packet_lint`` additionally runs the VLIW write-collision check
    (``packet.collision``: two members of one execute packet writing
    the same storage) into the same report;
    ``ir_lint`` runs the IR-level abstract-interpretation diagnostics
    (:func:`repro.analysis.absint.check_ir`: ``ir.trap`` /
    ``ir.dead-write``), which lowers the program through the simulation
    compiler.  ``observer`` records one phase span per pass and a
    ``hazard.verdict`` trace event per analysed packet.
    """
    from repro import obs as _obs
    from repro.simcc.frontend import ProgramFrontEnd

    report = Report()
    with _obs.span(observer, "analysis.cfg"):
        cfg = build_cfg(ProgramFrontEnd(model, program))
    if packet_lint and model.is_vliw:
        with _obs.span(observer, "analysis.lint", packets=len(cfg.order)):
            for pc in cfg.order:
                packet = cfg.packets[pc]
                if packet.extent > 1:
                    packet_collisions(packet.members, report, packet.pc)
    check_cfg(cfg, report)
    with _obs.span(observer, "analysis.hazards"):
        safety = analyze_hazards(cfg, report=report)
    if ir_lint:
        from repro.analysis import absint

        with _obs.span(observer, "analysis.ir"):
            absint.check_ir(model, program, report)
    if observer is not None:
        for pc, verdict in sorted(safety.items()):
            observer.on_hazard_verdict(pc, verdict)
    return AnalysisResult(report=report, safety=safety, cfg=cfg)


__all__ = [
    "AnalysisResult",
    "Finding",
    "Report",
    "analyze_program",
    "build_cfg",
    "check_cfg",
    "HAZARD_FREE",
    "CONFLICTING",
    "UNKNOWN",
]
