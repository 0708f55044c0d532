"""Shared report format for the simulation-compile-time analyzers.

Every pass (effects, CFG recovery, hazard detection, packet lint, model
diagnostics) funnels its findings into one :class:`Report`, so the CLI,
the JSON emitter and the tests see a single, stable shape.

Determinism is part of the contract: findings are deduplicated on
insertion (a hazard pair discovered along two fetch paths, or a
collision reported from both members, collapses to one finding) and
:meth:`Report.sorted_findings` orders by ``(address, message)``, so a
report is usable as a golden file across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Recognised severities, most severe first.  ``error`` findings always
#: fail a lint run, ``warning`` findings fail under ``--Werror``,
#: ``note`` findings are informational only.
SEVERITIES = ("error", "warning", "note")

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}

#: Stable diagnostic codes for IR-level checks, assigned on insertion
#: from the producing check name.  Codes are part of the JSON contract
#: (``repro-lint --json``) and must never be renumbered; new checks get
#: new codes.
DIAGNOSTIC_CODES = {
    "cfg.unreachable": "IR001",
    "ir.trap": "IR002",
    "ir.dead-write": "IR003",
}


@dataclass(frozen=True)
class Finding:
    """One analyzer finding, anchored to a program address.

    ``check`` is a stable machine-readable identifier of the producing
    check (``hazard.raw``, ``cfg.packet-middle``, ``packet.collision``,
    ...); ``address`` is ``None`` for program-wide findings.  ``code``
    is the stable short diagnostic code (``IR002``, ...) for checks
    that have one, else empty.
    """

    severity: str
    address: Optional[int]
    check: str
    message: str
    code: str = ""

    def __str__(self):
        where = "<program>" if self.address is None else "0x%x" % self.address
        if self.code:
            return "%s: %s: [%s] %s" % (
                where, self.severity, self.code, self.message
            )
        return "%s: %s: %s" % (where, self.severity, self.message)

    def to_dict(self):
        return {
            "severity": self.severity,
            "address": self.address,
            "check": self.check,
            "code": self.code,
            "message": self.message,
        }


def _sort_key(finding):
    # Program-wide findings first, then by address, then message; the
    # severity tie-break keeps an error ahead of a same-text warning.
    return (
        -1 if finding.address is None else finding.address,
        finding.message,
        _SEVERITY_RANK.get(finding.severity, len(SEVERITIES)),
        finding.check,
    )


class Report:
    """A deduplicating, deterministically ordered collection of findings."""

    def __init__(self):
        self._findings = []
        self._seen = set()

    def add(self, severity, address, check, message):
        if severity not in SEVERITIES:
            raise ValueError("unknown severity %r" % severity)
        finding = Finding(severity, address, check, message,
                          code=DIAGNOSTIC_CODES.get(check, ""))
        if finding not in self._seen:
            self._seen.add(finding)
            self._findings.append(finding)
        return finding

    def extend(self, other):
        for finding in other.sorted_findings():
            self.add(finding.severity, finding.address, finding.check,
                     finding.message)

    # -- access ---------------------------------------------------------------

    def sorted_findings(self):
        """All findings, ordered by ``(address, message)``."""
        return sorted(self._findings, key=_sort_key)

    def by_severity(self, severity):
        return [f for f in self.sorted_findings() if f.severity == severity]

    @property
    def errors(self):
        return self.by_severity("error")

    @property
    def warnings(self):
        return self.by_severity("warning")

    @property
    def notes(self):
        return self.by_severity("note")

    def __len__(self):
        return len(self._findings)

    def __iter__(self):
        return iter(self.sorted_findings())

    # -- outcomes -------------------------------------------------------------

    def exit_code(self, werror=False):
        """Severity-based process exit code: 1 on errors (or warnings
        under ``--Werror``), 0 otherwise."""
        if self.errors:
            return 1
        if werror and self.warnings:
            return 1
        return 0

    def counts(self):
        return {
            severity: len(self.by_severity(severity))
            for severity in SEVERITIES
        }

    def to_dict(self):
        return {
            "counts": self.counts(),
            "findings": [f.to_dict() for f in self.sorted_findings()],
        }


__all__ = ["DIAGNOSTIC_CODES", "SEVERITIES", "Finding", "Report"]
