"""Profile reports built from one observed run's metrics.

:func:`profile_report` builds a :class:`ProfileReport`: per-address
fetch counts, execute-packet statistics, bubble-cycle attribution and
a source-annotated hot-spot listing -- the kind of feedback loop
(simulate, profile, re-schedule) that DSP software development lives
on.  Any observer feeds it, on every simulator kind; a metrics-only
``Observer(record=False)`` keeps the event list from growing::

    observer = Observer(record=False)
    sim.attach_observer(observer)
    sim.run()
    report = profile_report(observer, sim)

:func:`hot_region_report` turns the same run's per-packet counters
into a stable, JSON-compatible ranking of where simulated time went:
per-packet attributed cycles (``sim.cycles_by_pc``, maintained by
trace/profile-mode observers on every backend -- the Python loops
attribute inline, native bursts flush their telemetry side-buffer) and
contiguous hot windows grouped from them.  The report shows which
regions earn the most attention, and is what ``repro-sim
--profile-out`` serialises.

Counters-mode observers skip cycle attribution; for them the report
falls back to ranking by raw fetch counts and says so in ``basis``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

#: Report schema version; bump on any shape change so downstream
#: consumers can gate on it.
REPORT_VERSION = 1

#: A packet must own at least this share of attributed cycles to seed a
#: hot window.
DEFAULT_HOT_SHARE = 0.01

#: Hot packets at most this many program words apart merge into one
#: window (packets are multi-word, so adjacency is not pc+1).
DEFAULT_MAX_GAP = 4


@dataclass
class ProfileReport:
    """Per-address fetch statistics for one run.

    ``bubbles_by_reason`` attributes every non-issuing cycle to why it
    issued nothing: ``"stall"`` (a behaviour requested stall cycles),
    ``"drain"`` (the pipeline emptying after halt) or ``"frontend"``
    (no slot at the fetch address).  ``packet_sizes`` summarises the
    execute-packet-level statistics as a ``{size: packets}`` histogram.
    """

    fetch_counts: Dict[int, int] = field(default_factory=dict)
    issue_cycles: int = 0
    bubble_cycles: int = 0
    total_cycles: int = 0
    instructions_issued: int = 0
    squashed_slots: int = 0
    bubbles_by_reason: Dict[str, int] = field(default_factory=dict)
    packet_sizes: Dict[int, int] = field(default_factory=dict)

    @property
    def hottest(self):
        """Addresses sorted by descending fetch count."""
        return sorted(
            self.fetch_counts.items(), key=lambda kv: (-kv[1], kv[0])
        )

    @property
    def mean_packet_size(self):
        """Mean instructions per issued execute packet (NaN if none)."""
        if not self.issue_cycles:
            return float("nan")
        return self.instructions_issued / self.issue_cycles

    def annotate(self, disassembler, program, limit=None):
        """Hot-spot listing lines: count, address, disassembly."""
        listing = {}
        for line in disassembler.disassemble_program(program):
            address_text, text = line.split(":", 1)
            listing[int(address_text, 16)] = text.strip()
        lines = []
        for address, count in self.hottest[:limit]:
            lines.append(
                "%10d  %06x: %s"
                % (count, address, listing.get(address, "?"))
            )
        return lines


def profile_report(observer, simulator=None):
    """Build a :class:`ProfileReport` from any observer's metrics.

    ``total_cycles`` comes from the engine when ``simulator`` is given
    (matching ``simulator.cycles`` exactly), otherwise from the
    issue/bubble counters.
    """
    metrics = observer.metrics
    issue = metrics.counter("sim.issue_cycles")
    bubble = metrics.counter("sim.bubble_cycles")
    if simulator is not None and simulator.program is not None:
        total = simulator.engine.cycles
    else:
        total = issue + bubble
    return ProfileReport(
        fetch_counts=dict(metrics.family("sim.fetch_by_pc")),
        issue_cycles=issue,
        bubble_cycles=bubble,
        total_cycles=total,
        instructions_issued=metrics.counter("sim.instructions_issued"),
        squashed_slots=metrics.counter("sim.squashed_slots"),
        bubbles_by_reason=dict(metrics.family("sim.bubbles_by_reason")),
        packet_sizes=dict(metrics.family("sim.packet_sizes")),
    )


def hot_region_report(observer, top=None, hot_share=DEFAULT_HOT_SHARE,
                      max_gap=DEFAULT_MAX_GAP):
    """Rank packets and contiguous windows by attributed cycles.

    Returns a JSON-compatible dict::

        {
          "version": 1,
          "basis": "attributed_cycles" | "fetch_counts",
          "total_cycles": <int>,
          "run": {"kind": ..., "cycles": ..., "instructions": ...},
          "packets": [
            {"pc": int, "pc_hex": "0x..", "cycles": int, "fetches": int,
             "share": float, "label": str|None},
            ...sorted by cycles desc, then pc...
          ],
          "windows": [
            {"start": int, "end": int, "limit": int, "start_hex": ..,
             "end_hex": .., "packets": int, "cycles": int,
             "share": float},
            ...sorted by cycles desc, then start...
          ],
        }

    ``top`` truncates the packet ranking (windows always consider every
    hot packet); ``hot_share`` is the minimum cycle share for a packet
    to seed a window; ``max_gap`` is the maximum address gap between
    hot packets merged into one window.  Every packet counts as one
    word wide: ``end`` is the last hot packet's start address and
    ``limit`` is ``end + 1``.
    """
    metrics = observer.metrics
    attributed = metrics.family("sim.cycles_by_pc")
    if attributed:
        weights = dict(attributed)
        basis = "attributed_cycles"
    else:
        weights = dict(metrics.family("sim.fetch_by_pc"))
        basis = "fetch_counts"
    fetches = metrics.family("sim.fetch_by_pc")
    total = sum(weights.values())
    labeler = observer.labeler

    packets = []
    for pc, cycles in weights.items():
        label = None
        if labeler is not None:
            try:
                label = labeler(pc)
            except Exception:
                label = None
        packets.append({
            "pc": pc,
            "pc_hex": "0x%x" % pc,
            "cycles": cycles,
            "fetches": fetches.get(pc, 0),
            "share": cycles / total if total else 0.0,
            "label": label,
        })
    packets.sort(key=lambda entry: (-entry["cycles"], entry["pc"]))

    windows = _group_windows(weights, total, hot_share, max_gap)

    gauges = metrics.gauges
    report = {
        "version": REPORT_VERSION,
        "basis": basis,
        "total_cycles": total,
        "run": {
            "kind": gauges.get("run.kind"),
            "cycles": gauges.get("run.cycles"),
            "instructions": gauges.get("run.instructions"),
        },
        "packets": packets[:top] if top is not None else packets,
        "windows": windows,
    }
    return report


def _group_windows(weights, total, hot_share, max_gap):
    """Contiguous runs of hot packets, ranked by their summed cycles."""
    if not total:
        return []
    hot = sorted(
        pc for pc, cycles in weights.items()
        if cycles / total >= hot_share
    )
    windows = []
    for pc in hot:
        if windows and pc - windows[-1]["limit"] < max_gap:
            windows[-1]["end"] = pc
            windows[-1]["limit"] = pc + 1
            windows[-1]["packets"] += 1
            windows[-1]["cycles"] += weights[pc]
        else:
            windows.append({
                "start": pc, "end": pc, "limit": pc + 1,
                "packets": 1, "cycles": weights[pc],
            })
    for window in windows:
        window["start_hex"] = "0x%x" % window["start"]
        window["end_hex"] = "0x%x" % window["end"]
        window["share"] = window["cycles"] / total
    windows.sort(key=lambda entry: (-entry["cycles"], entry["start"]))
    return windows
