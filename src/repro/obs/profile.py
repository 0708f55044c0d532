"""Profile-guided hot-region reporting.

:func:`hot_region_report` turns one observed run's per-packet counters
into a stable, JSON-compatible ranking of where simulated time went:
per-packet attributed cycles (``sim.cycles_by_pc``, maintained by
trace/profile-mode observers on every backend -- the Python loops
attribute inline, native bursts flush their telemetry side-buffer) and
contiguous hot windows grouped from them.  The report shows which
regions earn the most attention, and is what ``repro-profile`` /
``repro-sim --profile-out`` serialise.

Counters-mode observers skip cycle attribution; for them the report
falls back to ranking by raw fetch counts and says so in ``basis``.
"""

from __future__ import annotations

#: Report schema version; bump on any shape change so downstream
#: consumers can gate on it.
REPORT_VERSION = 1

#: A packet must own at least this share of attributed cycles to seed a
#: hot window.
DEFAULT_HOT_SHARE = 0.01

#: Hot packets at most this many program words apart merge into one
#: window (packets are multi-word, so adjacency is not pc+1).
DEFAULT_MAX_GAP = 4


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
