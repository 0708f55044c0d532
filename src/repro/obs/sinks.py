"""Pluggable trace sinks.

A sink receives every :class:`repro.obs.events.TraceEvent` and every
finished :class:`repro.obs.spans.Span` the moment it is produced.  The
observer fans out to any number of sinks; the *disabled* simulation
path never constructs events at all (hook sites check for an attached
observer first), so :class:`NullSink` exists for the half-way
configuration -- hooks live and metrics counting on, event storage off.
"""

from __future__ import annotations

from collections import deque


class Sink:
    """Base sink: ignores everything (usable directly as a null sink)."""

    def event(self, event):  # pragma: no cover - trivial
        pass

    def span(self, span):  # pragma: no cover - trivial
        pass

    def close(self):  # pragma: no cover - trivial
        pass


#: Shared do-nothing sink instance.
NULL_SINK = Sink()

# The null sink under its spelled-out name.
NullSink = Sink


class ListSink(Sink):
    """Collects events and spans in memory (tests, exporters)."""

    def __init__(self):
        self.events = []
        self.spans = []

    def event(self, event):
        self.events.append(event)

    def span(self, span):
        self.spans.append(span)


class FlightRecorder(Sink):
    """A bounded ring of the most recent events, for post-mortems.

    The recorder keeps the last ``capacity`` :class:`TraceEvent`\\ s (and
    how many older ones it evicted).  ``Simulator.run`` attaches
    :meth:`snapshot` to any :class:`~repro.support.errors.SimulationError`
    or :class:`~repro.support.errors.SimulationTimeout` escaping the run,
    so a crash report carries the cycles leading up to it even when full
    event recording is off.  The ring survives checkpoint restores --
    pre-restore events stay visible, which is the point of a black box.
    """

    def __init__(self, capacity=256):
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self._ring = deque(maxlen=capacity)
        self.dropped = 0

    def __len__(self):
        return len(self._ring)

    def event(self, event):
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(event)

    def snapshot(self):
        """The retained events, oldest first, as JSON-compatible dicts."""
        return [event.to_dict() for event in self._ring]

    def clear(self):
        self._ring.clear()
        self.dropped = 0
