"""Target program container ("object file") and loader.

A :class:`Program` is the output of the assembler and the input of both
the simulation compiler and the simulators: a set of memory segments
(program words and initialised data), an entry point and a symbol table.

Programs serialise to a simple JSON-compatible dict so they can be kept
on disk next to the model (``.dspo`` files in the CLI).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

from repro.support.errors import ReproError


@dataclass
class Segment:
    """A contiguous block of words for one memory resource."""

    memory: str
    base: int
    words: List[int]

    @property
    def end(self):
        return self.base + len(self.words)

    def overlaps(self, other):
        return (
            self.memory == other.memory
            and self.base < other.end
            and other.base < self.end
        )


@dataclass
class Program:
    """An executable target program."""

    name: str = "program"
    entry: int = 0
    segments: List[Segment] = field(default_factory=list)
    symbols: Dict[str, int] = field(default_factory=dict)

    def add_segment(self, memory, base, words):
        segment = Segment(memory, base, list(words))
        for existing in self.segments:
            if segment.overlaps(existing):
                raise ReproError(
                    "segment at %s[%d:%d] overlaps segment at %s[%d:%d]"
                    % (
                        memory,
                        base,
                        segment.end,
                        existing.memory,
                        existing.base,
                        existing.end,
                    )
                )
        self.segments.append(segment)
        return segment

    def segments_in(self, memory):
        return [s for s in self.segments if s.memory == memory]

    def word_count(self, memory=None):
        return sum(
            len(s.words)
            for s in self.segments
            if memory is None or s.memory == memory
        )

    def load_into(self, state):
        """Write all segments into a processor state and set the PC."""
        for segment in self.segments:
            state.load_words(segment.memory, segment.base, segment.words)
        state.pc = self.entry

    # -- (de)serialisation --------------------------------------------------

    def to_dict(self):
        return {
            "name": self.name,
            "entry": self.entry,
            "symbols": dict(self.symbols),
            "segments": [
                {"memory": s.memory, "base": s.base, "words": list(s.words)}
                for s in self.segments
            ],
        }

    @classmethod
    def from_dict(cls, data):
        program = cls(
            name=data.get("name", "program"),
            entry=data.get("entry", 0),
            symbols=dict(data.get("symbols", {})),
        )
        for seg in data.get("segments", []):
            program.add_segment(seg["memory"], seg["base"], seg["words"])
        return program

    def save(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle)

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))
