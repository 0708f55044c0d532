"""Versioned, digest-stamped simulation checkpoints.

A checkpoint captures everything needed to resume a run bit-exactly:

* the full architectural state (every register and memory, canonical),
* the engine state: cycle count, retired-instruction count, and the
  *issue-pc window* of in-flight slots (stage 0 first, ``None`` for
  bubbles),
* pipeline control (halted flag, pending stall cycles),
* accumulated wall-clock seconds (so resumed ``stats`` stay honest).

It deliberately does **not** capture the simulation table or any
compiled artefacts: the front-end of every simulator kind is a pure
function of (pc, program memory), so restoring memory and re-fetching
the window reproduces the in-flight slots exactly.  That is what makes
checkpoints *portable across kinds* -- snapshot under ``compiled``,
resume under ``interpretive`` (or vice versa), finish bit-exact.

Integrity: checkpoints are stamped with the model digest (from the
simulation-table cache's canonical model fingerprint) and a program
digest; ``restore`` refuses a checkpoint from a different model or
program with a typed :class:`repro.support.errors.CheckpointError`.
The on-disk format is versioned JSON with a whole-body SHA-256, so
truncation and tampering are detected at load.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.support.errors import CheckpointError

CHECKPOINT_FORMAT = 1

_FILE_MARKER = "repro-checkpoint"


def program_digest(program):
    """A stable fingerprint of a target program's loadable content."""
    blob = json.dumps(program.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _body_digest(body):
    blob = json.dumps(body, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class Checkpoint:
    """A resumable snapshot of one simulation run."""

    format: int
    model_name: str
    model_digest: str
    program_name: str
    program_digest: str
    kind: str
    cycles: int
    instructions: int
    wall_seconds: float
    window: Tuple[Optional[int], ...]
    halted: bool
    stall_cycles: int
    state: Dict[str, object] = field(repr=False)
    # Run-configuration metadata: how the snapshotting simulator was
    # configured.  Restore does not require it to match (checkpoints
    # stay kind- and backend-portable); it exists so a resume can
    # *re-apply* the original configuration instead of silently
    # reverting to defaults (``repro-sim --resume`` does exactly that).
    # Older checkpoint files simply lack the key and load with the
    # default below; run-config keys this version no longer reads are
    # ignored.
    backend: str = "auto"

    # -- capture / validation ----------------------------------------------

    @classmethod
    def capture(cls, simulator):
        """Snapshot a simulator (normally via ``Simulator.checkpoint``)."""
        from repro.simcc.cache import model_digest

        engine = simulator.engine
        control = simulator.control
        return cls(
            format=CHECKPOINT_FORMAT,
            model_name=simulator.model.name,
            model_digest=model_digest(simulator.model),
            program_name=simulator.program.name,
            program_digest=program_digest(simulator.program),
            kind=simulator.kind,
            cycles=engine.cycles,
            instructions=engine.instructions_retired,
            wall_seconds=simulator.stats.wall_seconds,
            window=tuple(engine.window_pcs),
            halted=control.halted,
            stall_cycles=control.stall_cycles,
            state=simulator.state.snapshot(),
            backend=getattr(simulator, "backend", "auto"),
        )

    def validate_for(self, simulator):
        """Refuse restore under a different model or program."""
        from repro.simcc.cache import model_digest

        if self.format != CHECKPOINT_FORMAT:
            raise CheckpointError(
                "checkpoint format %r is not supported (expected %d)"
                % (self.format, CHECKPOINT_FORMAT)
            )
        if self.model_digest != model_digest(simulator.model):
            raise CheckpointError(
                "checkpoint was taken under model %r, which does not "
                "match the loaded model %r"
                % (self.model_name, simulator.model.name)
            )
        if simulator.program is None:
            raise CheckpointError(
                "no program loaded; load the checkpointed program "
                "before restoring"
            )
        if self.program_digest != program_digest(simulator.program):
            raise CheckpointError(
                "checkpoint was taken from program %r, which does not "
                "match the loaded program %r"
                % (self.program_name, simulator.program.name)
            )

    # -- (de)serialisation --------------------------------------------------

    def to_payload(self):
        return {
            "format": self.format,
            "model_name": self.model_name,
            "model_digest": self.model_digest,
            "program_name": self.program_name,
            "program_digest": self.program_digest,
            "kind": self.kind,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "wall_seconds": self.wall_seconds,
            "window": list(self.window),
            "halted": self.halted,
            "stall_cycles": self.stall_cycles,
            "state": self.state,
            "backend": self.backend,
        }

    @classmethod
    def from_payload(cls, payload):
        if not isinstance(payload, dict):
            raise CheckpointError("checkpoint body is not a mapping")
        fmt = payload.get("format")
        if fmt != CHECKPOINT_FORMAT:
            raise CheckpointError(
                "checkpoint format %r is not supported (expected %d)"
                % (fmt, CHECKPOINT_FORMAT)
            )
        backend = payload.get("backend", "auto")
        if backend in ("module", "python"):
            # Retired backend values: ``module`` only chose how a table
            # was built and ``python`` ran the same code as ``auto``,
            # never changing what it computes, so ``auto`` resumes
            # bit-exactly.
            backend = "auto"
        try:
            return cls(
                format=fmt,
                model_name=payload["model_name"],
                model_digest=payload["model_digest"],
                program_name=payload["program_name"],
                program_digest=payload["program_digest"],
                kind=payload["kind"],
                cycles=payload["cycles"],
                instructions=payload["instructions"],
                wall_seconds=payload["wall_seconds"],
                window=tuple(payload["window"]),
                halted=payload["halted"],
                stall_cycles=payload["stall_cycles"],
                state=payload["state"],
                backend=backend,
            )
        except KeyError as exc:
            raise CheckpointError(
                "checkpoint body is missing field %s" % exc
            ) from exc

    def save(self, path):
        """Write the checkpoint as digest-stamped JSON; returns ``path``."""
        body = self.to_payload()
        document = {
            _FILE_MARKER: CHECKPOINT_FORMAT,
            "digest": _body_digest(body),
            "body": body,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        return path

    @classmethod
    def load(cls, path):
        """Load and verify a checkpoint file.

        Raises :class:`CheckpointError` on unreadable, truncated,
        tampered or wrong-format files.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                "cannot read checkpoint %s: %s" % (path, exc)
            ) from exc
        if not isinstance(document, dict) or _FILE_MARKER not in document:
            raise CheckpointError(
                "%s is not a repro checkpoint file" % path
            )
        body = document.get("body")
        if body is None or document.get("digest") != _body_digest(body):
            raise CheckpointError(
                "checkpoint %s failed its integrity check "
                "(truncated or tampered)" % path
            )
        return cls.from_payload(body)
