"""Persistent, content-addressed cache for compiled simulations.

The paper's thesis is moving work from simulation run-time to
simulation compile-time; this module moves it further -- out of the
process entirely.  A compiled simulation (as a state-independent
:class:`repro.simcc.portable.PortableTable`) is stored on disk keyed by
a digest of everything that determines its content:

* the LISA text the model was compiled from (its SHA-256, stamped on the
  model by :func:`repro.lisa.semantics.compile_source`), together with
  :data:`FORMAT_VERSION`, which stands for the LISA compiler and the
  simulation compiler that turn that text into a table,
* the program bytes (the serialised object file),
* the simulation level.

Any change to model text, program or level therefore produces a
different key -- invalidation is automatic and exact, and entries never
go stale.  A change to the compilers that alters the model built from
the same text must bump :data:`FORMAT_VERSION`;
``tests/test_frontend_golden.py`` pins both, side by side.  Keying by
the text means a warm lookup never serialises the freshly compiled
model.  A model built from an AST alone has no text and is keyed by its
content instead (:func:`model_digest`).  The key is the level-free
:func:`content_digest` (model, program, format) extended by the level
(:func:`table_digest`); both levels compile the same code, so the
native backend keys its artifacts by the content digest alone.

Entry format (versioned): a magic line, a checksum line (the CRC-32 of
what follows, eight hex digits), then one :mod:`marshal` payload
holding the table spec, the IR function and proof payloads, and the
pre-compiled code object.  Marshal is the same machinery behind
``.pyc`` files: loading is a single fast C pass and the code object
needs no re-parse.  A load keeps the IR and the proofs as payloads and
decodes each on first read (:class:`repro.simcc.portable.
PortableTable`), so the checksum is what turns a flipped byte anywhere
in them into a miss at lookup instead of an error mid-run.  Because
marshal bytecode is CPython-version specific, entries live under a
``v<format>-cp<maj><min>`` namespace; a different interpreter simply
misses and recompiles rather than misreading.  Corrupt entries
(truncation, bit-rot, concurrent writer crashes) are detected,
quarantined (deleted) and treated as misses.

An in-process LRU of rehydrated tables sits in front of the disk
store, so repeated loads of the same program in one process skip even
the ``exec``.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import os
import sys
import tempfile
import zlib
from collections import OrderedDict

from repro.lisa.database import model_to_json
from repro.simcc.portable import PortableTable

#: Bump when the entry layout or the portable-table payload changes.
#: 2: portable tables carry per-packet hazard verdicts.
#: 3: portable tables store SimIR payloads instead of source text.
#: 4: native burst artifacts (.c source + shared object + metadata)
#:    ride alongside portable tables; older entries are clean misses.
#: 5: portable tables persist per-packet abstract-interpretation
#:    proofs (:mod:`repro.analysis.absint`); prior-rev entries are
#:    clean misses reported once as ``prior_format``.
#: 6: payloads may carry a ``window`` key (``None`` on every
#:    whole-program table); it is no longer written and is ignored on
#:    load.  Do not bump for its removal: whole-program digests are
#:    unchanged, so existing v6 entries stay warm.  A table with an
#:    undecodable word also carries a ``traps`` key, written only when
#:    non-empty; no bump either, because a reader without the key still
#:    traps at those pcs (they have no table-spec entry).
#: 7: the IR passes drop the wrap of every store the abstract
#:    interpreter proves canonical, and native rendering reads only the
#:    IR (no render-time analysis), so a v6 entry would keep wraps the
#:    C no longer elides.  v6 entries are clean misses; native
#:    artifacts record the format and rebuild once.
#: 8: tables are keyed by the SHA-256 of the model's LISA text instead
#:    of :func:`model_digest`; payloads are unchanged, but every key
#:    moved, so v7 entries are clean misses.
#: 9: packet proofs drop their element-store targets and loop flag
#:    (six fields, not eight); v8 entries are clean misses, and native
#:    artifacts record the format and rebuild once.
#: 10: portable tables drop the per-packet hazard verdicts (static
#:    scheduling composes every window without control, so no table
#:    build runs the hazard pass); v9 entries are clean misses, and
#:    native artifacts record the format and rebuild once.
#: 11: entries carry a checksum of their marshalled bytes, checked
#:    before unmarshalling, because a load no longer decodes the IR and
#:    the proofs; table keys extend the level-free content digest; native
#:    artifacts are keyed by it (not by their C source) and store their
#:    plan in the metadata sidecar.  Payloads are unchanged; v10 entries
#:    are clean misses.
FORMAT_VERSION = 11

_MAGIC = b"repro-simtab\n"


def _version_tag():
    return "v%d-cp%d%d" % (
        FORMAT_VERSION, sys.version_info[0], sys.version_info[1]
    )


# -- entries -----------------------------------------------------------------

_CHECKSUM_LINE = 9  # eight hex digits and a newline


def entry_bytes(payload):
    """One entry's bytes: the magic line, the checksum line and the
    marshalled ``payload``."""
    body = marshal.dumps(payload)
    return _MAGIC + b"%08x\n" % zlib.crc32(body) + body


def entry_payload(blob):
    """The payload of an entry's bytes; raises ``ValueError`` on a bad
    magic line or checksum, before anything is unmarshalled."""
    if not blob.startswith(_MAGIC):
        raise ValueError("bad magic")
    start = len(_MAGIC) + _CHECKSUM_LINE
    body = memoryview(blob)[start:]
    if blob[start - 1:start] != b"\n" or (
        int(blob[len(_MAGIC):start - 1], 16) != zlib.crc32(body)
    ):
        raise ValueError("checksum mismatch")
    return marshal.loads(body)


# -- digests -----------------------------------------------------------------


def _stable_ast_repr(model):
    """A deterministic rendering of every behaviour-relevant AST.

    ``model_to_json`` summarises behaviours structurally (it is a
    description, not an executable image), so two models differing only
    in an operation's arithmetic could dump identically.  Behaviour,
    expression and guard ASTs are frozen dataclasses whose ``repr`` is
    fully value-based, which makes them safe digest material.
    """
    from repro.lisa import model as m

    parts = []
    for op in model.operations.values():
        parts.append(op.name)
        for item in op.items:
            if isinstance(item, (m.IfSections, m.SwitchSections)):
                parts.append(repr(item))
        for items in op.all_section_variants():
            for item in items:
                if isinstance(item, (m.Behavior, m.Expression, m.Activation)):
                    parts.append(repr(item))
    return "\n".join(parts)


def model_digest(model):
    """Hex digest of the model data base's content (cached on the model).

    The JSON dump plus a stable rendering of every behaviour/guard AST,
    so editing an operation's arithmetic changes it while a comment-only
    edit of the LISA text does not.  Checkpoints carry it as the model's
    identity.  Simulation tables are keyed by the LISA text instead (see
    :func:`table_digest`): dumping a freshly compiled model costs more
    than the warm lookup it would key.
    """
    cached = getattr(model, "_simtab_digest", None)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(model_to_json(model).encode("utf-8"))
    digest.update(_stable_ast_repr(model).encode("utf-8"))
    digest = digest.hexdigest()
    try:
        model._simtab_digest = digest
    except AttributeError:
        pass
    return digest


def _model_key(model):
    """What identifies a model in a table key: its LISA text, or its
    content when it was built from an AST."""
    if model.source_digest is not None:
        return "lisa:" + model.source_digest
    return "model:" + model_digest(model)


def content_digest(model, program):
    """The level-free content address of a program's compiled
    simulation: model, program and format.  Both levels compile the
    same code from it (their payloads differ only in ``level``)."""
    digest = hashlib.sha256()
    digest.update(b"repro-simtab:%d\n" % FORMAT_VERSION)
    digest.update(_model_key(model).encode("ascii"))
    digest.update(b"\n")
    digest.update(
        json.dumps(program.to_dict(), sort_keys=True).encode("utf-8")
    )
    return digest.hexdigest()


def _level_digest(content, level):
    return hashlib.sha256(
        ("%s\n%s" % (content, level)).encode("utf-8")
    ).hexdigest()


def table_digest(model, program, level):
    """The content address of one compiled simulation: the
    :func:`content_digest` extended by the level."""
    return _level_digest(content_digest(model, program), level)


# -- the cache ---------------------------------------------------------------


class SimulationCache:
    """On-disk simulation-table cache with an in-process LRU in front.

    ``stats`` counts ``memory_hits``, ``disk_hits``, ``misses``,
    ``stores``, ``store_errors``, ``corrupt_entries``, and
    ``format_misses`` (entries written under a different payload
    format, reported as clean misses) for observability; the CLI
    prints them under ``--stats``.
    """

    def __init__(self, root, max_memory_entries=8):
        self.root = os.fspath(root)
        self._max_memory = max(0, int(max_memory_entries))
        self._memory = OrderedDict()
        self.stats = {
            "memory_hits": 0,
            "disk_hits": 0,
            "misses": 0,
            "stores": 0,
            "store_errors": 0,
            "corrupt_entries": 0,
            "format_misses": 0,
            "native_hits": 0,
            "native_misses": 0,
            "native_stores": 0,
        }

    # -- high-level entry point ---------------------------------------------

    def load_table(self, compiler, program, state, control,
                   level="sequenced", observer=None):
        """Get-or-compile a simulation table bound to ``state``/``control``.

        On a hit the simulation compiler never runs: the portable table
        is rehydrated from memory or disk and bound.  On a miss the
        program is compiled, stored, and bound.  ``observer`` records lookup/store/bind spans and one
        ``cache`` event per outcome.
        """
        from repro import obs as _obs

        before = dict(self.stats)
        with _obs.span(observer, "cache.lookup", level=level):
            portable = self.load_portable(compiler.model, program, level)
        if observer is not None:
            for stat, outcome in (("memory_hits", "memory_hit"),
                                  ("disk_hits", "disk_hit"),
                                  ("misses", "miss")):
                if self.stats[stat] > before[stat]:
                    if (outcome == "miss" and self.stats["format_misses"]
                            > before["format_misses"]):
                        # The entry exists but was written under a prior
                        # payload format: one clean miss, flagged so the
                        # event stream explains the recompile.
                        observer.on_cache(outcome, level=level,
                                          prior_format=True)
                    else:
                        observer.on_cache(outcome, level=level)
        if portable is None:
            portable = compiler.compile_portable(program, level=level,
                                                 observer=observer)
            with _obs.span(observer, "cache.store", level=level):
                self.store_portable(compiler.model, program, level, portable)
            if observer is not None:
                observer.on_cache("store", level=level)
        with _obs.span(observer, "cache.bind", level=level):
            return portable.bind(state, control)

    # -- portable-table access ----------------------------------------------

    def load_portable(self, model, program, level):
        """The cached portable table, or None on a miss."""
        content = content_digest(model, program)
        digest = _level_digest(content, level)
        portable = self._memory_get(digest)
        if portable is not None:
            self.stats["memory_hits"] += 1
            return portable
        portable = self._disk_get(digest)
        if portable is not None:
            portable.digest = content
            self.stats["disk_hits"] += 1
            self._memory_put(digest, portable)
            return portable
        self.stats["misses"] += 1
        return None

    def store_portable(self, model, program, level, portable):
        """Persist a portable table under its content address.

        An unwritable store (read-only filesystem, ``root`` pointing at
        a file, disk full) must never break simulation: the entry still
        lands in the in-process LRU and the failure is only counted.
        """
        digest = table_digest(model, program, level)
        try:
            self._disk_put(digest, portable)
            self.stats["stores"] += 1
        except OSError:
            self.stats["store_errors"] += 1
        self._memory_put(digest, portable)
        return digest

    # -- native burst artifacts ---------------------------------------------

    def native_root(self):
        """Directory for native backend artifacts (versioned namespace)."""
        return os.path.join(self.root, _version_tag(), "native")

    def _native_paths(self, key):
        base = os.path.join(self.native_root(), key[:2], key[2:])
        return base + ".c", base + ".so", base + ".json"

    def load_native_artifact(self, key, compiler_id):
        """``(so_path, plan)`` of a valid cached native artifact, or
        ``None``; ``plan`` is the JSON data the store was given.

        An artifact is valid only when its metadata matches the current
        payload format *and* the exact compiler identity (version line
        plus flags): a shared object built by a stale compiler must
        miss and be rebuilt, never loaded.
        """
        _, so_path, meta_path = self._native_paths(key)
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except (OSError, ValueError):
            self.stats["native_misses"] += 1
            return None
        if (
            meta.get("format") != FORMAT_VERSION
            or meta.get("compiler") != compiler_id
            or "plan" not in meta
            or not os.path.exists(so_path)
        ):
            self.stats["native_misses"] += 1
            return None
        self.stats["native_hits"] += 1
        return so_path, meta["plan"]

    def store_native_artifact(self, key, compiler_id, source, plan,
                              compile_fn):
        """Build and publish a native artifact under ``key``.

        ``compile_fn(c_path, so_path)`` performs the actual compile;
        ``plan`` (JSON data) rides in the metadata sidecar, so a hit
        needs no rendering.  The metadata file is written last
        (atomically), so a crashed build can never be mistaken for a
        valid artifact.
        """
        c_path, so_path, meta_path = self._native_paths(key)
        directory = os.path.dirname(c_path)
        os.makedirs(directory, exist_ok=True)
        with open(c_path, "w", encoding="utf-8") as handle:
            handle.write(source)
        tmp_so = so_path + ".tmp"
        compile_fn(c_path, tmp_so)
        os.replace(tmp_so, so_path)
        meta = {
            "format": FORMAT_VERSION,
            "compiler": compiler_id,
            "key": key,
            "plan": plan,
        }
        fd, tmp_meta = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(meta, handle, indent=2)
        os.replace(tmp_meta, meta_path)
        self.stats["native_stores"] += 1
        return c_path, so_path

    # -- in-process LRU -----------------------------------------------------

    def _memory_get(self, digest):
        portable = self._memory.get(digest)
        if portable is not None:
            self._memory.move_to_end(digest)
        return portable

    def _memory_put(self, digest, portable):
        if self._max_memory == 0:
            return
        self._memory[digest] = portable
        self._memory.move_to_end(digest)
        while len(self._memory) > self._max_memory:
            self._memory.popitem(last=False)

    # -- disk store ---------------------------------------------------------

    def entry_path(self, digest):
        return os.path.join(
            self.root, _version_tag(), digest[:2], digest[2:] + ".simtab"
        )

    def _disk_get(self, digest):
        path = self.entry_path(digest)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        try:
            payload = entry_payload(blob)
            if payload["meta"].get("format") != FORMAT_VERSION:
                # An entry written by a different (older or newer)
                # format that strayed into this version's namespace is
                # not corruption -- it is simply unusable here.  Treat
                # it as a clean miss and leave it alone.
                self.stats["format_misses"] += 1
                return None
            if payload["meta"]["digest"] != digest:
                raise ValueError("digest mismatch")
            return PortableTable.from_payload(payload["table"])
        except Exception:
            # Truncated, bit-rotted or wrong-format entry: quarantine it
            # and fall back to a plain miss.
            self.stats["corrupt_entries"] += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None

    def _disk_put(self, digest, portable):
        path = self.entry_path(digest)
        payload = {
            "meta": {
                "format": FORMAT_VERSION,
                "python": "%d.%d" % sys.version_info[:2],
                "digest": digest,
                "model": portable.model_name,
                "program": portable.program_name,
                "level": portable.level,
            },
            "table": portable.to_payload(),
        }
        blob = entry_bytes(payload)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        # Atomic publish: a concurrent reader sees the old entry or the
        # new one, never a torn write.
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_path, path)
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
