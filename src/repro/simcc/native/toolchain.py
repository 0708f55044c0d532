"""C toolchain discovery, compilation and shared-object loading.

Discovery honours ``$CC`` first (an *empty* ``CC`` explicitly disables
the toolchain -- the CI fallback leg uses this), then falls back to
``cc``, ``gcc`` and ``clang`` on ``$PATH``.  Loading uses :mod:`ctypes`
(standard library, and faster than cffi's ABI-mode ``dlopen`` both to
load and per call): it exposes a ``burst(buf_addr, ok_addr,
max_cycles) -> int`` callable over raw ``array('q')`` buffer addresses.

Compiler identity (the first line of ``cc --version``) and the flag
set are part of every artifact's metadata: a cached shared object
built by a different compiler or flag set must miss, never load.
"""

from __future__ import annotations

import os
import shutil
import subprocess

#: Flags used for every native artifact build (part of the cache key).
CFLAGS = ("-O2", "-shared", "-fPIC")

_CANDIDATES = ("cc", "gcc", "clang")


class NativeToolchainError(Exception):
    """Compilation or loading of a native artifact failed."""


def find_compiler():
    """Path of a usable C compiler, or ``None``.

    ``$CC`` wins when set; setting it to the empty string explicitly
    disables native compilation (the documented opt-out).
    """
    env = os.environ.get("CC")
    if env is not None:
        if not env.strip():
            return None
        return env if os.sep in env else shutil.which(env)
    for name in _CANDIDATES:
        path = shutil.which(name)
        if path:
            return path
    return None


#: ``compiler_identity`` results by (resolved path, mtime, size) of the
#: compiler file: one probe per process, a fresh one once it changes.
_identities = {}


def compiler_identity(cc):
    """A stable identity string for ``cc`` (first ``--version`` line
    plus the flag set); part of every artifact's cache key.

    The probe runs once per compiler file and process; replacing or
    touching the file probes it again.
    """
    try:
        path = os.path.realpath(shutil.which(cc) or cc)
        info = os.stat(path)
    except OSError:
        return _probe_identity(cc)
    key = (path, info.st_mtime_ns, info.st_size)
    identity = _identities.get(key)
    if identity is None:
        identity = _identities[key] = _probe_identity(cc)
    return identity


def _probe_identity(cc):
    try:
        out = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30,
        ).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        raise NativeToolchainError(
            "cannot identify compiler %r: %s" % (cc, exc)
        ) from exc
    first = out.splitlines()[0].strip() if out else os.path.basename(cc)
    return "%s | %s" % (first, " ".join(CFLAGS))


def compile_shared(cc, c_path, so_path):
    """Compile ``c_path`` into the shared object ``so_path``."""
    cmd = [cc, *CFLAGS, "-o", so_path, c_path]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=300)
    except (OSError, subprocess.SubprocessError) as exc:
        raise NativeToolchainError(
            "compiler invocation failed: %s" % exc
        ) from exc
    if proc.returncode != 0:
        raise NativeToolchainError(
            "compilation failed (%s):\n%s"
            % (" ".join(cmd), proc.stderr.strip())
        )
    return so_path


def load_burst(so_path):
    """Load ``repro_burst`` from ``so_path``.

    The returned ``burst`` takes the raw buffer addresses
    (``array('q').buffer_info()[0]``) plus the cycle budget and returns
    the burst exit code.
    """
    import ctypes

    try:
        lib = ctypes.CDLL(so_path)
    except OSError as exc:
        raise NativeToolchainError(
            "cannot load %s: %s" % (so_path, exc)
        ) from exc
    fn = lib.repro_burst
    fn.restype = ctypes.c_int64
    fn.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64)
    return fn
