"""The ledger's five workloads.

A workload is one *round*: a fixed list of jobs, each a generated
application (:mod:`repro.apps`) plus a simulator kind and backend.  A
run repeats whole rounds until ``--seconds`` have passed, so every run
sees the same job mix.

Every input derives from the ``--seed``; the program sizes are fixed,
so a different seed changes data and code but not the amount of work.
``smoke=True`` shrinks every program so that all five workloads fit in
the smoke test's time budget.  Why each workload exists is recorded in
``BENCHMARK.json`` and the README.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Job:
    """One job of a round.  ``key`` names the program: every job with
    the same key must report the same ``(cycles, retired)``."""

    key: str
    app: object
    kind: str
    backend: str = "auto"


@dataclass(frozen=True)
class Workload:
    """One round of jobs.  ``cache`` is the cache its jobs see:
    ``warm``, a private directory filled during set-up; ``cold``, a
    fresh empty directory for every round; ``none``, ``cache=None``,
    the library and CLI default."""

    name: str
    jobs: Tuple[Job, ...]
    cache: str
    service: bool = False


def build(name, seed, smoke=False):
    """The workload ``name`` with inputs generated from ``seed``."""
    if name not in _BUILDERS:
        raise ValueError("unknown workload %r (choose from %s)"
                         % (name, ", ".join(WORKLOAD_NAMES)))
    return _BUILDERS[name](seed, smoke)


def _short_mix(seed, smoke):
    from repro.apps import build_adpcm, build_fir, build_synthetic

    if smoke:
        programs = [
            ("fir8x16", build_fir("c62x", taps=8, samples=16, seed=seed)),
            ("syn64", build_synthetic("c62x", 64, 0.2, 2, seed=seed + 2)),
        ]
    else:
        programs = [
            ("fir16x48", build_fir("c62x", taps=16, samples=48, seed=seed)),
            ("adpcm256", build_adpcm("c62x", samples=256, seed=seed + 1)),
            ("syn256b0", build_synthetic("c62x", 256, 0.0, 8,
                                         seed=seed + 2)),
            ("syn256b20", build_synthetic("c62x", 256, 0.2, 8,
                                          seed=seed + 3)),
        ]
    kinds = (("compiled", "auto"), ("unfolded_static", "auto"),
             ("unfolded_static", "native"))
    return tuple(
        Job(key, app, kind, backend)
        for key, app in programs
        for kind, backend in kinds
    )


def _short_warm(seed, smoke):
    return Workload("short_warm", _short_mix(seed, smoke), "warm")


def _service_mixed(seed, smoke):
    return Workload("service_mixed", _short_mix(seed, smoke), "warm",
                    service=True)


def _long_native(seed, smoke):
    from repro.apps import build_fir, build_synthetic

    # 256-word loop bodies: the same ~8M cycles as 512 words at half
    # the iterations, for a third of the set-up's C compile time.
    if smoke:
        fir = ("fir16x192", build_fir("c62x", taps=16, samples=192,
                                      seed=seed))
        iterations = 400
    else:
        fir = ("fir128x3840", build_fir("c62x", taps=128, samples=3840,
                                        seed=seed))
        iterations = 32000
    programs = [
        fir,
        ("syn256b0", build_synthetic("c62x", 256, 0.0, iterations,
                                     seed=seed + 1)),
        ("syn256b20", build_synthetic("c62x", 256, 0.2, iterations,
                                      seed=seed + 2)),
    ]
    jobs = tuple(Job(key, app, "unfolded_static", "native")
                 for key, app in programs)
    return Workload("long_native", jobs, "warm")


def _python_engines(seed, smoke):
    from repro.apps import build_adpcm, build_fir, build_synthetic

    if smoke:
        programs = [
            ("adpcm32", build_adpcm("c62x", samples=32, seed=seed)),
            ("syn64", build_synthetic("c62x", 64, 0.2, 4, seed=seed + 2)),
        ]
    else:
        programs = [
            ("adpcm256", build_adpcm("c62x", samples=256, seed=seed)),
            ("fir16x128", build_fir("c62x", taps=16, samples=128,
                                    seed=seed + 1)),
            ("syn256b20", build_synthetic("c62x", 256, 0.2, 32,
                                          seed=seed + 2)),
        ]
    jobs = tuple(
        Job(key, app, kind)
        for key, app in programs
        for kind in ("compiled", "static", "unfolded", "unfolded_static")
    )
    return Workload("python_engines", jobs, "none")


def _cold_compile(seed, smoke):
    from repro.apps import build_gsm, build_synthetic

    # The unfolded_static job of a program of 256 words or fewer runs
    # native, so its table and its C module are both built cold: no two
    # jobs of a round share a cache entry, and every lookup misses.
    # Native GSM is left out: its cold C compile alone takes ~11 s.
    sizes = (64, 128) if smoke else (256, 1024)
    programs = [
        ("syn%d" % words,
         build_synthetic("c62x", words, 0.1, 4, seed=seed + index),
         ("compiled", "unfolded_static"), words <= 256)
        for index, words in enumerate(sizes)
    ]
    if not smoke:
        programs.append(
            ("gsm2048", build_gsm("c62x", seed=seed + 9, target_words=2048),
             ("compiled",), False))
    jobs = tuple(
        Job(key, app, kind,
            "native" if native and kind == "unfolded_static" else "auto")
        for key, app, kinds, native in programs
        for kind in kinds
    )
    return Workload("cold_compile", jobs, "cold")


_BUILDERS = {
    "short_warm": _short_warm,
    "long_native": _long_native,
    "python_engines": _python_engines,
    "cold_compile": _cold_compile,
    "service_mixed": _service_mixed,
}

WORKLOAD_NAMES = tuple(_BUILDERS)
