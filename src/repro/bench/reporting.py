"""Experiment-report output for the benchmark suite.

pytest captures stdout, so each experiment writes its table both to
stdout (visible with ``pytest -s``) and to ``<results_dir>/<exp>.txt``
so the regenerated figures survive a quiet run.  Headline machine-
readable results (``BENCH_*.json``) go through :func:`publish_json`.
Everything lands in :func:`results_dir`: ``$REPRO_RESULTS_DIR`` when
set, so a run can keep the tracked ``benchmarks/results/`` files as
they are, else ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import os


def results_dir():
    base = os.environ.get("REPRO_RESULTS_DIR")
    if base is None:
        base = os.path.join(os.getcwd(), "benchmarks", "results")
    os.makedirs(base, exist_ok=True)
    return base


def publish_json(name, payload):
    """Write a headline ``BENCH_*.json`` result into :func:`results_dir`."""
    path = os.path.join(results_dir(), name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2) + "\n")
    return path


class ExperimentReport:
    """Collects and emits one experiment's rows."""

    def __init__(self, experiment_id, title, paper_note=""):
        self.experiment_id = experiment_id
        self.title = title
        self.paper_note = paper_note
        self.lines = []

    def add(self, line):
        self.lines.append(line)

    def add_row(self, **fields):
        self.lines.append(
            "  ".join("%s=%s" % (k, _fmt(v)) for k, v in fields.items())
        )

    def emit(self):
        header = "== %s: %s ==" % (self.experiment_id, self.title)
        body = [header]
        if self.paper_note:
            body.append("paper: %s" % self.paper_note)
        body.extend(self.lines)
        text = "\n".join(body) + "\n"
        print("\n" + text)
        path = os.path.join(
            results_dir(), "%s.txt" % self.experiment_id.lower()
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return text


def _fmt(value):
    if isinstance(value, float):
        return "%.4g" % value
    return str(value)
