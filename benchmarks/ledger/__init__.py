"""The performance ledger: one benchmark, five workloads, end-to-end and
per-layer metrics.

``python3 benchmarks/ledger/run.py --workload NAME`` measures one
workload in a fresh process; ``python -m benchmarks.ledger run`` runs
all five and writes a ledger file, ``python -m benchmarks.ledger
compare`` checks a change's ledger files against its parent's.  See
``benchmarks/ledger/README.md``.
"""
