"""PRoST end-to-end benchmark: ingest, adhoc, serve and governed workloads.

Run from the repository root::

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 10 --trace 0

See ``perfbench/README.md`` for the workloads, metrics and layer map.
"""
