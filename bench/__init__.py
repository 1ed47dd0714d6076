"""The repository's benchmark: seeded workloads, end-to-end and per-layer metrics.

Run it with ``python3 bench/run.py``; see ``bench/README.md``.
"""
