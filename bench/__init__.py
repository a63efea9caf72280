"""This repo's benchmark: ``python -m bench`` (see ``bench/README.md``).

Five workloads, six end-to-end metrics, 67 per-layer metrics; the names
in :mod:`bench.schema` are the contract later changes are judged by.
"""
