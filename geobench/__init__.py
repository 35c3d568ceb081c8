"""The repository benchmark: geo-replication workloads with layer attribution.

Run ``python3 geobench/run.py --help`` from the repository root.
"""
