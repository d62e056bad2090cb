"""The repo benchmark: closed-loop workloads measured from outside.

``python3 perfbench/run.py --workload fleet --seed 1 --seconds 15 --trace 0``
runs one workload and prints every metric; see ``perfbench/README.md``.
"""
