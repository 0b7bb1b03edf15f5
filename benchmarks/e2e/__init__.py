"""End-to-end benchmark of the OCTOPUS reproduction (see ``README.md``).

Run it with ``python3 benchmarks/e2e/run.py --workload monitor --seed 0``.
"""
