"""End-to-end and per-layer benchmark of the spb-maxsat solver.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
