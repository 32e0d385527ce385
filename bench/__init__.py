"""End-to-end and per-layer benchmark of the repro serving and training stack.

Run it with ``python bench/run.py``; see ``bench/README.md``.
"""
