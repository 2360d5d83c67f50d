"""Wall-clock benchmark of MCQ evaluation, serving and training.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""
