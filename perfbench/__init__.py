"""The repository benchmark (``python3 perfbench/bench.py``); see README.md."""
