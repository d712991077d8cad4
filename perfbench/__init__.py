"""The repository benchmark (see ``run.py`` and ``BENCHMARK.json``)."""
