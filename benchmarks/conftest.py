"""Shared configuration for the paper-reproduction benchmarks.

Each benchmark regenerates one of the paper's tables/figures at a
reduced (but shape-preserving) scale and attaches the headline numbers
to the pytest-benchmark record via ``benchmark.extra_info``, so
``pytest benchmarks/ --benchmark-only`` both times the regeneration and
prints the reproduced result rows.
"""


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark (simulations are
    deterministic, so repeated rounds add wall time without
    information) and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
