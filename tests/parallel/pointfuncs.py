"""Module-level point functions for the sweep-engine tests.

The engine resolves worker functions by dotted path, so anything a test
fans out must live at module level in an importable module — lambdas
and closures would not survive the spawn boundary.
"""

#: Serial-path call log (never shared with workers: a spawn child gets
#: a fresh module, which is exactly what the cache tests rely on).
CALLS = []


def square(x):
    """The minimal deterministic point."""
    return x * x


def record_square(x):
    """Like :func:`square`, but logs the call (serial path only)."""
    CALLS.append(x)
    return x * x


def fail_at(x, bad):
    """Raises on the designated value — exercises error capture."""
    if x == bad:
        raise ValueError(f"injected failure at x={x}")
    return x


def raise_unpicklable(x):
    """Raises an exception whose args cannot be pickled — the worker
    protocol must still deliver a useful report."""

    class Local(Exception):
        pass

    raise Local(object())


def probe_checks():
    """Reports whether the repro.check sanitizers are on in the
    process that actually executes the point."""
    from repro.flags import current

    return current().check


def echo(**kwargs):
    """Returns its kwargs — exercises replay-expression round-trips."""
    return kwargs


class Tools:
    """Dotted-attribute point target (``module:Class.method``)."""

    @staticmethod
    def double(x):
        return 2 * x


def probe_shake():
    """Reports the schedule-shaker seed in the executing process."""
    from repro.flags import current

    return current().shake


def probe_flags():
    """Reports the whole flags record in the executing process."""
    from repro.flags import current

    return current()
