"""Unit tests for the sweep engine (serial path, pool path, errors)."""

import pytest

from repro.flags import override
from repro.parallel import PointError, SweepPoint, default_jobs, run_sweep

FNS = "tests.parallel.pointfuncs"


def _points(fn, xs, **extra):
    return [SweepPoint.make(f"{FNS}:{fn}", x=x, **extra) for x in xs]


def test_results_in_point_order():
    results = run_sweep(_points("square", [3, 1, 2]))
    assert results == [9, 1, 4]


def test_empty_sweep():
    assert run_sweep([]) == []


def test_default_jobs_positive():
    assert default_jobs() >= 1


def test_jobs_zero_resolves_to_default():
    # jobs=0 must behave like a valid worker count, whatever the host.
    assert run_sweep(_points("square", [4]), jobs=0) == [16]


def test_sweep_point_kwargs_sorted_and_roundtrip():
    p = SweepPoint.make("m:f", b=2, a=1)
    assert p.kwargs == (("a", 1), ("b", 2))


def test_replay_expression_names_function_and_kwargs():
    p = SweepPoint.make(f"{FNS}:square", x=7)
    expr = p.replay_expression()
    assert "from tests.parallel.pointfuncs import square" in expr
    assert "square(x=7)" in expr


def test_replay_expression_quotes_hostile_kwargs():
    """Regression: kwargs containing quotes, newlines or shell
    metacharacters must survive as ONE shell argument whose payload is
    valid Python."""
    import shlex

    hostile = "it's \"quoted\"\nnew\tline & $HOME `cmd`; rm"
    p = SweepPoint.make(f"{FNS}:echo", x=hostile, n=3)
    prog, flag, code = shlex.split(p.replay_expression())
    assert (prog, flag) == ("python", "-c")
    assert f"x={hostile!r}" in code
    # The one-liner really runs: importing and calling the point.
    exec(code, {})  # noqa: S102 - replaying our own generated code


def test_replay_expression_imports_dotted_attr_root():
    import shlex

    p = SweepPoint.make(f"{FNS}:Tools.double", x=2)
    _, _, code = shlex.split(p.replay_expression())
    assert code.startswith("from tests.parallel.pointfuncs import Tools; ")
    assert "Tools.double(x=2)" in code
    exec(code, {})


def test_serial_error_names_point():
    points = _points("fail_at", [0, 1, 2], bad=1)
    with pytest.raises(PointError) as err:
        run_sweep(points)
    assert "#1" in str(err.value)
    assert "fail_at" in str(err.value)
    assert "injected failure at x=1" in str(err.value)
    assert err.value.index == 1
    assert err.value.point is points[1]


def test_serial_error_chains_original():
    with pytest.raises(PointError) as err:
        run_sweep(_points("fail_at", [1], bad=1))
    assert isinstance(err.value.__cause__, ValueError)


def test_unknown_function_is_a_point_error():
    with pytest.raises(PointError):
        run_sweep([SweepPoint.make(f"{FNS}:does_not_exist")])


@pytest.mark.slow
def test_pool_matches_serial_order():
    points = _points("square", [5, 3, 8, 1, 6])
    assert run_sweep(points, jobs=2) == run_sweep(points) == [25, 9, 64, 1, 36]


@pytest.mark.slow
def test_pool_error_names_point_with_worker_traceback():
    points = _points("fail_at", [0, 1, 2, 3], bad=2)
    with pytest.raises(PointError) as err:
        run_sweep(points, jobs=2)
    message = str(err.value)
    assert "#2" in message and "fail_at" in message
    assert "injected failure at x=2" in message
    assert err.value.worker_traceback  # the remote rendering came home
    assert "ValueError" in err.value.worker_traceback


@pytest.mark.slow
def test_pool_survives_unpicklable_exception():
    # The worker ships text, never the exception object, so an
    # unpicklable exception must not wedge the pool.
    with pytest.raises(PointError) as err:
        run_sweep(_points("raise_unpicklable", [0, 1]), jobs=2)
    assert "Local" in str(err.value)


@pytest.mark.slow
def test_check_flag_propagates_into_workers():
    point = [SweepPoint.make(f"{FNS}:probe_checks"),
             SweepPoint.make(f"{FNS}:probe_checks")]
    with override(check=True):
        assert run_sweep(point, jobs=2) == [True, True]
    with override(check=False):
        assert run_sweep(point, jobs=2) == [False, False]


