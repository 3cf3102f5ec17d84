import math

import numpy as np
import pytest

from renyibounds.optimize import (INF, ScalarObjective, _scan_points, _transform,
                                  maximize_1d, minimize_1d)


def test_minimize_unconstrained_quadratic():
    res = minimize_1d(ScalarObjective(lambda x: (x - 2.0) ** 2))
    assert abs(res.arg - 2.0) < 1e-6
    assert res.value < 1e-12
    assert res.converged


def test_minimize_on_half_line():
    # minimum of x + 1/x on (0, inf) is 2 at x = 1
    res = minimize_1d(ScalarObjective(lambda x: x + 1.0 / x, lo=0.0))
    assert abs(res.arg - 1.0) < 1e-6
    assert abs(res.value - 2.0) < 1e-10


def test_minimize_on_bounded_interval():
    res = minimize_1d(ScalarObjective(lambda x: -math.log(x) - math.log(1 - x),
                                      lo=0.0, hi=1.0))
    assert abs(res.arg - 0.5) < 1e-6


def test_monotone_objective_reports_boundary():
    res = minimize_1d(ScalarObjective(lambda x: 1.0 / (1.0 + x), lo=0.0))
    assert res.boundary
    assert not res.converged
    assert res.value < 1e-8


def test_expansion_into_open_end_reports_boundary():
    # the infimum -inf sits at the open end x -> 1, where the expansion's
    # stopping point rounds onto lo itself
    res = minimize_1d(ScalarObjective(lambda x: math.log(x - 1.0), lo=1.0))
    assert res.boundary
    assert not res.converged


def test_minimize_skips_infinite_plateau():
    def f(x):
        return INF if x < 1.0 else (x - 3.0) ** 2

    res = minimize_1d(ScalarObjective(f))
    assert abs(res.arg - 3.0) < 1e-6


def test_no_point_is_evaluated_twice():
    # the closing probe reuses golden section's value at the optimum
    points = []

    def f(x):
        points.append(x)
        return (x - 2.0) ** 2

    res = minimize_1d(ScalarObjective(f))
    assert res.converged and abs(res.arg - 2.0) < 1e-6
    assert len(set(points)) == len(points) == res.evaluations


def test_maximize_concave():
    res = maximize_1d(ScalarObjective(lambda x: -(x - 1.5) ** 2 + 4.0))
    assert abs(res.arg - 1.5) < 1e-6
    assert abs(res.value - 4.0) < 1e-10



def test_vectorized_scan_matches_scalar_scan():
    fn = lambda x: -np.log(x) - np.log(1.0 - x) + 0.3 * x
    scalar = minimize_1d(ScalarObjective(lambda x: float(fn(x)), lo=0.0, hi=1.0))
    vector = minimize_1d(ScalarObjective(lambda x: fn(x) if np.ndim(x) else float(fn(x)),
                                         lo=0.0, hi=1.0, vectorized=True))
    assert vector == scalar
    assert type(vector.arg) is float and type(vector.value) is float


def test_vectorized_scan_reads_nan_as_infinite():
    calls = []

    def f(x):
        calls.append(np.ndim(x))
        if np.ndim(x):
            return np.where(x < 0.5, np.nan, (x - 0.7) ** 2)
        return INF if x < 0.5 else (x - 0.7) ** 2

    vector = minimize_1d(ScalarObjective(f, lo=0.0, hi=1.0, vectorized=True))
    assert calls.count(1) == 1  # the whole scan in one call
    scalar = minimize_1d(ScalarObjective(lambda x: INF if x < 0.5 else (x - 0.7) ** 2,
                                         lo=0.0, hi=1.0))
    assert vector == scalar
    assert abs(vector.arg - 0.7) < 1e-6


def test_vectorized_scan_not_finite_anywhere_raises():
    obj = ScalarObjective(lambda x: np.full(np.shape(x), np.nan) if np.ndim(x) else INF,
                          lo=0.0, vectorized=True)
    with pytest.raises(ValueError, match="not finite anywhere"):
        minimize_1d(obj)



def _barrier(x):
    return -np.log(x) - np.log(1.0 - x)


@pytest.mark.parametrize("fn, lo, hi, vectorized, coarse, arg", [
    (lambda x: (x - 2.0) ** 2, -INF, INF, False, 121, 2.0),
    (_barrier, 0.0, 1.0, False, 81, 0.5),
    (_barrier, 0.0, 1.0, True, 121, 0.5),
    # on R the scan covers x in [-30, 30], so x = 100 is reached by bracket expansion
    (lambda x: (x - 100.0) ** 2, -INF, INF, False, 121, 100.0),
], ids=["unbounded", "bounded", "vectorized", "bracket-expansion"])
def test_evaluations_count_every_objective_point(fn, lo, hi, vectorized, coarse, arg):
    points = []

    def counted(x):
        points.append(np.size(x))
        return fn(x)

    res = minimize_1d(ScalarObjective(counted, lo, hi, vectorized), coarse=coarse)
    assert res.converged and abs(res.arg - arg) < 1e-6
    assert res.evaluations == sum(points)
    if vectorized:
        assert points[0] == coarse and set(points[1:]) == {1}


@pytest.mark.parametrize("lo, hi", [(-INF, INF), (1.0, INF), (-INF, 0.0), (1.0, 3.0)])
def test_scan_points_are_mapped_once_and_read_only(lo, hi):
    grid, xs = _scan_points(lo, hi, -30.0, 30.0, 121)
    to_x = _transform(lo, hi)
    assert grid.tolist() == np.linspace(-30.0, 30.0, 121).tolist()
    assert xs.tolist() == [to_x(s) for s in np.linspace(-30.0, 30.0, 121)]
    assert _scan_points(lo, hi, -30.0, 30.0, 121)[1] is xs  # mapped once
    with pytest.raises(ValueError, match="read-only"):
        xs[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        grid[0] = 0.0
