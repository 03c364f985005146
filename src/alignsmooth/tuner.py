"""Scale-factor search: grid bracketing plus derivative-free refinement.

The search evaluates the objective on a log-spaced grid (always including
0, the unsmoothed baseline), brackets the best point with its neighbors,
and refines inside the bracket with Brent's method (golden-section steps
combined with successive parabolic interpolation).  The reported optimum
is the best point ever evaluated, so the tuned result can never score
worse on the development data than the baseline.

Discrete objectives such as the raw error count are piecewise constant in
lambda; the refinement then stops inside a flat gap and simply returns a
point of it.  That behavior is intentional and is why the smoothed error
count exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import TuningError
from .objectives import DevSet, Objective
# tune never trains; the name stays bound because bench/test_bench.py checks
# that the tracing hooks rebind ``tuner.train`` and restore it
from .trainer import train  # noqa: F401

# (3 - sqrt(5)) / 2, the golden-section step fraction
_GOLDEN = 0.3819660112501051

DEFAULT_GRID: tuple[float, ...] = (0.0,) + tuple(10.0 ** (k / 4.0) for k in range(-16, 17))


@dataclass(frozen=True)
class TuneConfig:
    grid: tuple[float, ...] = DEFAULT_GRID
    tolerance: float = 1e-4
    max_refine_evals: int = 100

    def __post_init__(self):
        if not all(0.0 <= x < math.inf for x in self.grid):
            raise ValueError(f"grid candidates must be finite and non-negative, got {self.grid!r}")
        if len(set(self.grid) | {0.0}) < 3:
            raise ValueError(f"grid needs at least 3 points once 0 is added, got {self.grid!r}")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance!r}")
        if type(self.max_refine_evals) is not int or self.max_refine_evals < 0:
            raise ValueError(f"max_refine_evals must be a non-negative integer, got {self.max_refine_evals!r}")


class TuneResult(NamedTuple):
    lambda_star: float
    objective_value: float
    evaluations: tuple[tuple[float, float], ...]


def grid_bracket(f, grid) -> tuple[float, float, float]:
    """Evaluate f on the whole grid and bracket its smallest value.

    Returns (lo, mid, hi) with mid the first grid point of smallest value,
    NaN skipped.  If mid is an endpoint the bracket degenerates on that side
    (lo == mid or mid == hi) and refinement will return mid unchanged.
    """
    grid = list(grid)
    if len(grid) < 3:
        raise ValueError("grid needs at least 3 points")
    values = [f(x) for x in grid]
    finite = (i for i, v in enumerate(values) if not math.isnan(v))
    best = min(finite, key=values.__getitem__, default=None)
    if best is None or math.isinf(values[best]):
        raise TuningError("objective is not finite anywhere on the grid")
    return grid[max(best - 1, 0)], grid[best], grid[min(best + 1, len(grid) - 1)]


def brent_minimize(f, bracket, tolerance: float = 1e-4, max_evals: int = 100) -> tuple[float, float]:
    """Minimize f inside a bracket without derivatives (Brent's method).

    The bracket mid point must be strictly better than both ends;
    otherwise (including degenerate brackets) mid is returned unrefined.
    Stops once the enclosing interval shrinks below the tolerance or the
    evaluation budget runs out.  A non-finite value at a new interior
    point raises TuningError naming the offending lambda.
    """
    lo, mid, hi = bracket
    if not lo <= mid <= hi:
        raise ValueError(f"invalid bracket {bracket}")
    evals = 0

    def checked(x: float) -> float:
        nonlocal evals
        evals += 1
        v = f(x)
        if math.isnan(v) or math.isinf(v):
            raise TuningError(f"objective returned non-finite value at lambda={x!r}", lam=x)
        return v

    if lo == mid or mid == hi:
        return mid, checked(mid)
    fmid = checked(mid)
    flo, fhi = f(lo), f(hi)
    evals += 2
    if not (fmid < flo and fmid < fhi):
        return mid, fmid

    a, b = lo, hi
    x = w = v = mid
    fx = fw = fv = fmid
    d = e = 0.0
    while evals < max_evals:
        xm = 0.5 * (a + b)
        tol1 = tolerance
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            break
        if abs(e) > tol1:
            # try a parabola through (x, fx), (w, fw), (v, fv)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            etemp = e
            e = d
            if abs(p) >= abs(0.5 * q * etemp) or p <= q * (a - x) or p >= q * (b - x):
                # parabola rejected: golden-section step into the larger side
                e = b - x if x < xm else a - x
                d = _GOLDEN * e
            else:
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = math.copysign(tol1, xm - x)
        else:
            e = b - x if x < xm else a - x
            d = _GOLDEN * e
        u = x + d if abs(d) >= tol1 else x + math.copysign(tol1, d)
        fu = checked(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def search_scale(f, grid, maximize: bool = False, tolerance: float = 1e-4,
                 max_refine_evals: int = 100) -> TuneResult:
    """Grid sweep plus refinement over the grid's distinct points, ascending; returns the TuneResult.

    Every evaluation of f is memoized, and negated once when maximizing, so
    the grid and the refinement both minimize.  The winner is the first
    smallest of those values in lambda order, NaN skipped (ties resolve
    toward the smallest lambda); its value and the trace are as f returned.
    """
    cache: dict[float, float] = {}

    def signed(x: float) -> float:
        if x not in cache:
            cache[x] = f(x)
        return -cache[x] if maximize else cache[x]

    brent_minimize(signed, grid_bracket(signed, sorted(set(grid))), tolerance, max_refine_evals)
    trace = tuple(sorted(cache.items()))
    best = min((lam for lam, value in trace if not math.isnan(value)), key=signed)
    return TuneResult(best, cache[best], trace)


def tune(retrain, dev: DevSet, objective: Objective, tune_config: TuneConfig | None = None) -> TuneResult:
    """Pick the scale lambda optimizing the objective on development data.

    ``retrain(lam)`` returns the table trained at lambda, such as
    ``lambda lam: train(corpus, replace(config, lam=lam), session).table``
    over one ``TrainingSession``; ``tune`` scores it on ``dev`` and asks
    for each distinct candidate once.  Lambda = 0 is always among the
    candidates, so the tuned result is never worse on the development
    data than the unsmoothed baseline.  The caller owns training: its
    corpus, adding strategy, session and any memo of tables.
    """
    tune_config = tune_config or TuneConfig()
    if objective.requires_annotation:
        dev.gold_pairs()  # refuses a set without gold before the first retrain
    return search_scale(
        lambda lam: objective.evaluate(dev, retrain(lam)), (0.0, *tune_config.grid), objective.maximize,
        tune_config.tolerance, tune_config.max_refine_evals,
    )
