"""Quadrature tuned to exponentially damped modes.

Every integrand in this package decays like exp(-y) in the "radial" variable,
so semi-infinite ranges end at ``lower + 2 _Y_MARGIN`` (= 90) and every error
estimate adds exp(-_Y_MARGIN) ~ 3e-20 of the value, a bound on the neglected
tail.  ``QuadratureConfig.rel_tol`` is the one accuracy setting; the margin
is fixed.  All
evaluation is vectorized and deterministic, so identical inputs give
identical results.

Both reductions use double-exponential rules (Takahasi and Mori, Publ. RIMS
9, 721 (1974)): the integrands are smooth and decay exponentially, so halving
one trapezoid step reaches double precision in a few levels and needs no
adaptive bookkeeping.  The y rule stops when two levels differ by no more
than rel_tol of the value; the wedge rule, once its level differences
shrink, when their geometric tail does.  After ``_DE_LEVELS`` halvings of
``_DE_H0`` a rule returns its last level unconverged.  Each rule evaluates
at most ``_EVAL_MAX`` points per integrand call, however many components
the integrand returns at each point.

Both rules call their integrand as f(xi, y) on arrays that broadcast to
the points they evaluate, so a factor that depends on xi or on y alone is
computed once per row or column, not once per point.  The result may have
any shape that broadcasts to the points; each point is checked, and a
non-finite value is rejected at its (xi, y).  It may also be a tuple of
such arrays, components that share the points: each integral of a
component keeps its own sums and stop test and is frozen once it has
converged (no longer checked, summed or counted), so it gets bit for bit
the result it would get alone, and the rule returns one result per
component.  The y integrals from a lower bound,
int_lower^inf dy f(lower, y), take an exp-sinh rule on
y = lower + exp(pi/2 sinh t) for a batch of lower bounds at once, with xi
a column of each integral's lower bound and y one row of nodes per
integral; an integral's sums are row sums over its own nodes.

The wedge lower <= xi <= y < infinity is taken by ``integrate_xi_y`` with
the product of the same exp-sinh rule in y, from x = y - lower = 1e-8 up,
and a tanh-sinh rule in u = (xi - lower) / (y - lower); it passes y as a
column, one value per row of xi.  Its first pass is one integrand call on
12,375 points.  The node tables of both rules are built once per level and
shared, read-only, by every call; so are the points xi = u y of the
wedge's first pass, which its integrand gets at lower = 0.  The special
functions need numpy alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureConfig",
    "QuadratureResult",
    "IntegrandError",
    "integrate_xi_y",
    "log1mexp",
    "dilog",
]

# Absolute floor below which an integral or sum is accepted as numerically zero.
_ABS_FLOOR = 1e-300

# Roundoff floor: no refinement can push the difference of two levels below
# this multiple of eps times the absolute integral.  A Python float, so the
# results it bounds stay Python floats.
_ROUNDOFF = 50.0 * float(np.finfo(float).eps)

# Semi-infinite y ranges end at lower + 2 _Y_MARGIN; for integrands bounded by
# the exp(-y) envelope the dropped tail is below exp(-_Y_MARGIN) of the result.
_Y_MARGIN = 45.0

# Most integrand points evaluated in one call.  Larger batches (the
# Matsubara terms of a sum, a level of a rule) are evaluated in chunks,
# which bounds the integrand's temporaries.
_EVAL_MAX = 16_384

# The double-exponential rules: the first trapezoid step, the number of times
# it may halve, the wedge's range of s, where the u weight at |s| = 3.15 has
# fallen below 1e-14, and the exp-sinh range of t, where x = exp(pi/2 sinh t)
# runs from 1e-30 above the lower bound to 2 _Y_MARGIN.  The wedge starts
# its t range at x = 1e-8 instead: its measure x dx bounds the corner
# x < 1e-8 by 5e-17 max|f|, and the nodes there were a fifth of its points.
_DE_H0 = 0.2
_DE_LEVELS = 5
_DE_S_MAX = 3.15
_DE_T_LO, _WEDGE_T_LO, _DE_T_HI = (
    math.asinh(2.0 / math.pi * math.log(x)) for x in (1e-30, 1e-8, 2.0 * _Y_MARGIN)
)

# dilog sums its power series to _DILOG_TERMS terms, where at x = 1/2 the
# next term is below 4e-19 of the sum.
_DILOG_TERMS = 50

# zeta(s), correctly rounded, at the four arguments the closed forms need:
# the ideal thermal series (3), the normal-skin coefficient (7/2) and the
# thermal expansions and series coefficients (3, 4, 5).  pi**4 / 90 is one
# ulp below zeta(4).
_ZETA_3 = 1.2020569031595942
_ZETA_7_2 = 1.1267338673170566
_ZETA_4 = 1.0823232337111381
_ZETA_5 = 1.03692775514337


class IntegrandError(RuntimeError):
    """An integrand returned a non-finite value; the message names its (xi, y)."""


@dataclass(frozen=True)
class QuadratureConfig:
    """The accuracy setting of every integral: relative tolerance rel_tol."""

    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol!r}")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a quadrature together with its accounting.

    ``abs_error_estimate`` is an upper-bound style estimate: the last level
    difference of a rule, or for the wedge the geometric tail of its
    shrinking differences, plus the truncated range.  A Matsubara sum adds
    the estimates of its terms to its truncation: the ideal metal's bound
    on the terms it left out, or the remainder of its Euler-Maclaurin tail.
    Tightening rel_tol never moves a converged value by more than the
    previously reported estimate.  ``converged`` is False when the level cap
    ran out or a sum's truncation missed its target, in which case the best
    available value is still reported.
    """

    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool


def _target(value, resabs, rel_tol: float):
    """Error an integral must get under: rel_tol of its value, but never less
    than the roundoff of its absolute integral (or the absolute floor)."""
    return np.maximum(np.maximum(rel_tol * np.abs(value), _ROUNDOFF * resabs), _ABS_FLOOR)


def _exp_sinh(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x = exp(pi/2 sinh t) and dx/dt = pi/2 cosh t x."""
    x = np.exp(0.5 * math.pi * np.sinh(t))
    return x, 0.5 * math.pi * np.cosh(t) * x


def _tanh_sinh(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u = (1 + tanh(pi/2 sinh s)) / 2 on (0, 1) and du/ds = pi cosh s u (1 - u)."""
    v = math.pi * np.sinh(s)
    u = 1.0 / (1.0 + np.exp(-v))
    return u, math.pi * np.cosh(s) * u / (1.0 + np.exp(v))


def _level_ordered(
    h: float, lo: float, hi: float, level: int
) -> tuple[np.ndarray, np.ndarray]:
    """The nodes k h in [lo, hi], those of the steps h 2**level, ..., 2 h, h
    in turn, and how many there are at each of these steps."""
    k = np.arange(math.ceil(lo / h), math.floor(hi / h) + 1)
    first = np.full(k.size, level)
    for j in range(1, level + 1):
        first[k % 2**j == 0] = level - j
    return k[np.argsort(first, kind="stable")] * h, np.cumsum(np.bincount(first))


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only so that a cached node table stays intact."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _evaluate(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray | tuple[np.ndarray, ...]],
    xi: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    keep: list[int] | None = None,
) -> tuple[list[np.ndarray], bool]:
    """w f(xi, y) on the rows of the grid that xi, y and the weights w
    broadcast to, one array per component, and whether f returns a tuple of
    them rather than one array; of a tuple, those at the indices ``keep``
    (all when None).  ``f`` gets a block of rows, at most ``_EVAL_MAX``
    points, per call.  A non-finite value raises an IntegrandError that
    names its (xi, y); a component is searched only if its sum is not
    finite, as any NaN or inf makes it."""
    n_rows, n_cols = np.broadcast_shapes(xi.shape, y.shape, w.shape)
    rows = max(1, _EVAL_MAX // n_cols)
    parts = []
    for start in range(0, n_rows, rows):
        # An operand with one entry per row is sliced; a row or a scalar broadcasts.
        xs, ys, ws = (
            a[start:start + rows] if a.ndim == 2 and len(a) > 1 else a for a in (xi, y, w)
        )
        shape = np.broadcast_shapes(xs.shape, ys.shape)
        with np.errstate(all="ignore"):
            out = f(xs, ys)
        many = isinstance(out, tuple)
        if not many:
            out = (out,)
        elif keep is not None:
            out = [out[i] for i in keep]
        parts.append([])
        for v in out:
            v = np.asarray(v, dtype=float)
            if not math.isfinite(v.sum()) and not np.isfinite(v).all():
                bad = ~np.isfinite(np.broadcast_to(v, shape))
                at_xi, at_y = (float(np.broadcast_to(p, shape)[bad][0]) for p in (xs, ys))
                message = f"integrand returned non-finite value at (xi={at_xi!r}, y={at_y!r})"
                raise IntegrandError(message)
            parts[-1].append(ws * np.broadcast_to(v, shape))
    return [p[0] if len(parts) == 1 else np.concatenate(p) for p in zip(*parts)], many


@functools.cache
def _y_nodes(level: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The exp-sinh nodes the y rule evaluates at step ``_DE_H0`` / 2**level:
    x, the weights dx/dt (both read-only) and how many lead that belong to
    the step before.  Level 2 is the first pass, every node with those of
    the step before first; a later level holds its new nodes."""
    t, counts = _level_ordered(_DE_H0 / 2**level, _DE_T_LO, _DE_T_HI, 1)
    if level > 2:
        return (*_frozen(*_exp_sinh(t[counts[0]:])), 0)
    x, w = _frozen(*_exp_sinh(t))
    return x, w, int(counts[0])


def _integrate_y_batch(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray | tuple[np.ndarray, ...]],
    lowers: np.ndarray,
    config: QuadratureConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Integrate f(lower, y) over [lower, infinity) for every lower bound.

    ``f(xi, y)`` is called with xi a column of the lower bounds and y one
    row of nodes per integral.  An exp-sinh rule, y = lower + exp(pi/2 sinh t),
    from 1e-30 above the lower bound, where the integrand is finite, with the
    wedge rule's level cap.  The first pass
    evaluates every node at step ``_DE_H0`` / 4 in one integrand call and
    compares that sum with the sum over its own even nodes (step
    ``_DE_H0`` / 2); each later level adds the odd nodes of the halved step
    for the integrals still open.  A tuple ``f`` has one integral per
    component and lower bound.  An integral's sums are row sums over its
    own nodes, and once converged it is no longer checked, summed or
    counted, so its results are bit for bit those it would get alone.
    Returns (values, error bounds including the truncated tail,
    evaluations, converged flags), one entry per lower bound; of a tuple
    ``f``, one contiguous row per component.
    """
    lowers = np.asarray(lowers, dtype=float)
    if np.any(lowers < 0.0):
        raise ValueError(f"lower bound must be >= 0, got {float(lowers.min())!r}")
    # Even nodes first, so each sum runs over a contiguous slice of a row.
    x, w, n_even = _y_nodes(2)
    values, many = _evaluate(f, lowers[:, None], lowers[:, None] + x, w)
    wv = values[0] if len(values) == 1 else np.concatenate(values)
    # Integral i is component i // lowers.size at lower bound i % lowers.size.
    even, new = wv[:, :n_even], wv[:, n_even:]
    total, total_abs = even.sum(axis=1), np.abs(even, out=even).sum(axis=1)
    previous = _DE_H0 / 2 * total
    active = np.arange(total.size)
    evaluations = np.full(total.size, x.size)
    value, error = np.empty(total.size), np.empty(total.size)
    converged = np.zeros(total.size, dtype=bool)
    for level in range(2, _DE_LEVELS + 1):
        h = _DE_H0 / 2**level
        if level > 2:
            x, w, _ = _y_nodes(level)
            (keep, c), (rows, r) = (
                np.unique(i, return_inverse=True) for i in np.divmod(active, lowers.size)
            )
            values, _ = _evaluate(f, lowers[rows, None], lowers[rows, None] + x, w, keep.tolist())
            new = np.concatenate(values)[c * rows.size + r]
            evaluations[active] += new.shape[1]
        total[active] += new.sum(axis=1)
        total_abs[active] += np.abs(new, out=new).sum(axis=1)
        v = h * total[active]
        value[active] = v
        error[active] = np.abs(v - previous[active])
        done = error[active] <= _target(v, h * total_abs[active], config.rel_tol)
        converged[active] = done
        previous[active] = v
        active = active[~done]
        if active.size == 0:
            break
    out = value, error + np.abs(value) * math.exp(-_Y_MARGIN), evaluations, converged
    return tuple(col.reshape(-1, lowers.size) if many else col for col in out)


@functools.cache
def _wedge_table(
    level: int, t_lo: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The wedge rule's nodes at step h = ``_DE_H0`` / 2**level, read-only:
    t from ``t_lo`` up and s, each ordered by the level at which a node
    first appears.  Returns the rows y, the columns u, the weights
    W = (y dy/dt) (du/ds) and, for each level 0 .. ``level``, how many rows
    and columns it has: every coarser level is a leading block of the
    table."""
    h = _DE_H0 / 2**level
    (t, rows), (s, cols) = (
        _level_ordered(h, lo, hi, level)
        for lo, hi in ((t_lo, _DE_T_HI), (-_DE_S_MAX, _DE_S_MAX))
    )
    (y, dy), (u, du) = _exp_sinh(t), _tanh_sinh(s)
    return _frozen(y, u, (y * dy)[:, None] * du, rows, cols)


@functools.cache
def _first_pass_points(t_lo: float) -> np.ndarray:
    """xi = u y on the wedge's first pass, ``_wedge_table(2, t_lo)``, rows
    by columns and read-only: every wedge call evaluates it."""
    y, u, *_ = _wedge_table(2, t_lo)
    return _frozen(u * y[:, None])[0]


def _wedge_values(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray | tuple[np.ndarray, ...]],
    y: np.ndarray,
    u: np.ndarray,
    w: np.ndarray,
    lower: float,
    keep: list[int] | None = None,
    xi: np.ndarray | None = None,
) -> tuple[list[np.ndarray], bool]:
    """w f(lower + u y, lower + y) on the rows y and the columns u, as
    ``_evaluate`` gives them, with u y read from ``xi`` if given; ``f``
    gets y as a column, one value per row of xi (read-only slices of that
    ``xi`` at lower = 0)."""
    yy = y[:, None]
    xx = u * yy if xi is None else xi
    if lower != 0.0:
        # Only when shifted: an unconditional add slows the T = 0 wedge.
        xx, yy = xx + lower, yy + lower
    return _evaluate(f, xx, yy, w, keep)


class _Results(tuple):
    """The per-component results of one wedge call, in order, with the
    call's own accounting: the points it evaluated and whether every
    component converged."""

    evaluations = property(lambda self: max(r.evaluations for r in self))
    converged = property(lambda self: all(r.converged for r in self))


def integrate_xi_y(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray | tuple[np.ndarray, ...]],
    config: QuadratureConfig = DEFAULT_CONFIG,
    lower: float = 0.0,
) -> QuadratureResult | tuple[QuadratureResult, ...]:
    """Integrate f(xi, y) over the wedge lower <= xi <= y < infinity.

    With xi = lower + u x and y = lower + x the wedge is
    int_0^inf dx x int_0^1 du f(lower + u x, lower + x), taken by a
    double-exponential (Takahasi-Mori) product rule: trapezoid sums in t
    with x = exp(pi/2 sinh t), from x = 1e-8 up to 2 ``_Y_MARGIN``, and in s
    with u = (1 + tanh(pi/2 sinh s)) / 2, both at step
    h = ``_DE_H0`` / 2**k at level k.  The measure x dx bounds the corner
    x < 1e-8 by 5e-17 max|f|.  ``f`` gets xi as rows of nodes and y as a
    column, one value per row, and must not write into them: xi may be
    read-only.  The first pass evaluates level 2, 12,375
    points, in one integrand call and takes T_0, T_1 and T_2 as sums over
    leading blocks of its node table; a later level evaluates only its new
    nodes, the new rows against every column and the old rows against the
    new columns.
    The error of level k is estimated from the differences
    d_k = |T_k - T_(k-1)|: once they shrink, r = d_k / d_(k-1) < 1, by
    their geometric tail d_k r / (1 - r), which is conservative for a
    doubly exponential rule, otherwise by d_k; never below the roundoff of
    the absolute integral.  Both steps halve together, so the T_k see a
    boundary layer in u as well as one in y.  The rule stops when the
    estimate is at most rel_tol of the value (or that roundoff) and reports
    it plus the exp(-_Y_MARGIN) tail bound.  So a plasma force that is
    exact at 12,375 points stops there, though that level still differs
    from the one before by about rel_tol.  After ``_DE_LEVELS`` halvings
    the last level is returned unconverged.  ``evaluations`` counts
    integrand points.

    An ``f`` that returns a tuple of arrays gets a tuple of results.  Each
    component has its own level sums and stop test and, once converged, is
    no longer checked, summed or counted: it gets the bits it gets alone.
    """
    y, u, w, rows, cols = _wedge_table(2, _WEDGE_T_LO)
    first, many = _wedge_values(f, y, u, w, lower, xi=_first_pass_points(_WEDGE_T_LO))
    # Per component: total, absolute total, points and the levels T_k.
    sums = []
    for wf in first:
        levels = [(_DE_H0 / 2**k) ** 2 * float(wf[:rows[k], :cols[k]].sum()) for k in (0, 1)]
        sums.append([float(wf.sum()), float(np.abs(wf, out=wf).sum()), wf.size, levels])
    results: list[QuadratureResult | None] = [None] * len(first)
    open_ = list(range(len(first)))
    for level in range(2, _DE_LEVELS + 1):
        if level > 2:
            y, u, w, rows, cols = _wedge_table(level, _WEDGE_T_LO)
            old, old_cols = rows[-2], cols[-2]
            for block, _ in (
                _wedge_values(f, y[old:], u, w[old:], lower, open_),
                _wedge_values(f, y[:old], u[old_cols:], w[:old, old_cols:], lower, open_),
            ):
                for i, new in zip(open_, block):
                    sums[i][0] += float(new.sum())
                    sums[i][1] += float(np.abs(new, out=new).sum())
                    sums[i][2] += new.size
        h = _DE_H0 / 2**level
        for i in open_:
            total, total_abs, evaluations, levels = sums[i]
            value, resabs = h * h * total, h * h * total_abs
            levels.append(value)
            error = d = abs(value - levels[-2])
            diff = abs(levels[-2] - levels[-3])
            if d < diff:
                # Differences shrinking by r bound the rest of the sequence by a
                # geometric tail.
                r = d / diff
                error = d * r / (1.0 - r)
            # No estimate is smaller than the roundoff of the sum.
            error = max(error, _ROUNDOFF * resabs)
            converged = bool(error <= _target(value, resabs, config.rel_tol))
            if converged or level == _DE_LEVELS:
                results[i] = QuadratureResult(
                    value=value,
                    abs_error_estimate=error + abs(value) * math.exp(-_Y_MARGIN),
                    evaluations=evaluations,
                    converged=converged,
                )
        open_ = [i for i in open_ if results[i] is None]
        if not open_:
            break
    return _Results(results) if many else results[0]


def log1mexp(y):
    """ln(1 - exp(-y)) for y > 0, accurate over the whole range.

    Near y = 0 the difference 1 - e^-y must come from expm1; for large y the
    logarithm of a number near 1 must come from log1p, otherwise the result
    carries an absolute eps-level noise that quadrature can neither
    integrate nor average away.  The crossover at ln 2 keeps both branches in
    their accurate regime.
    """
    y = np.asarray(y, dtype=float)
    small = y <= math.log(2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            small,
            np.log(-np.expm1(-np.where(small, y, 1.0))),
            np.log1p(-np.exp(-np.where(small, 1.0, y))),
        )
    return float(out) if out.ndim == 0 else out


def dilog(x):
    """Dilogarithm Li_2(x) = -int_0^x ln(1-u)/u du on the interval [0, 1].

    The power series sum_k x^k / k^2 up to x = 1/2, above it the reflection
    Li_2(x) = pi^2/6 - ln(x) ln(1 - x) - Li_2(1 - x); within 8.5e-16 of the
    exact value on [0, 1].
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("dilog is restricted to 0 <= x <= 1")
    reflect = x > 0.5
    z = np.where(reflect, 1.0 - x, x)
    # Horner's rule, on a Python float when x is a scalar.
    zk = z.item() if z.ndim == 0 else z
    series = 0.0
    for k in range(_DILOG_TERMS, 0, -1):
        series = zk * (1.0 / (k * k) + series)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(x) * np.log(np.where(z > 0.0, z, 1.0))
    out = np.where(reflect, math.pi**2 / 6.0 - logs - series, series)
    return float(out) if out.ndim == 0 else out
