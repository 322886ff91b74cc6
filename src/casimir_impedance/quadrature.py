"""Quadrature and series summation tuned to exponentially damped modes.

Every integrand in this package decays like exp(-y) in the "radial" variable,
so semi-infinite ranges are cut at ``lower + y_cutoff_margin``: the neglected
tail is bounded by the envelope at exp(-margin) ~ 3e-20 of the retained part
for the default margin of 45.  All evaluation is vectorized and
deterministic, so identical inputs give identical results.

The y integrals from a lower bound run on one adaptive engine,
``_batch_adaptive``, which integrates a batch of independent 1-D integrals
(groups) at once.  Panels are laid out geometrically from each lower bound
(widths 0.5, 1, 2, 4, ...) and refined with a 15-point Kronrod extension of
7-point Gauss quadrature; the Gauss/Kronrod difference serves as the
per-panel error bound.  The per-group bookkeeping is array arithmetic over
the panels of all groups (bincount sums per sweep, one sort by group and
math.fsum for the final sums), and a group takes the refinement decisions it
would take alone.  The finite-temperature sums integrate one block of
Matsubara terms per engine call: ``sum_matsubara_primed`` asks its
``terms(ls)`` callable for blocks of 16, 32 and then 64 indices and applies
its stopping rule term by term, as if the terms came one at a time.

The T = 0 wedge 0 <= xi <= y < infinity is taken by ``integrate_xi_y`` with
one fixed double-exponential product rule (Takahasi and Mori, Publ. RIMS 9,
721 (1974)) instead: the integrands are smooth and decay exponentially, so
halving one trapezoid step reaches double precision in a few levels and
needs no adaptive bookkeeping.  Both rules evaluate at most ``_EVAL_MAX``
points per integrand call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from scipy import special

__all__ = [
    "QuadratureConfig",
    "QuadratureResult",
    "IntegrandError",
    "integrate_y_from",
    "integrate_xi_y",
    "sum_matsubara_primed",
    "log1mexp",
    "riemann_zeta",
    "dilog",
]

# Absolute floor below which an integral or sum is accepted as numerically zero.
_ABS_FLOOR = 1e-300

# Hard cap on refinement sweeps; the panel budget is the real limiter.
_MAX_ROUNDS = 200

# Roundoff floor: no subdivision can push the accumulated Gauss-Kronrod
# difference below this multiple of eps times the absolute integral.
_ROUNDOFF = 50.0 * np.finfo(float).eps

# A group is closed once this many panel splits failed to reduce its error.
_MAX_STALLS = 30

# Matsubara terms are evaluated in blocks of l, one engine call per block.
# Blocks double from the first size up to the cap; the cap bounds the memory
# of a block and the terms computed past the index where the sum stops.
_BLOCK_FIRST = 16
_BLOCK_MAX = 64

# Most integrand points evaluated in one call.  Larger batches (a block of
# Matsubara terms, a level of the wedge rule) are evaluated in chunks, which
# bounds the integrand's temporaries.
_EVAL_MAX = 16_384

# The wedge's double-exponential product rule: the first trapezoid step, the
# number of times it may halve, the smallest y, and the range of s, where the
# u weight at |s| = 3.15 has fallen below 1e-14.
_DE_H0 = 0.2
_DE_LEVELS = 5
_DE_Y_MIN = 1e-30
_DE_S_MAX = 3.15


class IntegrandError(RuntimeError):
    """An integrand returned a non-finite value; coordinates are attached."""

    def __init__(self, message: str, group: int = 0, x: float = 0.0):
        super().__init__(message)
        self.group = group
        self.x = x


@dataclass(frozen=True)
class QuadratureConfig:
    """Shared accuracy knobs for integrals and Matsubara sums.

    ``max_subdivisions`` bounds the panels of each adaptive y integral; the
    T = 0 wedge rule has a fixed level cap instead.  ``max_matsubara_terms``
    is a guard on a term-by-term sum: the finite-temperature observables
    switch to an Euler-Maclaurin tail long before a sum could reach it.
    """

    rel_tol: float = 1e-9
    y_cutoff_margin: float = 45.0
    max_subdivisions: int = 10_000
    max_matsubara_terms: int = 1_000_000
    series_tail_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol!r}")
        if not (self.y_cutoff_margin > 10.0):
            raise ValueError(
                f"y_cutoff_margin must exceed 10, got {self.y_cutoff_margin!r}"
            )
        if self.max_subdivisions < 16:
            raise ValueError("max_subdivisions must be at least 16")
        if self.max_matsubara_terms < 10:
            raise ValueError("max_matsubara_terms must be at least 10")
        if not (0.0 < self.series_tail_tol < 1.0):
            raise ValueError("series_tail_tol must lie in (0, 1)")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a quadrature together with its accounting.

    ``abs_error_estimate`` is an upper-bound style estimate; halving rel_tol
    never moves a converged value by more than the previously reported
    estimate.  ``converged`` is False when the panel or term budget ran out,
    in which case the best available value is still reported.
    """

    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool


# 15-point Kronrod extension of 7-point Gauss (QUADPACK dqk15 abscissae).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

# Full 15-node layout on [-1, 1]; Gauss nodes sit at the odd indices.
_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_WK15 = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_WG7 = np.zeros(15)
_WG7[1::2] = np.concatenate([_WG[:3], [_WG[3]], _WG[2::-1]])


def _initial_panels(
    lowers: np.ndarray, width: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Geometric initial panels on [lower, lower + width] for every lower bound.

    Edges sit at offsets 0, 0.5, 1.5, 3.5, ... from each lower bound (panel
    widths 0.5, 1, 2, ..., matched to exp(-x) integrand decay) while they stay
    inside the range, and at its upper end.  Returns the panels' (group
    index, lower edge, upper edge), grouped in order and ascending in x.
    """
    lowers = np.asarray(lowers, dtype=float)
    widths = (lowers + width) - lowers
    offsets = [0.0]
    step = 0.5
    while offsets[-1] + step < widths.max():
        offsets.append(offsets[-1] + step)
        step *= 2.0
    offsets = np.asarray(offsets)
    n = 1 + (offsets[None, 1:] < widths[:, None]).sum(axis=1)
    edges = lowers[:, None] + np.append(offsets, 0.0)
    edges[np.arange(lowers.size), n] = lowers + widths
    panel = np.arange(offsets.size) < n[:, None]
    return np.repeat(np.arange(lowers.size), n), edges[:, :-1][panel], edges[:, 1:][panel]


def _kronrod(vals: np.ndarray, halfw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Gauss-Kronrod rule applied to the node values of each panel.

    Each row is reduced on its own by an elementwise product and a row sum,
    so a panel's sums do not depend on the batch it sits in; a BLAS
    matrix-vector product rounds a row according to its position.
    """
    kron = halfw * (vals * _WK15).sum(axis=1)
    gauss = halfw * (vals * _WG7).sum(axis=1)
    resabs = halfw * (np.abs(vals) * _WK15).sum(axis=1)
    return kron, np.abs(kron - gauss), resabs


def _eval_panels(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    gidx: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kronrod value, Gauss-difference error, and |f| integral per panel.

    ``f`` is called on at most ``_EVAL_MAX`` points at a time, which bounds
    the integrand's temporaries; the rule is applied to the whole batch.
    """
    per_slice = _EVAL_MAX // _NODES.size
    center = 0.5 * (lo + hi)
    halfw = 0.5 * (hi - lo)
    vals = []
    for start in range(0, gidx.size, per_slice):
        part = slice(start, start + per_slice)
        x = center[part, None] + halfw[part, None] * _NODES[None, :]
        groups = np.broadcast_to(gidx[part, None], x.shape)
        with np.errstate(all="ignore"):
            v = np.asarray(f(groups.ravel(), x.ravel()), dtype=float).reshape(x.shape)
        bad = ~np.isfinite(v)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise IntegrandError(
                f"integrand returned non-finite value at x={x[i, j]!r}",
                group=int(gidx[start + i]),
                x=float(x[i, j]),
            )
        vals.append(v)
    return _kronrod(vals[0] if len(vals) == 1 else np.concatenate(vals), halfw)


def _target(value, resabs, rel_tol: float):
    """Error an integral must get under: rel_tol of its value, but never less
    than the roundoff of its absolute integral (or the absolute floor)."""
    return np.maximum(np.maximum(rel_tol * np.abs(value), _ROUNDOFF * resabs), _ABS_FLOOR)


def _batch_adaptive(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lowers: np.ndarray,
    width: float,
    rel_tol: float,
    max_panels: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Adaptive Gauss-Kronrod over a batch of 1-D integrals.

    Group g integrates over [lowers[g], lowers[g] + width]; ``f(group_index,
    x)`` must be vectorized.  Returns per-group (values, error bounds,
    evaluations, converged flags).  Every decision about a group reads only
    that group's panels, in an order the other groups do not affect, and the
    rule sums each panel on its own, so a group's results are bit for bit
    those it would get alone.
    """
    n_groups = len(lowers)
    gidx, lo, hi = _initial_panels(lowers, width)
    n_initial = np.bincount(gidx, minlength=n_groups)
    vals, errs, resabs = _eval_panels(f, gidx, lo, hi)
    # Groups whose splits repeatedly fail to shrink the error are noise
    # limited (integrand roundoff); they are closed rather than refined to
    # the panel budget.  Mirrors the QUADPACK iroff counters.
    stalls = np.zeros(n_groups, dtype=np.intp)

    for _ in range(_MAX_ROUNDS):
        g_val = np.bincount(gidx, weights=vals, minlength=n_groups)
        g_err = np.bincount(gidx, weights=errs, minlength=n_groups)
        g_abs = np.bincount(gidx, weights=resabs, minlength=n_groups)
        g_n = np.bincount(gidx, minlength=n_groups)
        target = _target(g_val, g_abs, rel_tol)
        open_groups = (g_err > target) & (g_n < max_panels) & (stalls < _MAX_STALLS)
        if not open_groups.any():
            break
        # Split every panel of an unconverged group holding more than its
        # fair share of that group's error budget.  This always includes the
        # worst panel: an open group's largest error is at least its mean,
        # g_err / g_n > target / g_n, twice the share.
        share = (target / (2.0 * g_n))[gidx]
        split = open_groups[gidx] & (errs > share)
        mid = 0.5 * (lo[split] + hi[split])
        new_g = np.concatenate([gidx[split], gidx[split]])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_vals, new_errs, new_resabs = _eval_panels(f, new_g, new_lo, new_hi)
        n_split = int(split.sum())
        child_err = new_errs[:n_split] + new_errs[n_split:]
        futile = child_err >= 0.99 * errs[split]
        stalls += np.bincount(gidx[split][futile], minlength=n_groups)
        keep = ~split
        gidx = np.concatenate([gidx[keep], new_g])
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
        resabs = np.concatenate([resabs[keep], new_resabs])

    # Final per-group reduction: one sort by group, then fsum over each
    # group's slice, which rounds once whatever the order of its panels.
    order = np.argsort(gidx, kind="stable")
    g_n = np.bincount(gidx, minlength=n_groups)
    ends = np.cumsum(g_n).tolist()
    starts = [0] + ends[:-1]

    def fsums(column: np.ndarray) -> np.ndarray:
        col = column[order].tolist()
        return np.array([math.fsum(col[s:e]) for s, e in zip(starts, ends)])

    g_val, g_err, g_abs = fsums(vals), fsums(errs), fsums(resabs)
    converged = g_err <= _target(g_val, g_abs, rel_tol)
    # Every split evaluates two children in place of one parent.
    evaluations = _NODES.size * (2 * g_n - n_initial)
    return g_val, g_err, evaluations, converged


def _integrate_y_batch(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lowers: np.ndarray,
    config: QuadratureConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Integrate f(group, y) over [lowers[group], infinity) for every group.

    One engine call for the whole batch.
    Returns per-group (values, error bounds including the truncated tail,
    evaluations, converged flags).
    """
    lowers = np.asarray(lowers, dtype=float)
    if np.any(lowers < 0.0):
        raise ValueError(f"lower bound must be >= 0, got {float(lowers.min())!r}")
    margin = config.y_cutoff_margin
    try:
        vals, errs, evals, conv = _batch_adaptive(
            f, lowers, margin, config.rel_tol, config.max_subdivisions
        )
    except IntegrandError as exc:
        raise IntegrandError(f"integrand returned non-finite value at y={exc.x!r}",
                             group=exc.group, x=exc.x) from None
    return vals, errs + np.abs(vals) * math.exp(-margin), evals, conv


def integrate_y_from(
    f: Callable[[np.ndarray], np.ndarray],
    lower: float,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Integrate an exponentially damped f over [lower, infinity).

    The range is truncated at lower + y_cutoff_margin; for integrands bounded
    by the exp(-y) envelope the dropped tail is below exp(-margin) of the
    result, which is added to the error estimate.
    """
    vals, errs, evals, conv = _integrate_y_batch(lambda _groups, y: f(y), [lower], config)
    return QuadratureResult(
        value=float(vals[0]),
        abs_error_estimate=float(errs[0]),
        evaluations=int(evals[0]),
        converged=bool(conv[0]),
    )


def _exp_sinh(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y = exp(pi/2 sinh t) and the wedge weight y * dy/dt = y^2 pi/2 cosh t."""
    y = np.exp(0.5 * math.pi * np.sinh(t))
    return y, 0.5 * math.pi * np.cosh(t) * y * y


def _tanh_sinh(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u = (1 + tanh(pi/2 sinh s)) / 2 on (0, 1) and du/ds = pi cosh s u (1 - u)."""
    v = math.pi * np.sinh(s)
    u = special.expit(v)
    return u, math.pi * np.cosh(s) * u * special.expit(-v)


def _trapezoid_nodes(h: float, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """The nodes k h in [lo, hi] and a mask of the odd k (new when h halves)."""
    k = np.arange(math.ceil(lo / h), math.floor(hi / h) + 1)
    return k * h, k % 2 == 1


def _product_sums(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    y: np.ndarray,
    wy: np.ndarray,
    u: np.ndarray,
    wu: np.ndarray,
) -> tuple[float, float]:
    """Sums of w f and w |f| over the product grid (y, xi = u y), with weights
    w = wy wu; ``f`` sees at most ``_EVAL_MAX`` points per call."""
    rows = max(1, _EVAL_MAX // u.size)
    total = total_abs = 0.0
    for start in range(0, y.size, rows):
        yy = y[start:start + rows, None]
        xi = u[None, :] * yy
        with np.errstate(all="ignore"):
            v = np.asarray(f(xi.ravel(), np.broadcast_to(yy, xi.shape).ravel()), dtype=float)
        v = v.reshape(xi.shape)
        bad = ~np.isfinite(v)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise IntegrandError(
                "integrand returned non-finite value at "
                f"(xi={xi[i, j]!r}, y={yy[i, 0]!r})",
                x=float(yy[i, 0]),
            )
        wv = (wy[start:start + rows, None] * wu[None, :]) * v
        total += float(wv.sum())
        total_abs += float(np.abs(wv).sum())
    return total, total_abs


def integrate_xi_y(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Integrate f(xi, y) over the wedge 0 <= xi <= y < infinity.

    With xi = u y the wedge is int_0^inf dy y int_0^1 du f(u y, y), taken by
    a double-exponential (Takahasi-Mori) product rule: trapezoid sums in t
    with y = exp(pi/2 sinh t), from y = 1e-30 up to twice y_cutoff_margin,
    and in s with u = (1 + tanh(pi/2 sinh s)) / 2.  The step starts at
    ``_DE_H0`` and halves, each level evaluating only its new odd nodes,
    until two levels differ by no more than rel_tol of the value (or the
    roundoff of its absolute integral).  That difference plus the
    exp(-y_cutoff_margin) tail bound is the reported error.  After
    ``_DE_LEVELS`` halvings the last level is returned unconverged.
    ``evaluations`` counts integrand points.
    """
    t_lo = math.asinh(2.0 / math.pi * math.log(_DE_Y_MIN))
    t_hi = math.asinh(2.0 / math.pi * math.log(2.0 * config.y_cutoff_margin))
    total = total_abs = 0.0
    evaluations = 0
    previous = math.inf
    for level in range(_DE_LEVELS + 1):
        h = _DE_H0 / 2**level
        t, t_new = _trapezoid_nodes(h, t_lo, t_hi)
        s, s_new = _trapezoid_nodes(h, -_DE_S_MAX, _DE_S_MAX)
        (y, wy), (u, wu) = _exp_sinh(t), _tanh_sinh(s)
        if level == 0:
            blocks = [(y, wy, u, wu)]
        else:
            # The new nodes: odd t against every s, even t against odd s.
            blocks = [
                (y[t_new], wy[t_new], u, wu),
                (y[~t_new], wy[~t_new], u[s_new], wu[s_new]),
            ]
        for block in blocks:
            part, part_abs = _product_sums(f, *block)
            total += part
            total_abs += part_abs
            evaluations += block[0].size * block[2].size
        value = h * h * total
        error = abs(value - previous)
        converged = bool(error <= _target(value, h * h * total_abs, config.rel_tol))
        if converged:
            break
        previous = value
    return QuadratureResult(
        value=value,
        abs_error_estimate=error + abs(value) * math.exp(-config.y_cutoff_margin),
        evaluations=evaluations,
        converged=converged,
    )


def _blocks(
    terms: Callable[[np.ndarray], np.ndarray], n: int
) -> Iterator[tuple[int, float]]:
    """(l, terms(l)) for l = 0 .. n - 1, evaluated in doubling blocks of l."""
    start, size = 0, _BLOCK_FIRST
    while start < n:
        ls = np.arange(start, min(start + size, n))
        values = np.asarray(terms(ls), dtype=float)
        if values.shape != ls.shape:
            raise ValueError(
                f"terms(ls) must return one value per l: got shape {values.shape} "
                f"for {ls.size} indices"
            )
        yield from zip(ls.tolist(), values.tolist())
        start += ls.size
        size = min(2 * size, _BLOCK_MAX)


def sum_matsubara_primed(
    terms: Callable[[np.ndarray], np.ndarray],
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Sum the terms t_l for l = 0, 1, 2, ... with t_0 at half weight.

    ``terms(ls)`` returns t_l for an integer array of indices; it is called
    on consecutive blocks of l that double in size up to a fixed cap, so an
    integral per term becomes one batched engine call per block.  Truncation
    relies on the geometric decay of Matsubara terms and reads the terms one
    by one in order: once the running ratio of consecutive magnitudes is
    below 1, the remaining tail is estimated as t_l * r / (1 - r) and the sum
    stops when that falls under series_tail_tol of the accumulated value.
    Terms of the last block past the stopping index are discarded, and
    ``evaluations`` counts the terms summed.
    """
    seq = _blocks(terms, config.max_matsubara_terms + 1)
    summed = [0.5 * next(seq)[1]]
    # Upper bound on |sum|, so the exact sum is taken only where the stop
    # test could pass; the factor covers the rounding of the running total.
    abs_sum = abs(summed[0])
    prev = 0.0
    tail = math.inf
    converged = False
    zeros_in_row = 0
    for l, t_l in seq:
        summed.append(t_l)
        mag = abs(t_l)
        abs_sum += mag
        if mag == 0.0:
            zeros_in_row += 1
            if zeros_in_row >= 2:
                tail = 0.0
                converged = True
                break
            prev = 0.0
            continue
        zeros_in_row = 0
        if l >= 3 and prev > 0.0:
            r = mag / prev
            if r < 1.0:
                tail = mag * r / (1.0 - r)
                bound = config.series_tail_tol * abs_sum * (1.0 + 1e-9)
                if tail <= max(bound, _ABS_FLOOR) and tail <= max(
                    config.series_tail_tol * abs(math.fsum(summed)), _ABS_FLOOR
                ):
                    converged = True
                    break
        prev = mag
    value = math.fsum(summed)
    return QuadratureResult(
        value=value,
        abs_error_estimate=float(tail) if math.isfinite(tail) else abs(value),
        evaluations=len(summed),
        converged=converged,
    )


def log1mexp(y):
    """ln(1 - exp(-y)) for y > 0, accurate over the whole range.

    Near y = 0 the difference 1 - e^-y must come from expm1; for large y the
    logarithm of a number near 1 must come from log1p, otherwise the result
    carries an absolute eps-level noise that adaptive quadrature can neither
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


def riemann_zeta(s: float) -> float:
    """Riemann zeta for real s > 1 (the only range the physics needs)."""
    if not (s > 1.0):
        raise ValueError(f"riemann_zeta requires s > 1, got {s!r}")
    return float(special.zeta(s))


def dilog(x):
    """Dilogarithm Li_2(x) = -int_0^x ln(1-u)/u du on the interval [0, 1]."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("dilog is restricted to 0 <= x <= 1")
    out = special.spence(1.0 - x)
    return float(out) if out.ndim == 0 else out
