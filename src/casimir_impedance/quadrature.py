"""Adaptive quadrature and series summation tuned to exponentially damped modes.

Every integrand in this package decays like exp(-y) in the "radial" variable
and like exp(-xi) after the inner integration, so semi-infinite ranges are cut
at ``lower + y_cutoff_margin``: the neglected tail is bounded by the envelope
at exp(-margin) ~ 3e-20 of the retained part for the default margin of 45.
Panels are laid out geometrically from the lower bound (widths 0.5, 1, 2,
4, ...) and refined adaptively with a 15-point Kronrod extension of 7-point
Gauss quadrature; the Gauss/Kronrod difference serves as the per-panel error
bound.  All evaluation is vectorized and deterministic, and final sums are
rounded once through math.fsum, so identical inputs give identical results.

One engine, ``_batch_adaptive``, integrates a batch of independent 1-D
integrals (groups) at once.  Its per-group bookkeeping is array arithmetic
over the panels of all groups (bincount sums per sweep, one sort by group for
the final sums), with no Python loop over groups and panels, and a group
takes the refinement decisions it would take alone.  The y-integrals from an
array of lower bounds go through it in one call: the inner integrals of each
outer sweep of a wedge, and one block of Matsubara terms at a time in the
finite-temperature sums, whose ``terms(ls)`` callables take an array of
indices.  ``sum_matsubara_primed`` asks for blocks of 16, 32 and then 64
indices and applies its stopping rule term by term, as if the terms came one
at a time.

``_integrate_xi_y_batch`` runs many wedge integrals (one per separation of a
grid) as the groups of one outer engine call; each outer sweep integrates the
inner y-integrals of all groups' new nodes in one batch, and
``integrate_xi_y`` is its one-group case.  The rule's sums are BLAS matrix
products, whose rounding of a row depends on its position in the matrix, so
the engine takes them per separation: a wedge in a batch gets exactly the
bits of the same wedge computed alone.  Panel batches above ``_EVAL_MAX``
points are evaluated in chunks of whole separations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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

# Most integrand points evaluated in one call.  Larger panel batches (the
# inner integrals of a whole separation grid) are evaluated in chunks, which
# bounds the integrand's temporaries; the sweeps of a single wedge stay below
# it (at most 11,025 points on the benchmark's inputs).
_EVAL_MAX = 16_384


class IntegrandError(RuntimeError):
    """An integrand returned a non-finite value; coordinates are attached."""

    def __init__(self, message: str, group: int = 0, x: float = 0.0):
        super().__init__(message)
        self.group = group
        self.x = x


@dataclass(frozen=True)
class QuadratureConfig:
    """Shared accuracy knobs for integrals and Matsubara sums."""

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


def _kronrod(
    vals: np.ndarray, halfw: np.ndarray, carried: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Gauss-Kronrod rule applied to the node values of each panel."""
    kron = halfw * (vals @ _WK15)
    gauss = halfw * (vals @ _WG7)
    resabs = halfw * (np.abs(vals) @ _WK15)
    err = np.abs(kron - gauss)
    if carried is not None:
        err = err + halfw * (carried @ _WK15)
    return kron, err, resabs


def _node_values(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    gidx: np.ndarray,
    center: np.ndarray,
    halfw: np.ndarray,
    per_slice: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """f at the 15 nodes of every panel, at most per_slice panels per call.

    Returns the values and, when ``f`` returns ``(values, carried_errors)``,
    the carried errors, both shaped (panels, nodes).
    """
    vals, carried = [], []
    for start in range(0, gidx.size, per_slice):
        part = slice(start, start + per_slice)
        x = center[part, None] + halfw[part, None] * _NODES[None, :]
        groups = np.broadcast_to(gidx[part, None], x.shape)
        with np.errstate(all="ignore"):
            out = f(groups.ravel(), x.ravel())
        if isinstance(out, tuple):
            out, carry = out
            carried.append(np.reshape(carry, x.shape))
        v = np.asarray(out, dtype=float).reshape(x.shape)
        bad = ~np.isfinite(v)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise IntegrandError(
                f"integrand returned non-finite value at x={x[i, j]!r}",
                group=int(gidx[start + i]),
                x=float(x[i, j]),
            )
        vals.append(v)
    if len(vals) == 1:
        return vals[0], carried[0] if carried else None
    return np.concatenate(vals), np.concatenate(carried) if carried else None


def _eval_panels(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    gidx: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    owners: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kronrod value, Gauss-difference error, and |f| integral per panel.

    ``f`` may return ``(values, carried_errors)``: the error bounds already
    attached to each value (for instance by an inner quadrature) are
    integrated with the Kronrod weights and added to the panel error.

    The rule's sums are BLAS matrix products, which round a row according to
    its position in the matrix.  ``owners[g]`` names the independent problem
    group g belongs to; each problem's sums are taken over its own panels
    alone, in order, so its results do not depend on the batch it shares.
    Whole problems are evaluated together in chunks of at most ``_EVAL_MAX``
    points, which bounds the memory of large batches; a problem above that
    is evaluated alone, in slices.
    """
    per_slice = _EVAL_MAX // _NODES.size
    owner = None if owners is None else owners[gidx]
    if owner is None or (owner == owner[0]).all():
        # One problem: its sums span the whole batch, as in a lone call.
        halfw = 0.5 * (hi - lo)
        vals, carried = _node_values(f, gidx, 0.5 * (lo + hi), halfw, per_slice)
        return _kronrod(vals, halfw, carried)
    order = np.argsort(owner, kind="stable")
    gidx, lo, hi = gidx[order], lo[order], hi[order]
    edges = [0, *(np.flatnonzero(np.diff(owner[order])) + 1).tolist(), gidx.size]
    center = 0.5 * (lo + hi)
    halfw = 0.5 * (hi - lo)
    out = np.empty((3, gidx.size))
    first = 0
    while first < len(edges) - 1:
        # Problems first .. last - 1 form the chunk of panels begin .. end.
        last = first + 1
        while last < len(edges) - 1 and edges[last + 1] - edges[first] <= per_slice:
            last += 1
        begin, end = edges[first], edges[last]
        vals, carried = _node_values(
            f, gidx[begin:end], center[begin:end], halfw[begin:end], per_slice
        )
        for p in range(first, last):
            rows = slice(edges[p], edges[p + 1])
            part = slice(edges[p] - begin, edges[p + 1] - begin)
            out[:, rows] = _kronrod(
                vals[part], halfw[rows], None if carried is None else carried[part]
            )
        first = last
    out[:, order] = out.copy()
    return out[0], out[1], out[2]


def _batch_adaptive(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lowers: np.ndarray,
    width: float,
    rel_tol: float,
    max_panels: int,
    owners: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Adaptive Gauss-Kronrod over a batch of 1-D integrals.

    Group g integrates over [lowers[g], lowers[g] + width]; ``f(group_index,
    x)`` must be vectorized.  Returns per-group (values, error bounds,
    evaluations, converged flags).  Every decision about a group reads only
    that group's panels, in an order the other groups do not affect, so a
    group refines as it would alone.  Only the last bits of the rule's matrix
    products follow the layout of the batch, unless ``owners`` (one per
    group) names independent problems: each problem then gets exactly the
    results of a call for that problem alone.
    """
    n_groups = len(lowers)
    gidx, lo, hi = _initial_panels(lowers, width)
    n_initial = np.bincount(gidx, minlength=n_groups)
    vals, errs, resabs = _eval_panels(f, gidx, lo, hi, owners)
    # Groups whose splits repeatedly fail to shrink the error are noise
    # limited (integrand roundoff); they are closed rather than refined to
    # the panel budget.  Mirrors the QUADPACK iroff counters.
    stalls = np.zeros(n_groups, dtype=np.intp)

    def targets(g_val, g_resabs):
        # Demanding less than the roundoff of the absolute integral is futile.
        return np.maximum.reduce([
            rel_tol * np.abs(g_val), _ROUNDOFF * g_resabs,
            np.full_like(g_val, _ABS_FLOOR),
        ])

    for _ in range(_MAX_ROUNDS):
        g_val = np.bincount(gidx, weights=vals, minlength=n_groups)
        g_err = np.bincount(gidx, weights=errs, minlength=n_groups)
        g_abs = np.bincount(gidx, weights=resabs, minlength=n_groups)
        g_n = np.bincount(gidx, minlength=n_groups)
        target = targets(g_val, g_abs)
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
        new_vals, new_errs, new_resabs = _eval_panels(f, new_g, new_lo, new_hi, owners)
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
    converged = g_err <= targets(g_val, g_abs)
    # Every split evaluates two children in place of one parent.
    evaluations = _NODES.size * (2 * g_n - n_initial)
    return g_val, g_err, evaluations, converged


def _integrate_y_batch(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lowers: np.ndarray,
    config: QuadratureConfig,
    owners: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Integrate f(group, y) over [lowers[group], infinity) for every group.

    One engine call for the whole batch (``owners`` as in ``_batch_adaptive``).
    Returns per-group (values, error bounds including the truncated tail,
    evaluations, converged flags).
    """
    lowers = np.asarray(lowers, dtype=float)
    if np.any(lowers < 0.0):
        raise ValueError(f"lower bound must be >= 0, got {float(lowers.min())!r}")
    margin = config.y_cutoff_margin
    try:
        vals, errs, evals, conv = _batch_adaptive(
            f, lowers, margin, config.rel_tol, config.max_subdivisions, owners
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


def _integrate_xi_y_batch(
    sweep: Callable[[np.ndarray, np.ndarray], Callable[[np.ndarray, np.ndarray], np.ndarray]],
    n_groups: int,
    config: QuadratureConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Integrate over the wedge 0 <= xi <= y < infinity for every group.

    One outer engine call runs the xi integrals of all groups.  Each outer
    sweep calls ``sweep(groups, xi)`` once with its new nodes, so work that
    depends only on (group, xi) is done once per node; it returns
    ``inner(k, y)``, the integrand at points y of node k.  The inner y
    integrals of all nodes of the sweep run in one batch at a tenth of the
    outer tolerance, and their error bounds are carried through the outer
    quadrature weights.  Returns per-group (values, error bounds,
    evaluations, converged flags); ``evaluations`` counts integrand points.
    """
    margin = config.y_cutoff_margin
    inner_config = replace(config, rel_tol=0.1 * config.rel_tol)
    inner_evals = np.zeros(n_groups, dtype=np.int64)
    # Every group owns its outer panels and its nodes' inner panels, so each
    # gets the bits of a one-group call; a lone group needs no owners.
    owners = np.arange(n_groups) if n_groups > 1 else None

    def outer(groups: np.ndarray, xi_nodes: np.ndarray):
        nonlocal inner_evals
        try:
            vals, errs, evals, _ = _integrate_y_batch(
                sweep(groups, xi_nodes),
                xi_nodes,
                inner_config,
                None if owners is None else groups,
            )
        except IntegrandError as exc:
            raise IntegrandError(
                "integrand returned non-finite value at "
                f"(xi={xi_nodes[exc.group]!r}, y={exc.x!r})",
                group=int(groups[exc.group]),
                x=exc.x,
            ) from None
        inner_evals += np.bincount(groups, weights=evals, minlength=n_groups).astype(
            np.int64
        )
        return vals, errs

    vals, errs, _, conv = _batch_adaptive(
        outer, np.zeros(n_groups), margin, config.rel_tol, config.max_subdivisions, owners
    )
    # Outer tail beyond xi = margin is bounded by the same envelope argument.
    return vals, errs + np.abs(vals) * math.exp(-margin), inner_evals, conv


def integrate_xi_y(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Integrate f(xi, y) over the wedge 0 <= xi <= y < infinity.

    The outer xi integral on [0, y_cutoff_margin] and the inner y integrals
    run on the same adaptive engine.  Each outer node needs the inner y
    integral from that xi; all inner integrals of an outer refinement sweep
    are evaluated in one vectorized batch at a tenth of the outer tolerance,
    and their error bounds are carried through the outer quadrature weights
    into the reported estimate.  ``evaluations`` counts integrand points.
    """

    def sweep(_groups: np.ndarray, xi_nodes: np.ndarray):
        return lambda k, y: np.asarray(f(xi_nodes[k], y), dtype=float)

    vals, errs, evals, conv = _integrate_xi_y_batch(sweep, 1, config)
    return QuadratureResult(
        value=float(vals[0]),
        abs_error_estimate=float(errs[0]),
        evaluations=int(evals[0]),
        converged=bool(conv[0]),
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
