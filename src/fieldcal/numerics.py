"""Shared numerical kernels.

(Pivoted) Cholesky factorization with triangular solves and a
restartable Nelder-Mead driver. Everything is a pure function of its
arguments and safe to call concurrently.

The factorizations and solves call LAPACK (``dpotrf``, ``dpstrf``,
``dtrtrs``) directly: at the ~10^2-station size of an event, scipy's
per-call wrappers and repeated input scans cost as much as the LAPACK
work. The public entry points check every input, each matrix in one
read for scale and finiteness and one for symmetry. The private
:func:`_cholesky_in_place`, which the fit's event update calls, trusts a
matrix its caller built symmetric and factors it in its own buffer, with
no check and no copy. The Nelder-Mead search is in-house and evaluates
the same points as scipy 1.17.1's, bit for bit, without loading
``scipy.optimize``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack


class NumericsError(Exception):
    """Base class for numerical-kernel failures."""


class NotPositiveDefinite(NumericsError):
    """Cholesky factorization failed even after a single jitter attempt.

    Usually signals a degenerate station configuration, e.g. duplicated
    locations combined with a vanishing nugget.
    """


class NotPSD(NumericsError):
    """A residual pivot is significantly negative: not positive semi-definite."""


class NonFiniteObjective(NumericsError):
    """Objective returned a non-finite value at the starting point."""


# Relative tolerance for treating an "approximately symmetric" input as
# symmetric, and the single-shot jitter scale for near-singular factorizations.
SYMMETRY_RTOL = 1e-10
JITTER_RTOL = 1e-8


def _require_symmetric(a: np.ndarray, name: str) -> np.ndarray:
    """``a`` as a float matrix, checked square, finite and symmetric to
    ``SYMMETRY_RTOL`` of its largest magnitude, in two reads."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name}: expected a square matrix, got shape {a.shape}")
    if not a.size:
        return a
    # max and min give the scale and, as NaN or inf, any non-finite entry
    hi, lo = float(a.max()), float(a.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ValueError("array must not contain infs or NaNs")
    # a - a^T is antisymmetric: its max is its largest magnitude. It is
    # taken a band of max(64, 2^16 / m) rows against the same columns at
    # a time, so the temporary is about 2^16 entries (512 KB) or 64 rows,
    # not a second m x m matrix; up to m = 256 that is one band
    scale = max(hi, -lo)
    if scale > 0.0:
        rows = max(64, (1 << 16) // len(a))
        asym = max(float((a[i:i + rows] - a[:, i:i + rows].T).max())
                   for i in range(0, len(a), rows))
        if asym > SYMMETRY_RTOL * scale:
            raise ValueError(f"{name}: input matrix is not symmetric")
        if asym == 0.0 and a.flags.c_contiguous:
            # exactly symmetric: a^T holds the same values in LAPACK's
            # column order, which it copies without a transpose
            return a.T
    return a


def _solve_triangular(t, b, lower: int, trans: int = 0):
    """``dtrtrs``: solve T x = b (``trans=1``: T^T x = b) for a triangular
    T, which LAPACK reads without a copy when it is Fortran-ordered."""
    b = np.asarray(b)
    if b.shape[:1] != t.shape[:1]:
        raise ValueError(f"shapes of a {t.shape} and b {b.shape} are incompatible")
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    if not b.size:
        return np.zeros(b.shape)
    x, info = lapack.dtrtrs(t, b, lower=lower, trans=trans)
    if info > 0:
        raise NotPositiveDefinite(f"triangular factor is singular at {info}")
    if info < 0:
        raise ValueError(f"dtrtrs: illegal value in argument {-info}")
    return x


def _potrf(a, overwrite: int):
    """``dpotrf`` lower factor with its upper triangle zeroed, or None when
    a leading minor is not positive definite. With ``overwrite`` set, a
    Fortran-ordered ``a`` is factored in place."""
    lower, info = lapack.dpotrf(a, lower=1, clean=1, overwrite_a=overwrite)
    if info < 0:
        raise ValueError(f"dpotrf: illegal value in argument {-info}")
    return None if info else lower


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular Cholesky factor with its log-determinant.

    ``lower`` is the Fortran-ordered array ``dpotrf`` returns, so the
    ``dtrtrs`` solves (and ``dtrtri``) read it in place. ``jitter`` is
    what the single retry added to the diagonal, 0.0 when the plain
    factorization succeeded. A right-hand side that is not finite raises
    ``ValueError``.
    """

    lower: np.ndarray
    logdet: float
    jitter: float = 0.0

    def solve(self, b):
        """Solve A x = b through the factor (two triangular solves)."""
        return self.solve_upper(self.solve_lower(b))

    def solve_lower(self, b):
        """Solve L w = b (one triangular solve), so b^T A^{-1} b = w^T w."""
        return _solve_triangular(self.lower, b, lower=1)

    def solve_upper(self, w):
        """Solve L^T x = w, so x = A^{-1} b for w from :meth:`solve_lower`."""
        return _solve_triangular(self.lower, w, lower=1, trans=1)


def _cholesky_retry(build, overwrite: int) -> CholeskyFactor:
    """Factor the matrix ``build()`` returns, whose lower triangle
    ``dpotrf`` reads. If that fails, a single additive jitter of
    ``1e-8 * trace/n`` is tried on a second ``build()`` (a failed factor
    in place has overwritten the first) before raising
    :class:`NotPositiveDefinite`."""
    a = build()
    lower, jitter = _potrf(a, overwrite), 0.0
    if lower is None:
        a = build()
        n = a.shape[0]
        jitter = JITTER_RTOL * np.trace(a) / n
        if jitter <= 0.0:
            raise NotPositiveDefinite("matrix is not positive definite")
        lower = _potrf(a + jitter * np.eye(n), overwrite)
        if lower is None:
            raise NotPositiveDefinite(
                "matrix is not positive definite (even after jitter)")
    logdet = 2.0 * float(np.sum(np.log(np.diag(lower))))
    return CholeskyFactor(lower=lower, logdet=logdet, jitter=float(jitter))


def cholesky(a) -> CholeskyFactor:
    """Factor a symmetric positive-definite matrix as L L^T.

    If the plain factorization fails, a single additive jitter of
    ``1e-8 * trace(a)/n`` is tried before raising
    :class:`NotPositiveDefinite`; the factor records it. A non-finite or
    non-symmetric input raises ``ValueError``. ``a`` is not modified.
    """
    a = _require_symmetric(a, "cholesky")
    return _cholesky_retry(lambda: a, overwrite=0)


def _cholesky_in_place(build) -> CholeskyFactor:
    """:func:`cholesky` of the symmetric matrix that ``build()`` writes on
    the diagonal and upper triangle of a fresh C-ordered buffer and
    returns, trusted as it is: no check reads it and its lower triangle
    is never read. ``dpotrf`` factors the buffer's Fortran-ordered
    transpose in place, so the factor's ``lower`` is that buffer."""
    return _cholesky_retry(lambda: build().T, overwrite=1)


@dataclass(frozen=True)
class PivotedCholeskyFactor:
    """Greedy-pivoted Cholesky factor P^T A P = U^T U.

    ``permutation[k]`` is the original index chosen at pivot step ``k``;
    ``rank`` counts the positive pivots. The matrix G = P U^T satisfies
    G G^T = A and is what decorrelation solves go through.
    """

    permutation: np.ndarray
    upper: np.ndarray
    rank: int

    def decorrelate(self, r):
        """Solve G z = r with G = P U^T (requires full rank)."""
        if self.rank < self.upper.shape[0]:
            raise NotPSD("matrix is rank deficient; cannot decorrelate")
        rp = np.asarray(r, dtype=float)[self.permutation]
        return _solve_triangular(self.upper, rp, lower=0, trans=1)


def pivoted_cholesky(a) -> PivotedCholeskyFactor:
    """Pivoted Cholesky factorization of a symmetric PSD matrix.

    Pivots greedily on the largest remaining diagonal entry, so the pivot
    sequence is non-increasing. Stops early on rank deficiency (residual
    pivots below ``1e-10 * max diag``); raises :class:`NotPSD` if a
    residual diagonal entry falls below ``-1e-8 * max diag``. A
    non-finite or non-symmetric input raises ``ValueError``, as in
    :func:`cholesky`.

    The factorization is LAPACK ``dpstrf`` (blocked, level 3). Residual
    diagonals only shrink and a negative one is never chosen as a pivot,
    so checking the residuals left after the last pivot raises exactly
    when a check before every pivot would.
    """
    a = _require_symmetric(a, "pivoted_cholesky")
    n = a.shape[0]
    diag = np.diag(a)
    max_diag = max(float(np.max(diag)), 0.0) if n else 0.0
    neg_tol = -1e-8 * max_diag
    rank_tol = 1e-10 * max_diag
    if n and np.min(diag) < neg_tol:
        raise NotPSD("residual diagonal entry is significantly negative")
    if not np.any(diag > rank_tol):
        # numerically zero matrix (or empty): rank 0, identity order
        return PivotedCholeskyFactor(permutation=np.arange(n),
                                     upper=np.zeros((n, n)), rank=0)
    upper, piv, rank, info = lapack.dpstrf(a, tol=rank_tol, lower=0)
    if info < 0:
        raise ValueError(f"dpstrf: illegal value in argument {-info}")
    perm = (piv - 1).astype(np.intp)
    # dpstrf leaves A's strict lower triangle and the unfactored trailing
    # block in its Fortran-ordered output: zero them in place, each
    # column's contiguous tail below the diagonal (or below row rank)
    for j in range(n):
        upper[min(j + 1, rank):, j] = 0.0
    if rank < n:
        residual = diag[perm[rank:]] - np.sum(upper[:rank, rank:] ** 2, axis=0)
        if np.min(residual) < neg_tol:
            raise NotPSD("residual diagonal entry is significantly negative")
    return PivotedCholeskyFactor(permutation=perm, upper=upper, rank=int(rank))


@dataclass(frozen=True)
class OptimizerOptions:
    """Settings for the Nelder-Mead driver.

    ``max_evals`` is the function-evaluation budget per restart;
    ``restarts`` > 1 re-runs from deterministically jittered copies of the
    starting point (jitter stream seeded by ``seed``) and returns the best
    result, ties broken by lowest restart index.
    """

    max_evals: int = 2000
    simplex_tolerance: float = 1e-8
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")
        if not 0.0 < self.simplex_tolerance < math.inf:
            raise ValueError("simplex_tolerance must be finite and > 0")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class SearchResult:
    """Best point of a Nelder-Mead search and how the search ended.

    ``evaluations`` counts objective calls over all restarts;
    ``budget_exhausted`` is True when a restart stopped on
    ``max_evals`` rather than on the simplex tolerance; ``rejected``
    counts the evaluations whose value was +inf or NaN.
    """

    x: np.ndarray
    fun: float
    evaluations: int
    budget_exhausted: bool
    rejected: int


class _BudgetSpent(Exception):
    """A restart's evaluation budget refused another call."""


def _restart(evaluate, sim, f_first, max_evals: int, tol: float) -> int:
    """One restart of scipy 1.17.1's ``_minimize_neldermead`` from the
    simplex ``sim``, as :func:`nelder_mead` would call it: ``adaptive``
    when n > 2, ``xatol = fatol = tol``, ``maxfev = max_evals``, no
    bounds. The centroid, trial points and re-sorts are scipy's
    expressions, so every point evaluated is scipy's, bit for bit.
    ``f_first``, when not None, is the value at ``sim[0]`` and counts as
    a call. A call past ``max_evals`` ends the restart, where scipy
    abandons the iteration and then stops. Returns the calls used.
    """
    n = sim.shape[1]
    # Gao & Han's adaptive coefficients (Comput. Optim. Appl. 51, 2012),
    # or the standard ones; the reflection coefficient is 1 in both
    if n > 2:
        chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    else:
        chi, psi, sigma = 2, 0.5, 0.5
    fsim = np.full(n + 1, np.inf)
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= max_evals:
            raise _BudgetSpent
        calls += 1
        return evaluate(x)

    if f_first is not None:
        fsim[0], calls = f_first, 1
    try:
        for k in range(calls, n + 1):
            fsim[k] = f(sim[k])
        # scipy sorts twice here; argsort leaves the order of ties
        # unspecified, so the second pass is kept
        for _ in range(2):
            ind = np.argsort(fsim)
            sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
        while calls < max_evals:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= tol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= tol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = (1 + chi) * xbar - chi * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = (1 + psi) * xbar - psi * sim[-1]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:
                    xc = (1 - psi) * xbar + psi * sim[-1]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            ind = np.argsort(fsim)
            sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    except _BudgetSpent:
        pass
    return calls


def nelder_mead(objective, x0, opts: OptimizerOptions) -> SearchResult:
    """Minimize a scalar function of a real vector, derivative-free.

    The result has ``fun <= objective(x0)``. Each restart terminates when
    the simplex spread falls below ``opts.simplex_tolerance`` or after
    ``opts.max_evals`` evaluations. Deterministic for fixed
    ``(x0, opts.seed)``. The objective is called once at ``x0``: that
    value also serves the first vertex of the first simplex. Each restart
    evaluates the same points as scipy 1.17.1's Nelder-Mead with the same
    settings; NaN enters the simplex as +inf. The result is the first
    lowest point evaluated, which scipy's own can miss when the budget
    cuts an expansion short.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.ndim != 1:
        raise ValueError("'x0' must only have one dimension.")
    f0 = float(objective(x0))
    if not math.isfinite(f0):
        raise NonFiniteObjective("objective is not finite at the starting point")
    best_f, best_x, rejected = f0, x0, 0

    def evaluate(x):
        nonlocal best_f, best_x, rejected
        x = x.copy()   # the objective's own copy, as scipy's; best_x keeps it
        v = float(objective(x))
        if v < best_f:
            best_f, best_x = v, x
        if math.isnan(v) or v == math.inf:
            rejected += 1
            return math.inf
        return v

    rng = np.random.default_rng(opts.seed)
    starts = [x0]
    for _ in range(opts.restarts - 1):
        starts.append(x0 + rng.normal(scale=0.25 * (np.abs(x0) + 1.0)))

    evaluations, exhausted = 0, False
    for k, start in enumerate(starts):
        # scipy's default simplex barely perturbs zero coordinates; a
        # floored step keeps every direction searchable from the start
        steps = np.maximum(0.05 * np.abs(start), 0.25)
        simplex = np.vstack([start, start + np.diag(steps)])
        calls = _restart(evaluate, simplex, None if k else f0,
                         opts.max_evals, opts.simplex_tolerance)
        evaluations += calls
        exhausted |= calls >= opts.max_evals
    return SearchResult(x=best_x, fun=best_f, evaluations=evaluations,
                        budget_exhausted=exhausted, rejected=rejected)
