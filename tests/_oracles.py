"""Independent reference implementations used only by the tests.

Each oracle recomputes a quantity the library produces in closed form,
through a deliberately different route (quadrature, brute-force
conditioning, bisection), so agreement is evidence rather than
tautology.
"""

import math
import types

import numpy as np
from scipy.integrate import dblquad, quad


def bessel_k_quadrature(nu: float, x: float) -> float:
    """K_nu(x) from the integral representation
    int_0^inf exp(-x cosh t) cosh(nu t) dt, adaptively integrated."""
    t_peak = math.asinh(nu / x)
    t_cut = 1.0
    for _ in range(100):
        t_cut = math.acosh((750.0 + nu * t_cut) / x)

    def f(t):
        return math.exp(-x * math.cosh(t)) * math.cosh(nu * t)

    a1, _ = quad(f, 0.0, t_peak, epsabs=1e-300, epsrel=1e-12, limit=400)
    a2, _ = quad(f, t_peak, t_cut, epsabs=1e-300, epsrel=1e-12, limit=400)
    return a1 + a2


def f_cdf_quadrature(x: float, d1: int, d2: int) -> float:
    """CDF of F(d1, d2) by integrating the density written from scratch."""
    log_norm = (math.lgamma((d1 + d2) / 2.0) - math.lgamma(d1 / 2.0)
                - math.lgamma(d2 / 2.0) + (d1 / 2.0) * math.log(d1 / d2))

    def density(t):
        if t <= 0.0:
            return 0.0
        return math.exp(log_norm + (d1 / 2.0 - 1.0) * math.log(t)
                        - ((d1 + d2) / 2.0) * math.log1p(d1 * t / d2))

    val, _ = quad(density, 0.0, x, epsabs=1e-13, epsrel=1e-13, limit=400)
    return val


def normal_quantile_bisect(p: float) -> float:
    """Standard normal quantile by bisecting the erf-based CDF."""
    def cdf(z):
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def t_quantile_bisect(p: float, df: float) -> float:
    """Student-t quantile by bisecting a quadrature CDF."""
    log_norm = (math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0)
                - 0.5 * math.log(df * math.pi))

    def density(t):
        return math.exp(log_norm - ((df + 1.0) / 2.0) * math.log1p(t * t / df))

    def cdf(z):
        if z >= 0.0:
            val, _ = quad(density, 0.0, z, epsabs=1e-13, epsrel=1e-13)
            return 0.5 + val
        val, _ = quad(density, z, 0.0, epsabs=1e-13, epsrel=1e-13)
        return 0.5 - val

    lo, hi = -400.0, 400.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _nig_joint(y, h, a_mat, b0, b_scale, a_ig, d_ig):
    """Unnormalized log joint density of (beta, v = log sigma2) for the
    single-coefficient regression, and its integration window.

    The window is sized from a grid search for the joint mode plus local
    curvature, so no conjugate formulas are reused. Returns
    (log_density, (lo_b, hi_b, lo_v, hi_v), log density at the mode).
    """
    y = np.asarray(y, dtype=float)
    h = np.asarray(h, dtype=float)
    k = len(y)
    a_inv = np.linalg.inv(a_mat)
    sign, logdet_a = np.linalg.slogdet(a_mat)
    assert sign > 0
    # r^T A^{-1} r with r = y - h*beta, expanded in powers of beta so one
    # density evaluation costs O(1) whatever the number of observations
    q_yy = float(y @ a_inv @ y)
    q_hy = float(h @ a_inv @ y)
    q_hh = float(h @ a_inv @ h)
    const = (-0.5 * (k * math.log(2 * math.pi) + logdet_a)
             - 0.5 * math.log(2 * math.pi * b_scale))

    def log_density(beta, v):
        # v = log sigma2; includes the e^v change-of-variable Jacobian.
        # Scalars or broadcasting arrays alike.
        inv_sig2 = np.exp(-v)
        quad_form = q_yy - 2.0 * beta * q_hy + beta * beta * q_hh
        ll = -0.5 * k * v - 0.5 * quad_form * inv_sig2
        lp_beta = -0.5 * v - 0.5 * (beta - b0) ** 2 * inv_sig2 / b_scale
        lp_sig = (-(d_ig + 2.0) / 2.0) * v - 0.5 * a_ig * inv_sig2
        return const + ll + lp_beta + lp_sig + v

    # bracket the mode with a deliberately oversized coarse grid
    gls = q_hy / q_hh
    spread = float(np.std(y)) + abs(gls - b0) + 1.0
    beta_grid = np.linspace(min(gls, b0) - 20 * spread,
                            max(gls, b0) + 20 * spread, 401)
    v_center = math.log(float(np.var(y)) + 1.0)
    v_grid = np.linspace(v_center - 16.0, v_center + 16.0, 401)
    dens = log_density(beta_grid[:, None], v_grid[None, :])
    ib, iv = np.unravel_index(np.argmax(dens), dens.shape)
    beta_m, v_m = float(beta_grid[ib]), float(v_grid[iv])

    def curvature_sd(f, x0, step):
        d2 = (f(x0 + step) - 2.0 * f(x0) + f(x0 - step)) / step ** 2
        return 1.0 / math.sqrt(max(-d2, 1e-12))

    sd_b = curvature_sd(lambda b: log_density(b, v_m), beta_m,
                        (beta_grid[1] - beta_grid[0]) / 4 + 1e-9)
    sd_v = curvature_sd(lambda v: log_density(beta_m, v), v_m,
                        (v_grid[1] - v_grid[0]) / 4 + 1e-9)
    window = (beta_m - 14 * sd_b, beta_m + 14 * sd_b,
              v_m - 12 * sd_v - 8.0, v_m + 12 * sd_v + 8.0)
    return log_density, window, float(log_density(beta_m, v_m))


_QUAD_OPTS = dict(epsabs=1e-14, epsrel=1e-10)


def nig_regression_quadrature(y, h, a_mat, b0, b_scale, a_ig, d_ig):
    """Posterior moments of a single-coefficient conjugate regression by
    raw 2-D quadrature over (beta, log sigma2).

    y = h*beta + eta, eta ~ N(0, sigma2 * a_mat), prior
    beta | sigma2 ~ N(b0, sigma2 * b_scale) and an inverse-gamma prior
    on sigma2 with hyperparameters (a_ig, d_ig). Returns
    (E[beta], E[1/sigma2]) from which the closed-form summaries follow.
    """
    log_density, window, log_ref = _nig_joint(y, h, a_mat, b0, b_scale,
                                              a_ig, d_ig)

    def integrand(weight):
        def g(v, beta):
            return weight(beta, v) * math.exp(log_density(beta, v) - log_ref)
        return g

    z, _ = dblquad(integrand(lambda b, v: 1.0), *window, **_QUAD_OPTS)
    eb, _ = dblquad(integrand(lambda b, v: b), *window, **_QUAD_OPTS)
    eprec, _ = dblquad(integrand(lambda b, v: math.exp(-v)), *window,
                       **_QUAD_OPTS)
    return eb / z, eprec / z


def nig_log_evidence_quadrature(y, h, a_mat, b0, b_scale, a_ig, d_ig):
    """Log of the (beta, sigma2)-marginalized likelihood by quadrature.

    Shares every constant convention with
    :func:`nig_regression_quadrature` except the inverse-gamma prior
    normalizer, which does not depend on the correlation model; use it
    only through differences at fixed data and prior.
    """
    log_density, window, log_ref = _nig_joint(y, h, a_mat, b0, b_scale,
                                              a_ig, d_ig)
    z, _ = dblquad(lambda v, b: math.exp(log_density(b, v) - log_ref),
                   *window, **_QUAD_OPTS)
    return math.log(z) + log_ref


def joint_conditional_oracle(theta, prior, train_loc, train_x, train_y,
                             targ_loc, targ_x, sigma_hat2, measurement):
    """Brute-force Gaussian conditioning for the predictive checks.

    Builds the explicit joint covariance of (training y, targets) with the
    regression coefficients integrated out in closed form
    (cov += H B H^T), then conditions. ``measurement`` switches the
    target block between the latent field and noisy measurements.
    """
    from fieldcal.covariance import correlation_block, rotate_array
    from fieldcal.inference import basis_matrix

    q = prior.q
    tr_t = rotate_array(train_loc, theta.omega)
    tg_t = rotate_array(targ_loc, theta.omega)
    n, m = len(train_x), len(targ_x)

    c_tt = correlation_block(theta, tr_t, train_x, tr_t, train_x)
    c_tt[np.diag_indices(n)] = 1.0 + theta.lambda2
    c_gg = correlation_block(theta, tg_t, targ_x, tg_t, targ_x)
    nugget_z = max(theta.lambda2 - prior.sigmaY ** 2 / sigma_hat2, 0.0)
    extra = nugget_z + (prior.sigmaY ** 2 / sigma_hat2 if measurement else 0.0)
    c_gg[np.diag_indices(m)] += extra
    c_tg = correlation_block(theta, tr_t, train_x, tg_t, targ_x)

    h_tr = basis_matrix(train_x, q)
    h_tg = basis_matrix(targ_x, q)
    h_all = np.vstack([h_tr, h_tg])
    joint = np.block([[c_tt, c_tg], [c_tg.T, c_gg]]) + h_all @ prior.B @ h_all.T
    mean_all = h_all @ prior.b

    s_yy = joint[:n, :n]
    s_gy = joint[n:, :n]
    s_gg = joint[n:, n:]
    sol = np.linalg.solve(s_yy, train_y - mean_all[:n])
    mean = mean_all[n:] + s_gy @ sol
    cov = sigma_hat2 * (s_gg - s_gy @ np.linalg.solve(s_yy, s_gy.T))
    return mean, 0.5 * (cov + cov.T)


def smooth_correlation_scipy_reference(theta, loc_a, x_a, loc_b=None,
                                       x_b=None):
    """``smooth_correlation`` with its lags from ``scipy.spatial.distance``:
    1-D cityblock ``pdist`` for the pairs within ``a`` (condensed order),
    ``cdist`` for a cross block."""
    from scipy.spatial.distance import cdist, pdist
    from fieldcal.covariance import _matern_values

    def columns(loc, x):
        return np.column_stack([np.atleast_2d(np.asarray(loc, dtype=float)),
                                np.atleast_1d(np.asarray(x, dtype=float))])

    a = columns(loc_a, x_a)
    if loc_b is None:
        def lags(k):
            return pdist(a[:, k:k + 1], "cityblock")
    else:
        b = columns(loc_b, x_b)

        def lags(k):
            return cdist(a[:, k:k + 1], b[:, k:k + 1], "cityblock")
    c = _matern_values(lags(0), theta.phi1, theta.nu1)
    c *= _matern_values(lags(1), theta.phi2, theta.nu2)
    c *= np.exp(-(lags(2) / theta.phiX) ** 2)
    return c


def matern_piece_nodes_reference(pieces):
    """(pieces, degree + 1) lags at the Chebyshev nodes of the Matern
    table's first ``pieces`` pieces, from each piece's octave and slot
    in it (128 slots per octave) rather than from float bits."""
    from fieldcal.covariance import _DEGREE, _P0, _PIECE_BITS

    slots = 1 << (52 - _PIECE_BITS)
    index = _P0 + np.arange(pieces)
    octave = np.ldexp(1.0, index // slots - 1023)
    width = octave / slots
    lower = octave + width * (index % slots)
    angles = np.pi * (np.arange(_DEGREE + 1) + 0.5) / (_DEGREE + 1)
    return lower[:, None] + 0.5 * width[:, None] * (1.0 + np.cos(angles))


def matern_table_direct_reference(nu):
    """The Matern table at ``nu`` fitted to ``kv`` directly at every
    piece's Chebyshev nodes, as the table was built before it had a
    coarse level: the same layout, about 5 x 2930 ``kv`` calls."""
    from fieldcal.covariance import (_DEGREE, _HALF, _P0, _PIECE_BITS,
                                     _chebyshev_interpolation, _matern_kv)

    top = np.float64(max(45.0, 2.0 * nu + 45.0))
    pieces = (int(top.view(np.int64)) >> _PIECE_BITS) - _P0 + 1
    _, to_cheb, to_power = _chebyshev_interpolation(_DEGREE)
    z = matern_piece_nodes_reference(pieces)
    table = to_power @ (to_cheb @ _matern_kv(z, nu).T)
    return table * _HALF ** -np.arange(_DEGREE + 1.0)[:, None]


def pivoted_cholesky_reference(a):
    """Greedy-pivoted Cholesky as a step-by-step loop of rank-1 updates.

    The implementation ``numerics.pivoted_cholesky`` had before it called
    LAPACK ``dpstrf``: the same largest-remaining-diagonal rule, the same
    rank cut (1e-10 * max diag) and NotPSD check (-1e-8 * max diag), but
    checked before every pivot instead of once at the end.
    """
    from fieldcal.numerics import NotPSD, PivotedCholeskyFactor, _require_symmetric

    a = _require_symmetric(a, "pivoted_cholesky")
    n = a.shape[0]
    work = a.copy()
    perm = np.arange(n)
    max_diag = max(float(np.max(np.diag(work))), 0.0) if n else 0.0
    neg_tol = -1e-8 * max_diag
    rank_tol = 1e-10 * max_diag
    rank = n
    for k in range(n):
        d = np.diag(work)[k:]
        if np.min(d) < neg_tol:
            raise NotPSD("residual diagonal entry is significantly negative")
        j = k + int(np.argmax(d))
        if work[j, j] <= rank_tol:
            rank = k
            # residual block is numerically zero; keep the factor columns
            work[k:, k:] = 0.0
            break
        if j != k:
            work[[k, j], :] = work[[j, k], :]
            work[:, [k, j]] = work[:, [j, k]]
            perm[[k, j]] = perm[[j, k]]
        pivot = math.sqrt(work[k, k])
        work[k, k] = pivot
        work[k + 1:, k] /= pivot
        col = work[k + 1:, k]
        work[k + 1:, k + 1:] -= np.outer(col, col)
        work[k, k + 1:] = 0.0
    upper = np.tril(work).T
    return PivotedCholeskyFactor(permutation=perm, upper=upper, rank=rank)


def nelder_mead_scipy_reference(objective, x0, opts):
    """The search ``numerics.nelder_mead`` runs, through scipy.

    The implementation it had before its in-house simplex loop: each
    restart is ``scipy.optimize.minimize(method="Nelder-Mead")`` from the
    same floored simplex, ``adaptive`` when n > 2, ``xatol = fatol =
    simplex_tolerance`` and ``maxfev = max_evals``. The start is evaluated
    once and its value reused for scipy's first call, NaN is handed to
    scipy as +inf, and the result is the first lowest value evaluated.
    """
    from scipy import optimize
    from fieldcal.numerics import NonFiniteObjective, SearchResult

    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    f0 = float(objective(x0))
    if not math.isfinite(f0):
        raise NonFiniteObjective("objective is not finite at the starting point")
    first_call = [True]
    best = [f0, x0]
    rejected = [0]

    def guarded(x):
        if first_call:
            first_call.clear()
            if np.array_equal(x, x0):
                return f0
        v = float(objective(x))
        if v < best[0]:
            best[:] = v, np.array(x, dtype=float)
        if math.isnan(v) or v == math.inf:
            rejected[0] += 1
        return math.inf if math.isnan(v) else v

    rng = np.random.default_rng(opts.seed)
    starts = [x0]
    for _ in range(opts.restarts - 1):
        starts.append(x0 + rng.normal(scale=0.25 * (np.abs(x0) + 1.0)))

    evaluations, exhausted = 0, False
    for start in starts:
        steps = np.maximum(0.05 * np.abs(start), 0.25)
        res = optimize.minimize(
            guarded, start, method="Nelder-Mead",
            options={"maxfev": opts.max_evals,
                     "xatol": opts.simplex_tolerance,
                     "fatol": opts.simplex_tolerance,
                     "initial_simplex": np.vstack([start, start + np.diag(steps)]),
                     "adaptive": len(start) > 2, "disp": False})
        evaluations += int(res.nfev)
        exhausted |= res.status == 1
    return SearchResult(x=best[1], fun=best[0], evaluations=evaluations,
                        budget_exhausted=bool(exhausted), rejected=rejected[0])


def _bstar(ef):
    """B* = ((B*)^{-1})^{-1} by two solves against the identity, symmetrized."""
    bstar = ef.Bstar_inv_factor.solve(np.eye(len(ef.beta_hat)))
    return 0.5 * (bstar + bstar.T)


def conditional_reference(fit, event, loc, x, add_noise):
    """Diagonal-only posterior mean and variance over all targets at once.

    The implementation ``prediction._conditional`` had before it worked
    in blocks of targets: the whole n x K cross-correlation, A^{-1} T^T
    by two triangular solves, and the quadratic term as
    ``einsum("ij,ji->i", T, A^{-1} T^T)``.
    """
    from fieldcal.covariance import correlation_block, rotate_array
    from fieldcal.inference import basis_matrix

    ef = fit.event(event)
    theta, prior = fit.theta, fit.prior
    loc = np.atleast_2d(np.asarray(loc, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    loc_t = rotate_array(loc, theta.omega)
    t_mat = correlation_block(theta, loc_t, x, ef.locations_rot, ef.x)
    h_t = basis_matrix(x, prior.q)
    mean = h_t @ ef.beta_hat + t_mat @ ef.weights

    ainv_tt = ef.A_factor.solve(t_mat.T)
    r = h_t - t_mat @ ef.Ainv_H
    nugget_z = max(theta.lambda2 - prior.sigmaY ** 2 / ef.sigma_hat2, 0.0)
    noise = prior.sigmaY ** 2 if add_noise else 0.0
    var = (1.0 + nugget_z
           - np.einsum("ij,ji->i", t_mat, ainv_tt)
           + np.einsum("ij,ij->i", r @ _bstar(ef), r))
    var = ef.sigma_hat2 * np.clip(var, 0.0, None) + noise
    return mean, var


def full_covariance_reference(fit, event, loc, x, add_noise):
    """Full posterior covariance with the m x m prior block as a cross block.

    The construction ``prediction._conditional(full_cov=True)`` had
    before it built that block from the condensed pairs:
    ``correlation_block(theta, loc_t, x, loc_t, x)`` computes every pair
    twice and each record with itself; the rest is the same arithmetic
    in the same order.
    """
    from fieldcal.covariance import correlation_block, rotate_array
    from fieldcal.inference import basis_matrix

    ef = fit.event(event)
    theta, prior = fit.theta, fit.prior
    loc = np.atleast_2d(np.asarray(loc, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    loc_t = rotate_array(loc, theta.omega)
    t_mat = correlation_block(theta, loc_t, x, ef.locations_rot, ef.x)
    r = basis_matrix(x, prior.q) - t_mat @ ef.Ainv_H
    ainv_tt = ef.A_factor.solve(t_mat.T)
    c_t = correlation_block(theta, loc_t, x, loc_t, x)
    cov = c_t - t_mat @ ainv_tt + r @ _bstar(ef) @ r.T
    nugget_z = max(theta.lambda2 - prior.sigmaY ** 2 / ef.sigma_hat2, 0.0)
    cov[np.diag_indices_from(cov)] += nugget_z
    cov *= ef.sigma_hat2
    cov[np.diag_indices_from(cov)] += prior.sigmaY ** 2 if add_noise else 0.0
    return 0.5 * (cov + cov.T)


def grid_values_reference(tokens, line):
    """Grid token values by one ``float()`` call per token.

    The loop ``dataio.load_grid`` ran before it converted all tokens in
    one numpy call, with the same messages and line number.
    """
    from fieldcal.dataio import ParseError

    vals = np.empty(len(tokens))
    for k, tok in enumerate(tokens):
        if tok == "NA":
            vals[k] = np.nan
        else:
            try:
                vals[k] = float(tok)
            except ValueError:
                raise ParseError(line, f"bad value {tok!r}") from None
            if not np.isfinite(vals[k]):
                raise ParseError(line, f"non-finite value {tok!r} (use NA for missing)")
    return vals


class OutOfDomain(Exception):
    """A point beyond the grid's closed hull."""


class MissingNeighbor(Exception):
    """A missing grid cell carries weight at a point."""


def interpolate_field_reference(grid, s1: float, s2: float) -> float:
    """Bilinear interpolation of one point by a masked 4-term dot, the
    scalar path that preceded ``dataio._bilinear``. Raises
    :class:`OutOfDomain` (s1 checked first) or :class:`MissingNeighbor`."""
    rel_tol = 1e-9

    def axis_index(v, origin, spacing, n, name):
        u = (v - origin) / spacing
        span = max(n - 1, 1)
        if u < -rel_tol * span - rel_tol or u > span * (1 + rel_tol) + rel_tol:
            raise OutOfDomain(f"{name}={v} outside grid hull")
        if n == 1:
            return 0, 0.0
        u = min(max(u, 0.0), float(n - 1))
        i0 = min(int(np.floor(u)), n - 2)
        return i0, u - i0

    i0, fu = axis_index(s1, grid.origin[0], grid.spacing[0], grid.n1, "s1")
    j0, fv = axis_index(s2, grid.origin[1], grid.spacing[1], grid.n2, "s2")
    i1 = min(i0 + 1, grid.n1 - 1)
    j1 = min(j0 + 1, grid.n2 - 1)
    corners = grid.values[[i0, i0, i1, i1], [j0, j1, j0, j1]]
    w = np.array([(1 - fu) * (1 - fv), (1 - fu) * fv, fu * (1 - fv), fu * fv])
    # a missing cell only matters if it carries weight; exact cell-center
    # queries next to a gap stay valid
    live = w > 0.0
    if np.any(np.isnan(corners[live])):
        raise MissingNeighbor(f"missing grid cell near ({s1}, {s2})")
    return float(w[live] @ corners[live])


def save_grid_reference(grid, path, header_comments=()):
    """FIELDGRID v1 writer formatting each cell with its own f-string, as
    ``dataio.save_grid`` did before it formatted a grid with one row
    template (which itself wrote what formatting each numpy scalar
    after an ``np.isnan`` test wrote)."""
    import io

    buf = io.StringIO()
    for line in header_comments:
        buf.write(f"# {line}\n")
    buf.write("FIELDGRID v1\n")
    buf.write(f"event {grid.event}\n")
    buf.write(f"dims {grid.n1} {grid.n2}\n")
    buf.write(f"origin {grid.origin[0]:.6g} {grid.origin[1]:.6g}\n")
    buf.write(f"spacing {grid.spacing[0]:.6g} {grid.spacing[1]:.6g}\n")
    # plain Python floats: numpy scalar calls per cell cost more than
    # the formatting itself; v != v is the NaN test
    for row in grid.values.tolist():
        buf.write(" ".join(["NA" if v != v else f"{v:.6g}" for v in row])
                  + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


def csv_text_reference(comments, header, rows):
    """A CSV file's text from preformatted rows, as ``cli._write_csv``
    joined it before it took a table's columns."""
    out = [f"# {c}" for c in comments]
    out.append(",".join(header))
    out.extend(map(",".join, rows))
    return "\n".join(out) + "\n"


def g6_rows_reference(table):
    """A float table as CSV rows of one preformatted cell: ``{:.6g}`` text.

    ``cli._g6_rows``, which formatted the full-covariance and simulate
    tables before ``cli._write_csv`` formatted every table."""
    n, k = table.shape
    if not n:
        return []
    # one %-format over the whole table on plain Python floats
    fmt = "\n".join([",".join(["%.6g"] * k)] * n)
    text = fmt % tuple(table.ravel().tolist())
    return [(row,) for row in text.split("\n")]


def points_csv_rows_reference(pf, level=0.95, law="auto"):
    """Header and formatted rows for the point-prediction CSV export,
    as ``prediction.points_csv_rows`` made them."""
    lo, hi = pf.interval(level=level, law=law)
    pct = round(level * 100)
    header = ["event", "s1", "s2", "x_sim", "post_mean", "post_sd",
              f"lo{pct}", f"hi{pct}"]
    table = np.column_stack([pf.locations, pf.intensities, pf.mean, pf.sd,
                             lo, hi])
    # one %-format per row on plain Python floats; "%.6g" has no comma
    fmt = ",".join(["%.6g"] * table.shape[1])
    rows = [[pf.event, *(fmt % tuple(row)).split(",")]
            for row in table.tolist()]
    return header, rows


def variogram_csv_rows_reference(table):
    """Header and rows for the long-format variogram export, as
    ``diagnostics.variogram_csv_rows`` made them."""
    header = ["variable", "bin_mid", "empirical", "model", "lo", "hi", "count"]
    rows = []
    for k in range(table.bins):
        rows.append([table.binning_variable, f"{table.bin_center[k]:.6g}",
                     f"{table.empirical[k]:.6g}", f"{table.model[k]:.6g}",
                     f"{table.lower95[k]:.6g}", f"{table.upper95[k]:.6g}",
                     str(int(table.counts[k]))])
    return header, rows


def fit_summary_rows_reference(result, sigma_y):
    """Header and rows of ``fit_summary.csv``, one f-string per cell, as
    ``cli.cmd_fit`` made them."""
    rows = []
    sy2 = sigma_y ** 2
    for ef in result.events:
        ok = result.theta.lambda2 * ef.sigma_hat2 >= sy2
        rows.append([ef.event, str(ef.K),
                     " ".join(f"{v:.6g}" for v in ef.beta_hat),
                     f"{np.sqrt(ef.sigma_hat2):.6g}",
                     "ok" if ok else "nugget_below_noise"])
    return ["event", "K", "beta_hat", "sigma_hat", "nugget_check"], rows


def validate_rows_reference(event, n_hold, hold, report):
    """The standardized rows, the pivoted rows and the summary row of one
    event's validation, one f-string per cell, as ``cli.cmd_validate``
    made them."""
    from fieldcal.dataio import rmse

    std = [[str(i), f"{v:.6g}"]
           for i, v in enumerate(report.standardized_errors)]
    piv = [[str(k), str(int(report.pivot_indices[k])),
            f"{report.pivoted_errors[k]:.6g}",
            f"{report.qq_pairs[k, 0]:.6g}",
            f"{report.qq_pairs[k, 1]:.6g}"]
           for k in range(len(report.pivoted_errors))]
    summary = [event, str(n_hold), str(report.df_pair[1]),
               f"{report.mahalanobis:.6g}",
               f"{report.mahalanobis_raw:.6g}",
               f"{report.mahalanobis_pvalue:.6g}",
               f"{rmse(hold.y, hold.x):.6g}",
               f"{rmse(hold.y, report.mean):.6g}"]
    return std, piv, summary


def validation_reference(fit, validation):
    """Held-out diagnostics by three separate conditionings.

    The code ``diagnostics.validation_report`` ran before it read every
    diagnostic off one predictive distribution: standardized errors from
    a diagonal-only conditioning, pivoted errors from a full-covariance
    one through ``pivoted_cholesky``, and the Mahalanobis statistic from
    a third through ``cholesky``. Returns (standardized errors, pivoted
    errors, pivot indices, D, p-value).
    """
    from scipy import special

    from fieldcal.numerics import cholesky, pivoted_cholesky
    from fieldcal.prediction import predictive_measurements

    pf = predictive_measurements(fit, validation.event,
                                 (validation.locations, validation.x),
                                 full_cov=False)
    std = (validation.y - pf.mean) / pf.sd

    if len(validation) < 2:
        raise ValueError("pivoted_errors needs at least 2 validation points")
    pf = predictive_measurements(fit, validation.event,
                                 (validation.locations, validation.x),
                                 full_cov=True)
    factor = pivoted_cholesky(pf.covariance)
    epc = factor.decorrelate(validation.y - pf.mean)
    piv = factor.permutation.copy()

    ef = fit.event(validation.event)
    q = fit.prior.q
    df2 = ef.K - q
    if df2 <= 0:
        raise ValueError("training degrees of freedom must be positive")
    pf = predictive_measurements(fit, validation.event,
                                 (validation.locations, validation.x),
                                 full_cov=True)
    resid = validation.y - pf.mean
    n_tilde = len(resid)
    d_mh = float(resid @ cholesky(pf.covariance).solve(resid)) / n_tilde
    # the F(n_tilde, df2) upper tail as a regularized incomplete beta
    p = float(special.betainc(0.5 * df2, 0.5 * n_tilde,
                              df2 / (n_tilde * d_mh + df2)))
    return std, epc, piv, d_mh, p


def event_statistics_reference(dataset, theta, prior):
    """The conjugate update as ``inference.event_statistics`` computed it
    with two full solves through A and the scale term written as
    S = a + b^T B^{-1} b + y^T A^{-1} y - beta_hat^T (B*)^{-1} beta_hat,
    which cancels when y sits far from zero compared with its residuals.
    """
    from fieldcal.covariance import correlation_matrix_arrays, rotate_array
    from fieldcal.inference import (SIGMA2_FLOOR, TooFewObservations,
                                    basis_matrix)
    from fieldcal.numerics import cholesky

    K = len(dataset)
    q = prior.q
    if K <= q:
        raise TooFewObservations(
            f"event {dataset.event}: K={K} pairs but basis has q={q} coefficients")
    y = dataset.y
    loc_t = rotate_array(dataset.locations, theta.omega)
    a_mat = correlation_matrix_arrays(theta, loc_t, dataset.x)
    a_factor = cholesky(a_mat)
    h = basis_matrix(dataset.x, q)

    ainv_y = a_factor.solve(y)
    ainv_h = a_factor.solve(h)
    b_factor = cholesky(prior.B)
    binv = b_factor.solve(np.eye(q))
    bstar_inv = binv + h.T @ ainv_h
    bstar_inv = 0.5 * (bstar_inv + bstar_inv.T)
    bstar_factor = cholesky(bstar_inv)
    beta_hat = bstar_factor.solve(binv @ prior.b + h.T @ ainv_y)
    bstar = bstar_factor.solve(np.eye(q))
    bstar = 0.5 * (bstar + bstar.T)

    s = (prior.a + float(prior.b @ binv @ prior.b) + float(y @ ainv_y)
         - float(beta_hat @ bstar_inv @ beta_hat))
    raw_sigma2 = s / (K + prior.d)
    floored = raw_sigma2 < SIGMA2_FLOOR
    sigma_hat2 = max(raw_sigma2, SIGMA2_FLOOR)
    weights = ainv_y - ainv_h @ beta_hat

    return types.SimpleNamespace(
        event=dataset.event, beta_hat=beta_hat, sigma_hat2=sigma_hat2,
        A_factor=a_factor, Bstar=bstar, weights=weights, K=K, df=K + prior.d,
        dataset=dataset, H=h, locations_rot=loc_t, Ainv_H=ainv_h, S=s,
        logdet_Bstar=-bstar_factor.logdet, sigma_floored=floored)


def log_posterior_reference(datasets, theta, prior):
    """The theta objective as one full :func:`event_statistics_reference`
    per event: the sum of the marginalized evidences, -inf when A fails
    to factorize or the scale estimate collapses to its floor."""
    from fieldcal.numerics import NotPositiveDefinite

    total = 0.0
    for ds in datasets:
        try:
            ef = event_statistics_reference(ds, theta, prior)
        except NotPositiveDefinite:
            return -math.inf
        if ef.sigma_floored:
            return -math.inf
        total += (-(ef.K + prior.d) * 0.5 * math.log(ef.sigma_hat2)
                  - 0.5 * ef.A_factor.logdet + 0.5 * ef.logdet_Bstar)
    return total


def _solve_longdouble(m, rhs):
    """Gauss-Jordan elimination with partial pivoting in long double."""
    m = np.array(m, dtype=np.longdouble)
    r = np.array(rhs, dtype=np.longdouble).reshape(len(m), -1)
    n = len(m)
    for k in range(n):
        p = k + int(np.argmax(np.abs(m[k:, k])))
        m[[k, p]], r[[k, p]] = m[[p, k]], r[[p, k]]
        piv = m[k, k]
        f = m[:, k] / piv
        f[k] = 0.0
        m -= np.outer(f, m[k])
        r -= np.outer(f, r[k])
    return r / np.diag(m)[:, None]


def scale_term_longdouble(a_mat, y, h, prior):
    """S = a + b^T B^-1 b + y^T A^-1 y - beta^T (B*)^-1 beta in long
    double, for the stable-S check on data already moved near zero."""
    b = np.array(prior.b, dtype=np.longdouble)
    binv = _solve_longdouble(prior.B, np.eye(prior.q))
    sol = _solve_longdouble(a_mat, np.column_stack([y, h]))
    ainv_y, ainv_h = sol[:, 0], sol[:, 1:]
    h_ld = np.array(h, dtype=np.longdouble)
    y_ld = np.array(y, dtype=np.longdouble)
    bstar_inv = binv + h_ld.T @ ainv_h
    beta = _solve_longdouble(bstar_inv, binv @ b + h_ld.T @ ainv_y)[:, 0]
    return (np.longdouble(prior.a) + b @ binv @ b + y_ld @ ainv_y
            - beta @ bstar_inv @ beta)
