"""Conjugate per-event regression statistics and hyperparameter fitting.

The marginal model for one event is y = H beta + eta with
eta ~ N(0, sigma2 * A), A the nugget-augmented correlation matrix, and a
normal inverse-gamma prior on (beta, sigma2). Those integrals are
closed-form, so the hyperparameters theta are the only thing fitted
numerically; a single theta is shared across all events. One
:class:`EventFit` per event, built by :func:`event_statistics`, holds
that update for both the theta objective and prediction.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .covariance import (NU_BOUNDS, Hyperparameters, _correlation_upper,
                         rotate_array)
from .dataio import EventDataset, _write_text
from .numerics import (CholeskyFactor, NonFiniteObjective, NotPositiveDefinite,
                       OptimizerOptions, SearchResult, _cholesky_in_place,
                       cholesky, nelder_mead)

log = logging.getLogger(__name__)

SIGMA2_FLOOR = 1e-10
LOG_PARAM_BOUND = 30.0

FIT_MAGIC = "FIELDCALFIT v1"


class TooFewObservations(Exception):
    """An event has too few pairs to identify the regression."""


class OptimizationFailed(Exception):
    """No finite objective value was found."""


class UnknownEvent(KeyError):
    """Requested event is not part of the fit."""


class ArtifactError(Exception):
    """A fit artifact file is malformed or inconsistent."""


class FitWarning(UserWarning):
    """Soft model-adequacy complaints raised during fitting."""


@dataclass(frozen=True)
class PriorSpec:
    """Normal inverse-gamma prior and measurement-error scale.

    ``b`` and ``B`` are the prior mean and scale of the regression
    coefficients, ``a`` and ``d`` the inverse-gamma hyperparameters for
    sigma2, ``sigmaY`` the fixed measurement error SD, and
    ``basis_degree`` the polynomial degree of the mean (q = degree + 1).
    """

    b: np.ndarray
    B: np.ndarray
    a: float = 0.0
    d: float = 0.0
    sigmaY: float = 3.0
    basis_degree: int = 2

    def __post_init__(self):
        if self.basis_degree not in (0, 1, 2):
            raise ValueError("basis_degree must be 0, 1 or 2")
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        object.__setattr__(self, "B", np.asarray(self.B, dtype=float))
        q = self.basis_degree + 1
        if self.b.shape != (q,):
            raise ValueError(f"prior b must have length {q}")
        if self.B.shape != (q, q):
            raise ValueError(f"prior B must be {q}x{q}")
        for name in ("b", "B", "a", "d", "sigmaY"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"prior {name} must be finite")
        if self.a < 0.0 or self.d < 0.0:
            raise ValueError("a and d must be >= 0")
        if not self.sigmaY > 0.0:
            raise ValueError("sigmaY must be > 0")

    @property
    def q(self) -> int:
        return self.basis_degree + 1

    @functools.cached_property
    def _precision(self):
        # B^{-1} and B^{-1} b, factored once per prior
        binv = cholesky(self.B).solve(np.eye(self.q))
        return binv, binv @ self.b


def default_prior() -> PriorSpec:
    """Quadratic basis centered on the identity map y = x."""
    return PriorSpec(b=np.array([0.0, 1.0, 0.0]),
                     B=np.diag([0.1, 1.0, 1.0]),
                     a=0.0, d=0.0, sigmaY=3.0, basis_degree=2)


def basis_matrix(x, q: int) -> np.ndarray:
    """Polynomial regression basis (1), (1, x) or (1, x, x^2), one row per x."""
    if q not in (1, 2, 3):
        raise ValueError(f"unsupported basis size q={q}")
    x = np.asarray(x, dtype=float)
    return np.column_stack([x ** k for k in range(q)])


@dataclass(frozen=True)
class EventFit:
    """One event's conjugate update at fixed theta, built only by
    :func:`event_statistics`.

    The stored fields are what the evidence needs. ``weights``,
    ``Ainv_H`` and ``Linv``, which only prediction reads, are computed
    on first use, so the theta objective never pays for them.
    """

    dataset: EventDataset
    H: np.ndarray
    locations_rot: np.ndarray
    A_factor: CholeskyFactor
    W_H: np.ndarray               # L^{-1} H
    resid_w: np.ndarray           # L^{-1} (y - H beta_hat)
    beta_hat: np.ndarray
    Bstar_inv_factor: CholeskyFactor
    S: float
    sigma_hat2: float
    sigma_floored: bool
    df: float                     # K + d

    @property
    def event(self) -> str:
        return self.dataset.event

    @property
    def K(self) -> int:
        return len(self.dataset)

    @property
    def x(self) -> np.ndarray:
        return self.dataset.x

    @property
    def y(self) -> np.ndarray:
        return self.dataset.y

    @property
    def logdet_Bstar(self) -> float:
        return -self.Bstar_inv_factor.logdet

    @functools.cached_property
    def weights(self) -> np.ndarray:
        # A^{-1} (y - H beta_hat)
        return self.A_factor.solve_upper(self.resid_w)

    @functools.cached_property
    def Ainv_H(self) -> np.ndarray:
        return self.A_factor.solve_upper(self.W_H)

    @functools.cached_property
    def Linv(self) -> np.ndarray:
        # L^{-1}, lower and Fortran-ordered as LAPACK returns it:
        # t^T A^{-1} t = ||L^{-1} t||^2 is then one triangular product
        return lapack.dtrtri(self.A_factor.lower, lower=1)[0]

    @property
    def log_evidence(self) -> float:
        """Log of the (beta, sigma2)-marginalized likelihood, up to a
        theta-independent constant; -inf when the scale estimate
        collapsed to its floor."""
        if self.sigma_floored:
            return -math.inf
        return (-self.df * 0.5 * math.log(self.sigma_hat2)
                - 0.5 * self.A_factor.logdet + 0.5 * self.logdet_Bstar)


def event_statistics(dataset: EventDataset, theta: Hyperparameters,
                     prior: PriorSpec) -> EventFit:
    """Conjugate update for one event at fixed hyperparameters.

    Factors A = L L^T and solves W = L^{-1} [y | H] once; y^T A^{-1} y,
    H^T A^{-1} y and H^T A^{-1} H are products of its columns. Then
    B* = (B^{-1} + H^T A^{-1} H)^{-1}, the posterior coefficient mean
    beta_hat = B* (B^{-1} b + H^T A^{-1} y), and the scale estimate
    sigma_hat2 = S / (K + d), floored at 1e-10, with S summed from two
    nonnegative parts, S = a + (y - H beta_hat)^T A^{-1} (y - H beta_hat)
    + (beta_hat - b)^T B^{-1} (beta_hat - b). That equals
    a + b^T B^{-1} b + y^T A^{-1} y - beta_hat^T (B*)^{-1} beta_hat
    without its cancellation when y sits far from zero.
    """
    K = len(dataset)
    if K <= prior.q:
        raise TooFewObservations(
            f"event {dataset.event}: K={K} pairs but basis has "
            f"q={prior.q} coefficients")
    h = basis_matrix(dataset.x, prior.q)
    loc_t = rotate_array(dataset.locations, theta.omega)
    # both matrices are built exactly symmetric and factored in the
    # buffer they are built in; the dataset's values are finite
    a_factor = _cholesky_in_place(
        lambda: _correlation_upper(theta, loc_t, dataset.x))
    w = a_factor.solve_lower(np.column_stack([dataset.y, h]))
    w_y, w_h = w[:, 0], w[:, 1:]
    binv, binv_b = prior._precision
    bstar_inv = binv + w_h.T @ w_h
    bstar_inv_factor = _cholesky_in_place(
        lambda: 0.5 * (bstar_inv + bstar_inv.T))
    beta_hat = bstar_inv_factor.solve(binv_b + w_h.T @ w_y)
    resid_w = w_y - w_h @ beta_hat
    db = beta_hat - prior.b
    s = prior.a + float(resid_w @ resid_w) + float(db @ binv @ db)
    df = K + prior.d
    raw_sigma2 = s / df
    return EventFit(dataset=dataset, H=h, locations_rot=loc_t,
                    A_factor=a_factor, W_H=w_h, resid_w=resid_w,
                    beta_hat=beta_hat, Bstar_inv_factor=bstar_inv_factor,
                    S=s, sigma_hat2=max(raw_sigma2, SIGMA2_FLOOR),
                    sigma_floored=raw_sigma2 < SIGMA2_FLOOR, df=df)


def log_posterior_theta(datasets, theta: Hyperparameters,
                        prior: PriorSpec, keep=None) -> float:
    """Log posterior of theta under a flat hyperprior, up to a constant.

    Sums the per-event marginalized evidences. Returns -inf when an
    event's correlation matrix fails to factorize or the scale estimate
    collapses to its floor. Each EventFit built is appended to the list
    ``keep`` when one is given.
    """
    total = 0.0
    for ds in datasets:
        # ef stays bound while the next event's update is built: freeing
        # each update first lets malloc hand its pages back and fault them
        # in again (2.8x the minor page faults and a 25 % slower objective
        # for 10 events x 200 stations on a 2-CPU VM)
        try:
            ef = event_statistics(ds, theta, prior)
        except NotPositiveDefinite:
            return -math.inf
        if keep is not None:
            keep.append(ef)
        total += ef.log_evidence
        if total == -math.inf:
            return total
    return total


@dataclass(frozen=True)
class ModelFit:
    """Fitted hyperparameters with per-event conjugate summaries, and
    the search that found them (None for a reloaded or assembled fit)."""

    theta: Hyperparameters
    events: tuple
    prior: PriorSpec
    log_posterior: float
    search: SearchResult | None = None

    def __post_init__(self):
        if not self.events:
            raise ValueError("ModelFit requires at least one event")

    def event(self, event_id: str) -> EventFit:
        for ef in self.events:
            if ef.event == event_id:
                return ef
        raise UnknownEvent(event_id)


def _wrap_angle(w: float) -> float:
    # the likelihood is pi-periodic in omega, so fold into (-pi/2, pi/2]
    r = (w + math.pi / 2) % math.pi - math.pi / 2
    if r == -math.pi / 2:
        r = math.pi / 2
    return r


def _pack(theta: Hyperparameters) -> np.ndarray:
    vals = [theta.lambda2, theta.phi1, theta.phi2, theta.nu1, theta.nu2,
            theta.phiX]
    return np.array([theta.omega] + [math.log(max(v, 1e-12)) for v in vals])


def _unpack(z: np.ndarray):
    logs = z[1:]
    if np.any(np.abs(logs) > LOG_PARAM_BOUND):
        return None
    lam2, phi1, phi2, nu1, nu2, phix = np.exp(logs)
    if not (NU_BOUNDS[0] <= nu1 <= NU_BOUNDS[1]
            and NU_BOUNDS[0] <= nu2 <= NU_BOUNDS[1]):
        return None
    return Hyperparameters(omega=_wrap_angle(float(z[0])), lambda2=float(lam2),
                           phi1=float(phi1), phi2=float(phi2),
                           nu1=float(nu1), nu2=float(nu2), phiX=float(phix))


def default_theta0(datasets) -> Hyperparameters:
    """Data-driven starting point: ranges at 20% of the spatial and
    intensity extents, middling smoothness, small nugget, no rotation."""
    loc = np.vstack([ds.locations for ds in datasets])
    x = np.concatenate([ds.x for ds in datasets])
    span = loc.max(axis=0) - loc.min(axis=0)
    diag = float(np.hypot(span[0], span[1]))
    phi0 = max(0.2 * diag, 1e-3)
    phix0 = max(0.2 * float(x.max() - x.min()), 1e-3)
    return Hyperparameters(omega=0.0, lambda2=0.1, phi1=phi0, phi2=phi0,
                           nu1=1.5, nu2=1.5, phiX=phix0)


def fit(datasets, prior: PriorSpec, opts: OptimizerOptions,
        theta0: Hyperparameters | None = None) -> ModelFit:
    """Maximize the theta posterior and assemble the fitted model.

    Positive parameters are optimized on the log scale; omega is
    optimized raw and folded into (-pi/2, pi/2]. Events whose implied
    nugget variance cannot cover the measurement-error variance are
    reported through a :class:`FitWarning`.
    """
    datasets = list(datasets)
    if not datasets:
        raise ValueError("fit requires at least one event dataset")
    if theta0 is None:
        theta0 = default_theta0(datasets)

    # (value, z, updates) of the lowest evaluation, which the search returns
    best = [math.inf, None, ()]
    # event updates built, and how many of them needed the jitter retry
    updates = [0, 0]

    def objective(z):
        z, kept = np.array(z, dtype=float), []
        theta = _unpack(z)
        if theta is None:
            return math.inf
        lp = log_posterior_theta(datasets, theta, prior, keep=kept)
        updates[0] += len(kept)
        updates[1] += sum(ef.A_factor.jitter > 0.0
                          or ef.Bstar_inv_factor.jitter > 0.0 for ef in kept)
        if math.isfinite(lp) and -lp < best[0]:
            best[:] = -lp, z, tuple(kept)
        return -lp if math.isfinite(lp) else math.inf

    try:
        search = nelder_mead(objective, _pack(theta0), opts)
    except NonFiniteObjective:
        raise OptimizationFailed(
            "objective is not finite at the starting hyperparameters") from None
    log.debug("%d of %d event updates in the search needed the jitter retry",
              updates[1], updates[0])
    theta_hat = _unpack(search.x)
    if theta_hat is None or not math.isfinite(search.fun):
        raise OptimizationFailed("optimizer did not find a finite optimum")

    events = best[2]
    if not np.array_equal(best[1], search.x):
        events = tuple(event_statistics(ds, theta_hat, prior) for ds in datasets)
    bad = [ef.event for ef in events
           if prior.sigmaY ** 2 > theta_hat.lambda2 * ef.sigma_hat2]
    if bad:
        warnings.warn(
            "fitted nugget cannot cover the measurement-error variance "
            f"(sigmaY^2 > lambda2*sigma_hat2) for event(s): {', '.join(bad)}",
            FitWarning, stacklevel=2)
    return ModelFit(theta=theta_hat, events=events, prior=prior,
                    log_posterior=-search.fun, search=search)


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def format_fit(fit_result: ModelFit) -> str:
    """A ModelFit as versioned artifact text.

    Holds theta, the prior, and each event's training pairs at full
    float precision, so reloading reproduces every statistic exactly.
    """
    p = fit_result.prior
    lines = [FIT_MAGIC]
    th = fit_result.theta
    lines.append("theta " + " ".join(_fmt(v) for v in (
        th.omega, th.lambda2, th.phi1, th.phi2, th.nu1, th.nu2, th.phiX)))
    lines.append(f"prior_q {p.q}")
    lines.append("prior_b " + " ".join(_fmt(v) for v in p.b))
    lines.append("prior_B " + " ".join(_fmt(v) for v in p.B.ravel()))
    lines.append(f"prior_a {_fmt(p.a)}")
    lines.append(f"prior_d {_fmt(p.d)}")
    lines.append(f"prior_sigmaY {_fmt(p.sigmaY)}")
    lines.append(f"log_posterior {_fmt(fit_result.log_posterior)}")
    lines.append(f"events {len(fit_result.events)}")
    for ef in fit_result.events:
        ds = ef.dataset
        lines.append(f"event {ef.K} {_fmt(ds.threshold)} {ef.event}")
        lines.append("beta " + " ".join(_fmt(v) for v in ef.beta_hat))
        lines.append(f"sigma2 {_fmt(ef.sigma_hat2)}")
        # one format for the block: "%.17g" of a float is _fmt's text
        rows = np.column_stack((ds.locations, ds.x, ds.y)).ravel().tolist()
        lines.append("\n".join(["%.17g %.17g %.17g %.17g"] * ef.K) % tuple(rows))
    lines.append("end")
    return "\n".join(lines) + "\n"


def save_fit(fit_result: ModelFit, path, header_comments=()) -> None:
    """Write :func:`format_fit` of a ModelFit to ``path`` atomically, after
    one ``# `` line per entry of ``header_comments``."""
    _write_text(path, "".join(f"# {line}\n" for line in header_comments)
                + format_fit(fit_result))


# a parsed, format-checked artifact with no event built: theta, the prior,
# the stored log posterior, and per event (dataset, stored beta, stored sigma2)
FitRecord = namedtuple("FitRecord", "theta prior log_posterior events")


def read_fit(path) -> FitRecord:
    """Parse every block of a fit artifact without factoring anything."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    it = iter([ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")])

    def take(keyword, count=None, maxsplit=-1):
        try:
            parts = next(it).rstrip().split(None, maxsplit)
        except StopIteration:
            raise ArtifactError(f"{path}: truncated artifact, expected {keyword}") from None
        if parts[0] != keyword:
            raise ArtifactError(f"{path}: expected {keyword!r}, got {parts[0]!r}")
        if count is not None and len(parts) != count + 1:
            raise ArtifactError(f"{path}: {keyword} needs {count} fields")
        return parts[1:]

    magic = next(it, "")
    if magic.strip() != FIT_MAGIC:
        raise ArtifactError(f"{path}: not a {FIT_MAGIC} artifact")
    try:
        tvals = [float(v) for v in take("theta", 7)]
        theta = Hyperparameters(*tvals)
        q = int(take("prior_q", 1)[0])
        b = np.array([float(v) for v in take("prior_b", q)])
        bmat = np.array([float(v) for v in take("prior_B", q * q)]).reshape(q, q)
        a = float(take("prior_a", 1)[0])
        d = float(take("prior_d", 1)[0])
        sigma_y = float(take("prior_sigmaY", 1)[0])
        stored_lp = float(take("log_posterior", 1)[0])
        n_events = int(take("events", 1)[0])
        prior = PriorSpec(b=b, B=bmat, a=a, d=d, sigmaY=sigma_y,
                          basis_degree=q - 1)
        events = []
        for _ in range(n_events):
            # the id is the rest of the line, inner whitespace kept
            head = take("event", maxsplit=3)
            if len(head) < 3:
                raise ArtifactError(f"{path}: malformed event line")
            k = int(head[0])
            u = float(head[1])
            event_id = head[2]
            beta_stored = np.array([float(v) for v in take("beta", q)])
            sigma2_stored = float(take("sigma2", 1)[0])
            block = [ln.split() for ln in itertools.islice(it, k)]
            if len(block) < k:
                raise ArtifactError(f"{path}: truncated data block")
            if any(len(vals) != 4 for vals in block):
                raise ArtifactError(f"{path}: bad data row in event {event_id}")
            rows = np.array([[float(v) for v in vals] for vals in block]).reshape(k, 4)
            ds = EventDataset(event=event_id, locations=rows[:, :2].copy(),
                              x=rows[:, 2].copy(), y=rows[:, 3].copy(),
                              threshold=u)
            events.append((ds, beta_stored, sigma2_stored))
        if take("end", 0) != []:
            raise ArtifactError(f"{path}: malformed end marker")
    except (ValueError, IndexError) as exc:
        raise ArtifactError(f"{path}: {exc}") from None
    return FitRecord(theta=theta, prior=prior, log_posterior=stored_lp,
                     events=tuple(events))


def load_fit(path, events=None) -> ModelFit:
    """Reload a fit artifact. Every event block is parsed, but only the
    events named in ``events`` (all when None) are rebuilt and verified
    against their stored summaries. A full load reports the recomputed
    log posterior, a partial load the stored one."""
    if isinstance(events, str):
        raise TypeError(f"load_fit: events must be a list of ids, not {events!r}")
    rec = read_fit(path)
    chosen = [blk for blk in rec.events if events is None or blk[0].event in events]
    missing = set(events or ()) - {ds.event for ds, _, _ in chosen}
    if missing:
        raise UnknownEvent(", ".join(sorted(missing)))
    built = []
    for ds, beta_stored, sigma2_stored in chosen:
        try:
            ef = event_statistics(ds, rec.theta, rec.prior)
        except ValueError as exc:   # e.g. non-finite stored coordinates
            raise ArtifactError(f"{path}: {exc}") from None
        if (not np.allclose(ef.beta_hat, beta_stored, rtol=1e-6, atol=1e-9)
                or not math.isclose(ef.sigma_hat2, sigma2_stored,
                                    rel_tol=1e-6, abs_tol=1e-12)):
            raise ArtifactError(
                f"{path}: stored summaries disagree with recomputation "
                f"for event {ds.event}")
        built.append(ef)
    lp = rec.log_posterior
    if events is None:
        lp = sum(ef.log_evidence for ef in built)
        if not math.isclose(lp, rec.log_posterior, rel_tol=1e-6, abs_tol=1e-6):
            log.debug("stored log_posterior %.6g differs from recomputed %.6g",
                      rec.log_posterior, lp)
    return ModelFit(theta=rec.theta, events=tuple(built), prior=rec.prior,
                    log_posterior=lp)
