"""Synthetic multi-event corpus with a known generating process.

Builds windstorm-like events from scratch: a smooth positive simulator
grid per event, stations scattered inside it, and measured gusts drawn
from the same hierarchy the library fits (polynomial mean in the
simulated value, an anisotropic rotated Matern-product field scaled by
sigma, a micro-scale nugget, and iid measurement noise).  Every kernel
evaluation here is local to this module so the generator does not lean
on the production covariance assembly it is used to test.
"""

import csv

import numpy as np
from scipy.special import gamma, kv

from fieldcal.dataio import EventDataset, GridField, _bilinear, save_grid

# generating hyperparameters; sigma^2*lambda2 must exceed SIGMA_Y^2 so
# the micro-scale variance stays positive
TRUE_THETA = {
    "omega": 0.3, "lambda2": 0.25, "phi1": 5.0, "phi2": 3.0,
    "nu1": 1.2, "nu2": 0.8, "phiX": 8.0,
}
TRUE_BETA = np.array([2.0, 0.9, 0.01])
TRUE_SIGMA = 6.5
SIGMA_Y = 3.0

GRID_N = 40
THRESHOLD = 15.0
DEFAULT_SEED = 20260816


def _matern(h, phi, nu):
    h = np.asarray(h, dtype=float)
    z = np.sqrt(2.0 * nu) * h / phi
    out = np.ones_like(z)
    pos = z > 0
    zp = z[pos]
    out[pos] = (2.0 ** (1.0 - nu) / gamma(nu)) * zp ** nu * kv(nu, zp)
    return out


def smooth_correlation(loc, x, theta=TRUE_THETA):
    """Nugget-free correlation among one event's records."""
    c, s = np.cos(theta["omega"]), np.sin(theta["omega"])
    t = np.array([[c, -s], [s, c]])
    r = np.asarray(loc, dtype=float) @ t.T
    x = np.asarray(x, dtype=float)
    d1 = np.abs(r[:, None, 0] - r[None, :, 0])
    d2 = np.abs(r[:, None, 1] - r[None, :, 1])
    dx = (x[:, None] - x[None, :]) / theta["phiX"]
    return (_matern(d1, theta["phi1"], theta["nu1"])
            * _matern(d2, theta["phi2"], theta["nu2"])
            * np.exp(-dx * dx))


def make_grid(event, rng, n=GRID_N):
    """Positive simulator field, everywhere above the threshold.

    Short-wavelength ripples give nearby stations distinct simulated
    intensities; without them the intensity range is confounded with
    the spatial ranges (intensity varies only where distance already
    decorrelates the field) and cannot be recovered from the data.
    """
    g = np.arange(n, dtype=float)
    c1, c2 = np.meshgrid(g, g, indexing="ij")
    values = np.full((n, n), 22.0)
    for _ in range(6):
        a, b = rng.uniform(3, n - 3, size=2)
        amp = rng.uniform(4.0, 10.0)
        width = rng.uniform(1.5, 4.0)
        values += amp * np.exp(-((c1 - a) ** 2 + (c2 - b) ** 2)
                               / (2.0 * width ** 2))
    p = rng.uniform(0, 2 * np.pi, size=4)
    values += 4.0 * np.sin(2.1 * c1 + p[0]) * np.sin(1.6 * c2 + p[1])
    values += 1.2 * np.sin(0.5 * c1 + p[2]) * np.cos(0.4 * c2 + p[3])
    values += 0.05 * c1 + 0.03 * c2
    return GridField(event=event, n1=n, n2=n, origin=(0.0, 0.0),
                     spacing=(1.0, 1.0), values=values)


def synth_event(event, rng, n_stations=200, beta=TRUE_BETA):
    """One event: grid plus stations with model-drawn measurements."""
    grid = make_grid(event, rng)
    loc = rng.uniform(1.0, float(GRID_N - 2), size=(n_stations, 2))
    x, gap, outside = _bilinear(grid, loc[:, 0], loc[:, 1])
    assert not (gap.any() or outside.any())

    h = np.column_stack([np.ones(n_stations), x, x * x])
    corr = smooth_correlation(loc, x)
    # tiny jitter keeps the draw factorizable at dense station layouts
    chol = np.linalg.cholesky(corr + 1e-10 * np.eye(n_stations))
    smooth = TRUE_SIGMA * (chol @ rng.standard_normal(n_stations))
    micro_var = TRUE_SIGMA ** 2 * TRUE_THETA["lambda2"] - SIGMA_Y ** 2
    micro = np.sqrt(micro_var) * rng.standard_normal(n_stations)
    noise = SIGMA_Y * rng.standard_normal(n_stations)
    y = h @ np.asarray(beta, dtype=float) + smooth + micro + noise
    ds = EventDataset(event=event, locations=loc, x=x, y=y,
                      threshold=THRESHOLD)
    return grid, ds


def make_corpus(n_events=10, n_stations=200, seed=DEFAULT_SEED,
                beta=TRUE_BETA):
    """List of (grid, dataset) pairs with independent per-event streams."""
    children = np.random.SeedSequence(seed).spawn(n_events)
    out = []
    for j, child in enumerate(children):
        rng = np.random.default_rng(child)
        out.append(synth_event(f"ev{j:02d}", rng, n_stations, beta))
    return out


def write_corpus(root, corpus):
    """Write station and grid files for the CLI; returns their paths.

    Gusts are written at full precision so a reload reproduces y
    exactly; grid files round to the field format's own precision.
    Station gusts must be nonnegative, so corpora destined for files
    need a generating mean high enough to keep every draw positive.
    """
    station_path = f"{root}/stations.csv"
    rows = [["event", "station", "s1", "s2", "gust"]]
    for grid, ds in corpus:
        if ds.y.min() < 0.0:
            raise AssertionError(f"event {ds.event}: negative gust draw; "
                                 "raise the generating intercept or reseed")
        for i in range(len(ds)):
            rows.append([ds.event, f"st{i:04d}", f"{ds.locations[i, 0]:.17g}",
                         f"{ds.locations[i, 1]:.17g}", f"{ds.y[i]:.17g}"])
    # csv quotes an id holding a comma or a quote, and no other
    with open(station_path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    grid_paths = []
    for grid, _ in corpus:
        gpath = f"{root}/grid_{grid.event}.fg"
        save_grid(grid, gpath)
        grid_paths.append(gpath)
    return station_path, grid_paths
