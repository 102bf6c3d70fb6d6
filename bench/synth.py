"""Seeded synthetic inputs for the benchmark workloads.

A standalone copy of the generating process in ``tests/_synth.py`` (so a
change to the test helpers cannot shift the benchmark's inputs), written
for arbitrary seeds: every event is a smooth positive simulator field on
a 40x40 unit grid with stations scattered inside it, and measured gusts
drawn from the hierarchy fieldcal fits (polynomial mean in the simulated
value, an anisotropic rotated Matern-product field, a micro-scale nugget
and measurement noise). Files are written in the formats the CLI reads,
by this module and not by fieldcal, so the inputs stay fixed when the
program's own writers change.
"""

import hashlib
import math
import os

import numpy as np
from scipy.special import gamma, kv

TRUE_THETA = {
    "omega": 0.3, "lambda2": 0.25, "phi1": 5.0, "phi2": 3.0,
    "nu1": 1.2, "nu2": 0.8, "phiX": 8.0,
}
# the tests' CLI intercept: keeps gusts positive, as the station loader
# requires, for all but a rare draw (those are redrawn, see _draw_gusts)
TRUE_BETA = np.array([8.0, 0.9, 0.01])
TRUE_SIGMA = 6.5
SIGMA_Y = 3.0

GRID_N = 40
THRESHOLD = 15.0


def matern(h, phi, nu):
    h = np.asarray(h, dtype=float)
    z = np.sqrt(2.0 * nu) * h / phi
    out = np.ones_like(z)
    pos = z > 0
    zp = z[pos]
    out[pos] = (2.0 ** (1.0 - nu) / gamma(nu)) * zp ** nu * kv(nu, zp)
    return out


def smooth_correlation(loc, x, theta=TRUE_THETA):
    """Nugget-free correlation among one event's records (scipy ``kv``)."""
    c, s = np.cos(theta["omega"]), np.sin(theta["omega"])
    t = np.array([[c, -s], [s, c]])
    r = np.asarray(loc, dtype=float) @ t.T
    x = np.asarray(x, dtype=float)
    d1 = np.abs(r[:, None, 0] - r[None, :, 0])
    d2 = np.abs(r[:, None, 1] - r[None, :, 1])
    dx = (x[:, None] - x[None, :]) / theta["phiX"]
    return (matern(d1, theta["phi1"], theta["nu1"])
            * matern(d2, theta["phi2"], theta["nu2"])
            * np.exp(-dx * dx))


class Field:
    """Analytic simulator field, so one event can be sampled on any grid.

    Six Gaussian bumps on a level of 22 m/s, short ripples that give
    nearby stations distinct intensities, and a gentle trend: the value
    never drops below about 16.8 m/s, above the fitting threshold.
    """

    def __init__(self, rng, n=GRID_N):
        self.bumps = [(*rng.uniform(3, n - 3, size=2), rng.uniform(4.0, 10.0),
                       rng.uniform(1.5, 4.0)) for _ in range(6)]
        self.phase = rng.uniform(0, 2 * np.pi, size=4)

    def __call__(self, c1, c2):
        c1 = np.asarray(c1, dtype=float)
        c2 = np.asarray(c2, dtype=float)
        v = np.full(np.broadcast(c1, c2).shape, 22.0)
        for a, b, amp, width in self.bumps:
            v += amp * np.exp(-((c1 - a) ** 2 + (c2 - b) ** 2)
                              / (2.0 * width ** 2))
        p = self.phase
        v += 4.0 * np.sin(2.1 * c1 + p[0]) * np.sin(1.6 * c2 + p[1])
        v += 1.2 * np.sin(0.5 * c1 + p[2]) * np.cos(0.4 * c2 + p[3])
        return v + 0.05 * c1 + 0.03 * c2


def round6(v):
    """Values as the 6-significant-digit grid format stores them."""
    return np.array([float(f"{t:.6g}") for t in np.ravel(v)]).reshape(np.shape(v))


def bilinear(values, loc):
    """Bilinear interpolation on a unit-spaced grid with origin (0, 0)."""
    n1, n2 = values.shape
    u, w = loc[:, 0], loc[:, 1]
    i0 = np.minimum(np.floor(u).astype(int), n1 - 2)
    j0 = np.minimum(np.floor(w).astype(int), n2 - 2)
    fu, fw = u - i0, w - j0
    return ((1 - fu) * (1 - fw) * values[i0, j0] + (1 - fu) * fw * values[i0, j0 + 1]
            + fu * (1 - fw) * values[i0 + 1, j0] + fu * fw * values[i0 + 1, j0 + 1])


def _draw_gusts(rng, loc, x):
    n = len(x)
    h = np.column_stack([np.ones(n), x, x * x])
    chol = np.linalg.cholesky(smooth_correlation(loc, x) + 1e-10 * np.eye(n))
    micro_sd = math.sqrt(TRUE_SIGMA ** 2 * TRUE_THETA["lambda2"] - SIGMA_Y ** 2)
    # a negative gust is invalid input; redraw from the same stream until
    # none is, so the inputs stay a function of the seed alone
    while True:
        y = (h @ TRUE_BETA + TRUE_SIGMA * (chol @ rng.standard_normal(n))
             + micro_sd * rng.standard_normal(n) + SIGMA_Y * rng.standard_normal(n))
        if y.min() >= 0.0:
            return y


def make_corpus(seed, n_events=10, n_stations=200):
    """Events as dicts: id, analytic field, 40x40 grid values, stations."""
    children = np.random.SeedSequence(seed).spawn(n_events)
    corpus = []
    for j, child in enumerate(children):
        rng = np.random.default_rng(child)
        field = Field(rng)
        g = np.arange(GRID_N, dtype=float)
        values = round6(field(g[:, None], g[None, :]))
        loc = rng.uniform(1.0, float(GRID_N - 2), size=(n_stations, 2))
        x = bilinear(values, loc)
        corpus.append({"event": f"ev{j:02d}", "field": field, "grid": values,
                       "loc": loc, "x": x, "y": _draw_gusts(rng, loc, x)})
    return corpus


def footprint(field, n, band_halfwidth=8.0):
    """The event's field on an n x n grid over the same domain.

    A wavy band of missing cells, about 40% of the domain, stands in for
    the sea of a land-sea mask; its shape does not depend on the seed, so
    every seed predicts the same number of cells. Returns (values with
    NaN, spacing).
    """
    spacing = (GRID_N - 1) / (n - 1)
    g = spacing * np.arange(n)
    c1, c2 = g[:, None], g[None, :]
    values = round6(field(c1, c2))
    coast = 0.7 * (GRID_N - 1) + 2.0 * np.sin(c1 / 5.0)
    values[np.abs(c2 - coast) < band_halfwidth] = np.nan
    return values, spacing


def target_points(field, rng, m):
    """m seeded target records (location, simulated value) in the domain."""
    loc = rng.uniform(1.0, float(GRID_N - 2), size=(m, 2))
    return round6(loc), round6(field(loc[:, 0], loc[:, 1]))


def write_grid(path, event, values, spacing=1.0):
    lines = ["FIELDGRID v1", f"event {event}", f"dims {values.shape[0]} {values.shape[1]}",
             "origin 0 0", f"spacing {spacing:.17g} {spacing:.17g}"]
    for row in values:
        lines.append(" ".join("NA" if np.isnan(v) else f"{v:.6g}" for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_stations(path, corpus):
    lines = ["event,station,s1,s2,gust"]
    for ev in corpus:
        for i in range(len(ev["x"])):
            lines.append(f"{ev['event']},st{i:04d},{ev['loc'][i, 0]:.17g},"
                         f"{ev['loc'][i, 1]:.17g},{ev['y'][i]:.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_points(path, loc, x):
    lines = ["s1,s2,x"] + [f"{a:.6g},{b:.6g},{v:.6g}" for (a, b), v in zip(loc, x)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def hash_files(paths):
    """12-hex digest over the names and bytes of the given files."""
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(os.path.basename(p).encode() + b"\0")
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:12]
