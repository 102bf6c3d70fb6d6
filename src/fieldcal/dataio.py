"""File ingestion, grid interpolation, and event-dataset assembly.

This module owns the input formats: station CSVs (event,station,s1,s2,
gust) and target points (s1,s2,x), read by one streaming row reader into
columns, and simulator fields (``FIELDGRID v1``, see :func:`load_grid`).
Every file fieldcal writes goes through its atomic :func:`_write_text`.
Pairing interpolates all stations of an event in one vectorized bilinear
pass. Coordinates are in the grid's own rotated coordinate system
already; no geographic conversion happens here.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

STATION_COLUMNS = ("event", "station", "s1", "s2", "gust")


class DataError(Exception):
    """Base class for input-data problems."""


class ParseError(DataError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class DuplicateStation(DataError):
    pass


class HeaderMismatch(DataError):
    pass


class ShortFile(DataError):
    pass


class EmptyDataset(DataError):
    pass


@dataclass(frozen=True)
class StationSet:
    """Station records as columns in file order, one per (event, station)
    key: str objects ``event``, ``station``; floats ``s1``, ``s2``, ``gust``."""

    event: np.ndarray
    station: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    gust: np.ndarray

    def __len__(self):
        return len(self.event)


@dataclass(frozen=True)
class GridField:
    """Rectilinear simulator field on a rotated grid.

    ``values[i, j]`` sits at coordinates
    ``(origin[0] + i*spacing[0], origin[1] + j*spacing[1])``; missing
    cells are NaN.
    """

    event: str
    n1: int
    n2: int
    origin: tuple
    spacing: tuple
    values: np.ndarray

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("grid dimensions must be >= 1")
        if not (self.spacing[0] > 0 and self.spacing[1] > 0):
            raise ValueError("grid spacing must be positive")
        if self.values.shape != (self.n1, self.n2):
            raise ValueError("values shape does not match dims")

    def cell_centers(self):
        """(n1*n2, 2) array of cell-center coordinates, row-major."""
        g1 = self.origin[0] + self.spacing[0] * np.arange(self.n1)
        g2 = self.origin[1] + self.spacing[1] * np.arange(self.n2)
        c1, c2 = np.meshgrid(g1, g2, indexing="ij")
        return np.column_stack([c1.ravel(), c2.ravel()])


@dataclass(frozen=True)
class EventDataset:
    """Thresholded (simulated, measured) pairs for one event."""

    event: str
    locations: np.ndarray          # (K, 2), grid coordinate system
    x: np.ndarray                  # simulated gust at stations, m/s
    y: np.ndarray                  # measured gust, m/s
    threshold: float
    stations: tuple = field(default=())

    def __post_init__(self):
        if len(self.x) == 0:
            raise EmptyDataset(f"event {self.event}: no pairs above threshold")
        # checked once here, so the fit can trust the matrices built from them
        for name in ("locations", "x", "y"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"event {self.event}: {name} must be finite")
        if not np.all(self.x > self.threshold):
            raise ValueError("all simulated values must exceed the threshold")
        if not (len(self.locations) == len(self.x) == len(self.y)):
            raise ValueError("locations, x, y must have equal lengths")

    def __len__(self):
        return len(self.x)

    def subset(self, idx) -> "EventDataset":
        idx = np.asarray(idx)
        st = tuple(np.asarray(self.stations)[idx]) if self.stations else ()
        return EventDataset(event=self.event, locations=self.locations[idx],
                            x=self.x[idx], y=self.y[idx],
                            threshold=self.threshold, stations=st)


def _read_csv(path, columns, n_text, check, comments=False):
    """Rows of a CSV file under the header ``columns``, read in one pass,
    as ``(ids, values)``: the first ``n_text`` fields of each row stripped,
    one list per column, and the rest read by ``float()`` into an (n, k)
    array. Blank lines, and with ``comments`` ``#`` lines, are skipped.
    Each row is checked in order for its width, empty ids and numbers,
    then by ``check(line, ids, values)``, which raises; ``line`` is the
    physical line number, so the first faulty row in file order raises,
    with its first failing check."""
    ncol = len(columns)
    ids, values, header = [[] for _ in range(n_text)], [], None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if (not row or (len(row) == 1 and not row[0].strip())
                    or (comments and row[0].lstrip()[:1] == "#")):
                continue
            if header is None:
                header = [h.strip() for h in row]
                if header != list(columns):
                    raise HeaderMismatch(
                        f"{path}: expected header {','.join(columns)}, "
                        f"got {','.join(header)}")
                continue
            line = reader.line_num
            if len(row) != ncol:
                raise ParseError(line, f"expected {ncol} fields, got {len(row)}")
            text = [v.strip() for v in row[:n_text]]
            if not all(text):
                raise ParseError(line, "empty event or station identifier")
            try:
                nums = [float(v) for v in row[n_text:]]
            except ValueError as exc:
                raise ParseError(line, f"bad numeric field: {exc}") from None
            check(line, text, nums)
            for col, v in zip(ids, text):
                col.append(v)
            values.extend(nums)
    if header is None:
        raise ShortFile(f"{path}: empty file")
    return ids, np.array(values).reshape(-1, ncol - n_text)


def _station_check(keys):
    """The row check of one station file; ``keys`` collects its keys."""
    def check(line, ids, v):
        if not (math.isfinite(v[0]) and math.isfinite(v[1])):
            raise ParseError(line, "non-finite coordinate")
        if not (math.isfinite(v[2]) and v[2] >= 0.0):
            raise ParseError(line, f"gust must be finite and >= 0, got {v[2]}")
        key = tuple(ids)
        if key in keys:
            raise DuplicateStation(f"duplicate station key {key} at line {line}")
        keys.add(key)
    return check


def load_stations(path, *more_paths) -> StationSet:
    """Read station CSVs (event,station,s1,s2,gust), several in order.

    The first faulty row in file order raises :class:`ParseError` with its
    line number, or :class:`DuplicateStation` on a repeated (event,
    station) key. A key repeated in a later file raises once every file
    has parsed.
    """
    paths = (path, *more_paths)
    keysets = [set() for _ in paths]
    parts = [_read_csv(p, STATION_COLUMNS, 2, _station_check(keys))
             for p, keys in zip(paths, keysets)]
    seen = keysets[0]
    for keys, (ids, _) in zip(keysets[1:], parts[1:]):
        for key in zip(*ids):
            if key in seen:
                raise DuplicateStation(
                    f"duplicate station key {key} across station files")
        seen |= keys
    event, station = ([v for ids, _ in parts for v in ids[k]] for k in (0, 1))
    return StationSet(np.array(event, dtype=object), np.array(station, dtype=object),
                      *np.concatenate([v for _, v in parts]).T.copy())


def load_grid(path) -> GridField:
    """Read a FIELDGRID v1 text file.

    Format: optional leading ``#`` comment lines, then
    ``FIELDGRID v1`` / ``event <id>`` / ``dims <n1> <n2>`` /
    ``origin <o1> <o2>`` / ``spacing <d1> <d2>``, followed by n1*n2
    whitespace-separated values in row-major order with ``NA`` for
    missing cells.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    i = 0
    while i < len(lines) and lines[i].lstrip().startswith("#"):
        i += 1
    header = lines[i:i + 5]
    if len(header) < 5:
        raise ShortFile(f"{path}: truncated header")

    def fields_of(line_idx, keyword, count):
        parts = header[line_idx].split()
        if len(parts) != count + 1 or parts[0] != keyword:
            raise HeaderMismatch(
                f"{path}: expected '{keyword}' line with {count} fields, got {header[line_idx]!r}")
        return parts[1:]

    if header[0].strip() != "FIELDGRID v1":
        raise HeaderMismatch(f"{path}: missing FIELDGRID v1 magic")
    # the event id is the rest of the line and may contain spaces
    if not header[1].startswith("event ") or not header[1][6:].strip():
        raise HeaderMismatch(
            f"{path}: expected 'event <id>' line, got {header[1]!r}")
    event = header[1][6:].strip()
    try:
        n1, n2 = (int(v) for v in fields_of(2, "dims", 2))
        o1, o2 = (float(v) for v in fields_of(3, "origin", 2))
        d1, d2 = (float(v) for v in fields_of(4, "spacing", 2))
    except ValueError as exc:
        raise HeaderMismatch(f"{path}: bad header number: {exc}") from None
    if n1 < 1 or n2 < 1:
        raise HeaderMismatch(f"{path}: dims must be >= 1, got {header[2]!r}")
    if not (np.isfinite(o1) and np.isfinite(o2)):
        raise HeaderMismatch(f"{path}: origin must be finite, got {header[3]!r}")
    if not (0.0 < d1 < np.inf and 0.0 < d2 < np.inf):
        raise HeaderMismatch(
            f"{path}: spacing must be finite and > 0, got {header[4]!r}")
    tokens = " ".join(lines[i + 5:]).split()
    need = n1 * n2
    if len(tokens) < need:
        raise ShortFile(f"{path}: expected {need} values, found {len(tokens)}")
    if len(tokens) > need:
        raise ParseError(i + 6, f"expected {need} values, found {len(tokens)}")
    vals = _grid_values(tokens, i + 6)
    return GridField(event=event, n1=n1, n2=n2, origin=(o1, o2),
                     spacing=(d1, d2), values=vals.reshape(n1, n2))


def _grid_values(tokens, line):
    """Float values of grid tokens, NaN for ``NA``.

    Converts all tokens in one numpy call (which reads numbers as
    ``float()`` does); only when that fails are the tokens walked one by
    one, to name the first bad one. Errors report ``line``, the first
    line of the value block.
    """
    tok = np.asarray(tokens, dtype=str)
    na = tok == "NA"
    vals = np.full(len(tok), np.nan)
    try:
        vals[~na] = tok[~na].astype(float)
    except ValueError:
        # in file order, so a non-finite value before the bad token wins
        for k in np.flatnonzero(~na):
            try:
                vals[k] = float(tokens[k])
            except ValueError:
                raise ParseError(line, f"bad value {tokens[k]!r}") from None
            if not np.isfinite(vals[k]):
                break
    bad = np.flatnonzero(~(np.isfinite(vals) | na))
    if bad.size:
        raise ParseError(
            line, f"non-finite value {tokens[bad[0]]!r} (use NA for missing)")
    return vals


def save_grid(grid: GridField, path, header_comments=()) -> None:
    """Write a GridField in FIELDGRID v1 format at 6 significant digits,
    atomically."""
    buf = io.StringIO()
    for line in header_comments:
        buf.write(f"# {line}\n")
    buf.write("FIELDGRID v1\n")
    buf.write(f"event {grid.event}\n")
    buf.write(f"dims {grid.n1} {grid.n2}\n")
    buf.write(f"origin {grid.origin[0]:.6g} {grid.origin[1]:.6g}\n")
    buf.write(f"spacing {grid.spacing[0]:.6g} {grid.spacing[1]:.6g}\n")
    # one %-format per grid on plain Python floats; "%.6g" writes NaN as
    # "nan", which no other value's text contains
    row = " ".join(["%.6g"] * grid.n2) + "\n"
    text = (row * grid.n1) % tuple(grid.values.ravel().tolist())
    buf.write(text.replace("nan", "NA"))
    _write_text(path, buf.getvalue())


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` through ``<path>.tmp`` and ``os.replace``,
    so a reader never sees a half-written file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _live_dot(w, corners):
    """Per row, the dot of the weights > 0 with their corners, and whether
    one of those is missing. The zero-padded batched matmul is bit for bit
    the masked dot ``w[live] @ corners[live]``; a plain sum is not."""
    live = w > 0.0
    gap = (np.isnan(corners) & live).any(axis=1)
    w, corners = np.where(live, w, 0.0), np.where(live, corners, 0.0)
    return np.matmul(w[:, None, :], corners[:, :, None])[:, 0, 0], gap


def _bilinear(grid: GridField, s1, s2):
    """Bilinear interpolation of the grid at points, on cell centers, as
    ``(values, gap, outside)``: ``gap`` marks points next to a missing cell
    that carries weight, ``outside`` (n, 2) points beyond the closed hull
    along s1 and s2; values there mean nothing."""
    rel_tol = 1e-9
    axes = []
    for v, origin, spacing, n in zip((s1, s2), grid.origin, grid.spacing,
                                     (grid.n1, grid.n2)):
        u = (np.asarray(v, dtype=float) - origin) / spacing
        span = max(n - 1, 1)
        # negated, so a NaN coordinate is outside too
        out = ~((u >= -rel_tol * span - rel_tol)
                & (u <= span * (1 + rel_tol) + rel_tol))
        u = np.minimum(np.maximum(np.where(out, 0.0, u), 0.0), float(n - 1))
        i0 = np.minimum(np.floor(u), max(n - 2, 0)).astype(np.intp)
        axes.append((out, i0, u - i0))
    (out1, i0, fu), (out2, j0, fv) = axes
    i1, j1 = np.minimum(i0 + 1, grid.n1 - 1), np.minimum(j0 + 1, grid.n2 - 1)
    corners = grid.values[np.stack([i0, i0, i1, i1], axis=1),
                          np.stack([j0, j1, j0, j1], axis=1)]
    w = np.stack([(1 - fu) * (1 - fv), (1 - fu) * fv, fu * (1 - fv), fu * fv],
                 axis=1)
    return (*_live_dot(w, corners), np.column_stack([out1, out2]))


def pair_and_threshold(stations: StationSet, grid: GridField, u: float) -> EventDataset:
    """Pair stations of the grid's event with interpolated simulated values.

    Keeps pairs with simulated value strictly above ``u``. Stations
    outside the grid hull (or next to missing cells) and stations at or
    below ``u`` are dropped and counted in the log, each kind on its own
    line.
    """
    sel = np.flatnonzero(stations.event == grid.event)
    s1, s2 = stations.s1[sel], stations.s2[sel]
    x, gap, outside = _bilinear(grid, s1, s2)
    dropped = gap | outside.any(axis=1)
    keep = ~dropped & (x > u)
    n_out, n_below = int(dropped.sum()), int((~dropped & ~keep).sum())
    if n_out:
        log.info("event %s: dropped %d station(s) outside the grid", grid.event, n_out)
    if n_below:
        log.info("event %s: dropped %d station(s) at or below the threshold %g",
                 grid.event, n_below, u)
    if not keep.any():
        raise EmptyDataset(
            f"event {grid.event}: no station pairs with simulated value > {u}")
    return EventDataset(event=grid.event,
                        locations=np.column_stack([s1[keep], s2[keep]]),
                        x=x[keep], y=stations.gust[sel][keep], threshold=u,
                        stations=tuple(stations.station[sel][keep].tolist()))


def holdout_split(dataset: EventDataset, n_holdout: int, seed: int):
    """Deterministic seeded split into (train, holdout) subsets."""
    n = len(dataset)
    if not 0 < n_holdout < n:
        raise ValueError(f"n_holdout must be in (0, {n})")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    hold = np.sort(perm[:n_holdout])
    train = np.sort(perm[n_holdout:])
    return dataset.subset(train), dataset.subset(hold)


def load_points(path):
    """Read a target-point CSV with header s1,s2,x (``#`` lines are
    comments) as (locations (n,2), intensities (n,))."""
    def check(line, _, v):
        if not all(map(math.isfinite, v)):
            raise ParseError(line, "non-finite value")

    _, v = _read_csv(path, ("s1", "s2", "x"), 0, check, comments=True)
    if not len(v):
        raise EmptyDataset(f"{path}: no target points")
    return np.ascontiguousarray(v[:, :2]), v[:, 2].copy()


def rmse(a, b) -> float:
    """Root mean squared difference of two equal-length vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.size == 0:
        raise ValueError("rmse: inputs must share a nonzero length")
    return float(np.sqrt(np.mean((a - b) ** 2)))
