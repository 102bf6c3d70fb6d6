"""File ingestion, grid interpolation, and event-dataset assembly.

Stations arrive as CSV (event,station,s1,s2,gust). Simulator fields use
a line-oriented text format (``FIELDGRID v1``) documented at
:func:`load_grid`. Coordinates are taken to be in the grid's own rotated
coordinate system already; no geographic conversion happens here.
"""

from __future__ import annotations

import csv
import io
import logging
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


class OutOfDomain(DataError):
    pass


class MissingNeighbor(DataError):
    pass


class EmptyDataset(DataError):
    pass


@dataclass(frozen=True)
class StationRecord:
    event: str
    station: str
    s1: float
    s2: float
    gust: float


@dataclass(frozen=True)
class StationSet:
    """Measurement records keyed by (event, station)."""

    records: tuple

    def for_event(self, event: str):
        return [r for r in self.records if r.event == event]

    def events(self):
        return list(dict.fromkeys(r.event for r in self.records))

    def __len__(self):
        return len(self.records)


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


def load_stations(path) -> StationSet:
    """Read a station CSV with columns event,station,s1,s2,gust.

    Raises :class:`ParseError` with the offending line number on any bad
    row and :class:`DuplicateStation` on a repeated (event, station) key.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ShortFile(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if header != list(STATION_COLUMNS):
            raise HeaderMismatch(
                f"{path}: expected header {','.join(STATION_COLUMNS)}, "
                f"got {','.join(header)}")
        records = []
        seen = set()
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(STATION_COLUMNS):
                raise ParseError(lineno, f"expected {len(STATION_COLUMNS)} "
                                 f"fields, got {len(row)}")
            event, station = row[0].strip(), row[1].strip()
            if not event or not station:
                raise ParseError(lineno, "empty event or station identifier")
            try:
                s1, s2, gust = (float(v) for v in row[2:])
            except ValueError as exc:
                raise ParseError(lineno, f"bad numeric field: {exc}") from None
            if not (np.isfinite(s1) and np.isfinite(s2)):
                raise ParseError(lineno, "non-finite coordinate")
            if not np.isfinite(gust) or gust < 0.0:
                raise ParseError(lineno, f"gust must be finite and >= 0, got {gust}")
            key = (event, station)
            if key in seen:
                raise DuplicateStation(f"duplicate station key {key} at line {lineno}")
            seen.add(key)
            records.append(StationRecord(event, station, s1, s2, gust))
    return StationSet(records=tuple(records))


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
    """Write a GridField in FIELDGRID v1 format at 6 significant digits."""
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


def interpolate_field(grid: GridField, s1: float, s2: float) -> float:
    """Bilinear interpolation of the grid at a point, on cell centers.

    The hull is closed: points exactly on the boundary are inside.
    Raises :class:`OutOfDomain` outside the hull and
    :class:`MissingNeighbor` when a surrounding cell is missing.
    """
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


def pair_and_threshold(stations: StationSet, grid: GridField, u: float) -> EventDataset:
    """Pair stations of the grid's event with interpolated simulated values.

    Keeps pairs with simulated value strictly above ``u``. Stations
    outside the grid hull (or next to missing cells) and stations at or
    below ``u`` are dropped and counted in the log, each kind on its own
    line.
    """
    recs = stations.for_event(grid.event)
    loc, xs, ys, ids = [], [], [], []
    outside = below = 0
    for r in recs:
        try:
            x = interpolate_field(grid, r.s1, r.s2)
        except (OutOfDomain, MissingNeighbor):
            outside += 1
            continue
        if x > u:
            loc.append((r.s1, r.s2))
            xs.append(x)
            ys.append(r.gust)
            ids.append(r.station)
        else:
            below += 1
    if outside:
        log.info("event %s: dropped %d station(s) outside the grid", grid.event, outside)
    if below:
        log.info("event %s: dropped %d station(s) at or below the threshold %g",
                 grid.event, below, u)
    if not xs:
        raise EmptyDataset(
            f"event {grid.event}: no station pairs with simulated value > {u}")
    return EventDataset(event=grid.event, locations=np.array(loc),
                        x=np.array(xs), y=np.array(ys), threshold=u,
                        stations=tuple(ids))


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
    """Read a target-point CSV with header s1,s2,x.

    Returns (locations (n,2), intensities (n,)).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        # (file line, row): comment and blank lines are skipped, not renumbered
        rows = [(reader.line_num, row) for row in reader
                if row and (len(row) > 1 or row[0].strip())
                and row[0].lstrip()[:1] != "#"]
    if not rows:
        raise ShortFile(f"{path}: empty file")
    header = [h.strip() for h in rows[0][1]]
    if header != ["s1", "s2", "x"]:
        raise HeaderMismatch(f"{path}: expected header s1,s2,x")
    loc, x = [], []
    for lineno, row in rows[1:]:
        if len(row) != 3:
            raise ParseError(lineno, f"expected 3 fields, got {len(row)}")
        try:
            s1, s2, xi = (float(v) for v in row)
        except ValueError as exc:
            raise ParseError(lineno, f"bad numeric field: {exc}") from None
        if not (np.isfinite(s1) and np.isfinite(s2) and np.isfinite(xi)):
            raise ParseError(lineno, "non-finite value")
        loc.append((s1, s2))
        x.append(xi)
    if not x:
        raise EmptyDataset(f"{path}: no target points")
    return np.array(loc), np.array(x)


def rmse(a, b) -> float:
    """Root mean squared difference of two equal-length vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.size == 0:
        raise ValueError("rmse: inputs must share a nonzero length")
    return float(np.sqrt(np.mean((a - b) ** 2)))
