"""Station CSV and grid-file IO, bilinear interpolation, pairing and
thresholding, holdout splitting."""

import logging
import math
import re
import tracemalloc

import numpy as np
import pytest

from fieldcal.dataio import (
    DuplicateStation,
    EmptyDataset,
    EventDataset,
    GridField,
    HeaderMismatch,
    ParseError,
    ShortFile,
    holdout_split,
    load_grid,
    load_points,
    load_stations,
    pair_and_threshold,
    rmse,
    save_grid,
)
from fieldcal.dataio import _bilinear, _grid_values, _live_dot
from _oracles import (MissingNeighbor, OutOfDomain, grid_values_reference,
                      interpolate_field_reference, save_grid_reference)

STATION_HEADER = "event,station,s1,s2,gust\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def grid_2x2(event="ev1", values=((1.0, 2.0), (3.0, 4.0)),
             origin=(0.0, 0.0), spacing=(1.0, 1.0)):
    return GridField(event=event, n1=2, n2=2, origin=origin, spacing=spacing,
                     values=np.array(values, dtype=float))


def value_at(grid, s1, s2):
    """``_bilinear`` at one point, which must lie inside the hull and clear
    of missing cells."""
    x, gap, outside = _bilinear(grid, [s1], [s2])
    assert not gap[0] and not outside[0].any()
    return float(x[0])


def test_load_stations_valid(tmp_path):
    p = write(tmp_path / "st.csv", STATION_HEADER
              + "ev1,A,0.0,0.0,21.5\n"
              + "ev1,B,1.0,2.5,18.0\n"
              + "ev2,A,4.0,4.0,30.25\n")
    ss = load_stations(p)
    assert len(ss) == 3
    assert ss.event.tolist() == ["ev1", "ev1", "ev2"]
    ev1 = ss.event == "ev1"
    assert ss.station[ev1].tolist() == ["A", "B"]
    assert ss.gust[ev1][0] == 21.5
    assert ss.s2[ev1][1] == 2.5
    # same station id under another event is a different key
    assert int(np.sum(ss.event == "ev2")) == 1
    # every column in file order
    assert ss.event.tolist() == ["ev1", "ev1", "ev2"]
    np.testing.assert_array_equal(ss.s1, [0.0, 1.0, 4.0])
    np.testing.assert_array_equal(ss.gust, [21.5, 18.0, 30.25])
    # ids stay exactly as read: a trailing NUL is not dropped
    ss = load_stations(write(tmp_path / "st.csv", STATION_HEADER
                             + "ev1,A\x00,0,0,1\nev1,A,0,0,1\n"))
    assert ss.station.tolist() == ["A\x00", "A"]


def test_load_stations_negative_gust_line_number(tmp_path):
    p = write(tmp_path / "st.csv", STATION_HEADER
              + "ev1,A,0,0,21.5\n"
              + "ev1,B,1,1,-3.0\n")
    with pytest.raises(ParseError) as exc:
        load_stations(p)
    assert exc.value.line == 3


def test_load_stations_duplicate_key(tmp_path):
    p = write(tmp_path / "st.csv", STATION_HEADER
              + "ev1,A,0,0,21.5\n"
              + "ev1,A,1,1,22.0\n")
    with pytest.raises(DuplicateStation):
        load_stations(p)


def test_load_stations_header_mismatch(tmp_path):
    p = write(tmp_path / "st.csv", "event,station,lon,lat,gust\nev1,A,0,0,1\n")
    with pytest.raises(HeaderMismatch):
        load_stations(p)


def test_load_stations_bad_numeric(tmp_path):
    p = write(tmp_path / "st.csv", STATION_HEADER + "ev1,A,0,zero,21.5\n")
    with pytest.raises(ParseError) as exc:
        load_stations(p)
    assert exc.value.line == 2
    p2 = write(tmp_path / "st2.csv", STATION_HEADER + "ev1,A,0,0,nan\n")
    with pytest.raises(ParseError):
        load_stations(p2)


def test_load_stations_empty_file(tmp_path):
    with pytest.raises(ShortFile):
        load_stations(write(tmp_path / "st.csv", ""))
    # a header alone is an empty set, paired with nothing
    ss = load_stations(write(tmp_path / "st.csv", STATION_HEADER))
    assert len(ss) == 0 and ss.event.tolist() == []
    with pytest.raises(EmptyDataset):
        pair_and_threshold(ss, grid_2x2(), 15.0)


@pytest.mark.parametrize("body, error, line", [
    # a duplicate key on line 5 wins over a negative gust on line 9
    ("ev1,A,0,0,1\nev1,B,0,0,1\nev1,C,0,0,1\nev1,A,1,1,2\n"
     "ev1,D,0,0,1\nev1,E,0,0,1\nev1,F,0,0,1\nev1,G,0,0,-1\n",
     DuplicateStation, 5),
    # and a negative gust on line 3 over a duplicate key on line 5
    ("ev1,A,0,0,1\nev1,B,0,0,-1\nev1,C,0,0,1\nev1,A,1,1,2\n",
     ParseError, 3),
    # later rows of the wrong width, with empty ids or bad numbers lose
    ("ev1,A,0,0,1\nev1,B,inf,0,1\nev1,C,0,0\n,D,0,0,1\nev1,E,x,0,1\n",
     ParseError, 3),
    ("ev1,A,0,0,1\nev1,B,0,0,1,9\n,C,0,0,1\n", ParseError, 3),
    ("ev1,A,0,0,1\n ,B,0,0,1\nev1,C,0,0,1,9\n", ParseError, 3),
    # two faults in one row (a bad number and a negative gust) and one later
    ("ev1,A,0,0,1\nev1,B,0,x,-1\nev1,A,0,0,1\n", ParseError, 3),
    # a key repeated across files loses to a parse error in the second file
    (("ev1,A,0,0,1\n", "ev1,A,0,0,1\nev1,B,0,0,-1\n"), ParseError, 3),
])
def test_load_stations_first_faulty_row_wins(tmp_path, body, error, line):
    bodies = body if isinstance(body, tuple) else (body,)
    paths = [write(tmp_path / f"st{k}.csv", STATION_HEADER + b)
             for k, b in enumerate(bodies)]
    with pytest.raises(error, match=f"line {line}"):
        load_stations(*paths)


def test_load_stations_streams_its_rows(tmp_path):
    # 2000 rows (the fit-storms station file) peak at about 0.6 MiB of
    # Python allocations, the StationSet's 0.3 MiB included; holding every
    # row as strings before building the columns peaked at 1.6 MiB
    rng = np.random.default_rng(29)
    rows = [f"ev{k // 200:02d},st{k % 200:03d},{a:.6g},{b:.6g},{g:.6g}\n"
            for k, (a, b, g) in enumerate(rng.uniform(0, 100, (2000, 3)))]
    path = write(tmp_path / "st.csv", STATION_HEADER + "".join(rows))
    load_stations(path)
    tracemalloc.start()
    try:
        ss = load_stations(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ss) == 2000
    assert peak < 2 ** 20


def test_load_stations_one_row_reports_its_first_check(tmp_path):
    # the checks of one row run in order: width, ids, numbers, coordinates,
    # gust, key; each message names the physical line (blank lines count)
    for row, msg in (("ev1,A,nan,0,-1,7", "line 4: expected 5 fields, got 6"),
                     ("ev1, ,x,0,-1", "line 4: empty event or station identifier"),
                     ("ev1,B,0,zz,-1", "line 4: bad numeric field: could not "
                                       "convert string to float: 'zz'"),
                     ("ev1,B,nan,0,-1", "line 4: non-finite coordinate"),
                     ("ev1,B,0,0,-1", "line 4: gust must be finite and >= 0, got -1.0"),
                     ("ev1,A,0,0,inf", "line 4: gust must be finite and >= 0, got inf")):
        with pytest.raises(ParseError, match=re.escape(msg)):
            load_stations(write(tmp_path / "st.csv",
                                STATION_HEADER + "ev1,A,0,0,1\n\n" + row + "\n"))
    with pytest.raises(DuplicateStation, match=re.escape(
            "duplicate station key ('ev1', 'A') at line 4")):
        load_stations(write(tmp_path / "st.csv",
                            STATION_HEADER + "ev1,A,0,0,1\n\n ev1 , A ,1,1,2\n"))


def test_grid_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    vals = rng.uniform(10, 40, size=(4, 3))
    vals[2, 1] = np.nan
    g = GridField(event="storm one", n1=4, n2=3, origin=(-2.0, 5.0),
                  spacing=(0.5, 1.25), values=vals)
    p = tmp_path / "g.fg"
    save_grid(g, p, header_comments=("written by a test",))
    g2 = load_grid(p)
    assert g2.event == "storm one"
    assert (g2.n1, g2.n2) == (4, 3)
    assert g2.origin == (-2.0, 5.0)
    assert g2.spacing == (0.5, 1.25)
    # 6 significant digits survive the text round trip
    np.testing.assert_allclose(g2.values, vals, rtol=1e-5, equal_nan=True)
    assert np.isnan(g2.values[2, 1])
    # a second save of the loaded grid reproduces the payload exactly
    p2 = tmp_path / "g2.fg"
    save_grid(g2, p2)
    body = p.read_text().splitlines()[1:]
    assert p2.read_text().splitlines() == body


def test_grid_golden_echo(tmp_path):
    text = ("FIELDGRID v1\n"
            "event demo\n"
            "dims 2 2\n"
            "origin 0 0\n"
            "spacing 1 2\n"
            "1 2\n"
            "3 4\n")
    g = load_grid(write(tmp_path / "g.fg", text))
    np.testing.assert_array_equal(g.values, [[1.0, 2.0], [3.0, 4.0]])
    # values[i, j] sits at (origin1 + i*d1, origin2 + j*d2)
    assert value_at(g, 0.0, 0.0) == 1.0
    assert value_at(g, 0.0, 2.0) == 2.0
    assert value_at(g, 1.0, 0.0) == 3.0


def test_grid_leading_comments_ok(tmp_path):
    text = ("# one comment\n"
            "#another\n"
            "FIELDGRID v1\nevent e\ndims 1 2\norigin 0 0\nspacing 1 1\n"
            "5 6\n")
    g = load_grid(write(tmp_path / "g.fg", text))
    np.testing.assert_array_equal(g.values, [[5.0, 6.0]])


def test_grid_short_file(tmp_path):
    text = ("FIELDGRID v1\nevent e\ndims 3 3\norigin 0 0\nspacing 1 1\n"
            "1 2 3 4 5 6 7 8\n")
    with pytest.raises(ShortFile):
        load_grid(write(tmp_path / "g.fg", text))


def test_grid_too_many_values(tmp_path):
    text = ("FIELDGRID v1\nevent e\ndims 2 2\norigin 0 0\nspacing 1 1\n"
            "1 2 3 4 5\n")
    with pytest.raises(ParseError):
        load_grid(write(tmp_path / "g.fg", text))


def test_grid_rejects_bad_tokens(tmp_path):
    base = "FIELDGRID v1\nevent e\ndims 1 2\norigin 0 0\nspacing 1 1\n"
    with pytest.raises(ParseError):
        load_grid(write(tmp_path / "a.fg", base + "1 abc\n"))
    with pytest.raises(ParseError):
        load_grid(write(tmp_path / "b.fg", base + "1 inf\n"))
    # the message names the first bad token and the first value line
    body = "# c\n# c\n" + base.replace("1 2", "1 3")
    for values, msg in (("1 abc -inf\n", "line 8: bad value 'abc'"),
                        ("1\n-inf\nabc\n", "line 8: non-finite value '-inf' "
                                           "(use NA for missing)"),
                        ("NA 2 1e400\n", "line 8: non-finite value '1e400' "
                                          "(use NA for missing)")):
        with pytest.raises(ParseError) as exc:
            load_grid(write(tmp_path / "e.fg", body + values))
        assert str(exc.value) == msg
    with pytest.raises(HeaderMismatch):
        load_grid(write(tmp_path / "c.fg",
                        "FIELDGRID v2\nevent e\ndims 1 1\norigin 0 0\n"
                        "spacing 1 1\n1\n"))
    with pytest.raises(HeaderMismatch):
        load_grid(write(tmp_path / "d.fg",
                        "FIELDGRID v1\nevent e\ndims 1\norigin 0 0\n"
                        "spacing 1 1\n1\n"))
    # out-of-range header numbers name their field
    for bad in ("spacing 0 1", "spacing 1 -2", "spacing inf 1", "dims 0 3",
                "origin nan 0", "origin 0 -inf"):
        key = bad.split()[0]
        text = re.sub(f"(?m)^{key} .*$", bad, base)
        with pytest.raises(HeaderMismatch, match=f"{key} must be"):
            load_grid(write(tmp_path / "f.fg", text + "1 2\n"))


def test_save_grid_matches_reference_writer(tmp_path):
    rng = np.random.default_rng(17)
    special = [np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-300, 1e300, -1e300,
               -1e-300, 5e-324, 1e-310, -1e-310, -np.nan, -2.5, -17.125, 1.7976931348623157e308,
               # ties at the 6th and 7th significant digit, exact in
               # binary and not
               123456.5, 1234565.0, 1234575.0, 0.1234565, 1.234565,
               2.5e-5, 12345.65, 9999995.0, 999999.5, 0.0001234565]
    random = list(rng.normal(0, 1e4, size=30)) + list(
        10.0 ** rng.uniform(-320, 308, size=30) * rng.choice([-1, 1], 30))
    values = np.array([special + random])
    values = np.vstack([values, values[:, ::-1] * -1.0])
    g = GridField(event="tie break", n1=2, n2=values.shape[1],
                  origin=(-0.0, 1e-7), spacing=(0.1, 3e5), values=values)
    save_grid(g, tmp_path / "new.fg", header_comments=("c1", "c2"))
    save_grid_reference(g, tmp_path / "old.fg", header_comments=("c1", "c2"))
    new = (tmp_path / "new.fg").read_bytes()
    assert new == (tmp_path / "old.fg").read_bytes()
    assert b"\nNA 0 -0 inf -inf 1e-300 1e+300 -1e+300 " in new
    assert b" 1e-310 -1e-310 NA " in new
    # a single cell, missing or not, with and without comments
    for value, comments in ((np.nan, ()), (-0.0, ("one",)), (1e-310, ())):
        g = GridField(event="e", n1=1, n2=1, origin=(0.0, 0.0),
                      spacing=(1.0, 1.0), values=np.array([[value]]))
        save_grid(g, tmp_path / "new.fg", header_comments=comments)
        save_grid_reference(g, tmp_path / "old.fg", header_comments=comments)
        assert ((tmp_path / "new.fg").read_bytes()
                == (tmp_path / "old.fg").read_bytes())


def test_grid_values_match_reference_parser():
    # numpy's string-to-float conversion must read every token exactly
    # as float() does, and errors must name the same token
    rng = np.random.default_rng(19)
    numbers = [repr(v) for v in rng.normal(0, 1e3, size=40)]
    numbers += [f"{v:.17g}" for v in 10.0 ** rng.uniform(-300, 300, 40)]
    numbers += ["1_0", "-0", "+3", ".5", "5.", "00012", "1e-400", "1E5",
                "\u0661\u0662\u0663", "\uff11\uff12.\uff15", "NA", "-.5e-3"]
    cases = [numbers, ["NA", "NA"], [],
             ["1", "abc"], ["1", "1.2.3", "inf"], ["1", "inf", "abc"],
             ["NA", "Infinity"], ["2", "1e400"], ["-1e400"], ["nan"],
             ["1", "NaN", "x"], ["1_", "2"], ["0x10"], ["na"], ["1,5"],
             ["\u2212" "1"], ["1", "2", "-inf"]]
    for tokens in cases:
        try:
            want, want_exc = grid_values_reference(tokens, 9), None
        except ParseError as exc:
            want_exc = exc
        if want_exc is None:
            got = _grid_values(tokens, 9)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        else:
            with pytest.raises(ParseError) as got_exc:
                _grid_values(tokens, 9)
            assert str(got_exc.value) == str(want_exc)
            assert got_exc.value.line == want_exc.line == 9


def test_grid_field_validation():
    with pytest.raises(ValueError):
        GridField(event="e", n1=2, n2=2, origin=(0, 0), spacing=(1, 1),
                  values=np.ones((3, 2)))
    with pytest.raises(ValueError):
        GridField(event="e", n1=1, n2=1, origin=(0, 0), spacing=(0.0, 1),
                  values=np.ones((1, 1)))


def test_cell_centers_order():
    g = grid_2x2(origin=(10.0, 20.0), spacing=(2.0, 3.0))
    c = g.cell_centers()
    # row-major: index i*n2 + j matches values.ravel()
    np.testing.assert_array_equal(
        c, [[10, 20], [10, 23], [12, 20], [12, 23]])


def test_interpolate_cell_centers_exact():
    g = grid_2x2(values=[[1.0, 2.0], [3.0, 5.0]])
    for (i, j), want in np.ndenumerate(g.values):
        assert value_at(g, float(i), float(j)) == want


def test_interpolate_centroid_and_bilinear():
    g = grid_2x2(values=[[1.0, 2.0], [3.0, 5.0]])
    assert value_at(g, 0.5, 0.5) == pytest.approx(11.0 / 4.0)
    # (0.25, 0.75): weights (1-u)(1-v), (1-u)v, u(1-v), uv
    want = (0.75 * 0.25 * 1.0 + 0.75 * 0.75 * 2.0
            + 0.25 * 0.25 * 3.0 + 0.25 * 0.75 * 5.0)
    assert value_at(g, 0.25, 0.75) == pytest.approx(want, rel=1e-14)


def test_interpolate_affine_exact():
    # bilinear interpolation reproduces affine fields exactly
    n1, n2 = 5, 7
    o, d = (1.0, -2.0), (0.5, 0.25)
    ii, jj = np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij")
    s1 = o[0] + ii * d[0]
    s2 = o[1] + jj * d[1]
    vals = 4.0 + 1.5 * s1 - 0.75 * s2
    g = GridField(event="e", n1=n1, n2=n2, origin=o, spacing=d, values=vals)
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = float(rng.uniform(o[0], o[0] + (n1 - 1) * d[0]))
        b = float(rng.uniform(o[1], o[1] + (n2 - 1) * d[1]))
        assert value_at(g, a, b) == pytest.approx(
            4.0 + 1.5 * a - 0.75 * b, rel=1e-12)


def test_interpolate_boundary_closed_and_outside():
    g = grid_2x2()
    # corners and edges are inside
    assert value_at(g, 1.0, 1.0) == 4.0
    assert value_at(g, 1.0, 0.5) == pytest.approx(3.5)
    _, _, outside = _bilinear(g, [1.001, -0.001, 0.5], [0.5, 0.5, 1.2])
    assert outside.tolist() == [[True, False], [True, False], [False, True]]


def _same_as_reference(grid, a, b):
    """``_bilinear`` at one point against the scalar oracle: the oracle's
    value bit for bit, or the flag that matches the oracle's exception
    (which checks s1 before s2, and the hull before the neighbours)."""
    x, gap, outside = _bilinear(grid, [a], [b])
    out1, out2 = outside[0].tolist()
    try:
        want = interpolate_field_reference(grid, a, b)
    except OutOfDomain as exc:
        assert out1 if str(exc).startswith("s1=") else (out2 and not out1)
        return
    except MissingNeighbor:
        assert gap[0] and not (out1 or out2)
        return
    assert not (gap[0] or out1 or out2)
    assert x[0].tobytes() == np.float64(want).tobytes()


def test_live_dot_matches_masked_dot_on_every_live_pattern():
    # the zero-padded batched matmul against the masked dot of the
    # previous scalar path, for each of the 15 sets of weighted corners
    rng = np.random.default_rng(41)
    for pattern in range(1, 16):
        live = np.array([pattern >> k & 1 for k in range(4)], dtype=bool)
        w = rng.uniform(0.0, 1.0, size=(2000, 4)) * live
        corners = rng.uniform(-40.0, 40.0, size=(2000, 4))
        corners[:, ~live] = np.nan
        got, gap = _live_dot(w, corners)
        assert not gap.any()
        want = np.array([w[i][live] @ corners[i][live] for i in range(2000)])
        assert got.tobytes() == want.tobytes()
        # a NaN corner with weight is a gap
        corners[:, np.flatnonzero(live)[0]] = np.nan
        assert _live_dot(w, corners)[1].all()


def test_interpolate_matches_scalar_reference_bitwise():
    rng = np.random.default_rng(17)
    rel_tol = 1e-9
    for n1, n2 in ((7, 5), (1, 6), (5, 1), (1, 1), (2, 2)):
        o = tuple(rng.uniform(-5.0, 5.0, size=2))
        d = tuple(rng.uniform(0.1, 3.0, size=2))
        vals = rng.uniform(10.0, 40.0, size=(n1, n2))
        vals[rng.uniform(size=(n1, n2)) < 0.15] = np.nan
        g = GridField(event="e", n1=n1, n2=n2, origin=o, spacing=d, values=vals)
        span1, span2 = max(n1 - 1, 1), max(n2 - 1, 1)
        pts = [tuple(o[k] + d[k] * rng.uniform(-0.2, 1.2) * span
                     for k, span in ((0, span1), (1, span2)))
               for _ in range(400)]
        # cell centers (exact corners, next to NaN cells at zero weight)
        pts += [(o[0] + i * d[0], o[1] + j * d[1])
                for i in range(n1) for j in range(n2)]
        # hull edges at exactly the tolerance and one ulp beyond it
        lo = [-rel_tol * s - rel_tol for s in (span1, span2)]
        hi = [s * (1 + rel_tol) + rel_tol for s in (span1, span2)]
        edge = []
        for k in range(2):
            for u in (lo[k], hi[k], np.nextafter(lo[k], -np.inf),
                      np.nextafter(hi[k], np.inf), -0.0):
                other = rng.uniform(0.0, 1.0) * (span2 if k == 0 else span1)
                edge.append((u, other) if k == 0 else (other, u))
        g0 = GridField(event="e", n1=n1, n2=n2, origin=(0.0, 0.0),
                       spacing=(1.0, 1.0), values=vals)
        for grid, points in ((g, pts), (g0, edge)):
            for a, b in points:
                _same_as_reference(grid, float(a), float(b))


def test_interpolate_missing_neighbor():
    g = grid_2x2(values=((1.0, np.nan), (3.0, 4.0)))
    _, gap, outside = _bilinear(g, [0.5], [0.5])
    assert gap[0] and not outside.any()
    # far corner only touches finite cells
    assert value_at(g, 1.0, 0.0) == 3.0


def test_pair_matches_scalar_reference_bitwise(tmp_path):
    rng = np.random.default_rng(29)
    vals = rng.uniform(10.0, 20.0, size=(9, 7))
    vals[3, 2] = np.nan
    g = GridField(event="e", n1=9, n2=7, origin=(1.0, -2.0),
                  spacing=(0.7, 1.3), values=vals)
    pts = rng.uniform([0.5, -2.5], [7.1, 6.3], size=(300, 2))
    ss = _stations_from_text(tmp_path, "".join(
        f"e,S{k},{a!r},{b!r},{k}\n" for k, (a, b) in enumerate(pts.tolist())))
    want = []
    for k, (a, b) in enumerate(pts):
        try:
            x = interpolate_field_reference(g, a, b)
        except (OutOfDomain, MissingNeighbor):
            continue
        if x > 15.0:
            want.append((k, x))
    ds = pair_and_threshold(ss, g, 15.0)
    assert list(ds.stations) == [f"S{k}" for k, _ in want]
    assert ds.x.tobytes() == np.array([x for _, x in want]).tobytes()
    np.testing.assert_array_equal(ds.locations, pts[[k for k, _ in want]])
    np.testing.assert_array_equal(ds.y, [k for k, _ in want])


def test_pair_and_threshold_strict(tmp_path):
    recs = ("ev1,A,0.0,0.0,20.0\n"
            "ev1,B,1.0,1.0,22.0\n"
            "ev1,C,0.5,0.5,25.0\n"
            "ev2,D,0.5,0.5,30.0\n")
    ss = _stations_from_text(tmp_path, recs)
    # grid values: A sees 14.0 (excluded), B 15.01 (included), C 15.0025
    g = grid_2x2(values=[[14.0, 15.0], [16.0, 15.01]])
    ds = pair_and_threshold(ss, g, 15.0)
    assert ds.event == "ev1"
    assert list(ds.stations) == ["B", "C"]
    assert ds.x[0] == pytest.approx(15.01)
    assert ds.x[1] == pytest.approx(np.mean([14.0, 15.0, 16.0, 15.01]))
    np.testing.assert_array_equal(ds.y, [22.0, 25.0])
    assert len(ds) == 2


def _stations_from_text(tmp_path, body):
    return load_stations(write(tmp_path / "stations.csv", STATION_HEADER + body))


def test_pair_drops_out_of_hull(tmp_path):
    recs = ("ev1,A,0.5,0.5,20.0\n"
            "ev1,B,5.0,5.0,22.0\n")
    ss = _stations_from_text(tmp_path, recs)
    g = grid_2x2(values=[[20.0, 20.0], [20.0, 20.0]])
    ds = pair_and_threshold(ss, g, 15.0)
    assert list(ds.stations) == ["A"]


def test_pair_logs_hull_and_threshold_drops_separately(tmp_path, caplog):
    recs = ("ev1,A,0.5,0.5,20.0\n"      # kept
            "ev1,B,5.0,5.0,22.0\n"      # outside the hull
            "ev1,C,-3.0,0.5,22.0\n"     # outside the hull
            "ev1,D,0.0,0.0,21.0\n"      # 14.0, below u
            "ev1,E,0.0,1.0,21.0\n"      # 15.0, at u
            "ev1,F,1.0,0.0,21.0\n")     # 16.0, kept
    ss = _stations_from_text(tmp_path, recs)
    g = grid_2x2(values=[[14.0, 15.0], [16.0, 17.0]])
    with caplog.at_level(logging.INFO, logger="fieldcal.dataio"):
        ds = pair_and_threshold(ss, g, 15.0)
    assert list(ds.stations) == ["A", "F"]
    messages = [r.getMessage() for r in caplog.records]
    assert messages == [
        "event ev1: dropped 2 station(s) outside the grid",
        "event ev1: dropped 2 station(s) at or below the threshold 15",
    ]
    # nothing dropped: nothing logged
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="fieldcal.dataio"):
        pair_and_threshold(_stations_from_text(tmp_path, "ev1,A,0.5,0.5,20.0\n"),
                           g, 15.0)
    assert caplog.records == []


def test_pair_empty_raises(tmp_path):
    ss = _stations_from_text(tmp_path, "ev1,A,0.5,0.5,20.0\n")
    g = grid_2x2(values=[[10.0, 10.0], [10.0, 10.0]])
    with pytest.raises(EmptyDataset):
        pair_and_threshold(ss, g, 15.0)
    # no stations for this event at all
    g2 = grid_2x2(event="other")
    with pytest.raises(EmptyDataset):
        pair_and_threshold(ss, g2, 15.0)


def test_pair_counting_oracle(tmp_path):
    rng = np.random.default_rng(23)
    n1 = n2 = 6
    vals = rng.uniform(10.0, 20.0, size=(n1, n2))
    g = GridField(event="e", n1=n1, n2=n2, origin=(0, 0), spacing=(1, 1),
                  values=vals)
    recs = []
    for k in range(60):
        a, b = rng.uniform(-0.5, 5.5, size=2)
        recs.append(f"e,S{k},{a},{b},{rng.uniform(0, 40)}")
    ss = _stations_from_text(tmp_path, "\n".join(recs) + "\n")
    u = 15.0
    want = 0
    for s1, s2 in zip(ss.s1.tolist(), ss.s2.tolist()):
        if 0.0 <= s1 <= 5.0 and 0.0 <= s2 <= 5.0:
            if interpolate_field_reference(g, s1, s2) > u:
                want += 1
    ds = pair_and_threshold(ss, g, u)
    assert len(ds) == want
    assert np.all(ds.x > u)


def test_event_dataset_validation():
    with pytest.raises(ValueError):
        EventDataset("e", np.zeros((2, 2)), np.array([14.0, 16.0]),
                     np.array([1.0, 2.0]), threshold=15.0)  # x <= u
    with pytest.raises(EmptyDataset):
        EventDataset("e", np.zeros((0, 2)), np.array([]), np.array([]),
                     threshold=15.0)
    with pytest.raises(ValueError):
        EventDataset("e", np.zeros((2, 2)), np.array([16.0, 17.0]),
                     np.array([1.0]), threshold=15.0)  # length mismatch


def test_event_dataset_rejects_non_finite_values():
    # checked once when the dataset is built: the fit factors matrices
    # built from these values without reading them again
    good = dict(locations=np.zeros((3, 2)), x=np.array([16.0, 17.0, 18.0]),
                y=np.array([1.0, 2.0, 3.0]))
    EventDataset("e", threshold=15.0, **good)
    for name in good:
        for bad in (math.nan, math.inf, -math.inf):
            values = {k: v.copy() for k, v in good.items()}
            values[name].flat[-1] = bad
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                EventDataset("e", threshold=15.0, **values)


def test_holdout_split_deterministic_partition():
    ds = EventDataset("e", np.arange(20.0).reshape(10, 2),
                      np.linspace(16, 25, 10), np.linspace(1, 10, 10),
                      threshold=15.0, stations=tuple("abcdefghij"))
    tr1, ho1 = holdout_split(ds, 3, seed=7)
    tr2, ho2 = holdout_split(ds, 3, seed=7)
    np.testing.assert_array_equal(tr1.y, tr2.y)
    np.testing.assert_array_equal(ho1.y, ho2.y)
    assert len(ho1) == 3 and len(tr1) == 7
    # a different seed moves the split
    _, ho3 = holdout_split(ds, 3, seed=8)
    assert not np.array_equal(ho1.y, ho3.y)
    # partition: every original row appears exactly once
    all_y = np.sort(np.concatenate([tr1.y, ho1.y]))
    np.testing.assert_array_equal(all_y, ds.y)
    assert set(tr1.stations) | set(ho1.stations) == set(ds.stations)
    with pytest.raises(ValueError):
        holdout_split(ds, 0, seed=1)
    with pytest.raises(ValueError):
        holdout_split(ds, 10, seed=1)


def test_load_points(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("# target points\ns1,s2,x\n1.0,2.0,20.0\n-1.5,0.25,18.5\n")
    loc, x = load_points(p)
    np.testing.assert_array_equal(loc, [[1.0, 2.0], [-1.5, 0.25]])
    np.testing.assert_array_equal(x, [20.0, 18.5])
    bad = tmp_path / "bad.csv"
    bad.write_text("s1,s2\n1,2\n")
    with pytest.raises(HeaderMismatch):
        load_points(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("s1,s2,x\n")
    with pytest.raises(EmptyDataset):
        load_points(empty)
    # errors name the file line, counting comment and blank lines
    for body, msg in (("1,zz,20\n", "line 5: bad numeric field"),
                      ("1,2,nan\n", "line 5: non-finite value"),
                      ("inf,2,20\n", "line 5: non-finite value")):
        with pytest.raises(ParseError, match=msg):
            load_points(write(tmp_path / "p.csv",
                              "# targets\ns1,s2,x\n\n1,2,20\n" + body))
    # a whitespace-only line is skipped like an empty one (as in
    # load_stations), and later errors still name the file line
    loc, x = load_points(write(tmp_path / "p.csv",
                               "s1,s2,x\n1,2,20\n   \n3,4,25\n"))
    np.testing.assert_array_equal(loc, [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(x, [20.0, 25.0])
    with pytest.raises(ParseError, match="line 5: bad numeric field"):
        load_points(write(tmp_path / "p.csv",
                          "s1,s2,x\n1,2,20\n \t \n3,4,25\n1,zz,20\n"))


def test_rmse():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(
        np.sqrt(12.5), rel=1e-12)
    with pytest.raises(ValueError):
        rmse([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        rmse([], [])
