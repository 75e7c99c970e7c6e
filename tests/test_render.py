"""Colormap, raster orientation, and PPM/PNG encoding."""

import io
import struct
import zlib

import numpy as np
import pytest

from paretoscape import (analyze, colormap_blue_red, compose_plot,
                         make_bisphere, render, render_critical_map,
                         render_height_map)
from paretoscape.grid import build_grid
from paretoscape.landscape import HeightField
from paretoscape.render import (BLACK_EFFICIENT, GRAY_CRITICAL, WHITE,
                                _normalizer)


def _decode_png(data: bytes) -> np.ndarray:
    """Decode an 8-bit RGB, non-interlaced PNG whose scanlines all use filter
    type 0, checking the signature, every chunk CRC and the IHDR fields."""
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = [], 8
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        body = data[pos + 4:pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length:pos + 12 + length])
        assert zlib.crc32(body) & 0xFFFFFFFF == crc, f"bad CRC in {body[:4]!r}"
        chunks.append((body[:4], body[4:]))
        pos += 12 + length
    assert chunks[0][0] == b"IHDR" and chunks[-1] == (b"IEND", b"")
    width, height, depth, color, method, filt, interlace = struct.unpack(
        ">IIBBBBB", chunks[0][1])
    assert (depth, color, method, filt, interlace) == (8, 2, 0, 0, 0)
    raw = zlib.decompress(b"".join(p for tag, p in chunks if tag == b"IDAT"))
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, 1 + 3 * width)
    assert (rows[:, 0] == 0).all()
    return rows[:, 1:].reshape(height, width, 3)


def test_colormap_endpoints_and_monotone_channels():
    u = np.linspace(0.0, 1.0, 101)
    rgb = colormap_blue_red(u)
    assert rgb.dtype == np.uint8
    assert tuple(rgb[0]) == (0, 0, 255)
    assert tuple(rgb[50]) == (0, 255, 0)
    assert tuple(rgb[-1]) == (255, 0, 0)
    b = rgb[:, 2].astype(int)
    r = rgb[:, 0].astype(int)
    assert (np.diff(b) <= 0).all()   # blue never increases
    assert (np.diff(r) >= 0).all()   # red never decreases
    # out-of-range inputs clamp
    assert tuple(colormap_blue_red(np.array([-3.0]))[0]) == (0, 0, 255)
    assert tuple(colormap_blue_red(np.array([7.0]))[0]) == (255, 0, 0)


def test_normalize_heights_modes():
    v = np.array([[0.0, 1.0], [3.0, 7.0]])
    lin = _normalizer(v, log_scale=False)(v)
    assert lin[0, 0] == 0.0 and lin[1, 1] == 1.0
    assert lin[0, 1] == pytest.approx(1.0 / 7.0)
    log = _normalizer(v, log_scale=True)(v)
    assert log[0, 0] == 0.0 and log[1, 1] == 1.0
    assert log[0, 1] == pytest.approx(np.log1p(1.0) / np.log1p(7.0))
    # log compression lifts mid values above the linear ramp
    assert log[0, 1] > lin[0, 1]
    flat = np.full((3, 3), 4.2)
    const = _normalizer(flat, log_scale=True)(flat)
    assert (const == 0.0).all()


def test_constant_field_renders_uniform_blue():
    g = build_grid((0.0, 0.0), (1.0, 1.0), 4, 3)
    hf = HeightField(grid=g, values=np.full((4, 3), 2.0))
    art = render_height_map(hf)
    assert art.raster.shape == (3, 4, 3)
    assert (art.raster == np.array([0, 0, 255], dtype=np.uint8)).all()


def test_raster_orientation_x2_up():
    # a single hot cell at grid index (i=2, j=0) must land in the bottom
    # image row (x2 smallest) at column 2
    g = build_grid((0.0, 0.0), (3.0, 2.0), 4, 3)
    v = np.zeros((4, 3))
    v[2, 0] = 1.0
    art = render_height_map(HeightField(grid=g, values=v), log_scale=False)
    assert art.raster.shape == (3, 4, 3)
    red = np.array([255, 0, 0], dtype=np.uint8)
    assert tuple(art.raster[2, 2]) == tuple(red)
    assert (art.raster[2, 2] == red).all()
    # every other pixel is the low-end blue
    mask = np.ones((3, 4), dtype=bool)
    mask[2, 2] = False
    assert (art.raster[mask] == np.array([0, 0, 255], dtype=np.uint8)).all()


def test_critical_map_colors_and_counts():
    r = analyze(make_bisphere(), 81)
    art = render_critical_map(r.critmap)
    flat = art.raster.reshape(-1, 3)
    n_white = int((flat == WHITE).all(axis=1).sum())
    n_gray = int((flat == GRAY_CRITICAL).all(axis=1).sum())
    n_black = int((flat == BLACK_EFFICIENT).all(axis=1).sum())
    counts = r.critmap.counts()
    assert n_black == (counts["LocallyEfficientInterior"]
                       + counts["LocallyEfficientBoundary"])
    assert n_gray == counts["CriticalOnly"]
    assert n_white == counts["NonCritical"]
    assert n_white + n_gray + n_black == 81 * 81


def test_compose_plot_rank_zero_set_is_blue():
    r = analyze(make_bisphere(), 81)
    art = compose_plot(r.heights, r.decomposition)
    assert art.legend == {}
    blue = np.array([0, 0, 255], dtype=np.uint8)
    for i, j in r.decomposition.points:
        px = art.raster[81 - 1 - j, i]
        assert (px == blue).all()
    # background pixels are grayscale
    bg = art.raster[0, 0]
    assert bg[0] == bg[1] == bg[2]


def test_compose_plot_empty_warns():
    from paretoscape import BiObjectiveProblem

    p = BiObjectiveProblem(
        name="slide",
        lower=(0.0, 0.0), upper=(1.0, 1.0),
        fn=lambda x1, x2: (x1 + x2, 2.0 * x1 + x2),
    )
    r = analyze(p, 11)
    art = compose_plot(r.heights, r.decomposition)
    assert art.legend == {"warning": "no locally efficient points detected"}
    # pure grayscale raster
    assert (art.raster[..., 0] == art.raster[..., 1]).all()
    assert (art.raster[..., 1] == art.raster[..., 2]).all()


def test_ppm_bytes_golden():
    raster = np.array([[[255, 0, 0], [0, 255, 0]],
                       [[0, 0, 255], [9, 8, 7]]], dtype=np.uint8)
    from paretoscape.render import PlotArtifact

    art = PlotArtifact(raster=raster)
    data = art.to_ppm_bytes()
    assert data == (b"P6\n2 2\n255\n"
                    b"\xff\x00\x00\x00\xff\x00\x00\x00\xff\x09\x08\x07")


def test_png_roundtrip():
    rng = np.random.default_rng(8)
    raster = rng.integers(0, 256, size=(5, 9, 3), dtype=np.uint8)
    from paretoscape.render import PlotArtifact

    decoded = _decode_png(PlotArtifact(raster=raster).to_png_bytes())
    assert decoded.shape == (5, 9, 3)
    assert np.array_equal(decoded, raster)


def test_png_roundtrip_via_pillow():
    image = pytest.importorskip(
        "PIL.Image", reason="Pillow not installed; cross-check skipped")
    rng = np.random.default_rng(8)
    raster = rng.integers(0, 256, size=(5, 9, 3), dtype=np.uint8)
    from paretoscape.render import PlotArtifact

    art = PlotArtifact(raster=raster)
    img = image.open(io.BytesIO(art.to_png_bytes()))
    assert img.size == (9, 5)
    assert img.mode == "RGB"
    assert np.array_equal(np.asarray(img), raster)


def test_save_infers_format_and_is_deterministic(tmp_path):
    r = analyze(make_bisphere(), 41)
    art = render("plot", heights=r.heights, decomposition=r.decomposition)
    p1 = tmp_path / "a.png"
    p2 = tmp_path / "b.png"
    art.save(p1)
    art.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"
    q = tmp_path / "a.ppm"
    art.save(q)
    assert q.read_bytes()[:2] == b"P6"
    decoded = _decode_png(p1.read_bytes())
    assert decoded.shape == (41, 41, 3)
    assert np.array_equal(decoded, art.raster)


def test_render_dispatch():
    r = analyze(make_bisphere(), 31)
    a = render("gfh", heights=r.heights)
    assert np.array_equal(a.raster, render_height_map(r.heights).raster)
    b = render("critical", critmap=r.critmap)
    assert np.array_equal(b.raster, render_critical_map(r.critmap).raster)
    c = render("plot", heights=r.heights, decomposition=r.decomposition)
    assert np.array_equal(
        c.raster, compose_plot(r.heights, r.decomposition).raster)
    with pytest.raises(ValueError, match="unknown render mode"):
        render("voxel")
