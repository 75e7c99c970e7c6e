"""Raster rendering of landscapes without an imaging dependency.

Images are built as uint8 RGB arrays of shape (n2, n1, 3): image row 0 is
the *top* of the decision space (largest x2), so plots read like standard
mathematical axes.  Two encoders are provided — binary PPM (P6), which is
trivially deterministic, and PNG via the stdlib zlib, byte-stable for a
fixed compression level.  The PNG encoder filters and compresses one block
of image rows at a time, so it holds no full filtered copy of the image.

Height fields use a blue-to-red colormap (low to high) over log-scaled
values; the combined view draws efficient points coloured by dominance rank
on top of a grayscale height background; the criticality view uses white /
gray / black for non-critical / critical-only / locally efficient points.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .criticality import CriticalityMap
from .grid import map_blocks, row_blocks
from .landscape import EfficientSetDecomposition, HeightField


_BLUE_RED_STOPS = np.array([
    [0.00, 0, 0, 255],
    [0.25, 0, 255, 255],
    [0.50, 0, 255, 0],
    [0.75, 255, 255, 0],
    [1.00, 255, 0, 0],
])

# the image formats ``PlotArtifact.save`` writes, and ``--format`` offers
FORMATS = ("ppm", "png")

GRAY_CRITICAL = (128, 128, 128)
BLACK_EFFICIENT = (0, 0, 0)
WHITE = (255, 255, 255)


def colormap_blue_red(u: np.ndarray) -> np.ndarray:
    """Map values in [0, 1] to RGB, blue at 0 through green to red at 1."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    out = np.empty(u.shape + (3,), dtype=np.uint8)
    for c in range(3):
        out[..., c] = np.rint(
            np.interp(u, _BLUE_RED_STOPS[:, 0], _BLUE_RED_STOPS[:, c + 1])
        ).astype(np.uint8)
    return out


def _normalizer(values: np.ndarray, log_scale: bool):
    """The map that scales heights ``values`` to [0, 1], log-compressed if
    ``log_scale``, as a function of any block of them: the minimum and
    maximum are found once.  Constant fields collapse to 0."""
    lo = np.float64(np.min(values))
    span = np.float64(np.max(values)) - lo
    if span <= 0:
        return lambda v: np.zeros(np.shape(v))
    if log_scale:
        top = np.log1p(span)
        return lambda v: np.log1p(np.asarray(v, dtype=float) - lo) / top
    return lambda v: (np.asarray(v, dtype=float) - lo) / span


@dataclass
class PlotArtifact:
    """A rendered raster; ``legend["warning"]`` says what it could not draw."""

    raster: np.ndarray            # (height, width, 3) uint8
    legend: dict = field(default_factory=dict)

    def to_ppm_bytes(self) -> bytes:
        h, w = self.raster.shape[:2]
        return b"P6\n%d %d\n255\n" % (w, h) + self.raster.tobytes()

    def to_png_bytes(self) -> bytes:
        return _encode_png(self.raster)

    def save(self, path, fmt: str) -> None:
        """Write the image to ``path`` as ``fmt``, one of ``FORMATS``."""
        if fmt not in FORMATS:
            raise ValueError(f"unknown image format {fmt!r}; expected one of "
                             f"{', '.join(FORMATS)}")
        data = self.to_png_bytes() if fmt == "png" else self.to_ppm_bytes()
        with open(path, "wb") as fh:
            fh.write(data)


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    body = tag + payload
    return struct.pack(">I", len(payload)) + body + struct.pack(
        ">I", zlib.crc32(body) & 0xFFFFFFFF)


def _encode_png(raster: np.ndarray) -> bytes:
    """Minimal 8-bit truecolour PNG encoder (filter 0, fixed zlib level).

    The filtered rows go to one ``zlib.compressobj(9)`` one ``row_blocks``
    block at a time, with no flush until the end.  zlib's deflate then emits
    the bytes of ``zlib.compress(rows, 9)`` over all rows at once (the tests
    compare the two across block seams), without a full filtered copy of
    the image.
    """
    h, w = raster.shape[:2]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    # each row behind its filter byte
    z = zlib.compressobj(9)
    idat = []
    for rows in row_blocks(h):
        block = np.zeros((rows.stop - rows.start, w * 3 + 1), dtype=np.uint8)
        block[:, 1:] = raster[rows].reshape(-1, w * 3)
        idat.append(z.compress(block))
    idat.append(z.flush())
    return (b"\x89PNG\r\n\x1a\n"
            + _png_chunk(b"IHDR", ihdr)
            + _png_chunk(b"IDAT", b"".join(idat))
            + _png_chunk(b"IEND", b""))


def _image(shape, colour_rows) -> np.ndarray:
    """(n2, n1, 3) image, x2 up, of the colours of an (n1, n2) grid, which
    ``colour_rows(rows)`` gives as a (k, n2, 3) or (k, n2, 1) uint8 array
    for each block ``rows`` of ``row_blocks`` grid rows, run by
    ``map_blocks``."""
    n1, n2 = shape
    image = np.empty((n2, n1, 3), dtype=np.uint8)

    def block(rows: slice):
        image[::-1, rows] = np.swapaxes(colour_rows(rows), 0, 1)

    map_blocks(block, row_blocks(n1))
    return image


def render_height_map(heights: HeightField, log_scale: bool = True) -> PlotArtifact:
    """Blue-to-red map of a (gfh or cost) height field, normalised and
    coloured per block of grid rows."""
    values = heights.values
    norm = _normalizer(values, log_scale)
    return PlotArtifact(raster=_image(
        values.shape, lambda rows: colormap_blue_red(norm(values[rows]))))


# colour of each PointClass value
_CLASS_RGB = np.array([WHITE, GRAY_CRITICAL, BLACK_EFFICIENT, BLACK_EFFICIENT],
                      dtype=np.uint8)


def render_critical_map(critmap: CriticalityMap) -> PlotArtifact:
    """White background, gray critical-only points, black efficient points."""
    labels = critmap.labels
    return PlotArtifact(raster=_image(
        labels.shape, lambda rows: _CLASS_RGB.take(labels[rows], axis=0)))


def compose_plot(heights: HeightField, decomposition: EfficientSetDecomposition,
                 log_scale: bool = True) -> PlotArtifact:
    """Rank-coloured efficient set over a grayscale descent-height background.

    The background is normalised and coloured per block of grid rows.
    Efficient pixels take the blue-to-red colour of their dominance rank
    relative to the largest rank present (all-rank-0 sets come out uniformly
    blue).  With no efficient points the background is returned alone and
    the legend's only key, ``"warning"``, says so.
    """
    values = heights.values
    norm = _normalizer(values, log_scale)
    image = _image(values.shape, lambda rows: np.rint(
        255.0 * (1.0 - norm(values[rows]))).astype(np.uint8)[..., None])
    legend = {}
    if decomposition.n_efficient == 0:
        legend["warning"] = "no locally efficient points detected"
    else:
        max_rank = int(decomposition.ranks.max())
        ur = (decomposition.ranks / max_rank) if max_rank > 0 else np.zeros(
            decomposition.ranks.shape)
        i, j = decomposition.points[:, 0], decomposition.points[:, 1]
        image[values.shape[1] - 1 - j, i] = colormap_blue_red(ur)
    return PlotArtifact(raster=image, legend=legend)


def render(mode: str, *, heights: HeightField = None,
           critmap: CriticalityMap = None,
           decomposition: EfficientSetDecomposition = None,
           log_scale: bool = True) -> PlotArtifact:
    """Render the artifact for a CLI mode from the fields that mode needs."""
    if mode == "plot":
        return compose_plot(heights, decomposition, log_scale=log_scale)
    if mode in ("gfh", "cost"):
        return render_height_map(heights, log_scale=log_scale)
    if mode == "critical":
        return render_critical_map(critmap)
    raise ValueError(f"unknown render mode {mode!r}")
