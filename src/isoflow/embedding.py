"""Explicit ambient embeddings and point-cloud export for the classical families.

Embeddings exist for the families whose ambient construction is elementary:
Euclidean cylinders/spheres, horospheres, hyperbolic cylinders in the
hyperboloid model, and products of spheres.  The remaining spherical families
(g = 3, 4, 6) have no embedding here and raise UnsupportedEmbeddingError.

Euclidean cylinders, products of spheres and hyperbolic cylinders are
products of scaled charts (Cecil & Ryan, Geometry of Hypersurfaces, ch. 3):
each factor puts a * chart into the position F and b * chart into the normal
N, on its own columns.

* Euclidean cylinder: S^m with (a, b) = (1/|kappa|, -sign kappa) times the
  flat R^(n-m), whose normal part is 0;
* product of spheres: S^l with (r1, -r2) times S^(n-l) with (r2, r1),
  r1 = 1/sqrt(1 + kappa1^2) and r2 = kappa1 r1;
* hyperbolic cylinder: H^m2 with (cosh w, -sinh w) times S^m1 with
  (sinh w, -cosh w), sinh w = 1/sqrt(kappa1^2 - 1).

Charts:

* sphere factor S^m: hyperspherical angles, polar angles kept away from the
  poles to avoid duplicate sample points;
* hyperbolic factor H^m: exponential chart v -> (cosh|v|, sinh|v| v/|v|);
* horosphere, a frame of its own: null-coordinate chart
  F(u) = (1 + |u|^2/2, u, -|u|^2/2) on the hyperboloid <F,F> = -1 (first
  coordinate carries the negative sign), with unit normal N = -kappa (F + L),
  L = (-1, 0, ..., 0, 1).

Every frame and snapshot is carried as its columns, one array per ambient
coordinate.  A column has the grid's number of axes and size 1 along each
axis it is constant on by construction.  Each grid axis is such a column; a
chart broadcasts its factor's axis columns into its m+1 columns, each then
spanning that factor's own axes (a flat factor's are its axes); a
horosphere's u_j spans axis j, and its |u|^2 columns span the whole grid.
The (P, d) arrays, one row per grid point in C order, are built only when
SampledSurface.points or .normals is read.

A snapshot at time t applies the parallel map (F, N) -> (cF + sN, ...) with
xi = xi(t) from a flow profile to the t = 0 frame, column by column, so every
exported cloud stays exactly on the ambient quadric up to roundoff; the
validations of the frame and of the cloud broadcast over the columns too.

The CSV writer starts from each column as it is.  It cuts the column to length
1 along every further axis it is constant on (by bits), runs np.unique on the
sub-grid that is left and broadcasts the index back to the grid, so each
distinct value is formatted once: those of all columns and t in one _texts
pass, which writes what %.17g writes.  In fixed notation, 1e-4 <= |x| < 1e17,
the pass rounds the exact product of the mantissa and a power of ten to 17
digits in 64-bit integer limbs, looks them up four at a time and places them
by one of 756 layout rows, built once per process; exponent notation, zeros,
subnormals, non-finite values and small chunks go to %.17g itself.
Neighbouring columns whose sub-grids nest (one factor's position columns, its
normal columns, the constant t) are joined into one piece of text per point of
the larger sub-grid while that stays smaller than the grid: a row of a
Euclidean cylinder is 3 pieces, of a product of spheres or a hyperbolic
cylinder 4, and of a horosphere 9, as each join there would span the grid.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import stat
from dataclasses import dataclass

import numpy as np

from .catalog import IsoparametricSurface
from .errors import (InvalidFrameError, InvalidInputError, NumericalRangeError,
                     UnsupportedEmbeddingError)
from .spaceform import HYPERBOLIC, SPHERE, _anchor, check_frame, parallel_map
# parallel_point stays importable here: perfbench/layers.py traces it at this module.
from .spaceform import parallel_point  # noqa: F401

POLAR_MARGIN = 0.2


@dataclass(frozen=True)
class SampledSurface:
    """Point cloud with normals at one flow time; frames validated to 1e-10.

    The cloud is held as its columns (see the module docstring): a tuple of
    d arrays for the positions and one for the normals, each broadcast over
    ``grid_shape``.
    """

    family: str
    point_columns: tuple
    normal_columns: tuple
    grid_shape: tuple
    t: float
    xi: float
    space_form: object

    def __post_init__(self):
        if len(self.point_columns) != len(self.normal_columns):
            raise InvalidInputError("points and normals must have as many columns")
        shape = tuple(self.grid_shape)
        for column in self.columns:
            if column.ndim != len(shape) or any(c not in (1, g)
                                                for c, g in zip(column.shape, shape)):
                cloud = np.broadcast_shapes(*(c.shape for c in self.columns))
                raise InvalidInputError(
                    f"grid shape {shape} does not hold {math.prod(cloud)} points"
                )
        check_frame(self.space_form, self.point_columns, self.normal_columns, tol=1e-10)

    @property
    def columns(self) -> tuple:
        return (*self.point_columns, *self.normal_columns)

    @property
    def ambient_dim(self) -> int:
        return len(self.point_columns)

    @property
    def points(self) -> np.ndarray:
        """(P, d) positions, one row per grid point in C order, built on each read."""
        return _rows(self.point_columns, self.grid_shape)

    @property
    def normals(self) -> np.ndarray:
        """(P, d) unit normals, as ``points``."""
        return _rows(self.normal_columns, self.grid_shape)


def _rows(columns, shape):
    out = np.empty((*shape, len(columns)))
    for j, column in enumerate(columns):
        out[..., j] = column
    return out.reshape(-1, len(columns))


@dataclass(frozen=True)
class Embedding:
    """Evaluator mapping a parameter grid to ambient (position, normal) pairs.

    ``_frame`` takes the grid's axes as columns, each spanning its own axis
    alone, and returns F and N as tuples of d columns, each with one axis per
    grid axis and size 1 along the axes it is constant on.
    """

    ambient_dim: int
    axis_kinds: tuple  # per intrinsic axis: "polar" | "azimuth" | "box"
    _frame: callable = None

    def frame_grid(self, resolution, extent: float = 1.0):
        """Evaluate (F, N) on a parameter grid.

        ``resolution`` is one int per intrinsic axis (or a single int for
        all).  Returns (F, N, grid_shape) with F, N tuples of columns, as
        ``_frame`` makes them.  A frame that overflows raises
        InvalidFrameError, as check_frame would.
        """
        dims = len(self.axis_kinds)
        if np.ndim(resolution) == 0:
            resolution = [int(resolution)] * dims
        resolution = [int(r) for r in resolution]
        if len(resolution) != dims or any(r < 0 for r in resolution):
            raise InvalidInputError(
                f"resolution needs {dims} nonnegative entries, got {resolution}"
            )
        if dims > 32:  # numpy broadcasts at most 32 dimensions
            raise InvalidInputError(f"a grid of {dims} axes exceeds numpy's limit of 32 axes")
        axes = []
        for j, (kind, r) in enumerate(zip(self.axis_kinds, resolution)):
            if kind == "polar":
                ax = np.linspace(POLAR_MARGIN, math.pi - POLAR_MARGIN, r)
            elif kind == "azimuth":
                ax = np.linspace(0.0, 2.0 * math.pi, r, endpoint=False)
            else:
                ax = np.linspace(-extent, extent, r)
            axes.append(ax.reshape([-1 if i == j else 1 for i in range(dims)]))
        try:
            with np.errstate(over="raise", invalid="raise"):
                F, N = self._frame(axes)
        except FloatingPointError as exc:
            raise InvalidFrameError("frame is not finite, or its squared norm overflows") from exc
        return F, N, tuple(resolution)


def _sphere_axes(m):
    # m - 1 polar angles plus one azimuth
    return ("polar",) * (m - 1) + ("azimuth",)


def _square_sum(columns):
    """sum_j x_j^2 of columns, added as np.sum adds a row of up to 128 (a grid has at
    most 32 axes): in turn below 8 terms, else 8 strided sums, paired, then the rest."""
    squares = [x * x for x in columns]
    cut = len(squares) - len(squares) % 8
    if cut:
        r = [sum(squares[j + 8:cut:8], squares[j]) for j in range(8)]
        squares[:cut] = [((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))]
    return sum(squares[1:], squares[0])


def _unit_sphere(angles):
    """Hyperspherical chart of S^m: m angle columns -> the m+1 unit-vector columns."""
    out, running = [], 1.0
    for angle in angles:
        out.append(running * np.cos(angle))
        running = running * np.sin(angle)
    return [*out, running]


def _hyperboloid_chart(v):
    """Exponential chart of H^m in L^(m+1): m columns v -> (cosh|v|, sinh|v| v/|v|)."""
    norm = np.sqrt(_square_sum(v))
    scale = np.divide(np.sinh(norm), norm, out=np.ones_like(norm), where=norm > 0)
    return [np.cosh(norm), *(scale * x for x in v)]


def _product_frame(factors):
    """Frame of a product of scaled charts, one block of axes and columns per factor.

    A factor (chart, dims, a, b) maps the columns of its own ``dims`` axes by
    ``chart`` to columns, each broadcast to span all of those axes: a * column
    for F and b * column for N.  A flat factor (chart and b None) puts its
    axes into F and 0 into N: 0 * y would give -0.0 where y < 0.
    """

    def frame(axes):
        F, N = [], []
        zero = np.zeros((1,) * len(axes))
        for chart, dims, a, b in factors:
            own, axes = axes[:dims], axes[dims:]
            shape = np.broadcast_shapes(*(x.shape for x in own))
            for column in (own if chart is None else chart(own)):
                column = np.broadcast_to(column, shape)
                F.append(a * column)
                N.append(zero if b is None else b * column)
        return tuple(F), tuple(N)

    return frame


def get_embedding(surface: IsoparametricSurface) -> Embedding:
    """Ambient embedding of the surface, when one is available."""
    family = surface.family
    if family == "horosphere":
        kappa = surface.blocks[0].kappa

        def frame(u):
            uu = _square_sum(u)
            shifted = (uu / 2.0, *u, 1.0 - uu / 2.0)
            return (1.0 + uu / 2.0, *u, -uu / 2.0), tuple(-kappa * x for x in shifted)

        return Embedding(surface.n + 2, ("box",) * surface.n, frame)

    if family == "euclidean_cylinder":
        m, kappa = surface.blocks[0].mult, surface.blocks[0].kappa
        factors = [(_unit_sphere, m, 1.0 / abs(kappa), -math.copysign(1.0, kappa)),
                   (None, surface.n - m, 1.0, None)]
    elif family == "sphere_g2":
        b1, b2 = surface.blocks  # kappa1 > 0 > kappa2 = -1/kappa1
        r1 = 1.0 / _anchor(SPHERE, b1.kappa)[2]  # 1 / sqrt(1 + kappa1^2)
        r2 = b1.kappa * r1
        factors = [(_unit_sphere, b1.mult, r1, -r2), (_unit_sphere, b2.mult, r2, r1)]
    elif family == "hyperbolic_cylinder":  # either orientation: kappa < 0 negates N
        small, big = sorted(surface.blocks, key=lambda b: abs(b.kappa))  # big: |kappa| > 1
        q = 1.0 / _anchor(HYPERBOLIC, big.kappa)[2]  # sign(kappa) sinh(w) = 1/sqrt(kappa^2 - 1)
        rho = big.kappa * q  # hyperbolic factor radius cosh(w)
        factors = [(_hyperboloid_chart, small.mult, rho, -q),
                   (_unit_sphere, big.mult, abs(q), -abs(big.kappa) * q)]
    else:
        raise UnsupportedEmbeddingError(
            f"family {family!r} has no explicit ambient embedding"
        )
    width = sum(dims + (chart is not None) for chart, dims, _, _ in factors)
    axis_kinds = sum((_sphere_axes(dims) if chart is _unit_sphere else ("box",) * dims
                      for chart, dims, _, _ in factors), ())
    return Embedding(width, axis_kinds, _product_frame(factors))


def snapshots(surface: IsoparametricSurface, resolution, times, profile,
              extent: float = 1.0):
    """Yield the evolved hypersurface point cloud at each of ``times``, in order.

    The flow moves by parallel hypersurfaces, so each snapshot is the parallel
    map of one intrinsic frame, built and validated once (not at all for no
    times), at xi(t) from ``profile``; each t must lie in its domain.
    """
    if len(times) == 0:
        return
    F, N, grid_shape = get_embedding(surface).frame_grid(resolution, extent=extent)
    check_frame(surface.space_form, F, N)
    for k, t in enumerate(times, 1):
        xi = float(np.asarray(profile.xi(t), dtype=float))
        try:
            with np.errstate(over="raise", invalid="raise"):
                points, normals = parallel_map(surface.space_form, F, N, xi)
        except FloatingPointError as exc:
            raise NumericalRangeError(
                f"the snapshot at t = {t!r} (xi = {xi!r}) leaves double range: {exc}"
            ) from exc
        if k == len(times):
            del F, N  # so the caller's work on the last cloud runs without the frame
        yield SampledSurface(surface.family, points, normals, grid_shape, float(t), xi,
                             surface.space_form)
        del points, normals  # so the next cloud is built without this one


def sample(surface: IsoparametricSurface, resolution, t: float, profile,
           extent: float = 1.0) -> SampledSurface:
    """The evolved hypersurface point cloud at time t: one of ``snapshots``."""
    return next(snapshots(surface, resolution, [t], profile, extent))


@contextlib.contextmanager
def overwrite(path):
    """``open(path, "wb")``, but written in place: at the end, also when a
    write or the flush raises, a regular file longer than what reached it is
    cut to that length, so no old byte follows the new ones, and a re-export
    reuses the blocks it replaces instead of truncating them to zero first.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        try:
            yield fh
        finally:
            try:
                fh.flush()
            finally:
                st = os.fstat(fd := fh.fileno())
                if stat.S_ISREG(st.st_mode):  # a pipe has no offset, /dev/null no length
                    end = os.lseek(fd, 0, os.SEEK_CUR)  # what reached the file
                    if st.st_size > end:
                        os.ftruncate(fd, end)


# The fixed-notation pass of _texts: 5**k for the scale 10**k = 5**k 2**k, the ASCII
# of the 10,000 four-digit groups (from the 100 pairs), the bytes besides digits.
_POW5 = 5 ** np.arange(21, dtype=np.uint64)
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
_QUADS = np.stack([np.repeat(_PAIRS, 100), np.tile(_PAIRS, 100)], axis=1).view(np.uint32)[:, 0]
_MARKS = np.frombuffer(b"-0.,\0", np.uint8)  # columns 17..21 of a value's source row
_CHUNK = 2048  # values per pass: bounds the pass's arrays near 1 MiB
_SMALL = 256  # fewer fixed-notation values in a chunk go to %: there it is the faster


@functools.cache
def _layouts():
    """By class id (sign, X in -4..16, significant digits: 756 in all), the column
    of the source row that each of the 24 text bytes takes: a ``-``, then ``0.``
    and -X-1 zeros when X < 0, else the X+1 integer digits and a ``.`` if more are
    significant; the rest of them, a ``,`` and NULs.  Built on the first call."""
    ids = np.arange(756)[:, None]
    neg, X, sig = ids // 378, ids // 18 % 21 - 4, ids % 18
    at = np.arange(24) - neg  # position in the text after the sign
    lead = 1 - X  # "0." and the zeros when X < 0
    point = np.where(X < 0, 1, X + 1)
    dot = (X < 0) | (sig > X + 1)
    end = np.where(X < 0, lead + sig, np.maximum(sig, X + 1) + dot)
    digit = np.where(X < 0, at - lead, at - (at > point))
    return np.select([at < 0, (X < 0) & (at < lead) & (at != 1), dot & (at == point),
                      at < end, at == end], [17, 18, 19, digit, 20], 21).astype(np.int16)


def _texts(values) -> np.ndarray:
    """``b"%.17g," % x`` for each float x of ``values``, as an object array of bytes.

    %.17g writes 1e-4 <= |x| < 1e17 in fixed notation: no double below 1e-4
    rounds up to it at 17 digits, and those below 1e17 are integers there.
    Those values are formatted by ``_fixed_texts`` and the rest (exponent
    notation, zeros, subnormals, inf and nan) by ``%`` itself, _CHUNK at a
    time; a chunk with fewer than _SMALL of the former goes to ``%`` whole.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    out = np.empty(len(values), dtype=object)
    for start in range(0, len(values), _CHUNK):
        chunk, part = values[start:start + _CHUNK], out[start:start + _CHUNK]
        size = np.abs(chunk)
        fixed = (size >= 1e-4) & (size < 1e17)  # nan is not
        fixed &= np.count_nonzero(fixed) >= _SMALL
        if fixed.any():
            part[fixed] = _fixed_texts(chunk[fixed])
        rest = chunk[~fixed].tolist()
        part[~fixed] = (b"%.17g,\n" * len(rest) % tuple(rest)).splitlines()
    return out


def _scaled(mantissa, exp2, X):
    """round_half_even(mantissa * 2**exp2 * 10**(16 - X)) as uint64, exactly.

    The 53-bit mantissa times 5**(16 - X) < 2**47 is a 128-bit product, held
    in 64-bit limbs (hi, lo) from 32-bit halves; ``drop`` = X - 16 - exp2 of
    its low bits lie below the units place (none when ``drop`` <= 0).
    """
    five = _POW5[16 - X]
    ml, mh, fl, fh = mantissa & 0xFFFFFFFF, mantissa >> 32, five & 0xFFFFFFFF, five >> 32
    low = ml * fl
    mid = mh * fl + ml * fh + (low >> 32)
    lo = (low & 0xFFFFFFFF) | (mid << 32)
    hi = mh * fh + (mid >> 32)
    drop = X - 16 - exp2
    shift = np.maximum(drop, 1).astype(np.uint64)
    kept = (hi << (64 - shift)) | (lo >> shift)
    rest, half = lo & ((1 << shift) - 1), 1 << (shift - 1)
    kept += (rest > half) | ((rest == half) & ((kept & 1) == 1))
    return np.where(drop > 0, kept, lo << np.maximum(-drop, 0).astype(np.uint64))


def _fixed_texts(x) -> np.ndarray:
    """``b"%.17g," % v`` for each v of x, 1e-4 <= |v| < 1e17, as an S24 array.

    The 17 digits are D = round_half_even(|v| 10**(16 - X)) with X the decimal
    exponent, from log10 and corrected once where D falls outside
    [10**16, 10**17): the first digit, then four groups of four, each one
    lookup in _QUADS.  A value's text is the 24 bytes that the _layouts() row
    of its class (sign, X, significant digits) takes from its source row, the
    digits and _MARKS, NUL-padded, which the S24 view drops.
    """
    bits = np.abs(x).view(np.uint64)
    mantissa = bits & (2**52 - 1) | 2**52
    exp2 = (bits >> 52).astype(np.int64) - 1075
    X = np.clip(np.floor(np.log10(np.abs(x))), -4, 16).astype(np.int64)
    D = _scaled(mantissa, exp2, X)
    redo = np.flatnonzero((D < 10**16) | (D >= 10**17))
    if len(redo):
        X[redo] += np.where(D[redo] < 10**16, -1, 1)
        D[redo] = _scaled(mantissa[redo], exp2[redo], X[redo])
    top = D // 10**16
    quads = D - top * 10**16
    for unit in (10**8, 10**4):  # 1 part of 16 digits, 2 of 8, 4 of 4
        high = quads // unit
        quads = np.stack([high, quads - high * unit], axis=-1)
    source = np.empty((len(x), 22), dtype=np.uint8)
    source[:, 0] = top + 48
    source[:, 1:17] = _QUADS.take(quads.reshape(-1, 4)).view(np.uint8).reshape(-1, 16)
    source[:, 17:] = _MARKS
    sig = 17 - np.argmax(source[:, 16::-1] != 48, axis=1)  # D's first digit is not 0
    ids = (np.signbit(x) * 21 + X + 4) * 18 + sig
    index = _layouts().take(ids, axis=0) + np.arange(0, source.size, 22)[:, None]
    return source.reshape(-1).take(index).view("S24")[:, 0]


def export_csv(sampled: SampledSurface, path) -> None:
    """Write the cloud as CSV: x0..xd, nx0..nxd, t with 17 significant digits.

    Each distinct value of a column, told apart by its bits so that ``-0.0``
    is still written ``-0``, is formatted once as ``%.17g`` would: all of
    them and t in one ``_texts`` pass.  The module docstring says how the
    columns are cut and joined into a row's pieces.
    """
    d = sampled.ambient_dim
    header = ",".join(
        [f"x{i}" for i in range(d)] + [f"nx{i}" for i in range(d)] + ["t"]
    )
    shape = sampled.grid_shape
    size = math.prod(shape)
    cuts = []  # (distinct values, index into them on the column's sub-grid)
    for column in sampled.columns:
        bits = column.view(np.int64)
        for axis in range(len(shape)):
            head = bits[(slice(None),) * axis + (slice(0, 1),)]
            if np.all(bits == head):
                bits = head
        values, index = np.unique(bits.ravel(), return_inverse=True)
        index = index.astype(np.min_scalar_type(max(len(values) - 1, 0))).reshape(bits.shape)
        cuts.append((values.view(np.float64), index))
    cuts.append(([sampled.t], np.zeros((1,) * len(shape), dtype=np.uint8)))
    # Each field carries the comma after it; t, the last column, a newline.
    texts = _texts(np.concatenate([values for values, _ in cuts]))
    texts[-1] = texts[-1][:-1] + b"\n"
    pieces = []  # (texts, index into them on the piece's sub-grid)
    start = 0
    for values, index in cuts:
        text = texts[start:start + len(values)]
        start += len(values)
        if pieces:
            sub = np.broadcast_shapes(pieces[-1][1].shape, index.shape)
            if sub in (pieces[-1][1].shape, index.shape) and math.prod(sub) < size:
                last_text, last_index = pieces.pop()
                text = (last_text[np.broadcast_to(last_index, sub)]
                        + text[np.broadcast_to(index, sub)]).ravel()
                index = np.arange(len(text), dtype=np.min_scalar_type(len(text) - 1)).reshape(sub)
        pieces.append((text, index))
    pieces = [(text, np.broadcast_to(index, shape).reshape(-1)) for text, index in pieces]
    cells = np.empty((1024, len(pieces)), dtype=object)
    # The text is ASCII bytes: a str chunk would be encoded into a second copy.
    with overwrite(path) as fh:
        fh.write(header.encode() + b"\n")
        # 1,024 rows at a time: the whole file's text is never held at once.
        for start in range(0, size, 1024):
            rows = cells[:size - start]
            for j, (text, index) in enumerate(pieces):
                rows[:, j] = text[index[start:start + 1024]]
            fh.write(b"".join(rows.ravel().tolist()))


def export_metadata(sampled: SampledSurface, path) -> None:
    """Write the JSON sidecar describing a snapshot."""
    doc = {
        "family": sampled.family,
        "t": sampled.t,
        "xi": sampled.xi,
        "resolution": list(sampled.grid_shape),
    }
    with overwrite(path) as fh:
        fh.write(json.dumps(doc, indent=2).encode() + b"\n")  # ASCII: ensure_ascii
