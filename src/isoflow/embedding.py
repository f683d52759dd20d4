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

The CSV writer starts from each column as it is.  It cuts the column to
length 1 along every further axis it is constant on (by bits), runs
np.unique on the sub-grid that is left and broadcasts the index back to the
grid, so each distinct value is formatted once.  Neighbouring columns whose
sub-grids nest (one factor's position columns, its normal columns, the
constant t) are joined into one piece of text per point of the larger
sub-grid while that stays smaller than the grid: a row of a Euclidean
cylinder is 3 pieces, of a product of spheres or a hyperbolic cylinder 4,
and of a horosphere 9, as each join there would span the grid.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
import warnings
from dataclasses import dataclass

import numpy as np

from .catalog import IsoparametricSurface
from .errors import (InvalidFrameError, InvalidInputError, NumericalRangeError,
                     UnsupportedEmbeddingError)
# parallel_point stays importable here: perfbench/layers.py traces it at this module.
from .spaceform import check_frame, parallel_map, parallel_point  # noqa: F401

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
        r1 = 1.0 / math.sqrt(1.0 + b1.kappa**2)
        r2 = b1.kappa * r1
        factors = [(_unit_sphere, b1.mult, r1, -r2), (_unit_sphere, b2.mult, r2, r1)]
    elif family == "hyperbolic_cylinder":
        b1, b2 = surface.blocks
        r = 1.0 / math.sqrt(b1.kappa * b1.kappa - 1.0)  # sphere factor radius sinh(w)
        rho = b1.kappa * r  # hyperbolic factor radius cosh(w)
        factors = [(_hyperboloid_chart, b2.mult, rho, -r), (_unit_sphere, b1.mult, r, -rho)]
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
    times), at xi(t) from ``profile``; each t must lie in its domain.  Ambient
    dimensions above 4 are allowed but flagged with a warning.
    """
    if len(times) == 0:
        return
    emb = get_embedding(surface)
    if emb.ambient_dim > 4:
        warnings.warn(
            f"ambient dimension {emb.ambient_dim} exceeds the default export "
            "target of 4; downstream viewers may not cope",
            stacklevel=2,
        )
    F, N, grid_shape = emb.frame_grid(resolution, extent=extent)
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


def export_csv(sampled: SampledSurface, path) -> None:
    """Write the cloud as CSV: x0..xd, nx0..nxd, t with 17 significant digits.

    Each distinct value of a column, told apart by its bits so that ``-0.0``
    is still written ``-0``, is formatted once with ``%.17g``; the module
    docstring says how the columns are cut and joined into a row's pieces.
    """
    d = sampled.ambient_dim
    header = ",".join(
        [f"x{i}" for i in range(d)] + [f"nx{i}" for i in range(d)] + ["t"]
    )
    shape = sampled.grid_shape
    size = math.prod(shape)
    pieces = []  # (texts, index into them on the piece's sub-grid)
    for column in (*sampled.columns, None):
        if column is None:  # t
            text = np.array([b"%.17g\n" % sampled.t], dtype=object)
            index = np.zeros((1,) * len(shape), dtype=np.uint8)
        else:
            bits = column.view(np.int64)
            for axis in range(len(shape)):
                head = bits[(slice(None),) * axis + (slice(0, 1),)]
                if np.all(bits == head):
                    bits = head
            values, index = np.unique(bits.ravel(), return_inverse=True)
            floats = values.view(np.float64).tolist()
            # Each field carries the comma after it: t is the last column.
            text = np.array((b"%.17g,\n" * len(floats) % tuple(floats)).splitlines(),
                            dtype=object)
            index = index.astype(np.min_scalar_type(max(len(floats) - 1, 0))).reshape(bits.shape)
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
