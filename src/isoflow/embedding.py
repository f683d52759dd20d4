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

Each chart runs on its factor's own axes of the grid only; a * chart and
b * chart are then broadcast along the other factors' axes.

A snapshot at time t applies the parallel map (F, N) -> (cF + sN, ...) with
xi = xi(t) from a flow profile to the t = 0 frame, so every exported cloud
stays exactly on the ambient quadric up to roundoff.

The CSV writer uses the same grid: each column of a snapshot depends on only
some of its axes.  It cuts a column to length 1 along every axis the column
is constant on (by bits), runs np.unique on the sub-grid that is left and
broadcasts the index back to the grid, so each distinct value is formatted
once.  Neighbouring columns whose sub-grids nest (one factor's position
columns, its normal columns, the constant t) are joined into one piece of
text per point of the larger sub-grid while that stays smaller than the
grid: a row of a Euclidean cylinder is 3 pieces, of a product of spheres or
a hyperbolic cylinder 4, and of a horosphere 9, as each join there would
span the grid.
"""

from __future__ import annotations

import json
import math
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
    """Point cloud with normals at one flow time; frames validated to 1e-10."""

    family: str
    points: np.ndarray  # (P, d)
    normals: np.ndarray  # (P, d)
    grid_shape: tuple
    t: float
    xi: float
    space_form: object

    def __post_init__(self):
        if self.points.shape != self.normals.shape:
            raise InvalidInputError("points and normals must have matching shapes")
        if math.prod(self.grid_shape) != len(self.points):
            raise InvalidInputError(
                f"grid shape {tuple(self.grid_shape)} does not hold {len(self.points)} points"
            )
        check_frame(self.space_form, self.points, self.normals, tol=1e-10)

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[-1]


@dataclass(frozen=True)
class Embedding:
    """Evaluator mapping a parameter grid to ambient (position, normal) pairs.

    ``_frame`` takes the grid's axes, one 1-D array per intrinsic axis, and
    returns F and N of shape (P, d), one row per grid point in C order.
    """

    family: str
    surface: IsoparametricSurface
    ambient_dim: int
    axis_kinds: tuple  # per intrinsic axis: "polar" | "azimuth" | "box"
    _frame: callable = None

    @property
    def intrinsic_dim(self) -> int:
        return len(self.axis_kinds)

    def frame_grid(self, resolution, extent: float = 1.0):
        """Evaluate (F, N) on a parameter grid.

        ``resolution`` is one int per intrinsic axis (or a single int for
        all).  Returns (F, N, grid_shape) with F, N of shape (P, d).  A frame
        that overflows raises InvalidFrameError, as check_frame would.
        """
        dims = self.intrinsic_dim
        if np.ndim(resolution) == 0:
            resolution = [int(resolution)] * dims
        resolution = [int(r) for r in resolution]
        if len(resolution) != dims or any(r < 0 for r in resolution):
            raise InvalidInputError(
                f"resolution needs {dims} nonnegative entries, got {resolution}"
            )
        axes = []
        for kind, r in zip(self.axis_kinds, resolution):
            if kind == "polar":
                axes.append(np.linspace(POLAR_MARGIN, math.pi - POLAR_MARGIN, r))
            elif kind == "azimuth":
                axes.append(np.linspace(0.0, 2.0 * math.pi, r, endpoint=False))
            else:
                axes.append(np.linspace(-extent, extent, r))
        try:
            with np.errstate(over="raise", invalid="raise"):
                F, N = self._frame(axes)
        except FloatingPointError as exc:
            raise InvalidFrameError("frame is not finite, or its squared norm overflows") from exc
        return F, N, tuple(resolution)


def _sphere_axes(m):
    # m - 1 polar angles plus one azimuth
    return ("polar",) * (m - 1) + ("azimuth",)


def _unit_sphere(angles):
    """Hyperspherical chart: (P, m) angles -> (P, m+1) unit vectors."""
    p, m = angles.shape
    out = np.empty((p, m + 1))
    running = np.ones(p)
    for i in range(m):
        out[:, i] = running * np.cos(angles[:, i])
        running = running * np.sin(angles[:, i])
    out[:, m] = running
    return out


def _hyperboloid_chart(v):
    """Exponential chart of H^m in L^{m+1}: (P, m) -> (P, m+1)."""
    p, m = v.shape
    norm = np.linalg.norm(v, axis=1)
    scale = np.ones(p)
    nz = norm > 0
    scale[nz] = np.sinh(norm[nz]) / norm[nz]
    out = np.empty((p, m + 1))
    out[:, 0] = np.cosh(norm)
    out[:, 1:] = scale[:, None] * v
    return out


def _grid_params(axes):
    """(P, len(axes)) parameters of the grid of ``axes``, one row per point in C order."""
    shape = tuple(len(ax) for ax in axes)
    params = np.empty((math.prod(shape), len(axes)))
    # Each axis is broadcast into its own column: no meshgrid of all axes is held.
    grid = params.reshape(*shape, len(axes))
    for j, ax in enumerate(axes):
        grid[..., j] = ax.reshape([-1 if i == j else 1 for i in range(len(axes))])
    return params


def _product_frame(factors, width):
    """Frame of a product of scaled charts, one block of axes and columns per factor.

    A factor (chart, dims, a, b) maps the grid of its own ``dims`` axes by
    ``chart`` and broadcasts a * chart into F and b * chart into N along the
    other factors' axes.  A flat factor (chart and b None) writes its
    parameters to F and leaves N at 0: 0 * y would give -0.0 where y < 0.
    """

    def frame(axes):
        shape = tuple(len(ax) for ax in axes)
        F, N = np.empty((*shape, width)), np.zeros((*shape, width))
        start = col = 0
        for chart, dims, a, b in factors:
            x = _grid_params(axes[start:start + dims])
            if chart is not None:
                x = chart(x)
            x = x.reshape((1,) * start + shape[start:start + dims]
                          + (1,) * (len(shape) - start - dims) + (x.shape[1],))
            # One column at a time, so the inner loop runs along a grid axis.
            for j in range(x.shape[-1]):
                np.multiply(a, x[..., j], out=F[..., col + j])
                if b is not None:
                    np.multiply(b, x[..., j], out=N[..., col + j])
            start, col = start + dims, col + x.shape[-1]
        return F.reshape(-1, width), N.reshape(-1, width)

    return frame


def get_embedding(surface: IsoparametricSurface) -> Embedding:
    """Ambient embedding of the surface, when one is available."""
    family = surface.family
    if family == "horosphere":
        kappa = surface.blocks[0].kappa
        n = surface.n

        def frame(axes):
            u = _grid_params(axes)
            uu = np.sum(u * u, axis=1)
            F = np.concatenate(
                [(1.0 + uu / 2.0)[:, None], u, (-uu / 2.0)[:, None]], axis=1
            )
            shifted = np.concatenate(
                [(uu / 2.0)[:, None], u, (1.0 - uu / 2.0)[:, None]], axis=1
            )
            return F, -kappa * shifted

        return Embedding(family, surface, n + 2, ("box",) * n, frame)

    if family == "euclidean_cylinder":
        m, kappa = surface.blocks[0].mult, surface.blocks[0].kappa
        factors = [(_unit_sphere, m, 1.0 / abs(kappa), -math.copysign(1.0, kappa)),
                   (None, surface.n - m, 1.0, None)]
    elif family == "sphere_g2":
        b1, b2 = surface.blocks
        if b1.kappa <= 0:
            raise UnsupportedEmbeddingError(
                "product-of-spheres embedding needs the leading curvature positive"
            )
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
    return Embedding(family, surface, width, axis_kinds, _product_frame(factors, width))


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


def export_csv(sampled: SampledSurface, path) -> None:
    """Write the cloud as CSV: x0..xd, nx0..nxd, t with 17 significant digits.

    A snapshot is the parallel map of one grid, and each column depends on
    only some of its axes.  Every column is cut to length 1 along each axis
    it is constant on, its distinct values are found on the sub-grid that is
    left, and all of them are formatted with ``%.17g`` in one ``%`` call.
    Values are told apart by their bits, not as floats, so ``-0.0`` is still
    written ``-0``.  Adjacent columns, and the constant ``t`` that ends every
    line, are joined into one piece of text per point of the larger sub-grid
    when one sub-grid holds the other and is smaller than the grid, so each
    row is gathered from a few pieces rather than from 2d + 1 fields.
    """
    d = sampled.ambient_dim
    header = ",".join(
        [f"x{i}" for i in range(d)] + [f"nx{i}" for i in range(d)] + ["t"]
    )
    shape = sampled.grid_shape
    pieces = []  # (texts, index into them on the piece's sub-grid)
    for column in (*sampled.points.T, *sampled.normals.T, None):
        if column is None:  # t
            text = np.array(["%.17g\n" % sampled.t], dtype=object)
            index = np.zeros((1,) * len(shape), dtype=np.uint8)
        else:
            bits = column.view(np.int64).reshape(shape)
            for axis in range(len(shape)):
                head = bits[(slice(None),) * axis + (slice(0, 1),)]
                if np.all(bits == head):
                    bits = head
            values, index = np.unique(bits.ravel(), return_inverse=True)
            floats = values.view(np.float64).tolist()
            # Each field carries the comma after it: t is the last column.
            text = np.array(("%.17g,\n" * len(floats) % tuple(floats)).splitlines(),
                            dtype=object)
            index = index.astype(np.min_scalar_type(max(len(floats) - 1, 0))).reshape(bits.shape)
        if pieces:
            sub = np.broadcast_shapes(pieces[-1][1].shape, index.shape)
            if sub in (pieces[-1][1].shape, index.shape) and math.prod(sub) < len(sampled.points):
                last_text, last_index = pieces.pop()
                text = (last_text[np.broadcast_to(last_index, sub)]
                        + text[np.broadcast_to(index, sub)]).ravel()
                index = np.arange(len(text), dtype=np.min_scalar_type(len(text) - 1)).reshape(sub)
        pieces.append((text, index))
    pieces = [(text, np.broadcast_to(index, shape).reshape(-1)) for text, index in pieces]
    cells = np.empty((1024, len(pieces)), dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        # 1,024 rows at a time: the whole file's text is never held at once.
        for start in range(0, len(sampled.points), 1024):
            rows = cells[:len(sampled.points) - start]
            for j, (text, index) in enumerate(pieces):
                rows[:, j] = text[index[start:start + 1024]]
            fh.write("".join(rows.ravel().tolist()))


def export_metadata(sampled: SampledSurface, path) -> None:
    """Write the JSON sidecar describing a snapshot."""
    doc = {
        "family": sampled.family,
        "t": sampled.t,
        "xi": sampled.xi,
        "resolution": list(sampled.grid_shape),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
