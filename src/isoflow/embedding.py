"""Explicit ambient embeddings and point-cloud export for the classical families.

Embeddings exist for the families whose ambient construction is elementary:
Euclidean cylinders/spheres, horospheres, hyperbolic cylinders in the
hyperboloid model, and products of spheres.  The remaining spherical families
(g = 3, 4, 6) have no embedding here and raise UnsupportedEmbeddingError.

Charts:

* sphere factor S^m: hyperspherical angles, polar angles kept away from the
  poles to avoid duplicate sample points;
* hyperbolic factor H^m: exponential chart v -> (cosh|v|, sinh|v| v/|v|);
* horosphere: null-coordinate chart F(u) = (1 + |u|^2/2, u, -|u|^2/2) on the
  hyperboloid <F,F> = -1 (first coordinate carries the negative sign), with
  unit normal N = -kappa (F + L), L = (-1, 0, ..., 0, 1).

A snapshot at time t applies the parallel map (F, N) -> (cF + sN, ...) with
xi = xi(t) from a flow profile to the t = 0 frame, so every exported cloud
stays exactly on the ambient quadric up to roundoff.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .catalog import IsoparametricSurface
from .errors import InvalidInputError, UnsupportedEmbeddingError
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
        check_frame(self.space_form, self.points, self.normals, tol=1e-10)

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[-1]


@dataclass(frozen=True)
class Embedding:
    """Evaluator mapping intrinsic parameters to ambient (position, normal) pairs."""

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
        all).  Returns (F, N, grid_shape) with F, N of shape (P, d).
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
        grid_shape = tuple(len(ax) for ax in axes)
        if any(s == 0 for s in grid_shape):
            params = np.zeros((0, dims))
        else:
            mesh = np.meshgrid(*axes, indexing="ij")
            params = np.stack([m.ravel() for m in mesh], axis=-1)
        F, N = self._frame(params)
        return F, N, grid_shape


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


def get_embedding(surface: IsoparametricSurface) -> Embedding:
    """Ambient embedding of the surface, when one is available."""
    family = surface.family
    if family == "euclidean_cylinder":
        b0 = surface.blocks[0]
        m, kappa = b0.mult, b0.kappa
        k_flat = surface.n - m
        r = 1.0 / abs(kappa)
        sign = math.copysign(1.0, kappa)

        def frame(params):
            omega = _unit_sphere(params[:, :m])
            y = params[:, m:]
            F = np.concatenate([r * omega, y], axis=1)
            N = np.concatenate([-sign * omega, np.zeros_like(y)], axis=1)
            return F, N

        return Embedding(
            family, surface, surface.n + 1, _sphere_axes(m) + ("box",) * k_flat, frame
        )

    if family == "sphere_g2":
        b1, b2 = surface.blocks
        if b1.kappa <= 0:
            raise UnsupportedEmbeddingError(
                "product-of-spheres embedding needs the leading curvature positive"
            )
        l, k2m = b1.mult, b2.mult
        r1 = 1.0 / math.sqrt(1.0 + b1.kappa**2)
        r2 = b1.kappa * r1

        def frame(params):
            omega = _unit_sphere(params[:, :l])
            eta = _unit_sphere(params[:, l:])
            F = np.concatenate([r1 * omega, r2 * eta], axis=1)
            N = np.concatenate([-r2 * omega, r1 * eta], axis=1)
            return F, N

        return Embedding(
            family, surface, surface.n + 2, _sphere_axes(l) + _sphere_axes(k2m), frame
        )

    if family == "horosphere":
        kappa = surface.blocks[0].kappa
        n = surface.n

        def frame(params):
            u = params
            uu = np.sum(u * u, axis=1)
            F = np.concatenate(
                [(1.0 + uu / 2.0)[:, None], u, (-uu / 2.0)[:, None]], axis=1
            )
            shifted = np.concatenate(
                [(uu / 2.0)[:, None], u, (1.0 - uu / 2.0)[:, None]], axis=1
            )
            return F, -kappa * shifted

        return Embedding(family, surface, n + 2, ("box",) * n, frame)

    if family == "hyperbolic_cylinder":
        b1, b2 = surface.blocks
        m1, m2 = b1.mult, b2.mult
        k1 = b1.kappa
        r = 1.0 / math.sqrt(k1 * k1 - 1.0)  # sphere factor radius sinh(w)
        rho = k1 * r  # hyperbolic factor radius cosh(w)

        def frame(params):
            chi = _hyperboloid_chart(params[:, :m2])
            omega = _unit_sphere(params[:, m2:])
            F = np.concatenate([rho * chi, r * omega], axis=1)
            N = np.concatenate([-r * chi, -rho * omega], axis=1)
            return F, N

        return Embedding(
            family, surface, surface.n + 2, ("box",) * m2 + _sphere_axes(m1), frame
        )

    raise UnsupportedEmbeddingError(
        f"family {family!r} has no explicit ambient embedding"
    )


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
        points, normals = parallel_map(surface.space_form, F, N, xi)
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
    """Write the cloud as CSV: x0..xd, nx0..nxd, t with 17 significant digits."""
    d = sampled.ambient_dim
    header = ",".join(
        [f"x{i}" for i in range(d)] + [f"nx{i}" for i in range(d)] + ["t"]
    )
    rows = np.column_stack([sampled.points, sampled.normals,
                            np.full(len(sampled.points), sampled.t)])
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        # One % per 1,024 rows: one per file would hold the whole text at once.
        for start in range(0, len(rows), 1024):
            chunk = rows[start:start + 1024]
            fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))


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
