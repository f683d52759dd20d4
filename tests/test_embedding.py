"""Ambient embeddings, snapshot sampling and CSV export."""

import csv
import dataclasses
import decimal
import errno
import math
import os
import resource
import tracemalloc
import warnings

import numpy as np
import pytest

from isoflow import (
    InvalidInputError,
    SampledSurface,
    UnsupportedEmbeddingError,
    export_csv,
    export_metadata,
    get_embedding,
    make_euclidean_cylinder,
    make_horosphere,
    make_hyperbolic_cylinder,
    make_sphere_product,
    make_sphere_umbilic,
    parallel_metric_factor,
    parallel_point,
    resolve_profile,
    sample,
    snapshots,
    sphere_curvatures_from_g,
    sphere_family_from_kappa1,
)
import isoflow.embedding as embedding
from isoflow.cli import main
from isoflow.embedding import POLAR_MARGIN
from isoflow.errors import InvalidFrameError
from isoflow.spaceform import check_frame, parallel_map

MiB = 2**20


def inner(sf, u, v):
    """Reference: the ambient inner product along the last axis, Lorentzian in H^n."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    prod = np.sum(u * v, axis=-1)
    if sf.curvature == -1:
        prod = prod - 2.0 * u[..., 0] * v[..., 0]
    return prod


def full(columns, shape):
    """Reference: the (P, d) rows of a frame held as columns, by np.broadcast_to."""
    return np.stack([np.broadcast_to(c, shape).ravel() for c in columns], axis=-1)


def grid_columns(rows, shape):
    """The columns of (P, d) rows on a grid, each spanning the whole grid."""
    return tuple(np.ascontiguousarray(column).reshape(shape) for column in rows.T)


def snapshot(surface, resolution, t, **kw):
    return sample(surface, resolution, t, resolve_profile(surface), **kw)


def row_writer_csv(sampled, path):
    """Reference writer: one formatted value at a time, one row at a time."""
    d = sampled.ambient_dim
    header = ",".join([f"x{i}" for i in range(d)] + [f"nx{i}" for i in range(d)] + ["t"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for p, nv in zip(sampled.points, sampled.normals):
            row = [f"{v:.17g}" for v in p] + [f"{v:.17g}" for v in nv]
            row.append(f"{sampled.t:.17g}")
            fh.write(",".join(row) + "\n")


def _mixed_zero_cloud():
    """A snapshot whose second normal column holds both -0.0 and 0.0.

    Every zero of a sampled column comes from the same product of signs, so
    no grid mixes them; the snapshot's 30 zeros there are all -0.0 (azimuth 0)
    and every other one is set to 0.0, the same frame as numbers.
    """
    snap = snapshot(make_sphere_product(1, 3, 2.5), (8, 6, 5), 0.02)
    normals = snap.normals.copy()
    zeros = np.flatnonzero(normals[:, 1] == 0.0)
    assert len(zeros) == 30 and np.all(np.signbit(normals[zeros, 1]))
    normals[zeros[::2], 1] = 0.0
    return dataclasses.replace(snap, normal_columns=grid_columns(normals, snap.grid_shape))


def _distinct_cloud():
    """1,500 random orthonormal frames on S^4: no value repeats within a column."""
    surface = make_sphere_product(1, 3, 2.5)
    rng = np.random.default_rng(10)
    F = rng.normal(size=(1500, 5))
    F /= np.linalg.norm(F, axis=1, keepdims=True)
    N = rng.normal(size=(1500, 5))
    N -= np.sum(N * F, axis=1, keepdims=True) * F
    N /= np.linalg.norm(N, axis=1, keepdims=True)
    for column in (*F.T, *N.T):
        assert len(np.unique(column)) == len(column)
    return SampledSurface(surface.family, grid_columns(F, (1500,)), grid_columns(N, (1500,)),
                          (1500,), 0.0, 0.0, surface.space_form)


class TestSupportedFamilies:
    def test_euclidean_sphere_initial_radius(self):
        surface = make_euclidean_cylinder(2, 2, 2.0)
        snap = snapshot(surface, 8, 0.0)
        radii = np.linalg.norm(snap.points, axis=1)
        np.testing.assert_allclose(radii, 0.5, atol=1e-12)

    def test_product_sphere_stays_unit(self):
        surface = make_sphere_product(1, 2, 2.0)
        prof = resolve_profile(surface)
        for t in (0.0, 0.05, 0.12):
            snap = sample(surface, 10, t, prof)
            norms = np.sum(snap.points**2, axis=1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-10)
            # factor radii: r1 = 1/sqrt(1+kappa1^2) at t = 0
            if t == 0.0:
                np.testing.assert_allclose(
                    np.linalg.norm(snap.points[:, :2], axis=1),
                    1.0 / math.sqrt(5.0),
                    atol=1e-12,
                )

    def test_horosphere_keeps_lorentz_norm(self):
        surface = make_horosphere(2, 1.0)
        prof = resolve_profile(surface)
        for t in (0.0, 0.7, 2.0):
            snap = sample(surface, 7, t, prof)
            lnorm = inner(surface.space_form, snap.points, snap.points)
            np.testing.assert_allclose(lnorm, -1.0, atol=1e-10)

    def test_hyperbolic_cylinder_constraints(self):
        surface = make_hyperbolic_cylinder(1, 1, 2.0)
        prof = resolve_profile(surface)
        for t in (0.0, 0.05, 0.1):
            snap = sample(surface, 9, t, prof)
            sf = surface.space_form
            np.testing.assert_allclose(inner(sf, snap.points, snap.points), -1.0, atol=1e-10)
            np.testing.assert_allclose(inner(sf, snap.normals, snap.normals), 1.0, atol=1e-10)
            np.testing.assert_allclose(inner(sf, snap.points, snap.normals), 0.0, atol=1e-10)

    def test_unsupported_families(self):
        for surface in (
            sphere_family_from_kappa1(3, 2.0),
            sphere_family_from_kappa1(4, 3.0),
            sphere_family_from_kappa1(6, 4.0),
            make_sphere_umbilic(2, 1.0),
        ):
            with pytest.raises(UnsupportedEmbeddingError):
                get_embedding(surface)

    def test_high_ambient_dimension_flagged(self, capsys, tmp_path):
        # The library warns nothing; the export command prints one line per command.
        surface = make_sphere_product(2, 4, 2.0)  # ambient R^6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(snapshots(surface, 4, [0.0, 0.01], resolve_profile(surface)))
        assert capsys.readouterr() == ("", "")
        rc = main(["export", "--family", "sphere-product", "--l", "2", "--n", "4",
                   "--kappa1", "2", "--times", "0,0.01", "--resolution", "4",
                   "--output-dir", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().err == (
            "warning: ambient dimension 6 exceeds the default export target of 4; "
            "downstream viewers may not cope\n")


def reference_sample(surface, resolution, t, profile):
    """Reference: the single-time sample body, its own frame grid and parallel_point."""
    xi = float(np.asarray(profile.xi(t), dtype=float))
    F, N, grid_shape = get_embedding(surface).frame_grid(resolution)
    F_t, N_t = parallel_point(surface.space_form, full(F, grid_shape), full(N, grid_shape), xi)
    return F_t, N_t, grid_shape, xi


class TestSnapshots:
    @pytest.mark.parametrize("surface, resolution", [
        (make_euclidean_cylinder(2, 3, -1.3), (6, 5, 4)),  # flipped
        (make_sphere_product(1, 3, 2.5), (7, 6, 5)),
        (sphere_curvatures_from_g(2, 1.2, [1, 2]), (5, 5, 5)),  # flipped
        (make_horosphere(2, -1.0), (9, 8)),  # Lorentzian, flipped
        (make_hyperbolic_cylinder(2, 2, 2.0), (4, 4, 4, 3)),  # Lorentzian
    ])
    def test_bits_equal_one_frame_per_time(self, surface, resolution):
        prof = resolve_profile(surface)
        t_star = prof.t_star
        times = [0.0, 0.7, 2.0] if math.isinf(t_star) else [0.0, 0.4 * t_star, 0.9 * t_star]
        snaps = list(snapshots(surface, resolution, times, prof))
        single = [sample(surface, resolution, t, prof) for t in times]
        assert len(snaps) == len(times)
        for snap, one, t in zip(snaps, single, times):
            F_t, N_t, grid_shape, xi = reference_sample(surface, resolution, t, prof)
            for got in (snap, one):
                assert got.points.tobytes() == F_t.tobytes()
                assert got.normals.tobytes() == N_t.tobytes()
                assert (got.grid_shape, got.t, got.xi) == (grid_shape, t, xi)

    def test_last_cloud_is_held_without_the_frame(self):
        # What stays allocated while the caller works on each cloud, in (P, d)
        # clouds: the frame and the cloud as columns on their factors' axes,
        # 0.06 for the first time and 0.04 for the last.  Full (P, d) arrays
        # held 2.0 and 1.0 of them.
        surface = make_hyperbolic_cylinder(2, 2, 2.0)
        F, N, grid_shape = get_embedding(surface).frame_grid((8, 8, 8, 8))
        frame = sum(column.nbytes for column in (*F, *N))
        cloud = 2 * math.prod(grid_shape) * len(F) * 8
        gen = snapshots(surface, (8, 8, 8, 8), [0.0, 0.01], resolve_profile(surface))
        held = []
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for snap in gen:
                held.append(tracemalloc.get_traced_memory()[0] - base)
                del snap
        finally:
            tracemalloc.stop()
        assert max(held) < 0.1 * cloud
        assert held[0] - held[1] >= frame  # the frame is dropped before the last yield

    def test_no_times_builds_nothing(self):
        # Not even the embedding lookup runs, so an unsupported family passes.
        assert list(snapshots(sphere_family_from_kappa1(3, 2.0), 4, [], None)) == []


def reference_axes(emb, resolution, extent=1.0):
    """Reference: the axes of Embedding.frame_grid, one linspace per intrinsic axis."""
    if np.ndim(resolution) == 0:
        resolution = [int(resolution)] * len(emb.axis_kinds)
    axes = []
    for kind, r in zip(emb.axis_kinds, resolution):
        if kind == "polar":
            axes.append(np.linspace(POLAR_MARGIN, math.pi - POLAR_MARGIN, r))
        elif kind == "azimuth":
            axes.append(np.linspace(0.0, 2.0 * math.pi, r, endpoint=False))
        else:
            axes.append(np.linspace(-extent, extent, r))
    return axes


def axis_columns(axes):
    """The axes as Embedding._frame takes them: each spans its own grid axis alone."""
    return [ax.reshape([-1 if i == j else 1 for i in range(len(axes))])
            for j, ax in enumerate(axes)]


def meshgrid_params(axes):
    """Reference: the (P, dims) parameters of the grid of ``axes`` by np.meshgrid."""
    if any(len(ax) == 0 for ax in axes):
        return np.zeros((0, len(axes)))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def unit_sphere_rows(angles):
    """Reference: the hyperspherical chart on rows, (P, m) angles -> (P, m+1) unit vectors."""
    p, m = angles.shape
    out = np.empty((p, m + 1))
    running = np.ones(p)
    for i in range(m):
        out[:, i] = running * np.cos(angles[:, i])
        running = running * np.sin(angles[:, i])
    out[:, m] = running
    return out


def hyperboloid_rows(v):
    """Reference: the exponential chart of H^m in L^(m+1) on rows, (P, m) -> (P, m+1)."""
    p, m = v.shape
    norm = np.linalg.norm(v, axis=1)
    scale = np.ones(p)
    nz = norm > 0
    scale[nz] = np.sinh(norm[nz]) / norm[nz]
    out = np.empty((p, m + 1))
    out[:, 0] = np.cosh(norm)
    out[:, 1:] = scale[:, None] * v
    return out


def per_family_frame(surface):
    """Reference: the hand-written frame of each family on (P, dims) parameters."""
    b = surface.blocks
    if surface.family == "horosphere":
        kappa = b[0].kappa

        def frame(u):
            uu = np.sum(u * u, axis=1)
            F = np.concatenate([(1.0 + uu / 2.0)[:, None], u, (-uu / 2.0)[:, None]], axis=1)
            shifted = np.concatenate([(uu / 2.0)[:, None], u, (1.0 - uu / 2.0)[:, None]],
                                     axis=1)
            return F, -kappa * shifted

    elif surface.family == "euclidean_cylinder":
        m, kappa = b[0].mult, b[0].kappa
        r, sign = 1.0 / abs(kappa), math.copysign(1.0, kappa)

        def frame(params):
            omega = unit_sphere_rows(params[:, :m])
            y = params[:, m:]
            F = np.concatenate([r * omega, y], axis=1)
            N = np.concatenate([-sign * omega, np.zeros_like(y)], axis=1)
            return F, N

    elif surface.family == "sphere_g2":
        l = b[0].mult
        r1 = 1.0 / math.sqrt(1.0 + b[0].kappa**2)
        r2 = b[0].kappa * r1

        def frame(params):
            omega = unit_sphere_rows(params[:, :l])
            eta = unit_sphere_rows(params[:, l:])
            F = np.concatenate([r1 * omega, r2 * eta], axis=1)
            N = np.concatenate([-r2 * omega, r1 * eta], axis=1)
            return F, N

    else:  # hyperbolic_cylinder
        m2, k1 = b[1].mult, b[0].kappa
        r = 1.0 / math.sqrt(k1 * k1 - 1.0)
        rho = k1 * r

        def frame(params):
            chi = hyperboloid_rows(params[:, :m2])
            omega = unit_sphere_rows(params[:, m2:])
            F = np.concatenate([rho * chi, r * omega], axis=1)
            N = np.concatenate([-r * chi, -rho * omega], axis=1)
            return F, N

    return frame


def assert_same_arrays(pairs):
    for got, ref in pairs:
        assert (got.shape, got.dtype) == (ref.shape, ref.dtype)
        assert got.tobytes() == ref.tobytes()


class TestFrameGrid:
    @pytest.mark.parametrize("surface, resolution, extent", [
        (make_euclidean_cylinder(2, 3, -1.3), (6, 5, 4), 1.0),  # flipped
        (make_euclidean_cylinder(1, 1, 0.7), 9, 2.5),
        (make_sphere_product(1, 3, 2.5), (7, 6, 5), 1.0),
        (sphere_curvatures_from_g(2, 1.2, [1, 2]), (5, 5, 5), 1.0),  # flipped
        (make_sphere_product(3, 7, 2.0), 4, 1.0),  # 16,384 points in R^9
        (make_horosphere(2, -1.0), (9, 8), 0.5),  # Lorentzian, flipped
        (make_hyperbolic_cylinder(2, 2, 2.0), (4, 4, 4, 3), 1.5),  # Lorentzian
        (make_hyperbolic_cylinder(1, 2, 3.0), (5, 0, 4), 1.0),  # no points
        (make_horosphere(3, 1.0), (5, 1, 4), 2.0),
        (make_horosphere(2, 1.0), (0, 6), 1.0),  # no points
        # np.sum adds a row of 8 terms or more in 8 partial sums, not in turn.
        (make_horosphere(9, 1.0), (3, 2, 2, 2, 4, 2, 2, 2, 3), 0.7),
        (make_horosphere(12, -1.0), (4, 2, 2, 2, 2, 3, 2, 2, 2, 2, 2, 4), 1.3),
        (make_hyperbolic_cylinder(2, 9, 1.5), (4,) + (2,) * 7 + (3, 2, 2), 0.7),  # H^9 x S^2
        (make_hyperbolic_cylinder(1, 12, 3.0), (4,) + (2,) * 11 + (3,), 0.3),  # H^12 x S^1
        (make_euclidean_cylinder(10, 12, 1.3), 2, 1.0),  # S^10 x R^2
        (make_sphere_product(4, 9, 2.0), 2, 1.0),  # S^4 x S^5
        # Odd resolutions sample |v| = 0, where sinh|v| / |v| is 1.
        (make_hyperbolic_cylinder(1, 9, 2.0), (3,) * 9 + (2,), 0.7),
        (make_hyperbolic_cylinder(2, 3, 1.2), (5, 5, 7, 3, 4), 2.0),
    ])
    def test_bytes_equal_meshgrid(self, surface, resolution, extent):
        emb = get_embedding(surface)
        seen = []

        def recording_frame(axes):
            seen.append([ax.copy() for ax in axes])
            return emb._frame(axes)

        F, N, grid_shape = dataclasses.replace(emb, _frame=recording_frame).frame_grid(
            resolution, extent=extent)
        axes = reference_axes(emb, resolution, extent)
        assert len(seen) == 1
        assert_same_arrays(zip(seen[0], axis_columns(axes)))
        params = meshgrid_params(axes)
        m = surface.blocks[1].mult if surface.family == "hyperbolic_cylinder" else 0
        if m and all(len(ax) % 2 for ax in axes[:m]):
            assert not params[:, :m].any(axis=1).all()  # |v| = 0 is sampled
        F_ref, N_ref = per_family_frame(surface)(params)
        assert_same_arrays([(full(F, grid_shape), F_ref), (full(N, grid_shape), N_ref)])
        assert grid_shape == tuple(len(ax) for ax in axes)


class TestProductFrame:
    @pytest.mark.parametrize("surface, resolution, extent", [
        (make_euclidean_cylinder(2, 3, -1.3), (6, 5, 4), 1.0),  # negative kappa
        (make_euclidean_cylinder(1, 4, 2.0), (7, 3, 3, 3), 2.5),
        (make_euclidean_cylinder(1, 1, 0.7), 9, 1.0),  # m = n
        (make_euclidean_cylinder(3, 3, -0.4), 5, 1.0),  # m = n, negative kappa
        (make_euclidean_cylinder(2, 3, 1.1), (6, 0, 4), 1.0),  # no points
        (make_sphere_product(1, 3, 2.5), (7, 6, 5), 1.0),
        (make_sphere_product(3, 7, 2.0), 4, 1.0),
        (sphere_curvatures_from_g(2, 1.2, [1, 2]), (5, 5, 5), 1.0),  # flipped
        (make_sphere_product(2, 4, 1.5), 0, 1.0),  # no points
        (make_hyperbolic_cylinder(2, 2, 2.0), (4, 4, 4, 3), 1.5),
        (make_hyperbolic_cylinder(1, 1, 1.0 + 1e-9), (8, 7), 1.0),
        (make_hyperbolic_cylinder(1, 2, 3.0), (5, 0, 4), 1.0),  # no points
        (make_euclidean_cylinder(2, 4, 1.7), (1, 7, 1, 3), 1.0),  # size-1 axes
        (make_sphere_product(1, 3, 2.5), (9, 1, 1), 1.0),  # size-1 axes
        (make_hyperbolic_cylinder(2, 1, 2.5), (1, 6, 5), 1.0),  # size-1 axis
    ])
    def test_bytes_equal_per_family_frame(self, surface, resolution, extent):
        emb = get_embedding(surface)
        axes = reference_axes(emb, resolution, extent)
        shape = tuple(len(ax) for ax in axes)
        F, N = emb._frame(axis_columns(axes))
        F_ref, N_ref = per_family_frame(surface)(meshgrid_params(axes))
        assert emb.ambient_dim == F_ref.shape[1]
        assert_same_arrays([(full(F, shape), F_ref), (full(N, shape), N_ref)])

    @pytest.mark.parametrize("surface, resolution, charts, factor_shapes", [
        # S^1 x S^2: one axis of 7 angles, then two axes of 6 and 5.
        (make_sphere_product(1, 3, 2.5), (7, 6, 5),
         [("_unit_sphere", [(7, 1, 1)]), ("_unit_sphere", [(1, 6, 1), (1, 1, 5)])],
         [(7, 1, 1)] * 2 + [(1, 6, 5)] * 3),
        # H^2 x S^1: |v| is summed on the 4 x 3 grid of v alone.
        (make_hyperbolic_cylinder(1, 2, 2.0), (4, 3, 5),
         [("_hyperboloid_chart", [(4, 1, 1), (1, 3, 1)]),
          ("_square_sum", [(4, 1, 1), (1, 3, 1)]), ("_unit_sphere", [(1, 1, 5)])],
         [(4, 3, 1)] * 3 + [(1, 1, 5)] * 2),
        # S^1 x R^2: the flat axes go to F as they are, with no chart.
        (make_euclidean_cylinder(1, 3, 0.7), (8, 2, 3),
         [("_unit_sphere", [(8, 1, 1)])], [(8, 1, 1)] * 2 + [(1, 2, 3)] * 2),
        # A horosphere's u_j spans axis j, and only |u|^2 spans the grid.
        (make_horosphere(2, 1.0), (4, 3), [("_square_sum", [(4, 1), (1, 3)])],
         [(4, 3), (4, 1), (1, 3), (4, 3)]),
    ])
    def test_each_chart_runs_on_its_own_axes(self, monkeypatch, surface, resolution, charts,
                                             factor_shapes):
        # Each chart gets its factor's axes as columns, not (P, m) parameter rows.
        seen = []

        def recording(name, chart):
            def run(columns):
                seen.append((name, [c.shape for c in columns]))
                return chart(columns)
            return run

        for name in ("_square_sum", "_unit_sphere", "_hyperboloid_chart"):
            monkeypatch.setattr(embedding, name, recording(name, getattr(embedding, name)))
        F, _, grid_shape = get_embedding(surface).frame_grid(resolution)
        assert seen == charts
        assert [f.shape for f in F] == factor_shapes
        assert grid_shape == resolution

    def test_frame_grid_peak_memory(self):
        # As (P, d) arrays F and N were 2.25 MiB, and concatenating whole per-factor
        # charts peaked at 5.38 MiB.  As columns on their factors' axes: 0.04 MiB.
        emb = get_embedding(make_sphere_product(3, 7, 2.0))
        emb.frame_grid(4)  # first-call allocations are not the frame's
        tracemalloc.start()
        try:
            emb.frame_grid(4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * MiB


# The four embeddable families, with the columns of one factor: its frame
# columns span its own axes, so element [0, ..., 0] of each is one point of it.
# The horosphere's "factor" is u_0, the column that spans axis 0 alone.
COLUMN_FORM_CASES = [
    (make_euclidean_cylinder(2, 3, -1.3), (6, 5, 4), [0, 1, 2]),
    (make_sphere_product(1, 3, 2.5), (7, 6, 5), [0, 1]),
    (make_horosphere(2, -1.0), (9, 8), [1]),
    (make_hyperbolic_cylinder(2, 2, 2.0), (4, 4, 4, 3), [0, 1, 2]),
]


def _raised(fn):
    """The message of the InvalidFrameError fn raises, or None."""
    try:
        fn()
    except InvalidFrameError as exc:
        return str(exc)
    return None


class TestColumnForm:
    @pytest.mark.parametrize("surface, resolution, factor", COLUMN_FORM_CASES)
    @pytest.mark.parametrize("part, scale, message", [
        ("N", 1.1, "normal is not unit"),
        ("F", 1.1, "position does not satisfy"),
        ("N", -1.0, "not orthogonal"),  # a factor's normal turned back: <F,N> != 0
    ])
    def test_check_frame_raises_as_on_rows(self, surface, resolution, factor,
                                           part, scale, message):
        F, N, grid_shape = get_embedding(surface).frame_grid(resolution)
        bad = list(F if part == "F" else N)
        for j in factor:
            bad[j] = bad[j].copy()
            bad[j][(0,) * len(grid_shape)] *= scale
        F, N = (tuple(bad), N) if part == "F" else (F, tuple(bad))
        sf = surface.space_form
        got = _raised(lambda: check_frame(sf, F, N))
        assert got == _raised(lambda: check_frame(sf, tuple(full(F, grid_shape).T),
                                                  tuple(full(N, grid_shape).T)))
        if sf.curvature == 0 and (part == "F" or scale < 0):
            assert got is None  # positions are free in R^n, and there is no <F,N> = 0
        else:
            assert message in got

    @pytest.mark.parametrize("surface, resolution", [case[:2] for case in COLUMN_FORM_CASES])
    @pytest.mark.parametrize("xi", [0.0, 0.23, -0.4])
    def test_parallel_map_bytes_equal_parallel_point(self, surface, resolution, xi):
        F, N, grid_shape = get_embedding(surface).frame_grid(resolution)
        points, normals = parallel_map(surface.space_form, F, N, xi)
        F_t, N_t = parallel_point(surface.space_form, full(F, grid_shape), full(N, grid_shape),
                                  xi)
        assert_same_arrays([(full(points, grid_shape), F_t), (full(normals, grid_shape), N_t)])
        assert all(column.ndim == len(grid_shape) for column in (*points, *normals))


class TestChordShrink:
    def test_neighbor_chords_scale_with_metric_factor(self):
        # Chords along the azimuth circle shrink by |c - kappa s| (within 5%).
        surface = make_euclidean_cylinder(1, 2, 1.0)
        prof = resolve_profile(surface)
        t = 0.15
        xi = prof.xi(t)
        snap0 = sample(surface, [60, 2], 0.0, prof)
        snap1 = sample(surface, [60, 2], t, prof)
        p0 = snap0.points.reshape(60, 2, -1)
        p1 = snap1.points.reshape(60, 2, -1)
        chord0 = np.linalg.norm(p0[1, 0] - p0[0, 0])
        chord1 = np.linalg.norm(p1[1, 0] - p1[0, 0])
        expected = math.sqrt(parallel_metric_factor(surface.space_form, 1.0, xi))
        assert chord1 / chord0 == pytest.approx(expected, rel=0.05)


class TestExport:
    def test_empty_sample_header_only(self, tmp_path):
        surface = make_sphere_product(1, 2, 2.0)
        snap = snapshot(surface, 0, 0.0)
        path = tmp_path / "empty.csv"
        export_csv(snap, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("x0,x1,x2,x3,nx0")
        assert lines[0].endswith(",t")

    def test_grid_row_count(self, tmp_path):
        surface = make_sphere_product(1, 2, 2.0)
        snap = snapshot(surface, 10, 0.0)
        assert snap.grid_shape == (10, 10)
        path = tmp_path / "grid.csv"
        export_csv(snap, path)
        assert len(path.read_text().splitlines()) == 101

    def test_roundtrip_is_bit_exact(self, tmp_path):
        surface = make_horosphere(2, 1.0)
        snap = snapshot(surface, 5, 0.3)
        path = tmp_path / "cloud.csv"
        export_csv(snap, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], rows[1:]
        assert len(data) == snap.points.shape[0]
        d = snap.ambient_dim
        parsed = np.array([[float(v) for v in row] for row in data])
        np.testing.assert_array_equal(parsed[:, :d], snap.points)
        np.testing.assert_array_equal(parsed[:, d : 2 * d], snap.normals)
        np.testing.assert_array_equal(parsed[:, 2 * d], np.full(len(data), snap.t))

    @pytest.mark.parametrize("surface, resolution, t", [
        (make_euclidean_cylinder(2, 3, -1.3), (12, 12, 12), 0.05),  # 1,728 rows
        (make_sphere_product(1, 3, 2.5), (16, 16, 8), 0.02),  # 2,048 rows
        (make_horosphere(2, -1.0), (40, 41), 0.7),  # 1,640 rows
        (make_hyperbolic_cylinder(2, 2, 2.0), (6, 6, 6, 5), 0.01),  # 1,080 rows
        (make_euclidean_cylinder(2, 3, 0.8), (1, 13, 9), 0.3),  # one polar angle
        (make_euclidean_cylinder(1, 3, -2.0), (17, 1, 6), 0.1),  # one flat value
        (make_euclidean_cylinder(2, 3, 1.5), (9, 7, 0), 0.1),  # no rows
        (make_sphere_product(1, 3, 2.5), (23, 1, 11), 0.03),  # one polar angle
        (make_sphere_product(2, 3, 1.9), (1, 1, 31), 0.01),  # a whole factor on one point
        (make_sphere_product(1, 3, 2.5), (0, 6, 5), 0.0),  # no rows
        (make_horosphere(2, 1.0), (1, 57), 0.3),  # one row of the box
        (make_horosphere(3, -1.0), (13, 1, 9), 1.1),
        (make_horosphere(2, 1.0), (7, 0), 0.3),  # no rows
        (make_hyperbolic_cylinder(2, 2, 2.0), (7, 1, 1, 9), 0.02),  # size-1 axes
        (make_hyperbolic_cylinder(1, 2, 3.0), (11, 5, 1), 0.005),
        (make_hyperbolic_cylinder(2, 2, 2.0), (5, 4, 0, 3), 0.01),  # no rows
    ])
    def test_bytes_equal_row_writer(self, tmp_path, surface, resolution, t):
        snap = snapshot(surface, resolution, t)
        export_csv(snap, tmp_path / "chunked.csv")
        row_writer_csv(snap, tmp_path / "rows.csv")
        assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize("surface, resolution, t", [
        # The four export-cloud shapes, 12,656 to 12,672 rows each.
        (make_euclidean_cylinder(2, 3, -1.7), (24, 24, 22), 0.05),  # 3 pieces per row
        (make_sphere_product(1, 3, 2.5), (24, 24, 22), 0.02),  # 4 pieces
        (make_horosphere(2, 1.0), (113, 112), 1.3),  # 9 pieces: every join spans the grid
        (make_hyperbolic_cylinder(2, 2, 2.0), (12, 12, 11, 8), 0.01),  # 4 pieces
        # x1 and x2 vary on the whole 40 x 30 x 1 grid, so x0 joins neither.
        (make_euclidean_cylinder(2, 3, 0.9), (40, 30, 1), 0.1),
    ])
    def test_bytes_equal_row_writer_at_benchmark_size(self, tmp_path, surface, resolution, t):
        snap = snapshot(surface, resolution, t)
        export_csv(snap, tmp_path / "pieces.csv")
        row_writer_csv(snap, tmp_path / "rows.csv")
        assert (tmp_path / "pieces.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize("make_cloud", [
        _mixed_zero_cloud,
        _distinct_cloud,
        lambda: snapshot(make_horosphere(2, -1.0), (37, 71), 0.5),  # 2,627 rows
        lambda: snapshot(make_sphere_product(1, 2, 2.0), 0, 0.0),  # no rows
    ], ids=["mixed-zero-signs", "all-distinct", "2627-rows", "no-rows"])
    def test_bytes_equal_row_writer_edges(self, tmp_path, make_cloud):
        snap = make_cloud()
        export_csv(snap, tmp_path / "unique.csv")
        row_writer_csv(snap, tmp_path / "rows.csv")
        assert (tmp_path / "unique.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_grid_shape_must_hold_the_points(self):
        snap = snapshot(make_sphere_product(1, 2, 2.0), (6, 5), 0.0)
        with pytest.raises(InvalidInputError, match="does not hold 30 points"):
            dataclasses.replace(snap, grid_shape=(6, 6))
        with pytest.raises(InvalidInputError):
            dataclasses.replace(snap, grid_shape=(30, 0))

    def test_zero_signs_survive(self, tmp_path):
        snap = _mixed_zero_cloud()
        export_csv(snap, tmp_path / "cloud.csv")
        with open(tmp_path / "cloud.csv", newline="") as fh:
            column = [row[snap.ambient_dim + 1] for row in csv.reader(fh)][1:]
        assert "-0" in column and "0" in column

    def test_writer_peak_memory(self, tmp_path):
        # The export-cloud hyperbolic cylinder: 12,672 rows in R^6.  The writer
        # that formatted every field read 2.04 MiB.
        surface = make_hyperbolic_cylinder(2, 2, 2.0)
        snap = snapshot(surface, (12, 12, 11, 8), 0.01)
        assert len(snap.points) == 12672
        export_csv(snap, tmp_path / "cloud.csv")  # first-call allocations are not the writer's
        tracemalloc.start()
        try:
            export_csv(snap, tmp_path / "cloud.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * MiB

    def test_horosphere_writer_peak_memory(self, tmp_path):
        # The export-cloud horosphere: 12,656 rows, whose columns never join into pieces.
        # Reads 2.08 MiB; gathering rows from full-grid object arrays of texts read 3.53 MiB.
        snap = snapshot(make_horosphere(2, 1.0), (113, 112), 1.3)
        export_csv(snap, tmp_path / "cloud.csv")  # first-call allocations are not the writer's
        tracemalloc.start()
        try:
            export_csv(snap, tmp_path / "cloud.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * MiB

    def test_metadata_sidecar(self, tmp_path):
        import json

        surface = make_sphere_product(1, 2, 2.0)
        prof = resolve_profile(surface)
        snap = sample(surface, 6, 0.05, prof)
        path = tmp_path / "cloud.json"
        export_metadata(snap, path)
        doc = json.loads(path.read_text())
        assert doc["family"] == "sphere_g2"
        assert doc["t"] == 0.05
        assert doc["xi"] == pytest.approx(prof.xi(0.05))
        assert doc["resolution"] == [6, 6]


def _texts_cases():
    """The float64 arrays embedding._texts is refereed on, by name."""
    rng = np.random.default_rng(20261021)
    # 200,200 draws keep at least 200,000 finite: 1 in 2,048 is inf or nan.
    bits = rng.integers(0, 2**64, 200_200, dtype=np.uint64).view(np.float64)
    powers = 10.0 ** np.arange(-30, 31)
    edges = np.array([1e-4, 1e17])
    edges = np.concatenate([edges, *(np.nextafter(edges, edges * s) for s in (0, 2))])
    # Exact half-way cases at the 17th digit: q/4 carries one decimal in [1e15, 2**51),
    # where the ulp is at most 1/4, and q/8 two in [1e14, 1e15); q is odd and below 2**53.
    quarters = (rng.integers(2 * 10**15, 2**52, 20_000) * 2 + 1) / 4
    eighths = (rng.integers(4 * 10**14, 4 * 10**15, 20_000) * 2 + 1) / 8
    return {
        "bit-patterns": bits[np.isfinite(bits)],
        "uniform": rng.uniform(-3.0, 3.0, 50_000),
        "powers-of-ten": np.concatenate([powers, np.nextafter(powers, 0),
                                         np.nextafter(powers, np.inf), -powers]),
        "notation-edges": np.concatenate([edges, -edges]),
        "ties": np.concatenate([quarters, eighths, -quarters]),
        "specials": np.array([0.0, -0.0, 5e-324, -5e-324, np.finfo(float).max, np.inf,
                              -np.inf, np.nan]),
        "empty": np.array([]),
    }


TEXTS_CASES = _texts_cases()


class TestTexts:
    """embedding._texts writes each value as CPython's %.17g does, the referee here."""

    @pytest.mark.parametrize("name", TEXTS_CASES)
    def test_matches_percent_17g(self, name):
        values = TEXTS_CASES[name]
        expected = (b"%.17g,\n" * len(values) % tuple(values.tolist())).splitlines()
        texts = embedding._texts(values)
        assert texts.dtype == object and len(texts) == len(values)
        mismatched = [(v, t, e) for v, t, e in zip(values.tolist(), texts.tolist(), expected)
                      if t != e]
        assert mismatched == []

    def test_cases_cover_both_notations_and_exact_ties(self):
        assert len(TEXTS_CASES["bit-patterns"]) >= 200_000
        size = np.abs(TEXTS_CASES["bit-patterns"])
        assert ((size >= 1e-4) & (size < 1e17)).sum() > 1000  # the fixed-notation pass
        # Each tie is exactly half-way at the 17th digit: 18 digits, the last a 5.
        digits = [decimal.Decimal(v).as_tuple().digits for v in TEXTS_CASES["ties"].tolist()]
        assert all(len(d) == 18 and d[-1] == 5 for d in digits)

    @staticmethod
    def mixed(n, seed):
        """n values of either sign, log-uniform over 1e-8..1e20: about three in four
        in fixed notation, the rest in exponent notation."""
        rng = np.random.default_rng(seed)
        return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 20.0, n)

    @staticmethod
    def routed(monkeypatch):
        """The sizes of the fixed-notation pass's calls, recorded as _texts makes them."""
        calls, fixed_texts = [], embedding._fixed_texts
        monkeypatch.setattr(embedding, "_fixed_texts",
                            lambda x: calls.append(len(x)) or fixed_texts(x))
        return calls

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunk_edges(self, offset, monkeypatch):
        # 2,047, 2,048 and 2,049 values: one chunk short of full, one full, and a
        # full one followed by a single value, which goes to % alone.
        assert embedding._CHUNK == 2048
        values = self.mixed(embedding._CHUNK + offset, seed=offset + 2)
        calls = self.routed(monkeypatch)
        fixed = (np.abs(values) >= 1e-4) & (np.abs(values) < 1e17)
        assert 0 < fixed.sum() < len(values)
        assert embedding._texts(values).tolist() == \
            (b"%.17g,\n" * len(values) % tuple(values.tolist())).splitlines()
        assert calls == [fixed[:embedding._CHUNK].sum()]

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_routing_size(self, offset, monkeypatch):
        # Fewer than _SMALL fixed-notation values in a chunk go to % with the rest.
        fixed = np.abs(self.mixed(4 * embedding._SMALL, seed=offset + 5))
        fixed = fixed[(fixed >= 1e-4) & (fixed < 1e17)][:embedding._SMALL + offset]
        values = np.concatenate([fixed, [1e-300, -2e20, 0.0, np.nan]])
        calls = self.routed(monkeypatch)
        assert embedding._texts(values).tolist() == \
            (b"%.17g,\n" * len(values) % tuple(values.tolist())).splitlines()
        assert calls == ([] if offset < 0 else [embedding._SMALL + offset])

    def test_layout_table_places_every_class(self):
        # Each class the pass can produce: sign, X in -4..16 and 1 to 17 significant
        # digits.  Its row, applied to a source row of 17 distinct digit marks and
        # the marks' bytes, gives the text %.17g lays out: a sign, "0." and zeros
        # or the integer digits and a point, the other significant digits, a comma.
        table = embedding._layouts()
        assert table is embedding._layouts() and table.shape == (756, 24)
        marks = "ABCDEFGHIJKLMNOPQ"
        source = np.frombuffer(marks.encode() + b"-0.,\0", np.uint8)
        for neg in (0, 1):
            for X in range(-4, 17):
                for sig in range(1, 18):
                    if X < 0:
                        body = "0." + "0" * (-X - 1) + marks[:sig]
                    elif sig > X + 1:
                        body = marks[:X + 1] + "." + marks[X + 1:sig]
                    else:
                        body = marks[:X + 1]
                    text = ("-" * neg + body + ",").encode().ljust(24, b"\0")
                    row = table[(neg * 21 + X + 4) * 18 + sig]
                    assert source[row].tobytes() == text, (neg, X, sig)


class TestOverwrite:
    """Every output file is written in place and cut to length: the bytes of a fresh file."""

    @staticmethod
    def fresh(tmp_path):
        """The CSV and JSON bytes of one snapshot exported into an empty directory."""
        snap = snapshot(make_sphere_product(1, 2, 2.0), 9, 0.05)
        (tmp_path / "fresh").mkdir()
        export_csv(snap, tmp_path / "fresh" / "c.csv")
        export_metadata(snap, tmp_path / "fresh" / "c.json")
        return snap, {name: (tmp_path / "fresh" / name).read_bytes()
                      for name in ("c.csv", "c.json")}

    @staticmethod
    def export(snap, directory):
        export_csv(snap, directory / "c.csv")
        export_metadata(snap, directory / "c.json")

    @pytest.mark.parametrize("factor", [3, 0.5], ids=["longer", "shorter"])
    def test_over_an_existing_file(self, tmp_path, factor):
        snap, fresh = self.fresh(tmp_path)
        stale = {}
        for name, data in fresh.items():
            path = tmp_path / name
            path.write_bytes(b"#" * int(factor * len(data)))
            path.chmod(0o640)
            stale[name] = path.stat()
        self.export(snap, tmp_path)
        for name, data in fresh.items():
            path = tmp_path / name
            assert path.read_bytes() == data
            assert path.stat().st_ino == stale[name].st_ino  # the same file, not a new one
            assert path.stat().st_mode == stale[name].st_mode

    def test_through_a_symlink(self, tmp_path):
        snap, fresh = self.fresh(tmp_path)
        (tmp_path / "out").mkdir()
        for name, data in fresh.items():
            (tmp_path / f"target-{name}").write_bytes(b"#" * (2 * len(data)))
            (tmp_path / "out" / name).symlink_to(tmp_path / f"target-{name}")
        self.export(snap, tmp_path / "out")
        for name, data in fresh.items():
            assert (tmp_path / "out" / name).is_symlink()
            assert (tmp_path / f"target-{name}").read_bytes() == data

    def test_symlink_to_dev_null(self, tmp_path):
        # A character device has no length to cut; truncating it raises EINVAL.
        snap, _ = self.fresh(tmp_path)
        for name in ("c.csv", "c.json"):
            (tmp_path / name).symlink_to(os.devnull)
        self.export(snap, tmp_path)
        assert (tmp_path / "c.csv").is_symlink()

    def test_a_write_that_raises_leaves_only_the_new_prefix(self, tmp_path):
        # The prefix is longer than the write buffer, so part of it is on disk
        # when the error is raised.
        path = tmp_path / "out"
        path.write_bytes(b"#" * 200_000)
        with pytest.raises(RuntimeError, match="part-way"):
            with embedding.overwrite(path) as fh:
                fh.write(b"a" * 50_000)
                raise RuntimeError("part-way")
        assert path.read_bytes() == b"a" * 50_000

    def test_a_flush_that_raises_still_cuts_the_old_tail(self, tmp_path):
        # A file size limit makes the final flush fail part-way (EFBIG, as
        # ENOSPC would): what reached the file is kept, the old tail is not.
        path = tmp_path / "out"
        path.write_bytes(b"#" * 200_000)
        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, hard))
        try:
            with pytest.raises(OSError) as err:
                with embedding.overwrite(path) as fh:
                    fh.write(b"a" * 99_990)
                    fh.write(b"b" * 100)  # buffered: only the flush meets the limit
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        assert err.value.errno == errno.EFBIG
        assert path.read_bytes() == b"a" * 99_990 + b"b" * 10
