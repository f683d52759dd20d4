"""Ambient embeddings, snapshot sampling and CSV export."""

import csv
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from isoflow import (
    SampledSurface,
    UnsupportedEmbeddingError,
    export_csv,
    export_metadata,
    get_embedding,
    inner,
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
from isoflow.embedding import POLAR_MARGIN, _hyperboloid_chart, _unit_sphere

MiB = 2**20


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ambient dimension above 4
        snap = snapshot(make_sphere_product(1, 3, 2.5), (8, 6, 5), 0.02)
    normals = snap.normals.copy()
    zeros = np.flatnonzero(normals[:, 1] == 0.0)
    assert len(zeros) == 30 and np.all(np.signbit(normals[zeros, 1]))
    normals[zeros[::2], 1] = 0.0
    return dataclasses.replace(snap, normals=normals)


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
    return SampledSurface(surface.family, F, N, (1500,), 0.0, 0.0, surface.space_form)


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

    def test_high_ambient_dimension_flagged(self):
        surface = make_sphere_product(2, 4, 2.0)  # ambient R^6
        with pytest.warns(UserWarning):
            snapshot(surface, 4, 0.0)


def reference_sample(surface, resolution, t, profile):
    """Reference: the single-time sample body, its own frame grid and parallel_point."""
    xi = float(np.asarray(profile.xi(t), dtype=float))
    F, N, grid_shape = get_embedding(surface).frame_grid(resolution)
    F_t, N_t = parallel_point(surface.space_form, F, N, xi)
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # ambient dimension above 4
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
        # What stays allocated while the caller works on each cloud, in clouds:
        # the frame and the cloud for the first time, the cloud alone for the last.
        surface = make_hyperbolic_cylinder(2, 2, 2.0)
        gen = snapshots(surface, (8, 8, 8, 8), [0.0, 0.01], resolve_profile(surface))
        held = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # ambient dimension above 4
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                for snap in gen:
                    cloud = snap.points.nbytes + snap.normals.nbytes
                    held.append((tracemalloc.get_traced_memory()[0] - base) / cloud)
                    del snap
            finally:
                tracemalloc.stop()
        assert held[0] > 1.9
        assert held[1] < 1.1

    def test_no_times_builds_nothing(self):
        # Not even the embedding lookup runs, so an unsupported family passes.
        assert list(snapshots(sphere_family_from_kappa1(3, 2.0), 4, [], None)) == []


def reference_frame_grid(emb, resolution, extent=1.0):
    """Reference: the meshgrid body of Embedding.frame_grid; returns (params, F, N)."""
    dims = emb.intrinsic_dim
    if np.ndim(resolution) == 0:
        resolution = [int(resolution)] * dims
    axes = []
    for kind, r in zip(emb.axis_kinds, resolution):
        if kind == "polar":
            axes.append(np.linspace(POLAR_MARGIN, math.pi - POLAR_MARGIN, r))
        elif kind == "azimuth":
            axes.append(np.linspace(0.0, 2.0 * math.pi, r, endpoint=False))
        else:
            axes.append(np.linspace(-extent, extent, r))
    if any(len(ax) == 0 for ax in axes):
        params = np.zeros((0, dims))
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        params = np.stack([m.ravel() for m in mesh], axis=-1)
    return (params, *emb._frame(params))


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
    ])
    def test_bytes_equal_meshgrid(self, surface, resolution, extent):
        emb = get_embedding(surface)
        seen = []

        def recording_frame(params):
            seen.append(params.copy())
            return emb._frame(params)

        F, N, grid_shape = dataclasses.replace(emb, _frame=recording_frame).frame_grid(
            resolution, extent=extent)
        params_ref, F_ref, N_ref = reference_frame_grid(emb, resolution, extent)
        assert len(seen) == 1
        for got, ref in ((seen[0], params_ref), (F, F_ref), (N, N_ref)):
            assert (got.shape, got.dtype) == (ref.shape, ref.dtype)
            assert got.tobytes() == ref.tobytes()
        assert math.prod(grid_shape) == len(F)


def per_family_frame(surface):
    """Reference: the hand-written frame of each product family, one per family."""
    b = surface.blocks
    if surface.family == "euclidean_cylinder":
        m, kappa = b[0].mult, b[0].kappa
        r, sign = 1.0 / abs(kappa), math.copysign(1.0, kappa)

        def frame(params):
            omega = _unit_sphere(params[:, :m])
            y = params[:, m:]
            F = np.concatenate([r * omega, y], axis=1)
            N = np.concatenate([-sign * omega, np.zeros_like(y)], axis=1)
            return F, N

    elif surface.family == "sphere_g2":
        l = b[0].mult
        r1 = 1.0 / math.sqrt(1.0 + b[0].kappa**2)
        r2 = b[0].kappa * r1

        def frame(params):
            omega = _unit_sphere(params[:, :l])
            eta = _unit_sphere(params[:, l:])
            F = np.concatenate([r1 * omega, r2 * eta], axis=1)
            N = np.concatenate([-r2 * omega, r1 * eta], axis=1)
            return F, N

    else:  # hyperbolic_cylinder
        m2, k1 = b[1].mult, b[0].kappa
        r = 1.0 / math.sqrt(k1 * k1 - 1.0)
        rho = k1 * r

        def frame(params):
            chi = _hyperboloid_chart(params[:, :m2])
            omega = _unit_sphere(params[:, m2:])
            F = np.concatenate([rho * chi, r * omega], axis=1)
            N = np.concatenate([-r * chi, -rho * omega], axis=1)
            return F, N

    return frame


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
    ])
    def test_bytes_equal_per_family_frame(self, surface, resolution, extent):
        emb = get_embedding(surface)
        params, F, N = reference_frame_grid(emb, resolution, extent)
        F_ref, N_ref = per_family_frame(surface)(params)
        assert emb.ambient_dim == F_ref.shape[1]
        for got, ref in ((F, F_ref), (N, N_ref)):
            assert (got.shape, got.dtype) == (ref.shape, ref.dtype)
            assert got.tobytes() == ref.tobytes()

    def test_frame_grid_peak_memory(self):
        # F and N are 2.25 MiB; concatenating whole per-factor charts peaked at 5.38 MiB.
        emb = get_embedding(make_sphere_product(3, 7, 2.0))
        emb.frame_grid(4)  # first-call allocations are not the frame's
        tracemalloc.start()
        try:
            emb.frame_grid(4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.8 * MiB


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
    ])
    def test_bytes_equal_row_writer(self, tmp_path, surface, resolution, t):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # ambient dimension above 4
            snap = snapshot(surface, resolution, t)
        export_csv(snap, tmp_path / "chunked.csv")
        row_writer_csv(snap, tmp_path / "rows.csv")
        assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # ambient dimension above 4
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
