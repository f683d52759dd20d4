"""Ambient embeddings, snapshot sampling and CSV export."""

import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from isoflow import (
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
