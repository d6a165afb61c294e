import math

import numpy as np
import pytest

from camfed import world
from camfed.world import (CameraPose, CameraRig, Scene, azimuth_bin_angles,
                          build_client_dataset, in_fov_bins,
                          pose_rotation, rasterize_bev, ray_hit, render_views,
                          rig_from_preset, rig_tokens, sample_scene,
                          wrap_angle)


def per_ray_views(scene, rig):
    """render_views one ray and one disc at a time, in scalar arithmetic:
    the full (L, A, E, C) grid, gathered by in-FoV bins."""
    n_a = rig.n_azimuth_bins
    views = np.zeros((len(rig), n_a, rig.n_elevation_bins, 4))
    active = np.stack([in_fov_bins(cam, n_a) for cam in rig.cameras])
    phis = azimuth_bin_angles(n_a)
    for ci, cam in enumerate(rig.cameras):
        for bi in np.flatnonzero(active[ci]):
            bearing = float(wrap_angle(cam.yaw + phis[bi]))
            ux = math.cos(math.radians(bearing))
            uy = math.sin(math.radians(bearing))
            d, radius = math.inf, 0.0
            for ox, oy, r in scene.objects:
                along = ox * ux + oy * uy
                c2 = ox * ox + oy * oy
                perp2 = c2 - along * along
                if c2 <= r * r:
                    t = 0.0
                elif along <= 0.0 or perp2 > r * r:
                    continue
                else:
                    t = along - math.sqrt(r * r - perp2)
                if t < d:
                    d, radius = t, r
            if not math.isfinite(d):
                continue
            elev_world = math.degrees(math.atan2(-cam.height, d))
            lo, hi = world.ELEVATION_RANGE
            frac = (elev_world - cam.pitch - lo) / (hi - lo)
            eb = min(max(math.floor(frac * rig.n_elevation_bins), 0),
                     rig.n_elevation_bins - 1)
            views[ci, bi, eb] = (1.0, 1.0 / (1.0 + d),
                                 math.radians(elev_world) / (math.pi / 2.0),
                                 min(radius / d, 1.0) if d > 0 else 1.0)
    return views[active]


def scalar_scene(rng, n_objects=world.DEFAULT_N_OBJECTS, extent=16.0,
                 radius_range=world.DEFAULT_RADIUS_RANGE):
    """sample_scene with one scalar `uniform` draw per value."""
    lo, hi = n_objects
    r_lo, r_hi = radius_range
    objects = []
    for _ in range(int(rng.integers(lo, hi + 1))):
        x = float(rng.uniform(-extent, extent))
        y = float(rng.uniform(-extent, extent))
        r = float(rng.uniform(r_lo, r_hi))
        objects.append((x, y, r))
    return Scene(objects=tuple(objects), extent=extent)


def per_cell_raster(scene, grid, extent):
    """rasterize_bev one cell and one disc at a time."""
    h, w = grid
    out = np.zeros(grid)
    for i in range(h):
        y = -extent + (i + 0.5) * (2.0 * extent / h)
        for j in range(w):
            x = -extent + (j + 0.5) * (2.0 * extent / w)
            out[i, j] = any((x - ox) * (x - ox) + (y - oy) * (y - oy) <= r * r
                            for ox, oy, r in scene.objects)
    return out


class TestRigPresets:
    def test_car(self):
        rig = rig_from_preset("car")
        assert len(rig) == 4
        assert all(c.height == 1.8 and c.pitch == 0.0 for c in rig.cameras)
        assert [c.yaw for c in rig.cameras] == [0.0, 100.0, -100.0, 180.0]

    def test_bus(self):
        rig = rig_from_preset("bus")
        assert all(c.height == 3.2 and c.pitch == -5.0 for c in rig.cameras)

    def test_truck(self):
        rig = rig_from_preset("truck")
        assert all(c.height == 4.8 and c.pitch == -5.0 for c in rig.cameras)

    def test_infrastructure(self):
        rig = rig_from_preset("infrastructure")
        assert all(c.height == 8.2 and c.pitch == -10.0 for c in rig.cameras)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            rig_from_preset("boat")

    def test_camera_subset(self):
        rig = rig_from_preset("car", camera_ids=[1, 2, 3])
        assert [c.yaw for c in rig.cameras] == [0.0, 100.0, -100.0]

    def test_pose_validation(self):
        with pytest.raises(ValueError):
            CameraPose(height=0.0)
        with pytest.raises(ValueError):
            CameraPose(height=1.0, fov_azimuth=400.0)

    def test_the_rig_owns_one_bin_grid(self):
        rig = rig_from_preset("bus", n_azimuth_bins=12, n_elevation_bins=2)
        assert (rig.n_azimuth_bins, rig.n_elevation_bins) == (12, 2)
        # a camera cannot carry bin counts of its own, so none can disagree
        with pytest.raises(TypeError):
            CameraPose(2.0, n_azimuth_bins=48)
        for bins in ({"n_azimuth_bins": 0}, {"n_elevation_bins": 0}):
            with pytest.raises(ValueError, match="bin counts"):
                CameraRig((CameraPose(2.0),), **bins)


class TestSampleScene:
    def test_deterministic(self):
        a = sample_scene(np.random.default_rng(7))
        b = sample_scene(np.random.default_rng(7))
        assert a == b

    def test_empty_range(self):
        s = sample_scene(np.random.default_rng(0), n_objects=(0, 0))
        assert s.objects == ()

    def test_bounds(self):
        s = sample_scene(np.random.default_rng(1), n_objects=(3, 3), extent=20.0)
        assert len(s.objects) == 3
        for x, y, r in s.objects:
            assert abs(x) <= 20.0 and abs(y) <= 20.0
            assert 0.5 <= r <= 1.5

    # `low + span * u` is what numpy's `uniform` computes, as long as it is
    # not compiled into a fused multiply-add; these pin the two together
    @pytest.mark.parametrize("kwargs", [
        {}, {"extent": 7.3}, {"radius_range": (0.1, 2.9)},
        {"n_objects": (0, 0)}, {"n_objects": (0, 8)},
        {"n_objects": (0, 8), "extent": 5.5, "radius_range": (0.25, 0.3)}])
    def test_equals_scalar_uniform_draws(self, kwargs):
        ours = np.random.default_rng(11)
        reference = np.random.default_rng(11)
        for _ in range(300):
            assert sample_scene(ours, **kwargs) == scalar_scene(reference,
                                                                **kwargs)
        assert ours.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("kwargs", [
        {"radius_range": (1.0, 0.5)}, {"extent": math.inf},
        {"radius_range": (0.5, math.inf)}, {"extent": 1e308}])
    def test_negative_or_infinite_span_rejected(self, kwargs):
        with pytest.raises(ValueError):
            sample_scene(np.random.default_rng(0), **kwargs)


class TestRenderViews:
    def test_empty_scene_all_zero(self):
        rig = rig_from_preset("car")
        views = render_views(Scene(objects=(), extent=16.0), rig)
        # 24 bins 15 degrees apart: six per 100-degree camera are tokens
        assert views.shape == (4 * 6, 4, 4)
        assert np.all(views == 0.0)

    def test_single_object_car_vs_bus(self):
        # object dead ahead: presence/distance agree between rigs, elevation
        # differs because the mounting heights differ
        d_center = 6.0
        scene = Scene(objects=((d_center, 0.0, 1.0),), extent=16.0)
        car_rig = rig_from_preset("car", camera_ids=[1])
        car = render_views(scene, car_rig)
        bus = render_views(scene, rig_from_preset("bus", camera_ids=[1]))
        # closed-form oracle for the two forward-most bins (phi = +-2.5 deg
        # falls outside bin centers for A=24; nearest hits are +-7.5 deg)
        assert np.array_equal(car[..., 0].sum(axis=1), bus[..., 0].sum(axis=1))
        assert np.array_equal(car[..., 1].sum(axis=1), bus[..., 1].sum(axis=1))
        hit = car[:, :, 0].sum(axis=1) > 0
        assert hit.any()
        # elevation channel: atan2(-h, d)/ (pi/2), independent of pitch
        bins = np.flatnonzero(in_fov_bins(car_rig.cameras[0], 24))
        for ti in np.nonzero(hit)[0]:
            phi = math.radians(azimuth_bin_angles(24)[bins[ti]])
            d, _ = ray_hit(scene, math.degrees(phi))
            for h_cam, v in ((1.8, car), (3.2, bus)):
                expected = math.atan2(-h_cam, d) / (math.pi / 2.0)
                got = v[ti, :, 2]
                assert got[got != 0][0] == pytest.approx(expected, abs=1e-12)
        diff = np.abs(car[..., 2] - bus[..., 2]).sum()
        assert diff > 0.0

    def test_occlusion_nearest_only(self):
        # two objects on the same ray: only the nearest is rendered;
        # brute-force ray-march oracle confirms the hit distance
        scene = Scene(objects=((4.0, 0.0, 0.5), (8.0, 0.0, 0.5)), extent=16.0)
        d, r = ray_hit(scene, 0.0)
        assert d == pytest.approx(3.5, abs=1e-12)
        # ray march in small steps until entering a disc
        step = 1e-4
        t = step
        while t < 16.0:
            if any((t * 1.0 - ox) ** 2 + (0.0 - oy) ** 2 <= rr ** 2
                   for ox, oy, rr in scene.objects):
                break
            t += step
        assert d == pytest.approx(t, abs=2 * step)

    def test_equals_per_ray_scalar_reference_exactly(self):
        rigs = [rig_from_preset("car"), rig_from_preset("truck", [2, 4]),
                rig_from_preset("bus", n_azimuth_bins=12, n_elevation_bins=2),
                CameraRig(cameras=(CameraPose(height=2.0, pitch=3.0, yaw=37.0,
                                              fov_azimuth=360.0),),
                          n_azimuth_bins=7),
                CameraRig(cameras=(CameraPose(height=2.0, yaw=45.0,
                                              fov_azimuth=360.0),),
                          n_azimuth_bins=4)]
        # two discs entered at exactly 4.0 along bearing 0 (the first one's
        # radius is written), the ego inside a disc, and an empty scene, then
        # random scenes of big discs
        scenes = [Scene(objects=((5.0, 0.0, 1.0), (6.0, 0.0, 2.0),
                                 (-3.0, 3.0, 0.7)), extent=16.0),
                  Scene(objects=((0.2, 0.1, 1.0), (3.0, 0.0, 1.0)),
                        extent=16.0),
                  Scene(objects=(), extent=16.0)]
        rng = np.random.default_rng(8)
        scenes += [sample_scene(rng, n_objects=(0, 8), extent=6.0,
                                radius_range=(0.5, 5.0)) for _ in range(30)]
        for rig in rigs:
            for scene in scenes:
                np.testing.assert_array_equal(render_views(scene, rig),
                                              per_ray_views(scene, rig))

    def test_a_stack_is_one_grid_per_scene(self):
        # the ego inside a disc, an empty scene and a scene of five discs in
        # one stack: the shorter scenes are padded, and padding hits nothing
        rig = rig_from_preset("truck", [1, 4])
        scenes = [Scene(objects=((0.2, 0.1, 1.0), (3.0, 0.0, 1.0)),
                        extent=16.0),
                  Scene(objects=(), extent=16.0),
                  sample_scene(np.random.default_rng(2), n_objects=(5, 5),
                               extent=6.0, radius_range=(0.5, 3.0))]
        stack = render_views(scenes, rig)
        assert stack.shape == (3,) + render_views(scenes[0], rig).shape
        for scene, views in zip(scenes, stack):
            np.testing.assert_array_equal(views, per_ray_views(scene, rig))
        assert render_views([], rig).shape == (0,) + stack.shape[1:]

    def test_in_fov_bins_closed_edge(self):
        # 24 bins have centers at +-7.5, +-22.5, +-37.5, ...; a 75 degree
        # FoV keeps the bins exactly on its +-37.5 edge
        cam = CameraPose(height=2.0, fov_azimuth=75.0)
        keep = world.in_fov_bins(cam, 24)
        np.testing.assert_array_equal(np.abs(azimuth_bin_angles(24))[keep],
                                      [37.5, 22.5, 7.5, 7.5, 22.5, 37.5])

    def test_pose_sensitivity_car_vs_truck(self):
        # objects placed on bin-center bearings so hits are guaranteed
        scene = Scene(objects=((6.0, 0.0, 1.2), (-4.0, 4.0, 1.0),
                               (2.0, -7.0, 1.4)), extent=16.0)
        car = render_views(scene, rig_from_preset("car"))
        truck = render_views(scene, rig_from_preset("truck"))
        assert car[..., 0].sum() > 0
        assert np.abs(car[..., 2] - truck[..., 2]).mean() > 0.0


class TestRigTokens:
    def test_rows_are_the_in_fov_bins_in_camera_then_bin_order(self):
        rig = CameraRig(cameras=(CameraPose(height=2.0, yaw=30.0,
                                            fov_azimuth=90.0),
                                 CameraPose(height=2.0, yaw=-120.0,
                                            fov_azimuth=200.0),
                                 CameraPose(height=2.0, fov_azimuth=75.0)),
                        n_elevation_bins=3)
        tokens = rig_tokens(rig)
        phis = azimuth_bin_angles(24)
        expected = [(ci, bi) for ci, cam in enumerate(rig.cameras)
                    for bi in range(24)
                    if abs(phis[bi]) <= cam.fov_azimuth / 2.0]
        assert tokens.camera.tolist() == [ci for ci, _ in expected]
        bearings = np.radians([rig.cameras[ci].yaw + phis[bi]
                               for ci, bi in expected])
        np.testing.assert_allclose(tokens.ux, np.cos(bearings), atol=1e-12)
        np.testing.assert_allclose(tokens.uy, np.sin(bearings), atol=1e-12)
        assert tokens.rays.shape == (len(expected), 3)
        scene = sample_scene(np.random.default_rng(3), n_objects=(5, 5))
        assert render_views(scene, rig).shape == (len(expected), 3, 4)

    def test_identity_pose_rays_unchanged(self):
        rig = CameraRig(cameras=(CameraPose(height=2.0, fov_azimuth=360.0),),
                        n_azimuth_bins=8)
        rays = rig_tokens(rig).rays
        phis = np.radians(azimuth_bin_angles(8))
        assert rays.shape == (8, 3)
        np.testing.assert_allclose(
            rays, np.stack([np.cos(phis), np.sin(phis), np.zeros(8)], axis=1),
            atol=1e-15)

    def test_yaw_180_negates_xy(self):
        def rays(yaw):
            return rig_tokens(CameraRig(
                cameras=(CameraPose(height=1.0, yaw=yaw, fov_azimuth=360.0),),
                n_azimuth_bins=8)).rays
        np.testing.assert_allclose(rays(180.0)[:, :2], -rays(0.0)[:, :2],
                                   atol=1e-12)

    def test_rotation_matches_composition_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            roll, pitch, yaw = rng.uniform(-180, 180, 3)
            r, p, y = map(math.radians, (roll, pitch, yaw))
            rx = np.array([[1, 0, 0],
                           [0, math.cos(r), -math.sin(r)],
                           [0, math.sin(r), math.cos(r)]])
            ry = np.array([[math.cos(p), 0, math.sin(p)],
                           [0, 1, 0],
                           [-math.sin(p), 0, math.cos(p)]])
            rz = np.array([[math.cos(y), -math.sin(y), 0],
                           [math.sin(y), math.cos(y), 0],
                           [0, 0, 1]])
            expected = rz @ ry @ rx
            np.testing.assert_allclose(pose_rotation(roll, pitch, yaw),
                                       expected, atol=1e-12)

    def test_rays_are_the_rotated_camera_directions(self):
        rig = CameraRig(cameras=(CameraPose(height=1.5, roll=4.0, pitch=-7.0,
                                            yaw=100.0),), n_azimuth_bins=12)
        tokens = rig_tokens(rig)
        cam = rig.cameras[0]
        phis = np.radians(azimuth_bin_angles(12)[in_fov_bins(cam, 12)])
        dirs = np.stack([np.cos(phis), np.sin(phis), np.zeros_like(phis)],
                        axis=1)
        np.testing.assert_allclose(
            tokens.rays, dirs @ pose_rotation(cam.roll, cam.pitch, cam.yaw).T,
            atol=1e-15)

    def test_ray_set_invariant_under_bin_multiple_yaw_shift(self):
        # rotating every yaw by a whole number of bin widths permutes the
        # full-circle ray set exactly
        n_bins = 12
        delta = 360.0 / n_bins * 2

        def rays(yaw):
            return rig_tokens(CameraRig(
                cameras=(CameraPose(height=1.5, yaw=yaw, fov_azimuth=360.0),),
                n_azimuth_bins=n_bins)).rays
        rays_a, rays_b = rays(10.0), rays(10.0 + delta)
        order = lambda r: np.lexsort((r[:, 2], r[:, 1], r[:, 0]))
        np.testing.assert_allclose(rays_a[order(rays_a)], rays_b[order(rays_b)],
                                   atol=1e-12)

    def test_shared_by_key_and_read_only(self):
        tokens = rig_tokens(rig_from_preset("car", [1, 2], n_azimuth_bins=12))
        assert rig_tokens(rig_from_preset("car", [1, 2],
                                          n_azimuth_bins=12)) is tokens
        assert not any(a.flags.writeable for a in tokens)
        assert rig_tokens(rig_from_preset("car", [1, 2])) is not tokens

    def test_a_rig_without_tokens_is_rejected(self):
        # 24 bins put the nearest centers at +-7.5 degrees
        rig = CameraRig((CameraPose(height=2.0, fov_azimuth=10.0),))
        with pytest.raises(ValueError, match="no azimuth bin"):
            rig_tokens(rig)


class TestRasterizeBev:
    def test_empty_scene(self):
        grid = rasterize_bev(Scene(objects=(), extent=8.0), (16, 16), 8.0)
        assert np.all(grid == 0.0)

    def test_full_cover(self):
        grid = rasterize_bev(Scene(objects=((0.0, 0.0, 100.0),), extent=8.0),
                             (8, 8), 8.0)
        assert np.all(grid == 1.0)

    def test_matches_per_cell_oracle(self):
        scene = Scene(objects=((0.0, 0.0, 1.0),), extent=8.0)
        grid = rasterize_bev(scene, (16, 16), 8.0)
        assert grid.sum() == 4.0        # the four cells around the ego
        np.testing.assert_array_equal(grid,
                                      per_cell_raster(scene, (16, 16), 8.0))

    def test_a_stack_is_one_grid_per_scene(self):
        # disc counts 0, 1 and 3 in one stack pad the shorter scenes; the
        # padding covers no cell, not even one centred on the ego
        rng = np.random.default_rng(4)
        scenes = [Scene(objects=(), extent=8.0),
                  Scene(objects=((3.0, 0.0, 100.0),), extent=8.0),
                  sample_scene(rng, n_objects=(3, 3), extent=8.0,
                               radius_range=(1.0, 4.0))]
        grid = (5, 15)                  # cell (2, 7) is centred on the ego
        stack = rasterize_bev(scenes, grid, 15.0)
        assert stack.shape == (3, 5, 15) and stack.dtype == np.float64
        assert stack[0].sum() == 0.0 and stack[1].sum() == 75.0
        for scene, one in zip(scenes, stack):
            np.testing.assert_array_equal(one, rasterize_bev(scene, grid, 15.0))
            np.testing.assert_array_equal(one,
                                          per_cell_raster(scene, grid, 15.0))

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            rasterize_bev(Scene(objects=(), extent=8.0), (2, 2), 8.0)


class TestClientDataset:
    RIGS = [rig_from_preset("car", [1]), rig_from_preset("car", [1, 2, 3]),
            rig_from_preset("car"), rig_from_preset("bus"),
            rig_from_preset("truck"), rig_from_preset("infrastructure")]

    # 64 scenes are cast and rasterized at a time: one block, its edges,
    # and three blocks
    @pytest.mark.parametrize("n_points", [2, 5, 64, 65, 130])
    def test_equals_the_per_point_reference_bit_for_bit(self, n_points,
                                                        monkeypatch):
        default_rng = np.random.default_rng
        made = []

        def recorded_rng(seed):
            made.append(default_rng(seed))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", recorded_rng)
        for ri, rig in enumerate(self.RIGS):
            for seed in (ri, 1000 + 7 * n_points + ri):
                ds = build_client_dataset(rig, n_points, seed=seed)
                rng = default_rng(np.random.SeedSequence([seed]))
                assert len(ds.views) == len(ds.bev) == n_points
                assert ds.n_train == int(0.8 * n_points)
                assert ds.views.dtype == ds.bev.dtype == np.float64
                for views, bev in zip(ds.views, ds.bev):
                    scene = scalar_scene(rng)
                    np.testing.assert_array_equal(views,
                                                  per_ray_views(scene, rig))
                    np.testing.assert_array_equal(
                        bev, per_cell_raster(scene, (16, 16), 16.0))
                # the dataset drew exactly the reference's values
                assert made[-1].bit_generator.state == rng.bit_generator.state

    def test_split_arithmetic(self):
        ds = build_client_dataset(rig_from_preset("car"), 10, seed=0)
        # row slices of the stacks, views and not copies, covering all rows
        for whole, train, test in zip((ds.views, ds.bev), ds.train, ds.test):
            assert (len(train), len(test)) == (8, 2)
            assert np.shares_memory(train, whole)
            assert np.shares_memory(test, whole)
            np.testing.assert_array_equal(np.concatenate([train, test]), whole)

    def test_client_without_points_rejected_before_any_draw(self,
                                                            monkeypatch):
        monkeypatch.setattr(world, "sample_scene", None)
        with pytest.raises(ValueError, match="n_points must be >= 1"):
            world.build_client_datasets([(rig_from_preset("car"), 5, 0),
                                         (rig_from_preset("bus"), 0, 1)])

    def test_deterministic(self):
        rig = rig_from_preset("bus")
        a = build_client_dataset(rig, 5, seed=42)
        b = build_client_dataset(rig, 5, seed=42)
        assert np.array_equal(a.views, b.views)
        assert np.array_equal(a.bev, b.bev)

    def test_different_seeds_differ(self):
        rig = rig_from_preset("bus")
        a = build_client_dataset(rig, 5, seed=1)
        b = build_client_dataset(rig, 5, seed=2)
        assert not np.array_equal(a.views, b.views)


class TestYawEquivariance:
    def test_render_invariant_under_joint_rotation(self):
        # rotating every camera yaw by delta and the scene by delta leaves
        # the rendered features unchanged (ray geometry is relative)
        rng = np.random.default_rng(5)
        scene = sample_scene(rng, n_objects=(3, 3))
        delta = 360.0 / 24 * 3   # three bin widths
        rot = math.radians(delta)
        rotated = Scene(objects=tuple(
            (x * math.cos(rot) - y * math.sin(rot),
             x * math.sin(rot) + y * math.cos(rot), r)
            for x, y, r in scene.objects), extent=scene.extent)
        rig = rig_from_preset("car")
        shifted = CameraRig(cameras=tuple(
            CameraPose(height=c.height, roll=c.roll, pitch=c.pitch,
                       yaw=c.yaw + delta, fov_azimuth=c.fov_azimuth)
            for c in rig.cameras), name="car")
        v1 = render_views(scene, rig)
        v2 = render_views(rotated, shifted)
        np.testing.assert_allclose(v1, v2, atol=1e-9)
