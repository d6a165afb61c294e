import numpy as np
import pytest

from camfed.masking import amcm_mask
from camfed.world import (CameraPose, CameraRig, cell_centers, rig_from_preset,
                          wrap_angle)


def oracle_mask(rig, grid, extent):
    """Per-cell wedge-membership check, written independently."""
    h, w = grid
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            y = -extent + (i + 0.5) * (2.0 * extent / h)
            x = -extent + (j + 0.5) * (2.0 * extent / w)
            r = (x * x + y * y) ** 0.5
            if r == 0.0:
                out[i, j] = 1.0
                continue
            bearing = np.degrees(np.arctan2(y, x))
            for cam in rig.cameras:
                delta = abs(float(wrap_angle(bearing - cam.yaw)))
                if delta <= cam.fov_azimuth / 2.0:
                    out[i, j] = 1.0
                    break
    return out


class TestAmcmMask:
    def test_four_cameras_cover_everything(self):
        # 4 x 100 degrees at yaws 0/100/-100/180 wraps the full circle
        rig = rig_from_preset("car")
        mask = amcm_mask(rig, (16, 16), extent=16.0)
        assert np.all(mask == 1.0)

    def test_single_front_camera_oracle(self):
        rig = CameraRig(cameras=(CameraPose(height=1.8, yaw=0.0,
                                            fov_azimuth=90.0),), name="custom")
        mask = amcm_mask(rig, (16, 16), extent=16.0)
        expected = oracle_mask(rig, (16, 16), 16.0)
        np.testing.assert_array_equal(mask, expected)
        # the active cells sit in the x > |y| quadrant wedge
        assert 0 < mask.sum() < 256

    def test_full_circle_single_camera(self):
        rig = CameraRig(cameras=(CameraPose(height=2.0, fov_azimuth=360.0),),
                        name="custom")
        mask = amcm_mask(rig, (12, 12), extent=8.0)
        assert np.all(mask == 1.0)

    def test_random_rigs_match_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            cams = tuple(
                CameraPose(height=float(rng.uniform(1.0, 8.0)),
                           yaw=float(rng.uniform(-180, 180)),
                           fov_azimuth=float(rng.uniform(30, 180)))
                for _ in range(n))
            rig = CameraRig(cameras=cams, name="custom")
            mask = amcm_mask(rig, (16, 16), extent=16.0)
            expected = oracle_mask(rig, (16, 16), 16.0)
            np.testing.assert_array_equal(mask, expected)

    def test_shape_invariant_across_rigs(self):
        shapes = set()
        for ids in ([1], [1, 2], [1, 2, 3], [1, 2, 3, 4]):
            rig = rig_from_preset("car", camera_ids=ids)
            shapes.add(amcm_mask(rig, (16, 16), extent=16.0).shape)
        assert shapes == {(16, 16)}

    def test_monotone_in_cameras(self):
        # adding a camera never deactivates a cell
        base_ids = [1]
        prev = amcm_mask(rig_from_preset("car", camera_ids=base_ids),
                         (16, 16), extent=16.0)
        for ids in ([1, 2], [1, 2, 3], [1, 2, 3, 4]):
            cur = amcm_mask(rig_from_preset("car", camera_ids=ids),
                            (16, 16), extent=16.0)
            assert np.all(cur >= prev)
            prev = cur

    def test_wedge_reaches_the_grid_corners(self):
        # a narrow camera aimed at each corner activates that corner cell,
        # the farthest cell from the ego
        for yaw, corner in ((45.0, (-1, -1)), (135.0, (-1, 0)),
                            (-135.0, (0, 0)), (-45.0, (0, -1))):
            rig = CameraRig(cameras=(CameraPose(height=1.8, yaw=yaw,
                                                fov_azimuth=10.0),),
                            name="custom")
            mask = amcm_mask(rig, (16, 16), extent=16.0)
            assert mask[corner] == 1.0, yaw

    def test_bus_wedges_are_camera_yaw_and_half_fov(self):
        # each bus camera's wedge is centred on its yaw, 50 degrees each side
        gx, gy = cell_centers((16, 16), 16.0)
        bearing = np.degrees(np.arctan2(gy, gx))
        for cam_id, yaw in zip((1, 2, 3, 4), (0.0, 100.0, -100.0, 180.0)):
            mask = amcm_mask(rig_from_preset("bus", camera_ids=[cam_id]),
                             (16, 16), extent=16.0)
            expected = np.abs(wrap_angle(bearing - yaw)) <= 50.0
            np.testing.assert_array_equal(mask == 1.0, expected)



class TestMaskCache:
    def test_one_read_only_mask_per_rig_grid_and_extent(self):
        mask = amcm_mask(rig_from_preset("car", [1]), (16, 16), 16.0)
        assert amcm_mask(rig_from_preset("car", [1]), [16, 16], 16.0) is mask
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0, 0] = 1.0
        for other in (amcm_mask(rig_from_preset("car", [1, 2]), (16, 16), 16.0),
                      amcm_mask(rig_from_preset("car", [1]), (8, 8), 16.0),
                      amcm_mask(rig_from_preset("car", [1]), (16, 16), 8.0)):
            assert other is not mask
