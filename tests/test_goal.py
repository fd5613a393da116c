import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajlab.cli import InputFileError, _read
from trajlab.goal import (GoalNet, GridSpec, SemanticGrid, TTSTConfig, _kmeans,
                          argmax_goals, load_semantic_grid, predict_heatmaps, rasterize_points,
                          save_semantic_grid, select_goals)


@pytest.fixture
def grid():
    return GridSpec(16, 16, (0.25, 0.25), 0.5)


class TestGridSpec:
    def test_origin_maps_to_pixel_zero(self, grid):
        assert grid.world_to_pixel((0.25, 0.25)) == (0.0, 0.0)

    def test_world_pixel_round_trip_is_exact_on_centers(self, grid):
        for r in (0, 5, 15):
            for c in (0, 7, 15):
                p = grid.pixel_to_world(r, c)
                assert grid.world_to_pixel(p) == pytest.approx((r, c))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 7.9), st.floats(0.0, 7.9))
    def test_snap_error_at_most_half_resolution(self, x, y):
        grid = GridSpec(16, 16, (0.25, 0.25), 0.5)
        r, c = grid.world_to_pixel((x, y))
        snapped = grid.pixel_to_world(round(r), round(c))
        assert np.max(np.abs(snapped - np.array([x, y]))) <= grid.resolution / 2 + 1e-12

    def test_contains(self, grid):
        assert grid.contains((4.0, 4.0))
        assert not grid.contains((9.0, 4.0))
        assert not grid.contains((-1.0, 4.0))

    def test_array_forms_match_per_point_loop(self, grid, rng):
        pts = rng.uniform(-2.0, 10.0, size=(4, 5, 2))
        rows, cols = grid.world_to_pixel(pts)
        inside = grid.contains(pts)
        assert rows.shape == cols.shape == inside.shape == (4, 5)
        assert inside.dtype == bool and inside.any() and not inside.all()
        for i in np.ndindex(4, 5):
            r, c = grid.world_to_pixel(pts[i])
            assert rows[i].tobytes() == r.tobytes() and cols[i].tobytes() == c.tobytes()
            assert inside[i] == grid.contains(pts[i])
        pr = rng.integers(0, 16, size=(6, 1))
        pc = rng.uniform(-1.0, 16.0, size=(1, 3))
        world = grid.pixel_to_world(pr, pc)
        assert world.shape == (6, 3, 2)
        for i, j in np.ndindex(6, 3):
            assert world[i, j].tobytes() == grid.pixel_to_world(pr[i, 0], pc[0, j]).tobytes()

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            GridSpec(4, 4, (0.0, 0.0), 0.0)

    @pytest.mark.parametrize("h, w, origin, resolution", [
        (0, 4, (0.0, 0.0), 1.0), (4, 0, (0.0, 0.0), 1.0), (4, 4, (np.nan, 0.0), 1.0),
        (4, 4, (0.0, np.inf), 1.0), (4, 4, (0.0, 0.0), np.nan), (4, 4, (0.0, 0.0), np.inf)])
    def test_rejects_empty_or_non_finite(self, h, w, origin, resolution):
        with pytest.raises(ValueError):
            GridSpec(h, w, origin, resolution)


def rasterize_one(pos, grid, sigma_px):
    return rasterize_points(np.asarray(pos, dtype=np.float64)[None], grid, sigma_px)[0]


class TestRasterize:
    def test_sums_to_one(self, grid):
        m = rasterize_one((4.0, 4.0), grid, 1.5)
        assert m.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(m >= 0)

    def test_peak_at_source_pixel(self, grid):
        m = rasterize_one((2.25, 6.25), grid, 1.0)
        r, c = np.unravel_index(np.argmax(m), m.shape)
        assert (r, c) == grid.world_to_pixel((2.25, 6.25))

    def test_symmetry_about_center(self, grid):
        # center of the grid: pixel (7.5, 7.5)
        m = rasterize_one(grid.pixel_to_world(7.5, 7.5), grid, 2.0)
        assert np.allclose(m, m[::-1, :], atol=1e-12)
        assert np.allclose(m, m[:, ::-1], atol=1e-12)
        assert np.allclose(m, m.T, atol=1e-12)

    def test_batch_matches_single(self, grid, rng):
        # map i of a batch equals point i rasterized alone, for (M, 2) and (B, T, 2)
        pts = rng.uniform(1.0, 7.0, size=(2, 3, 2))
        for batch_pts in (pts.reshape(6, 2), pts):
            batch = rasterize_points(batch_pts, grid, 1.2)
            assert batch.shape == batch_pts.shape[:-1] + (16, 16)
            for i in np.ndindex(batch_pts.shape[:-1]):
                assert np.array_equal(batch[i], rasterize_one(batch_pts[i], grid, 1.2))

    @pytest.mark.parametrize("sigma", [0.02, 1.5, 4.0])
    def test_separable_matches_direct_formula(self, sigma, rng):
        # the outer product of row and column factors against exp(-d^2 / 2 sigma^2)
        # over the pixel grid, normalised. At small sigma both carry the rounding
        # of an exponent up to 0.25 / sigma^2 (625 at 0.02), which bounds the gap
        grid = GridSpec(24, 20, (0.5, 0.5), 1.0)
        pts = rng.uniform(0.0, 20.0, size=(200, 2))
        rows, cols = grid.world_to_pixel(pts)
        d2 = ((np.arange(24)[:, None] - rows[:, None, None]) ** 2
              + (np.arange(20)[None, :] - cols[:, None, None]) ** 2)
        direct = np.exp(-0.5 * d2 / sigma ** 2)
        direct /= direct.sum(axis=(-2, -1), keepdims=True)
        atol = max(1e-15, np.finfo(float).eps * 0.25 / sigma ** 2)
        assert np.max(np.abs(rasterize_points(pts, grid, sigma) - direct)) <= atol

    def test_rejects_out_of_grid(self, grid):
        with pytest.raises(ValueError, match="outside grid"):
            rasterize_one((20.0, 4.0), grid, 1.0)
        # the error names the first point outside
        pts = np.array([[4.0, 4.0], [4.0, -3.0], [20.0, 4.0]])
        with pytest.raises(ValueError, match=r"position 1 \[4\.0, -3\.0\] outside grid"):
            rasterize_points(pts, grid, 1.0)

    def test_rejects_bad_sigma(self, grid):
        for sigma in (0.0, np.nan):
            with pytest.raises(ValueError, match="sigma_px"):
                rasterize_one((4.0, 4.0), grid, sigma)


class TestGoalNet:
    def test_output_shape(self, rng):
        net = GoalNet(in_channels=4, t_f=6, base=4, rng=rng)
        logits = predict_heatmaps(np.zeros((3, 2, 16, 16)), np.ones((2, 16, 16)), net)
        assert logits.shape == (3, 6, 16, 16)
        assert np.all(np.isfinite(logits.data))

    def test_zero_params_give_half_everywhere(self, rng):
        net = GoalNet(in_channels=3, t_f=2, base=4, rng=rng)
        for p in net.parameters().values():
            p.data[...] = 0.0
        logits = predict_heatmaps(np.zeros((1, 2, 16, 16)), np.ones((1, 16, 16)), net)
        assert np.array_equal(logits.data, np.zeros((1, 2, 16, 16)))
        assert np.allclose(logits.sigmoid().data, 0.5)

    def test_deterministic(self):
        net = GoalNet(in_channels=3, t_f=2, base=4, rng=np.random.default_rng(3))
        sem = np.random.default_rng(0).uniform(size=(1, 16, 16))
        hist = np.full((1, 2, 16, 16), 0.1)
        a = predict_heatmaps(hist, sem, net).data
        b = predict_heatmaps(hist, sem, net).data
        assert np.array_equal(a, b)

    def test_batch_matches_single(self, rng):
        # each window's logits are those of the window run alone
        net = GoalNet(in_channels=3, t_f=2, base=4, rng=rng)
        sem = rng.uniform(size=(1, 16, 16))
        hist = rng.uniform(size=(3, 2, 16, 16))
        batch = predict_heatmaps(hist, sem, net).data
        for i in range(3):
            assert np.allclose(batch[i], predict_heatmaps(hist[i:i + 1], sem, net).data[0],
                               rtol=0.0, atol=1e-12)

    def test_channel_mismatch_rejected(self, rng):
        net = GoalNet(in_channels=5, t_f=2, base=4, rng=rng)
        with pytest.raises(ValueError, match="expects 5 input channels, got 3"):
            predict_heatmaps(np.zeros((1, 2, 16, 16)), np.ones((1, 16, 16)), net)


def kmeans_init_reference(points, k, rng):
    """Farthest-point init that recomputes every distance for each new center."""
    centers = [points[int(rng.integers(len(points)))]]
    for _ in range(k - 1):
        d2 = np.min([np.sum((points - c) ** 2, axis=1) for c in centers], axis=0)
        centers.append(points[int(np.argmax(d2))])
    return np.array(centers)


def kmeans_reference(points, k, iters, rng):
    """The per-cluster-loop k-means: (n, k, 2) distances, one masked mean per cluster."""
    centers = [points[int(rng.integers(len(points)))]]
    d2 = np.full(len(points), np.inf)
    for _ in range(k - 1):
        d2 = np.minimum(d2, np.sum((points - centers[-1]) ** 2, axis=1))
        centers.append(points[int(np.argmax(d2))])
    centers = np.array(centers)
    for _ in range(iters):
        d2 = np.sum((points[:, None, :] - centers[None]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        for j in range(k):
            members = points[labels == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    return centers


def kmeans_point_sets():
    """Tie-heavy integer points, Gaussian points, and pixel-center draws from a
    peaked 24x24 map."""
    rng = np.random.default_rng(2024)
    grid = GridSpec(24, 24, (0.25, 0.25), 0.5)
    rr, cc = np.mgrid[0:24, 0:24]
    peaked = np.exp(-((rr - 15.0) ** 2 + (cc - 6.0) ** 2) / 6.0) + 1e-4
    idx = rng.choice(24 * 24, size=1000, p=(peaked / peaked.sum()).ravel())
    return {"ties": rng.integers(0, 6, size=(400, 2)).astype(float),
            "gauss": rng.normal(0.0, 3.0, size=(500, 2)),
            "pixels": grid.pixel_to_world(*np.divmod(idx, 24))}


def select_goals_reference(goal_map, grid, N, ttst, rng):
    """select_goals with one pixel_to_world call per draw."""
    p = (goal_map / goal_map.sum()).ravel()
    flat_argmax = int(np.argmax(goal_map))
    common = grid.pixel_to_world(flat_argmax // grid.W, flat_argmax % grid.W)
    n_draw = N if ttst is None else ttst.n_samples
    idx = rng.choice(p.size, size=n_draw, p=p)
    pts = np.stack([grid.pixel_to_world(i // grid.W, i % grid.W) for i in idx])
    if ttst is not None and n_draw > N:
        return common, kmeans_reference(pts, N, ttst.kmeans_iters, rng)
    return common, pts[:N]


class TestKMeans:
    @pytest.mark.parametrize("iters", [0, 1, 5, 20, 200])
    @pytest.mark.parametrize("kind", ["ties", "gauss", "pixels"])
    def test_matches_reference_bitwise(self, kind, iters):
        points = kmeans_point_sets()[kind]
        for seed, k in ((0, 1), (1, 7), (2, 20)):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _kmeans(points, k, iters, got_rng)
            want = kmeans_reference(points, k, iters, want_rng)
            assert got.shape == (k, 2) and got.dtype == np.float64
            assert got.tobytes() == want.tobytes()
            assert got_rng.random() == want_rng.random()  # one draw consumed, as before

    def test_empty_cluster_keeps_its_center(self):
        # 3 distinct values among 60 points, 5 centers: the init picks duplicates,
        # and a duplicate center loses every member to its twin (lowest index wins)
        points = np.repeat([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]], [30, 20, 10], axis=0)
        init = kmeans_reference(points, 5, 0, np.random.default_rng(3))
        got = _kmeans(points, 5, 20, np.random.default_rng(3))
        want = kmeans_reference(points, 5, 20, np.random.default_rng(3))
        assert got.tobytes() == want.tobytes()
        labels = np.argmin(((points[:, None] - got[None]) ** 2).sum(axis=2), axis=1)
        empty = np.setdiff1d(np.arange(5), labels)
        assert empty.size > 0
        assert np.array_equal(got[empty], init[empty])


def test_argmax_goals_matches_per_map_reference():
    # a non-square grid, and integer maps with many ties: the lowest row-major
    # index wins, as np.argmax on the flattened map gives it
    grid = GridSpec(5, 7, (0.25, -1.0), 0.5)
    maps = np.random.default_rng(4).integers(0, 3, size=(40, 5, 7)).astype(float)
    maps[0] = 0.0  # every pixel tied
    got = argmax_goals(maps, grid)
    assert got.shape == (40, 2)
    for m, g in zip(maps, got):
        want = grid.pixel_to_world(*divmod(int(np.argmax(m)), grid.W))
        assert g.tobytes() == want.tobytes()
    assert np.array_equal(got[0], grid.pixel_to_world(0, 0))


class TestSelectGoals:
    def test_kmeans_init_matches_reference(self, rng):
        # with no update iterations _kmeans returns its initial centers
        points = rng.integers(0, 6, size=(300, 2)).astype(float)  # many ties
        for seed in range(5):
            got = _kmeans(points, 8, 0, np.random.default_rng(seed))
            want = kmeans_init_reference(points, 8, np.random.default_rng(seed))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("ttst", [None, TTSTConfig(n_samples=300, kmeans_iters=5)])
    def test_matches_per_draw_reference(self, grid, rng, ttst):
        for seed in range(5):
            m = rng.uniform(size=(16, 16)) ** 4
            gs = select_goals(m, grid, 6, ttst, np.random.default_rng(seed))
            common, diverse = select_goals_reference(m, grid, 6, ttst,
                                                     np.random.default_rng(seed))
            assert gs.common.tobytes() == common.tobytes()
            assert gs.diverse.tobytes() == diverse.tobytes()

    def test_common_is_argmax_pixel(self, grid):
        m = np.zeros((16, 16))
        m[3, 9] = 1.0
        gs = select_goals(m, grid, 4, rng=np.random.default_rng(0))
        np.testing.assert_allclose(gs.common, grid.pixel_to_world(3, 9))

    def test_delta_map_all_samples_at_peak(self, grid):
        m = np.zeros((16, 16))
        m[5, 5] = 1.0
        gs = select_goals(m, grid, 10, rng=np.random.default_rng(0))
        assert np.all(gs.diverse == grid.pixel_to_world(5, 5))

    def test_two_spike_sampling_law(self, grid):
        # 9:1 mass split -> sample frequencies near 0.9/0.1
        m = np.zeros((16, 16))
        m[2, 2] = 0.9
        m[12, 12] = 0.1
        gs = select_goals(m, grid, 5000, rng=np.random.default_rng(7))
        at_heavy = np.mean(np.all(np.isclose(gs.diverse, grid.pixel_to_world(2, 2)), axis=1))
        assert abs(at_heavy - 0.9) < 0.02

    def test_scale_invariance_of_argmax(self, grid, rng):
        m = rng.uniform(size=(16, 16))
        a = select_goals(m, grid, 3, rng=np.random.default_rng(1))
        b = select_goals(m * 37.5, grid, 3, rng=np.random.default_rng(1))
        np.testing.assert_array_equal(a.common, b.common)
        np.testing.assert_array_equal(a.diverse, b.diverse)

    def test_ttst_separates_two_modes(self, grid):
        m = np.zeros((16, 16))
        m[2, 2] = 0.5
        m[13, 13] = 0.5
        gs = select_goals(m, grid, 2, ttst=TTSTConfig(n_samples=400),
                          rng=np.random.default_rng(0))
        got = {tuple(np.round(g, 6)) for g in gs.diverse}
        want = {tuple(np.round(grid.pixel_to_world(2, 2), 6)),
                tuple(np.round(grid.pixel_to_world(13, 13), 6))}
        assert got == want

    def test_ttst_n_samples_equal_n_degenerates_to_plain(self, grid, rng):
        m = rng.uniform(size=(16, 16))
        a = select_goals(m, grid, 6, ttst=TTSTConfig(n_samples=6),
                         rng=np.random.default_rng(2))
        b = select_goals(m, grid, 6, rng=np.random.default_rng(2))
        np.testing.assert_array_equal(a.diverse, b.diverse)

    def test_ttst_undersized_rejected(self, grid):
        with pytest.raises(ValueError):
            select_goals(np.ones((16, 16)), grid, 10, ttst=TTSTConfig(n_samples=5))

    def test_zero_goals_rejected(self, grid):
        with pytest.raises(ValueError, match="N must be >= 1"):
            select_goals(np.ones((16, 16)), grid, 0)

    @pytest.mark.parametrize("kwargs, field", [({"n_samples": 0}, "n_samples"),
                                               ({"kmeans_iters": -3}, "kmeans_iters")])
    def test_ttst_config_rejects_bad_values(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            TTSTConfig(**kwargs)

    def test_zero_map_rejected(self, grid):
        with pytest.raises(ValueError):
            select_goals(np.zeros((16, 16)), grid, 3)


class TestGridFile:
    def test_round_trip(self, tmp_path, rng):
        grid = GridSpec(8, 12, (0.1, -0.3), 0.25)
        sem = SemanticGrid(grid, rng.uniform(size=(3, 8, 12)).astype(np.float32)
                           .astype(np.float64))
        path = tmp_path / "scene.grid"
        save_semantic_grid(path, sem)
        back = load_semantic_grid(path)
        assert back.grid == sem.grid
        assert np.array_equal(back.channels, sem.channels)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.grid"
        path.write_bytes(b"NOTAGRID 1 2 2 1 0 0 1\n" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_semantic_grid(path)

    @pytest.mark.parametrize("content", [b"", b"\n", b"TRAJGRID 1 4 4\n",
                                         b"TRAJGRID 1 4 x 1 0 0 1\n",
                                         b"TRAJGRID 1 4 4 1 0 0 0\n"])
    def test_empty_or_short_header_names_the_file(self, tmp_path, content):
        # the reader names no path; the CLI's one reading function names it once
        path = tmp_path / "short.grid"
        path.write_bytes(content)
        named = f"^{re.escape(str(path))}: (not a recognized|bad) semantic grid"
        with pytest.raises(InputFileError, match=named):
            _read(path, load_semantic_grid, InputFileError)

    def test_truncated_payload_rejected(self, tmp_path):
        grid = GridSpec(4, 4, (0.0, 0.0), 1.0)
        sem = SemanticGrid(grid, np.ones((1, 4, 4)))
        path = tmp_path / "trunc.grid"
        save_semantic_grid(path, sem)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError):
            load_semantic_grid(path)
