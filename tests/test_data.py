import warnings

import numpy as np
import pytest

from trajlab.data import (ARRIVE_RADIUS, SyntheticSceneConfig, Track,
                          generate_synthetic, leave_one_scene_out,
                          make_semantic_grid, make_windows,
                          parse_trajectory_file, tail_windows,
                          write_trajectory_file)


def straight_track(length, agent=0, frame_step=1, scene="s"):
    frames = np.arange(length) * frame_step
    xy = np.stack([np.arange(length, dtype=float), np.zeros(length)], axis=1)
    return Track(scene, agent, frames, xy)


class TestParsing:
    def test_parses_space_separated_rows(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text("780 1.0 8.46 3.59\n790 1.0 8.99 3.61\n780 2 1.0 2.0\n")
        tracks = parse_trajectory_file(path, scene_id="eth")
        assert [t.agent_id for t in tracks] == [1, 2]
        t1 = tracks[0]
        np.testing.assert_array_equal(t1.frames, [780, 790])
        np.testing.assert_allclose(t1.xy, [[8.46, 3.59], [8.99, 3.61]])
        assert t1.scene_id == "eth"

    def test_sorts_by_frame(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text("20 1 2.0 0.0\n10 1 1.0 0.0\n")
        (track,) = parse_trajectory_file(path)
        np.testing.assert_array_equal(track.frames, [10, 20])
        np.testing.assert_allclose(track.xy[:, 0], [1.0, 2.0])

    def test_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text("# header\n\n10 1 1.0 2.0\n")
        assert len(parse_trajectory_file(path)) == 1

    def test_duplicate_observation_reports_line(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text("10 1 1.0 2.0\n10 1 3.0 4.0\n")
        with pytest.raises(ValueError, match="^line 2: duplicate"):
            parse_trajectory_file(path)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text("10 1 1.0\n")
        with pytest.raises(ValueError, match="^line 1: expected 4 fields"):
            parse_trajectory_file(path)

    def test_non_numeric_field_rejected(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text("10 1 abc 2.0\n")
        with pytest.raises(ValueError, match="^line 1: unparseable"):
            parse_trajectory_file(path)

    @pytest.mark.parametrize("text, message", [
        ("1.5 3 1 2\n2 3 1 2\n", "line 1: frame 1.5"),
        ("1 3 1 2\n2 3.9 1 2\n", "line 2: agent 3.9"),
        ("1 3 1 2\ninf 3 1 2\n", "line 2: frame inf")])
    def test_non_integral_id_rejected(self, tmp_path, text, message):
        # truncated, "1.5 3 1 2" and "2 3.9 1 2" read as one two-frame track of agent 3
        path = tmp_path / "scene.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{message} is not an integer$"):
            parse_trajectory_file(path)

    def test_empty_file_gives_no_tracks_and_no_warning(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parse_trajectory_file(path) == []

    def test_round_trip(self, tmp_path):
        tracks = [straight_track(5, agent=3), straight_track(4, agent=7, frame_step=10)]
        path = tmp_path / "out.txt"
        write_trajectory_file(path, tracks)
        back = parse_trajectory_file(path, scene_id="s")
        assert len(back) == 2
        for a, b in zip(tracks, back):
            assert a.agent_id == b.agent_id
            np.testing.assert_array_equal(a.frames, b.frames)
            np.testing.assert_allclose(a.xy, b.xy, atol=1e-6)


class TestWindows:
    def test_l25_gives_six_windows(self):
        ws = make_windows([straight_track(25)], t_h=8, t_f=12, stride=1)
        assert len(ws) == 6
        assert all(w.history.shape == (8, 2) and w.future.shape == (12, 2) for w in ws)

    def test_l19_too_short(self):
        assert make_windows([straight_track(19)], 8, 12, 1) == []

    def test_l20_exactly_one(self):
        assert len(make_windows([straight_track(20)], 8, 12, 1)) == 1

    def test_stride_five(self):
        assert len(make_windows([straight_track(40)], 8, 12, stride=5)) == 5

    def test_history_future_contiguous(self):
        (w,) = make_windows([straight_track(20)], 8, 12, 1)
        np.testing.assert_allclose(w.history[:, 0], np.arange(8))
        np.testing.assert_allclose(w.future[:, 0], np.arange(8, 20))

    def test_frame_gap_splits_track(self):
        # 15 frames, gap, 15 frames: no window may span the gap
        frames = np.concatenate([np.arange(15), np.arange(100, 115)])
        xy = np.zeros((30, 2))
        xy[:, 0] = np.arange(30)
        ws = make_windows([Track("s", 0, frames, xy)], 8, 7, 1)
        assert len(ws) == 2
        for w in ws:
            assert np.max(np.abs(np.diff(np.concatenate([w.history, w.future])[:, 0]))) == 1.0

    def test_frame_base_is_first_frame_id(self):
        # step-10 frames: 200..410 (22 frames), gap, 500..690 (20 frames)
        frames = np.concatenate([np.arange(200, 420, 10), np.arange(500, 700, 10)])
        xy = np.stack([np.arange(42, dtype=float), np.zeros(42)], axis=1)
        ws = make_windows([Track("s", 0, frames, xy)], 8, 12, stride=1)
        assert [w.frame_base for w in ws] == [200, 210, 220, 500]
        assert [w.history[0, 0] for w in ws] == [0.0, 1.0, 2.0, 22.0]
        tail, = tail_windows([Track("s", 0, frames, xy)], 8, 12)
        assert tail.frame_base == 500

    def test_frame_step_is_the_scenes_not_the_tracks(self):
        # the scene steps by 10; a track observed every 20 frames has a gap at
        # every step, so no window of it may span frames 0-380
        sparse = straight_track(20, agent=1, frame_step=20)
        dense = straight_track(30, agent=2, frame_step=10)
        ws = make_windows([sparse, dense], 8, 12, 1)
        assert {w.agent_id for w in ws} == {2}
        assert [w.agent_id for w in tail_windows([sparse, dense], 8, 12)] == [2]
        assert len(make_windows([sparse], 8, 12, 1)) == 1  # alone, it sets its scene's step
        other = straight_track(30, 2, 10, scene="t")
        assert make_windows([sparse, other], 8, 12, 1)[0].agent_id == 1

    def test_subsampled_frames_accepted(self):
        ws = make_windows([straight_track(20, frame_step=10)], 8, 12, 1)
        assert len(ws) == 1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            make_windows([], t_h=0, t_f=12, stride=1)

    def test_tail_window_ends_at_track_end(self):
        track = straight_track(33)
        (w,) = tail_windows([track], 8, 12)
        np.testing.assert_array_equal(w.future[-1], track.xy[-1])

    def test_tail_of_gapped_step10_track(self):
        # step-10 frames 0..290 (30 frames), gap, 500..590 (10 frames, too
        # short for a window): the tail is the last window before the gap
        frames = np.concatenate([np.arange(0, 300, 10), np.arange(500, 600, 10)])
        xy = np.stack([np.arange(40, dtype=float), np.zeros(40)], axis=1)
        (w,) = tail_windows([Track("s", 0, frames, xy)], 8, 12)
        assert w.frame_base == 100
        np.testing.assert_array_equal(w.future[-1], xy[29])

    def test_tail_skips_short_tracks(self):
        assert tail_windows([straight_track(10)], 8, 12) == []


class TestPartition:
    def test_leave_one_scene_out_partitions(self):
        ws = (make_windows([straight_track(20, scene="a")], 8, 12, 1)
              + make_windows([straight_track(25, scene="b")], 8, 12, 1)
              + make_windows([straight_track(21, scene="c")], 8, 12, 1))
        train, test = leave_one_scene_out(ws, "b")
        assert len(train) + len(test) == len(ws)
        assert {w.scene_id for w in test} == {"b"}
        assert "b" not in {w.scene_id for w in train}

    def test_unknown_scene_rejected(self):
        ws = make_windows([straight_track(20, scene="a")], 8, 12, 1)
        with pytest.raises(ValueError):
            leave_one_scene_out(ws, "zzz")


class TestSynthetic:
    def test_reproducible(self):
        cfg = SyntheticSceneConfig()
        t1, _, _ = generate_synthetic(cfg, 10, np.random.default_rng(42))
        t2, _, _ = generate_synthetic(cfg, 10, np.random.default_rng(42))
        for a, b in zip(t1, t2):
            assert np.array_equal(a.xy, b.xy)

    def test_agents_reach_anchors(self):
        cfg = SyntheticSceneConfig()
        tracks, _, anchors = generate_synthetic(cfg, 30, np.random.default_rng(0))
        for t in tracks:
            d = np.min(np.linalg.norm(anchors - t.xy[-1], axis=1))
            assert d < ARRIVE_RADIUS + cfg.speed_mean + 3 * cfg.speed_std

    def test_anchor_choice_roughly_uniform(self):
        cfg = SyntheticSceneConfig()
        tracks, _, anchors = generate_synthetic(cfg, 600, np.random.default_rng(1))
        ends = np.stack([t.xy[-1] for t in tracks])
        labels = np.argmin(np.linalg.norm(ends[:, None] - anchors[None], axis=2), axis=1)
        counts = np.bincount(labels, minlength=len(anchors))
        expected = len(tracks) / len(anchors)
        chi2 = np.sum((counts - expected) ** 2 / expected)
        assert chi2 < 13.8  # p ~ 0.001 at 2 dof

    def test_tracks_long_enough_for_windows(self):
        cfg = SyntheticSceneConfig()
        tracks, _, _ = generate_synthetic(cfg, 50, np.random.default_rng(2))
        assert sum(len(tail_windows([t], 8, 12)) for t in tracks) >= 45

    def test_obstacles_avoided(self):
        cfg = SyntheticSceneConfig(obstacles=((6.0, 4.0, 8.0, 12.0),))
        tracks, sem, _ = generate_synthetic(cfg, 20, np.random.default_rng(3))
        x0, y0, x1, y1 = cfg.obstacles[0]
        for t in tracks:
            inside = ((t.xy[:, 0] >= x0) & (t.xy[:, 0] <= x1)
                      & (t.xy[:, 1] >= y0) & (t.xy[:, 1] <= y1))
            assert not np.any(inside)

    def test_semantic_grid_channels(self):
        cfg = SyntheticSceneConfig(obstacles=((6.0, 4.0, 8.0, 12.0),))
        sem = make_semantic_grid(cfg)
        assert sem.channels.shape == (2, cfg.grid_size, cfg.grid_size)
        assert np.allclose(sem.channels.sum(axis=0), 1.0)
        assert sem.channels[1].sum() > 0
        # per-pixel reference; these edges fall on pixel centers (0.25 + 0.5 i)
        boxes = ((6.25, 4.0, 8.0, 12.25), (0.0, 0.75, 1.25, 3.0))
        cfg = SyntheticSceneConfig(obstacles=boxes)
        grid = cfg.grid_spec()
        want = np.zeros((grid.H, grid.W))
        for r in range(grid.H):
            for c in range(grid.W):
                x, y = grid.pixel_to_world(r, c)
                want[r, c] = any(x0 <= x <= x1 and y0 <= y <= y1 for x0, y0, x1, y1 in boxes)
        assert np.array_equal(make_semantic_grid(cfg).channels[1], want)

    def test_bad_agent_count(self):
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticSceneConfig(), 0, np.random.default_rng(0))
