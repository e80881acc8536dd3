"""Proxy metric unit behavior, and `evaluate_model` on one and on two
sampler processes."""

import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from portraitflow import sampling
from portraitflow.evalmetrics import (
    MetricReport,
    aggregate_reports,
    cosine_distance,
    dynamics_proxy,
    evaluate_model,
    identity_proxy,
    mask_bounding_box,
    sync_proxy,
    write_report,
)

REGION = (2, 6, 2, 6)

# evaluate_model on two forked workers, one of which is SIGKILLed by its
# own job (as the OOM killer would); prints the error raised and the
# children left
KILLED_WORKER = """
import json, multiprocessing, os, signal
from portraitflow import evalmetrics, sampling
from portraitflow.synthdata import generate_sample, make_corpus_specs
from portraitflow.training import TrainConfig, init_trainer
from tiny_configs import TINY_DIT, TINY_ENC, TINY_SYNTH

clips = [generate_sample(s, TINY_SYNTH) for s in make_corpus_specs(3, 0, TINY_SYNTH)]
state = init_trainer(TINY_DIT, TINY_ENC, TrainConfig(batch_size=2), clips)
cfg = sampling.SampleConfig(steps=2, seed=5, mode="frame")
sample_clip = evalmetrics._sample_clip


def die_on_second_clip(job):
    if job[2].seed == cfg.seed + 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return sample_clip(job)


evalmetrics._sample_clip = die_on_second_clip
os.sched_getaffinity = lambda pid: {0, 1}
try:
    evalmetrics.evaluate_model(state, clips, cfg)
    error = None
except Exception as exc:
    error = type(exc).__name__
print(json.dumps({"error": error, "children": len(multiprocessing.active_children())}))
"""


def video_with_mouth_series(series):
    video = np.full((len(series), 8, 8, 3), 0.3)
    for i, v in enumerate(series):
        video[i, 2:6, 2:6, :] = v
    return video


class TestSyncProxy:
    def test_perfect_correlation(self):
        drive = np.linspace(0.1, 0.9, 8)
        r, degenerate = sync_proxy(video_with_mouth_series(drive), drive, REGION)
        assert not degenerate
        assert r == pytest.approx(1.0, abs=1e-9)

    def test_perfect_anticorrelation(self):
        drive = np.linspace(0.1, 0.9, 8)
        r, _ = sync_proxy(video_with_mouth_series(1.0 - drive), drive, REGION)
        assert r == pytest.approx(-1.0, abs=1e-9)

    def test_zero_variance_is_degenerate_zero(self):
        drive = np.full(8, 0.5)
        r, degenerate = sync_proxy(video_with_mouth_series(drive), drive, REGION)
        assert degenerate and r == 0.0

    def test_independent_series_rarely_correlate(self):
        # null distribution at 64 frames: |r| < 0.3 in at least 95% of seeds
        hits = 0
        n = 200
        for seed in range(n):
            rng = np.random.default_rng(seed)
            video = video_with_mouth_series(rng.random(64))
            r, _ = sync_proxy(video, rng.random(64), REGION)
            hits += abs(r) < 0.3
        assert hits / n >= 0.95

    def test_region_bounds_checked(self):
        with pytest.raises(ValueError, match="region"):
            sync_proxy(np.zeros((4, 8, 8, 3)), np.zeros(4), (2, 12, 0, 4))

    def test_needs_three_frames(self):
        with pytest.raises(ValueError, match="3 frames"):
            sync_proxy(np.zeros((2, 8, 8, 3)), np.zeros(2), REGION)

    def test_envelope_length_checked(self):
        with pytest.raises(ValueError, match="per frame"):
            sync_proxy(np.zeros((4, 8, 8, 3)), np.zeros(5), REGION)

    def test_brightness_offset_invariance(self):
        drive = np.linspace(0.2, 0.8, 8)
        video = video_with_mouth_series(drive)
        r1, _ = sync_proxy(video, drive, REGION)
        r2, _ = sync_proxy(np.clip(video + 0.1, 0, 2), drive, REGION)
        assert r1 == pytest.approx(r2, abs=1e-9)


class TestIdentityProxy:
    def test_repeated_reference_frame_scores_zero(self):
        frame = np.random.default_rng(0).random((8, 8, 3))
        video = np.tile(frame, (5, 1, 1, 1))
        err = identity_proxy(video, frame, lambda f: f[1:5, 1:5].reshape(-1))
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_cosine_distance_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = rng.standard_normal(6), rng.standard_normal(6)
            assert cosine_distance(a, b) == pytest.approx(cosine_distance(b, a))
            assert cosine_distance(a, b) >= 0.0

    def test_cosine_distance_at_zero_norm(self):
        # two silent embeddings agree; a silent and a live one share nothing
        zero, live = np.zeros(4), np.array([0.0, 1.0, 2.0, 0.0])
        assert cosine_distance(zero, zero) == 0.0
        assert cosine_distance(zero, live) == 1.0
        assert cosine_distance(live, zero) == 1.0

    def test_distinct_content_scores_positive(self):
        rng = np.random.default_rng(2)
        video = rng.random((4, 8, 8, 3))
        ref = rng.random((8, 8, 3))
        err = identity_proxy(video, ref, lambda f: f[1:5, 1:5].reshape(-1))
        assert err > 0.0


class TestDynamicsProxy:
    def test_static_video_scores_zero(self):
        video = np.tile(np.random.default_rng(0).random((6, 6, 3)), (4, 1, 1, 1))
        mask = np.zeros((6, 6))
        mask[2:4, 2:4] = 1.0
        assert dynamics_proxy(video, mask) == (0.0, 0.0)

    def test_motion_confined_to_foreground(self):
        video = np.zeros((4, 6, 6, 3))
        for i in range(4):
            video[i, 2:4, 2:4, :] = i / 3.0
        mask = np.zeros((6, 6))
        mask[2:4, 2:4] = 1.0
        sd, bd = dynamics_proxy(video, mask)
        assert bd == 0.0 and sd > 0.0

    def test_linear_scaling_with_displacement(self):
        # hard-edged blob translating k columns per frame: the changed
        # area (hence the mean difference) grows linearly in k
        scores = []
        for k in (1, 2, 3):
            video = np.zeros((4, 8, 32, 3))
            for i in range(4):
                video[i, 2:6, 4 + k * i:12 + k * i, :] = 1.0
            sd, _ = dynamics_proxy(video, np.ones((8, 32)))
            scores.append(sd)
        assert scores[1] == pytest.approx(2 * scores[0], rel=1e-6)
        assert scores[2] == pytest.approx(3 * scores[0], rel=1e-6)

    def test_additive_over_disjoint_regions(self):
        rng = np.random.default_rng(3)
        video = rng.random((5, 6, 6, 3))
        mask = np.zeros((6, 6))
        mask[:3] = 1.0
        sd, bd = dynamics_proxy(video, mask)
        total, _ = dynamics_proxy(video, np.ones((6, 6)))
        n_fg, n_bg = 18, 18
        assert total == pytest.approx((n_fg * sd + n_bg * bd) / (n_fg + n_bg), rel=1e-9)

    def test_brightness_offset_invariance(self):
        rng = np.random.default_rng(4)
        video = rng.random((4, 6, 6, 3))
        mask = np.zeros((6, 6))
        mask[1:3, 1:3] = 1.0
        assert dynamics_proxy(video, mask) == pytest.approx(
            dynamics_proxy(video + 0.2, mask))

    def test_needs_two_frames(self):
        with pytest.raises(ValueError, match="2 frames"):
            dynamics_proxy(np.zeros((1, 4, 4, 3)), np.zeros((4, 4)))


class TestReporting:
    def test_mask_bounding_box(self):
        mask = np.zeros((3, 8, 8))
        mask[:, 2:5, 3:7] = 1.0
        assert mask_bounding_box(mask) == (2, 5, 3, 7)
        with pytest.raises(ValueError, match="empty"):
            mask_bounding_box(np.zeros((4, 4)))

    def test_aggregate_and_write(self, tmp_path):
        rows = [{"sync_r": 0.5, "sync_degenerate": False, "id_err": 0.1,
                 "sd": 0.02, "bd": 0.01},
                {"sync_r": 0.7, "sync_degenerate": False, "id_err": 0.3,
                 "sd": 0.04, "bd": 0.03}]
        report = aggregate_reports(rows)
        assert report.sync_r == pytest.approx(0.6)
        assert report.samples == 2
        write_report(tmp_path, report, rows)
        assert (tmp_path / "metrics.txt").exists()
        lines = (tmp_path / "metrics.jsonl").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_aggregate_of_no_rows_rejected(self):
        with pytest.raises(ValueError, match="no per-sample metric rows"):
            aggregate_reports([])

    def test_report_table_renders(self):
        table = MetricReport(0.5, 0.1, 0.2, 0.05, samples=4).table()
        assert "sync_r" in table and "bd" in table


class TestWorkers:
    CFG = sampling.SampleConfig(steps=3, seed=5, mode="frame")

    @pytest.fixture
    def parent_calls(self, monkeypatch):
        """Records each `sampling.sample` call made in this process."""
        calls = []
        real_sample = sampling.sample
        monkeypatch.setattr(sampling, "sample",
                            lambda *args: calls.append(args) or real_sample(*args))
        return calls

    @staticmethod
    def evaluate(monkeypatch, tiny_state, clips, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        report, rows = evaluate_model(tiny_state[0], clips, TestWorkers.CFG)
        return report.to_json() + json.dumps(rows)

    def test_two_workers_match_one_byte_for_byte(self, tiny_state, parent_calls,
                                                 monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        clips = tiny_state[1][:3]
        pooled = self.evaluate(monkeypatch, tiny_state, clips, cpus=2)
        assert len(parent_calls) == 0
        assert multiprocessing.active_children() == []
        assert self.evaluate(monkeypatch, tiny_state, clips, cpus=1) == pooled
        assert len(parent_calls) == 3

    def test_unpinned_blas_keeps_eval_in_process(self, tiny_state, parent_calls,
                                                 monkeypatch):
        # OpenBLAS runs one thread per CPU when unpinned: two forked workers
        # on two CPUs would each run two BLAS threads (2.9 s -> 12.6 s)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        self.evaluate(monkeypatch, tiny_state, tiny_state[1][:3], cpus=2)
        assert len(parent_calls) == 3

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_worker_error_reaches_the_caller(self, tiny_state, monkeypatch, cpus):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        clips = list(tiny_state[1][:3])
        envelope = clips[1].envelope.copy()
        envelope[3] = np.nan
        clips[1] = dataclasses.replace(clips[1], envelope=envelope)
        with pytest.raises(ValueError, match="audio envelope holds non-finite values"):
            self.evaluate(monkeypatch, tiny_state, clips, cpus)
        assert multiprocessing.active_children() == []

    def test_killed_worker_fails_the_eval_and_leaves_no_child(self):
        # the script runs in a session of its own, so a hung eval is killed
        # together with its workers when the timeout expires
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            [str(Path(sampling.__file__).parents[1]), str(Path(__file__).parent)]))
        proc = subprocess.Popen([sys.executable, "-c", KILLED_WORKER], env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("evaluate_model still running 60 s after a worker was killed")
        assert proc.returncode == 0, err
        assert json.loads(out.splitlines()[-1]) == {"error": "BrokenProcessPool", "children": 0}
