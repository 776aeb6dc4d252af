"""Training loops: schedules, checkpoints, resume, divergence, distillation."""

import os

import numpy as np
import pytest

from canopyheights import datapipe as dp
from canopyheights import nn, optim
from canopyheights import train as tr
from canopyheights.hytec import HyTecConfig
from canopyheights.losses import AdaptiveLossState
from canopyheights.tensor import Tensor
from canopyheights.unet import unet_forward


def tiny_samples(n_tiles=3, size=32, seed=21, shots=60):
    tiles = dp.synth_dataset(n_tiles, size, seed=seed, shots_per_tile=shots,
                             violation_rate=0.0)
    return tr.samples_from_tiles(tiles)


def tiny_settings(**kw):
    args = dict(arch="2mou", epochs=2, batch_size=2, seed=0, stem_width=4,
                base_lr=1e-2)
    args.update(kw)
    return tr.TrainSettings(**args)


class TestSchedules:
    def test_cosine_decay_endpoints(self):
        assert optim.cosine_lr(0, 100, 1e-2) == pytest.approx(1e-2)
        assert optim.cosine_lr(50, 100, 1e-2) == pytest.approx(5e-3)
        assert optim.cosine_lr(100, 100, 1e-2) == pytest.approx(0.0, abs=1e-12)

    def test_warmup_then_cosine(self):
        lr0 = optim.warmup_cosine_lr(0, 20, 1e-6, 1e-4, 100)
        lr20 = optim.warmup_cosine_lr(20, 20, 1e-6, 1e-4, 100)
        lr10 = optim.warmup_cosine_lr(10, 20, 1e-6, 1e-4, 100)
        assert lr0 == pytest.approx(1e-6)
        assert lr20 == pytest.approx(1e-4)
        assert lr0 < lr10 < lr20
        assert optim.warmup_cosine_lr(60, 20, 1e-6, 1e-4, 100) < lr20


class TestUnetTraining:
    def test_loss_decreases_and_trace_schema(self):
        samples = tiny_samples()
        res = tr.train_unet(samples, tiny_settings(epochs=8))
        assert len(res.trace[0]) == len(tr.TRACE_COLUMNS)
        first = res.trace[0][2]
        last = res.trace[-1][2]
        assert last < first

    def test_dual_head_trace_has_ce_and_reg(self):
        samples = tiny_samples()
        res = tr.train_unet(samples, tiny_settings(arch="2mdu", epochs=1))
        row = res.trace[0]
        ce, reg = row[6], row[7]
        assert ce > 0 and reg > 0

    def test_adaptive_state_exists_only_for_alpha_variant(self):
        samples = tiny_samples()
        assert tr.train_unet(samples, tiny_settings(epochs=1)).adaptive is None
        res = tr.train_unet(samples, tiny_settings(arch="a2mdu", epochs=1))
        assert res.adaptive is not None

    def test_same_seed_reproduces_parameters(self):
        samples = tiny_samples()
        a = tr.train_unet(samples, tiny_settings(epochs=2))
        b = tr.train_unet(samples, tiny_settings(epochs=2))
        ea, eb = optim.export_arrays(a.params), optim.export_arrays(b.params)
        assert set(ea) == set(eb)
        for k in ea:
            np.testing.assert_array_equal(ea[k], eb[k])

    def test_nan_target_aborts_with_diagnostics(self):
        samples = tiny_samples()
        bad = samples[0]
        i, j = np.argwhere(bad.mask)[0]
        bad.target_h[i, j] = np.nan
        with pytest.raises(tr.TrainingDiverged):
            tr.train_unet(samples, tiny_settings(epochs=1))


def _small_checkpoint(directory, epoch=0):
    """A batch-norm state as the model, an adaptive loss and extra arrays
    of each rank a training checkpoint holds, saved as one epoch."""
    model = nn.init_bn(3)
    model.gamma.data[...] = [0.5, 1.5, 2.5]
    model.running_var[...] = [3.0, 4.0, 5.0]
    adaptive = AdaptiveLossState.create(alpha=1.25)
    extra = {"adam_t": np.asarray(7),
             "adam_m.gamma": np.arange(3.0),
             "trace": np.arange(16.0).reshape(2, len(tr.TRACE_COLUMNS))}
    path = tr.save_checkpoint(str(directory), epoch, model, adaptive,
                              extra=extra)
    return path, model, adaptive, extra


class TestCheckpointing:
    def test_keep_last_three(self, tmp_path):
        samples = tiny_samples()
        st = tiny_settings(epochs=5, checkpoint_dir=str(tmp_path))
        tr.train_unet(samples, st)
        files = sorted(os.listdir(tmp_path))
        assert files == ["epoch_0002.ckpt", "epoch_0003.ckpt",
                         "epoch_0004.ckpt"]

    def test_checkpoint_roundtrip(self, tmp_path):
        path, model, adaptive, extra = _small_checkpoint(tmp_path)
        assert path == str(tmp_path / "epoch_0000.ckpt")
        fresh, fresh_adaptive = nn.init_bn(3), AdaptiveLossState.create()
        left = tr.load_checkpoint(path, fresh, fresh_adaptive)
        for name, arr in optim.export_arrays(model).items():
            np.testing.assert_array_equal(optim.export_arrays(fresh)[name],
                                          arr)
        assert fresh_adaptive.alpha.data.shape == ()
        assert fresh_adaptive.alpha_value == adaptive.alpha_value
        assert fresh_adaptive.c_value == adaptive.c_value
        assert set(left) == set(extra)
        for name, arr in extra.items():
            assert left[name].shape == arr.shape
            np.testing.assert_array_equal(left[name], arr)

    def test_load_from_directory_takes_newest_epoch(self, tmp_path):
        _small_checkpoint(tmp_path, epoch=0)
        _, model, _, _ = _small_checkpoint(tmp_path, epoch=1)
        model.beta.data[...] = 9.0
        tr.save_checkpoint(str(tmp_path), 2, model, None)
        fresh = nn.init_bn(3)
        tr.load_checkpoint(str(tmp_path), fresh)
        np.testing.assert_array_equal(fresh.beta.data, 9.0)
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError, match="no checkpoint"):
            tr.load_checkpoint(str(tmp_path / "empty"), fresh)

    def test_truncated_checkpoint_names_the_file(self, tmp_path):
        _small_checkpoint(tmp_path)
        path = tmp_path / "epoch_0000.ckpt"
        whole = path.read_bytes()
        # every proper prefix, including cuts between two arrays
        for keep in range(len(whole)):
            path.write_bytes(whole[:keep])
            with pytest.raises(ValueError, match="epoch_0000.ckpt"):
                tr.load_checkpoint(str(path), nn.init_bn(3),
                                   AdaptiveLossState.create())

    def test_checkpoint_of_another_arch_is_rejected(self, tmp_path):
        mou, _ = tr.make_unet("2mou", np.random.default_rng(0), 4)
        path = tr.save_checkpoint(str(tmp_path), 0, mou, None)
        mdu, _ = tr.make_unet("2mdu", np.random.default_rng(1), 4)
        before = {k: v.copy() for k, v in optim.export_arrays(mdu).items()}
        with pytest.raises(ValueError, match="epoch_0000.ckpt") as err:
            tr.load_checkpoint(path, mdu)
        assert "head.conv_cls.kernel" in str(err.value)
        for name, arr in optim.export_arrays(mdu).items():
            np.testing.assert_array_equal(arr, before[name])

    def test_failed_save_keeps_the_previous_epoch(self, tmp_path,
                                                  monkeypatch):
        samples = tiny_samples()
        full = tr.train_unet(samples, tiny_settings(
            arch="a2mdu", epochs=4, checkpoint_dir=str(tmp_path / "full")))
        part = tmp_path / "part"
        write_record = tr.write_record

        def failing(fh, arr):
            if fh.name.endswith("epoch_0002.ckpt.tmp") and fh.tell() > 4096:
                raise OSError("no space left on device")
            write_record(fh, arr)
        monkeypatch.setattr(tr, "write_record", failing)
        st = tiny_settings(arch="a2mdu", epochs=4, checkpoint_dir=str(part))
        with pytest.raises(OSError):
            tr.train_unet(samples, st)
        assert not (part / "epoch_0002.ckpt.tmp").exists()
        assert tr.latest_checkpoint(str(part)) == (
            1, str(part / "epoch_0001.ckpt"))

        monkeypatch.setattr(tr, "write_record", write_record)
        resumed = tr.train_unet(samples, st, resume=True)
        assert resumed.trace == full.trace
        ef, er = (optim.export_arrays(full.params),
                  optim.export_arrays(resumed.params))
        for k in ef:
            np.testing.assert_array_equal(ef[k], er[k])
        assert resumed.adaptive.alpha_value == full.adaptive.alpha_value
        assert resumed.adaptive.c_value == full.adaptive.c_value
        assert sorted(os.listdir(part)) == ["epoch_0001.ckpt",
                                            "epoch_0002.ckpt",
                                            "epoch_0003.ckpt"]

    def test_resume_is_bit_exact(self, tmp_path):
        samples = tiny_samples()
        full_dir, part_dir = tmp_path / "full", tmp_path / "part"
        full = tr.train_unet(samples, tiny_settings(
            epochs=4, checkpoint_dir=str(full_dir), keep_last=10))
        # replay: train the same schedule but stop by copying an early
        # checkpoint directory and resuming from it
        tr.train_unet(samples, tiny_settings(
            epochs=4, checkpoint_dir=str(part_dir), keep_last=10))
        for late in ("epoch_0002.ckpt", "epoch_0003.ckpt"):
            os.remove(part_dir / late)
        resumed = tr.train_unet(samples, tiny_settings(
            epochs=4, checkpoint_dir=str(part_dir), keep_last=10),
            resume=True)
        ef, er = (optim.export_arrays(full.params),
                  optim.export_arrays(resumed.params))
        for k in ef:
            np.testing.assert_array_equal(ef[k], er[k])

    def test_resume_keeps_the_whole_trace(self, tmp_path):
        samples = tiny_samples()
        st = tiny_settings(epochs=4, checkpoint_dir=str(tmp_path),
                           keep_last=10)
        full = tr.train_unet(samples, st)
        for late in ("epoch_0002.ckpt", "epoch_0003.ckpt"):
            os.remove(tmp_path / late)
        resumed = tr.train_unet(samples, st, resume=True)
        assert resumed.trace == full.trace
        assert all(type(row[0]) is int for row in resumed.trace)
        assert all(type(v) is float for row in resumed.trace for v in row[1:])

    def test_adamw_resume_is_bit_exact(self, tmp_path):
        samples = tiny_samples(n_tiles=2)
        teachers = _make_teachers(samples)
        cfg = HyTecConfig.desk_scale(image_size=32, patch=8, embed_dim=16,
                                     blocks=4, heads=2, l_hat=16)
        base = dict(arch="hytec", epochs=3, batch_size=2, seed=3,
                    warmup_epochs=1, lr_peak=1e-3, keep_last=10)
        full = tr.train_hytec(samples, teachers, tr.TrainSettings(
            **base, checkpoint_dir=str(tmp_path / "full")), cfg=cfg)
        tr.train_hytec(samples, teachers, tr.TrainSettings(
            **base, checkpoint_dir=str(tmp_path / "part")), cfg=cfg)
        os.remove(tmp_path / "part" / "epoch_0002.ckpt")
        resumed = tr.train_hytec(samples, teachers, tr.TrainSettings(
            **base, checkpoint_dir=str(tmp_path / "part")), cfg=cfg,
            resume=True)
        ef, er = (optim.export_arrays(full.params),
                  optim.export_arrays(resumed.params))
        for k in ef:
            np.testing.assert_array_equal(ef[k], er[k])
        assert resumed.trace == full.trace
        assert resumed.adaptive.alpha_value == full.adaptive.alpha_value
        assert resumed.adaptive.c_value == full.adaptive.c_value

    def test_trace_csv_roundtrip(self, tmp_path):
        samples = tiny_samples()
        res = tr.train_unet(samples, tiny_settings(epochs=1))
        path = tmp_path / "trace.csv"
        tr.write_trace(res.trace, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(tr.TRACE_COLUMNS)
        assert len(lines) == len(res.trace) + 1
        for line, row in zip(lines[1:], res.trace):
            cells = line.split(",")
            assert int(cells[0]) == row[0]
            assert [float(c) for c in cells[1:]] == row[1:]


def _make_teachers(samples):
    out = []
    for arch, mod in [("teacher_s1", "s1"), ("teacher_s2", "s2")]:
        res = tr.train_unet(samples, tiny_settings(arch=arch, epochs=2))
        out.append(tr.Teacher(res.params, res.config, mod))
    return out


class TestDistillation:
    def test_block_reduce_validity_rule(self):
        value = np.arange(16.0).reshape(4, 4)
        mask = np.zeros((4, 4))
        mask[:2, :2] = 1.0          # one quadrant fully valid
        mask[0, 2] = 1.0            # 25% valid -> invalid coarse pixel
        out, om = tr._block_reduce(value, mask, 2)
        assert om[0, 0] == 1.0 and om[0, 1] == 0.0
        assert out[0, 0] == pytest.approx(value[:2, :2].mean())
        assert out[0, 1] == 0.0

    def test_aux_targets_three_levels(self):
        rng = np.random.default_rng(5)
        t1 = rng.uniform(5, 25, (32, 32))
        t2 = t1 * rng.uniform(0.97, 1.03, (32, 32))
        levels = tr.aux_targets_from_teachers(t1, t2, patch=8, tol=0.10)
        assert [v.shape for v, _ in levels] == [(4, 4), (8, 8), (16, 16)]
        assert all(m.max() <= 1.0 for _, m in levels)

    def test_hytec_training_decreases_loss(self):
        samples = tiny_samples(n_tiles=2)
        teachers = _make_teachers(samples)
        cfg = HyTecConfig.desk_scale(image_size=32, patch=8, embed_dim=16,
                                     blocks=4, heads=2, l_hat=16)
        st = tr.TrainSettings(arch="hytec", epochs=12, batch_size=2, seed=4,
                              warmup_epochs=2, lr_peak=1e-3)
        res = tr.train_hytec(samples, teachers, st, cfg=cfg)
        assert res.trace[-1][2] < res.trace[0][2]
        # aux trace parts populated
        assert any(row[3] > 0 for row in res.trace)

    def test_needs_exactly_two_teachers(self):
        samples = tiny_samples(n_tiles=1)
        with pytest.raises(ValueError):
            tr.train_hytec(samples, [], tr.TrainSettings(arch="hytec"))

    def test_targets_built_once_per_run(self, monkeypatch, tmp_path):
        samples = tiny_samples(n_tiles=3)
        teachers = _make_teachers(samples)
        calls = {"teacher": 0, "bins": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(tr, "teacher_heights",
                            counted("teacher", tr.teacher_heights))
        monkeypatch.setattr(tr, "bin_assign_map",
                            counted("bins", tr.bin_assign_map))
        cfg = HyTecConfig.desk_scale(image_size=32, patch=8, embed_dim=16,
                                     blocks=4, heads=2, l_hat=16)
        st = tr.TrainSettings(arch="hytec", epochs=3, batch_size=2, seed=4,
                              warmup_epochs=1, lr_peak=1e-3,
                              checkpoint_dir=str(tmp_path))
        tr.train_hytec(samples, teachers, st, cfg=cfg)
        assert calls == {"teacher": 2 * 3, "bins": 3}
        # a resumed run rebuilds the targets the same way
        tr.train_hytec(samples, teachers, st, cfg=cfg, resume=True)
        assert calls == {"teacher": 2 * 3 * 2, "bins": 3 * 2}

        calls.update(teacher=0, bins=0)
        tr.train_unet(samples, tiny_settings(arch="a2mdu", epochs=3))
        assert calls == {"teacher": 0, "bins": 3}

    def test_inference_builds_no_graph(self, monkeypatch):
        samples = tiny_samples(n_tiles=1)
        s = samples[0]
        res = tr.train_unet(samples, tiny_settings(arch="a2mdu", epochs=1))
        optim.set_bn_mode(res.params, "eval")
        graph = unet_forward(Tensor(s.s2), Tensor(s.s1), res.params,
                             res.config)
        assert graph.height._grad_fn is not None
        nodes = []
        from_op = Tensor.from_op

        def recording(data, parents, grad_fn):
            out = from_op(data, parents, grad_fn)
            nodes.append(out)
            return out
        monkeypatch.setattr(Tensor, "from_op", staticmethod(recording))
        pred = tr.predict_heights(res.params, res.config, s)
        assert np.array_equal(pred, graph.height.data)
        assert nodes and all(n._grad_fn is None and not n._parents
                             for n in nodes)

    def test_predict_heights_positive_for_all_models(self):
        samples = tiny_samples(n_tiles=1)
        s = samples[0]
        for arch in ("2mou", "2mdu", "a2mdu"):
            res = tr.train_unet(samples, tiny_settings(arch=arch, epochs=1))
            pred = tr.predict_heights(res.params, res.config, s)
            assert pred.shape == s.target_h.shape
            assert (pred > 0).all()
