"""Training loops: schedules, checkpoints, resume, divergence, distillation."""

import copy
import dataclasses
import os

import numpy as np
import pytest

from canopyheights import datapipe as dp
from canopyheights import nn, optim
from canopyheights import tensor as tensor_module
from canopyheights import train as tr
from canopyheights.hytec import HyTecConfig, init_hytec
from canopyheights.losses import AdaptiveLossState, HyTecLossConfig
from canopyheights.tensor import Tensor, no_grad, write_csv
from canopyheights.unet import DualHeadOutput, unet_forward


def tiny_samples(n_tiles=3, size=32, seed=21, shots=60):
    tiles = dp.synth_dataset(n_tiles, size, seed=seed, shots_per_tile=shots,
                             violation_rate=0.0)
    return tr.samples_from_tiles(tiles)


def running_stats_forward(monkeypatch, params, cfg, sample):
    """The graph-recording forward of a model whose every batch norm applies
    the running-statistics formula ``(y - mean) / sqrt(var + eps) * gamma
    + beta``."""
    def bn(x, s, tiles=1):
        inv = 1.0 / np.sqrt(s.running_var + nn.BN_EPS)
        out = (x.data - s.running_mean) * inv * s.gamma.data + s.beta.data
        return Tensor.from_op(out, (x,), lambda g: (g * inv * s.gamma.data,))
    with monkeypatch.context() as m:
        m.setattr(nn, "batch_norm", bn)
        return tr._forward(params, cfg, [sample], np.float64)


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

    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_settings_below_one_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            tiny_settings(**{field: value})

    @pytest.mark.parametrize("field", ["base_lr", "adaptive_lr", "lr_start",
                                       "lr_peak", "warmup_epochs"])
    @pytest.mark.parametrize("value", [-1, float("nan")])
    def test_negative_rates_rejected(self, field, value):
        with pytest.raises(ValueError,
                           match=f"{field} must not be negative, got {value}"):
            tiny_settings(**{field: value})
        tiny_settings(**{field: 0})

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

    def test_one_backward_per_optimizer_step(self, monkeypatch):
        roots = []
        from_root = tensor_module.Tape.from_root
        monkeypatch.setattr(tensor_module.Tape, "from_root", staticmethod(
            lambda root: roots.append(root) or from_root(root)))
        res = tr.train_unet(tiny_samples(), tiny_settings(epochs=2))
        assert len(res.trace) == 4           # 3 samples in batches of 2
        assert len(roots) == len(res.trace)
        assert [float(r.data) for r in roots] == [row[2] for row in res.trace]

    @staticmethod
    def lone_f64_losses(arch, samples):
        """Each sample's f64 loss under the trainer's initial parameters."""
        params, cfg = tr.make_unet(arch, np.random.default_rng(0), 4)
        adaptive = AdaptiveLossState.create() if arch == "a2mdu" else None
        losses = []
        for s in samples:
            out = unet_forward(*tr._model_input([s], cfg), params, cfg)
            losses.append(tr.unet_sample_loss(
                s, tr.unet_sample_target(s, cfg), out, HyTecLossConfig(),
                adaptive).item())
        return losses

    @pytest.mark.parametrize("arch", ["2mou", "a2mdu"])
    def test_batch_loss_is_the_mean_of_lone_sample_losses(self, arch):
        samples = tiny_samples()
        losses = self.lone_f64_losses(arch, samples)
        params, cfg = tr.make_unet(arch, np.random.default_rng(0), 4)
        adaptive = AdaptiveLossState.create() if arch == "a2mdu" else None
        values = tr._backward_batch(
            unet_forward(*tr._model_input(samples, cfg), params, cfg,
                         tiles=len(samples)),
            samples, [tr.unet_sample_target(s, cfg) for s in samples],
            tr.unet_sample_loss, HyTecLossConfig(), adaptive, 0)
        assert values[0] == pytest.approx(np.mean(losses), rel=1e-12)

    @pytest.mark.parametrize("arch", ["2mou", "a2mdu"])
    def test_first_step_loss_matches_the_f64_loss(self, arch):
        # the trainer's step runs in f32: ~1e-7 rounding per op compounds
        # through some twenty layers to ~1e-7..1e-6 of the loss
        samples = tiny_samples()
        res = tr.train_unet(samples, tiny_settings(arch=arch, epochs=1,
                                                   batch_size=3))
        assert res.trace[0][2] == pytest.approx(
            np.mean(self.lone_f64_losses(arch, samples)), rel=1e-5)

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

    def test_epochs_past_9999_rotate_and_resume_from_the_newest(self,
                                                                tmp_path):
        for epoch in range(9998, 10002):
            path, _, _, _ = _small_checkpoint(tmp_path, epoch=epoch)
        assert path == str(tmp_path / "epoch_10001.ckpt")
        assert sorted(os.listdir(tmp_path)) == [
            "epoch_10000.ckpt", "epoch_10001.ckpt", "epoch_9999.ckpt"]
        assert tr.latest_checkpoint(str(tmp_path)) == (10001, path)

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

    def test_bytes_after_the_declared_arrays_are_refused(self, tmp_path):
        path, _, _, _ = _small_checkpoint(tmp_path)
        with open(path, "ab") as fh:
            fh.write(b"adam_t\n")
        with pytest.raises(ValueError, match=r"epoch_0000.ckpt: 7 bytes "
                           r"after its \d+ arrays"):
            tr._read_arrays(path)

    def test_an_array_name_given_twice_is_refused(self, tmp_path):
        path, _, _, _ = _small_checkpoint(tmp_path)
        with open(path, "rb") as fh:
            header, body = fh.read().split(b"\n", 1)
        # declare one more array: "trace" again, after the last
        count = int(header.split()[1])
        with open(path, "wb") as fh:
            fh.write(b"CKPT/1 %d\n" % (count + 1) + body
                     + body[body.rindex(b"trace\n"):])
        with pytest.raises(ValueError, match="epoch_0000.ckpt: array 'trace' "
                           "appears twice"):
            tr._read_arrays(path)

    def test_an_array_name_that_is_not_utf8_names_the_file(self, tmp_path):
        path, _, _, _ = _small_checkpoint(tmp_path)
        with open(path, "rb") as fh:
            header, body = fh.read().split(b"\n", 1)
        # the first array's name starts with a byte UTF-8 never holds
        with open(path, "wb") as fh:
            fh.write(header + b"\n\xff" + body[1:])
        with pytest.raises(ValueError, match="epoch_0000.ckpt: the name of "
                           "array 0 is not UTF-8"):
            tr.load_checkpoint(path, nn.init_bn(3), AdaptiveLossState.create())

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

    def test_arrays_of_another_shape_are_rejected_before_any_restore(
            self, tmp_path):
        mou, _ = tr.make_unet("2mou", np.random.default_rng(0), 4)
        path = tr.save_checkpoint(str(tmp_path), 0, mou, None)
        arrays = tr._read_arrays(path)
        # a length-1 running statistic would broadcast into the model's
        arrays["cdbs.0.bn1.running_mean"] = arrays[
            "cdbs.0.bn1.running_mean"][:1]
        arrays["head.conv.kernel"] = arrays["head.conv.kernel"][..., :0]
        tr._write_arrays(path, arrays)
        fresh, _ = tr.make_unet("2mou", np.random.default_rng(1), 4)
        before = {k: v.copy() for k, v in optim.export_arrays(fresh).items()}
        with pytest.raises(ValueError, match="epoch_0000.ckpt") as err:
            tr.load_checkpoint(path, fresh)
        assert "cdbs.0.bn1.running_mean" in str(err.value)
        assert "head.conv.kernel" in str(err.value)
        for name, arr in optim.export_arrays(fresh).items():
            np.testing.assert_array_equal(arr, before[name])

    def test_an_adaptive_scalar_of_another_shape_is_rejected(self, tmp_path):
        path, _, _, _ = _small_checkpoint(tmp_path)
        arrays = tr._read_arrays(path)
        arrays["adaptive.c_raw"] = np.zeros(2)
        tr._write_arrays(path, arrays)
        fresh, adaptive = nn.init_bn(3), AdaptiveLossState.create()
        with pytest.raises(ValueError, match="adaptive.c_raw"):
            tr.load_checkpoint(path, fresh, adaptive)
        np.testing.assert_array_equal(fresh.gamma.data, 1.0)
        assert adaptive.c_raw.data.shape == ()

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
            epochs=4, checkpoint_dir=str(full_dir)))
        # replay: train the same schedule but stop by copying an early
        # checkpoint directory and resuming from it
        tr.train_unet(samples, tiny_settings(
            epochs=4, checkpoint_dir=str(part_dir)))
        for late in ("epoch_0002.ckpt", "epoch_0003.ckpt"):
            os.remove(part_dir / late)
        resumed = tr.train_unet(samples, tiny_settings(
            epochs=4, checkpoint_dir=str(part_dir)),
            resume=True)
        ef, er = (optim.export_arrays(full.params),
                  optim.export_arrays(resumed.params))
        for k in ef:
            np.testing.assert_array_equal(ef[k], er[k])

    def test_resume_keeps_the_whole_trace(self, tmp_path):
        samples = tiny_samples()
        st = tiny_settings(epochs=4, checkpoint_dir=str(tmp_path))
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
                    warmup_epochs=1, lr_peak=1e-3)
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
        write_csv(str(path), tr.TRACE_COLUMNS, res.trace)
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

    def test_teacher_refuses_a_modality_its_config_does_not_read(self):
        params, cfg = tr.make_unet("teacher_s1", None, stem_width=4)
        with pytest.raises(ValueError, match=r"s2 teacher .* \('s1',\)"):
            tr.Teacher(params, cfg, "s2")
        assert tr.Teacher(params, cfg, "s1").modality == "s1"

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
            tr.train_hytec(samples, [], tr.TrainSettings(arch="hytec"),
                           cfg=HyTecConfig())

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

    def test_targets_are_those_of_lone_teacher_maps(self, monkeypatch):
        """The teacher maps behind each sample's targets are, bit for bit,
        ``teacher_heights`` of that sample alone, and so are the targets."""
        samples = tiny_samples(n_tiles=3)
        teachers = _make_teachers(samples)
        cfg = HyTecConfig.desk_scale(image_size=32, patch=8, embed_dim=16,
                                     blocks=4, heads=2, l_hat=16)
        loss_cfg = HyTecLossConfig()
        seen = []
        aux_targets = tr.aux_targets_from_teachers
        monkeypatch.setattr(tr, "aux_targets_from_teachers",
                            lambda *args: seen.append(args[:2])
                            or aux_targets(*args))
        got = tr.hytec_sample_targets(samples, cfg, teachers, loss_cfg)
        monkeypatch.undo()
        assert len(got) == len(seen) == len(samples)
        for s, maps, (aux, target) in zip(samples, seen, got):
            lone = [tr.teacher_heights(t, s) for t in teachers]
            assert all(np.array_equal(m, w) for m, w in zip(maps, lone))
            want = tr.aux_targets_from_teachers(*lone, cfg.patch,
                                                loss_cfg.consensus_tol)
            assert len(aux) == len(want) == 3
            for (v, m), (wv, wm) in zip(aux, want):
                assert np.array_equal(v, wv) and np.array_equal(m, wm)
            ref = tr.bin_assign_map(s.target_h, s.mask > 0, cfg.bins)
            assert np.array_equal(target.t, ref.t)
            assert np.array_equal(target.mask, ref.mask)

    def test_inference_builds_no_graph(self, monkeypatch):
        samples = tiny_samples(n_tiles=1)
        s = samples[0]
        res = tr.train_unet(samples, tiny_settings(arch="a2mdu", epochs=1))
        graph = running_stats_forward(monkeypatch, res.params, res.config, s)
        assert graph.height._grad_fn is not None
        nodes = []
        from_op = Tensor.from_op

        def recording(data, parents, grad_fn):
            out = from_op(data, parents, grad_fn)
            nodes.append(out)
            return out
        monkeypatch.setattr(Tensor, "from_op", staticmethod(recording))
        pred = tr.predict_heights(res.params, res.config, s)
        # a U-Net predicts in f32 and widens its map to f64 on return
        assert pred.dtype == np.float64
        np.testing.assert_allclose(pred, graph.height.data, rtol=1e-4,
                                   atol=0)
        assert nodes and all(n._grad_fn is None and not n._parents
                             for n in nodes)

    def test_inference_walks_no_model(self, monkeypatch):
        """A prediction neither walks a model nor writes a byte of it."""
        s = tiny_samples(n_tiles=1)[0]
        models = [tr.make_unet(arch, np.random.default_rng(3), stem_width=4)
                  for arch in tr.UNET_ARCHS]
        hy_cfg = HyTecConfig.desk_scale(image_size=32, patch=8, embed_dim=16,
                                        blocks=4, heads=2, l_hat=16)
        models.append((init_hytec(np.random.default_rng(4), hy_cfg), hy_cfg))
        before = [{k: a.tobytes() for k, a in
                   optim.export_arrays(params).items()}
                  for params, _ in models]
        walks = []
        walk = optim._walk
        monkeypatch.setattr(optim, "_walk",
                            lambda *args: walks.append(args) or walk(*args))
        for params, cfg in models:
            tr.predict_heights(params, cfg, s)
        assert walks == []
        monkeypatch.undo()
        after = [{k: a.tobytes() for k, a in
                  optim.export_arrays(params).items()}
                 for params, _ in models]
        assert after == before

    def test_one_node_ops_train_as_their_oracles(self, monkeypatch):
        """A mini distillation with the formulas ``layer_norm``, ``linear``,
        ``gelu`` and ``softplus`` replaced (``test_nn``'s oracles) runs to
        the same parameter bytes, trace and predictions."""
        from test_nn import ONE_NODE_OPS
        samples = tiny_samples(n_tiles=2)
        teachers = _make_teachers(samples)
        cfg = HyTecConfig.desk_scale(image_size=32, patch=8, embed_dim=16,
                                     blocks=4, heads=2, l_hat=16)
        st = tr.TrainSettings(arch="hytec", epochs=2, batch_size=2, seed=3,
                              warmup_epochs=1, lr_peak=1e-3)

        def run():
            res = tr.train_hytec(samples, teachers, st, cfg=cfg)
            arrays = {k: a.tobytes()
                      for k, a in optim.export_arrays(res.params).items()}
            preds = [tr.predict_heights(res.params, res.config, s).tobytes()
                     for s in samples]
            return arrays, np.asarray(res.trace).tobytes(), preds

        fast = run()
        for name, (_, oracle) in ONE_NODE_OPS.items():
            monkeypatch.setattr(nn, name, oracle)
        assert run() == fast

    def test_predict_heights_positive_for_all_models(self):
        samples = tiny_samples(n_tiles=1)
        s = samples[0]
        for arch in ("2mou", "2mdu", "a2mdu"):
            res = tr.train_unet(samples, tiny_settings(arch=arch, epochs=1))
            pred = tr.predict_heights(res.params, res.config, s)
            assert pred.shape == s.target_h.shape
            assert (pred > 0).all()


def unet_with_bn_stats(arch):
    """A fresh stem-4 U-Net whose batch norms have non-trivial gamma, beta
    and running statistics."""
    params, cfg = tr.make_unet(arch, np.random.default_rng(8), stem_width=4)
    rng = np.random.default_rng(9)
    for _, bn in optim._walk(params):
        if isinstance(bn, nn.BatchNormState):
            c = bn.gamma.shape[0]
            bn.gamma.data[...] = rng.uniform(0.5, 1.5, c)
            bn.beta.data[...] = rng.normal(size=c)
            bn.running_mean = rng.normal(size=c)
            bn.running_var = rng.uniform(0.5, 2.0, c)
    return params, cfg


class TestEvalPrediction:
    """``predict_heights`` records no graph, so every batch norm uses its
    running statistics.  A U-Net predicts in ``WORK_DTYPE`` and returns
    f64: within 1e-4 relative of an f64 graph-recording forward whose
    batch norms apply the running-statistics formula.  Teacher maps and
    HyTeC run in f64: within 1e-12, and bit for bit."""

    @pytest.mark.parametrize("arch", tr.UNET_ARCHS)
    def test_unet_prediction_matches_the_graph_forward(self, arch,
                                                       monkeypatch):
        s = tiny_samples(n_tiles=1)[0]
        params, cfg = unet_with_bn_stats(arch)
        pred = tr.predict_heights(params, cfg, s)
        out = running_stats_forward(monkeypatch, params, cfg, s)
        ref = out.height if isinstance(out, DualHeadOutput) else out
        assert ref._grad_fn is not None
        assert pred.dtype == ref.dtype == np.float64
        np.testing.assert_allclose(pred, ref.data, rtol=1e-4, atol=0)

    @pytest.mark.parametrize("arch", ["teacher_s1", "teacher_s2"])
    def test_teacher_heights_match_the_graph_forward(self, arch,
                                                     monkeypatch):
        s = tiny_samples(n_tiles=1)[0]
        params, cfg = unet_with_bn_stats(arch)
        got = tr.teacher_heights(
            tr.Teacher(params, cfg, arch.split("_")[1]), s)
        ref = running_stats_forward(monkeypatch, params, cfg, s)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, ref.data, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("arch", tr.UNET_ARCHS)
    def test_unet_prediction_is_the_f32_model_forward(self, arch):
        """Bit for bit the ``no_grad`` f32 forward of a copy of the model
        whose parameters were cast to f32 up front; the batch norms keep
        f64 gamma and beta, whose scale and shift are cast."""
        s = tiny_samples(n_tiles=1)[0]
        params, cfg = unet_with_bn_stats(arch)
        f32 = copy.deepcopy(params)
        bn_params = {id(t) for _, bn in optim._walk(f32)
                     if isinstance(bn, nn.BatchNormState)
                     for t in (bn.gamma, bn.beta)}
        for _, t in optim._walk(f32):
            if isinstance(t, Tensor) and id(t) not in bn_params:
                t.data = t.data.astype(np.float32)
        pred = tr.predict_heights(params, cfg, s)
        with no_grad():
            ref = tr._heights(tr._forward(f32, cfg, [s], np.float32)).data
        assert ref.dtype == np.float32
        assert pred.tobytes() == ref.astype(np.float64).tobytes()

    def test_training_after_a_prediction_is_unchanged(self):
        """Two equal models, one of which predicted a tile first: one
        graph-recording forward and backward on each gives the same
        outputs, gradients and running statistics, bit for bit."""
        s = tiny_samples(n_tiles=1)[0]
        w = np.random.default_rng(10).normal(size=s.target_h.shape)
        runs = []
        for predict_first in (True, False):
            params, cfg = tr.make_unet("a2mdu", np.random.default_rng(8),
                                       stem_width=4)
            if predict_first:
                tr.predict_heights(params, cfg, s)
            out = tr._forward(params, cfg, [s], np.float64)
            (out.height * Tensor(w)).sum().backward()
            grads = {k: t.grad for k, t in
                     optim.collect_tensors(params).items()}
            runs.append((out.height.data, out.probs.data, grads,
                         optim.collect_state(params)))
        (h1, p1, g1, st1), (h2, p2, g2, st2) = runs
        assert h1.tobytes() == h2.tobytes() and p1.tobytes() == p2.tobytes()
        assert g1.keys() == g2.keys() and st1.keys() == st2.keys() and st1
        assert all(g1[k].tobytes() == g2[k].tobytes() for k in g1)
        assert all(st1[k].tobytes() == st2[k].tobytes() for k in st1)

    @pytest.mark.parametrize("arch", [*tr.UNET_ARCHS, "hytec"])
    def test_predict_maps_are_the_lone_predictions(self, arch):
        """Bit for bit ``predict_heights`` of each sample, in order, and
        the model keeps every byte."""
        samples = tiny_samples(n_tiles=3)
        if arch == "hytec":
            cfg = HyTecConfig.desk_scale(image_size=32, patch=8,
                                         embed_dim=16, blocks=4, heads=2,
                                         l_hat=16)
            params = init_hytec(np.random.default_rng(4), cfg)
        else:
            params, cfg = unet_with_bn_stats(arch)
        before = {k: a.tobytes() for k, a in
                  optim.export_arrays(params).items()}
        maps = tr.predict_maps(params, cfg, samples)
        assert {k: a.tobytes() for k, a in
                optim.export_arrays(params).items()} == before
        lone = [tr.predict_heights(params, cfg, s) for s in samples]
        assert len(maps) == len(lone)
        for got, want in zip(maps, lone):
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got, want)

    def test_predict_maps_run_each_tile_through_predict_heights(
            self, monkeypatch):
        samples = tiny_samples(n_tiles=3)
        params, cfg = unet_with_bn_stats("2mou")
        seen = []
        predict = tr.predict_heights
        monkeypatch.setattr(tr, "predict_heights",
                            lambda p, c, s: seen.append(s) or predict(p, c, s))
        tr.predict_maps(params, cfg, samples)
        assert len(seen) == len(samples)
        assert all(a is b for a, b in zip(seen, samples))

    def test_hytec_prediction_is_the_graph_forward(self):
        s = tiny_samples(n_tiles=1)[0]
        cfg = HyTecConfig.desk_scale(image_size=32, patch=8, embed_dim=16,
                                     blocks=4, heads=2, l_hat=16)
        params = init_hytec(np.random.default_rng(4), cfg)
        pred = tr.predict_heights(params, cfg, s)
        out = tr._forward(params, cfg, [s], np.float64).main.height
        assert out._grad_fn is not None
        assert np.array_equal(pred, out.data)


class TestModelInputs:
    """A U-Net reads the modalities its config names, whatever the bands
    of the others, and a sample lacking one is refused by name."""

    def test_teacher_s1_reads_s1_only(self):
        s = tiny_samples(n_tiles=1)[0]
        params, cfg = unet_with_bn_stats("teacher_s1")
        two_band = dataclasses.replace(s, s2=np.random.default_rng(11).normal(
            size=(*s.s2.shape[:2], 2)))
        assert (tr.predict_heights(params, cfg, two_band).tobytes()
                == tr.predict_heights(params, cfg, s).tobytes())

    def test_teacher_s2_refuses_an_s2_of_other_bands(self):
        s = tiny_samples(n_tiles=1)[0]
        params, cfg = unet_with_bn_stats("teacher_s2")
        with pytest.raises(ValueError,
                           match="channel mismatch: input 4, kernel 10"):
            tr.predict_heights(params, cfg,
                               dataclasses.replace(s, s2=s.s2[..., :4]))

    def test_teacher_s1_refuses_a_sample_without_s1(self):
        s = tiny_samples(n_tiles=1)[0]
        params, cfg = unet_with_bn_stats("teacher_s1")
        with pytest.raises(ValueError, match="reads s1; a sample lacks it"):
            tr.predict_heights(params, cfg, dataclasses.replace(s, s1=None))


class TestPrecision:
    """A training step runs in f32 on working copies of f64 masters."""

    @staticmethod
    def f64_leftovers(monkeypatch, train):
        """Run ``train`` and list every non-scalar array that is not f32
        among the values of graph nodes and the gradients their gradient
        functions return."""
        found = []
        from_op = Tensor.from_op

        def recording(data, parents, grad_fn):
            def checked(g):
                grads = grad_fn(g)
                found.extend(("adjoint", pg.shape, pg.dtype) for pg in grads
                             if pg is not None and pg.ndim
                             and pg.dtype != np.float32)
                return grads
            out = from_op(data, parents, checked)
            if out.requires_grad and data.ndim and data.dtype != np.float32:
                found.append(("node", data.shape, data.dtype))
            return out
        monkeypatch.setattr(Tensor, "from_op", staticmethod(recording))
        result = train()
        monkeypatch.undo()
        return found, result

    @pytest.mark.parametrize("arch", tr.UNET_ARCHS)
    def test_unet_step_holds_no_f64_array(self, arch, monkeypatch):
        samples = tiny_samples()
        found, res = self.f64_leftovers(monkeypatch, lambda: tr.train_unet(
            samples, tiny_settings(arch=arch, epochs=1, batch_size=3)))
        assert found == []
        grads = [t.grad for t in optim.collect_tensors(res.params).values()]
        assert all(g.dtype == np.float32 for g in grads)
        assert all(a.dtype == np.float64
                   for a in optim.export_arrays(res.params).values())

    def test_hytec_step_holds_no_f64_array(self, monkeypatch, tmp_path):
        samples = tiny_samples(n_tiles=2)
        teachers = _make_teachers(samples)
        cfg = HyTecConfig.desk_scale(image_size=32, patch=8, embed_dim=16,
                                     blocks=4, heads=2, l_hat=16)
        st = tr.TrainSettings(arch="hytec", epochs=1, batch_size=2, seed=3,
                              warmup_epochs=1, lr_peak=1e-3,
                              checkpoint_dir=str(tmp_path))
        found, res = self.f64_leftovers(monkeypatch, lambda: tr.train_hytec(
            samples, teachers, st, cfg=cfg))
        assert found == []
        registry = optim.collect_tensors(res.params)
        assert all(t.grad.dtype == np.float32 for t in registry.values())
        # masters, AdamW moments and every checkpointed array stay f64
        assert all(t.data.dtype == np.float64 for t in registry.values())
        arrays = tr._read_arrays(tr.latest_checkpoint(str(tmp_path))[1])
        assert any(name.startswith("adam_m.") for name in arrays)
        assert all(a.dtype == np.float64 for a in arrays.values())

    def test_masters_keep_sub_ulp_updates(self):
        # at alpha = 2 the adaptive loss takes its L2 branch, which gives
        # alpha no gradient; the scale's c_raw is the scalar that trains
        samples = tiny_samples()
        lr = 1e-10
        res = tr.train_unet(samples, tiny_settings(
            arch="a2mdu", epochs=1, batch_size=3, adaptive_lr=lr))
        start = AdaptiveLossState.create().c_raw.data
        moved = float(res.adaptive.c_raw.data - start)
        # an f32 master would round this update away
        assert 0 < abs(moved) < np.spacing(np.float32(start)) / 2
        assert moved == pytest.approx(-lr * float(res.adaptive.c_raw.grad),
                                      rel=1e-6)
        assert res.adaptive.c_raw.data.dtype == np.float64
        assert res.adaptive.alpha.data.dtype == np.float64

    def test_channel_sums_match_plain_ndarray_sums(self, monkeypatch):
        """Training runs to the same bits with the einsum channel sums as
        with ``ndarray.sum``: trace, parameters, running statistics and the
        adaptive loss's scalars, for a2mdu and for distillation."""
        samples = tiny_samples(n_tiles=2)
        cfg = HyTecConfig.desk_scale(image_size=32, patch=8, embed_dim=16,
                                     blocks=4, heads=2, l_hat=16)

        def run():
            unet = tr.train_unet(samples, tiny_settings(arch="a2mdu", epochs=2))
            hytec = tr.train_hytec(
                samples, _make_teachers(samples),
                tr.TrainSettings(arch="hytec", epochs=2, batch_size=2, seed=3,
                                 warmup_epochs=1, lr_peak=1e-3), cfg=cfg)
            return unet, hytec

        fast = run()
        calls = []

        def plain(a, axis, keepdims=False):
            calls.append(a.shape)
            return a.sum(axis=axis, keepdims=keepdims)
        monkeypatch.setattr(tensor_module, "_channel_sum", plain)
        monkeypatch.setattr(nn, "_channel_sum", plain)
        slow = run()
        assert len(calls) > 100
        for a, b in zip(fast, slow):
            assert np.array_equal(np.asarray(a.trace), np.asarray(b.trace))
            pa, pb = optim.export_arrays(a.params), optim.export_arrays(b.params)
            assert pa.keys() == pb.keys()
            assert all(np.array_equal(pa[k], pb[k]) for k in pa)
            assert np.array_equal(a.adaptive.alpha.data, b.adaptive.alpha.data)
            assert np.array_equal(a.adaptive.c_raw.data, b.adaptive.c_raw.data)
