"""Per-layer tracing by wrapping the program's public functions.

Nothing under ``src/`` knows about this module.  ``Tracer.installed()``
swaps each traced function for a timing wrapper in every
``canopyheights`` module that holds a reference to it (modules import
each other's functions by name), and puts the originals back on exit.

Accounting rules:

* A training step is one optimizer step: it opens at the main
  optimizer's ``zero_grad`` and closes at the last optimizer ``step``
  before the next one (the adaptive-loss optimizer of ``a2mdu`` steps in
  the same window).
* ``nn`` op times are inclusive: ``mhsa`` contains its ``softmax``.  An
  op's backward time is the time spent in the gradient functions of every
  tape node created while the op ran.  Only calls made inside a training
  loop count toward the ``nn`` figures.
* ``Tensor.from_op`` is the single place every graph node is made, so
  node counts and total gradient-function time are taken there.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import sys
import time
from collections import defaultdict

NN_OPS = ("conv2d", "conv2d_transpose", "batch_norm", "leaky_relu",
          "softplus", "softmax", "layer_norm", "mhsa", "gelu")

perf = time.perf_counter


def _conv_flops(x_shape, kernel_shape, out_shape, transpose):
    """Multiply-adds x 2 of one forward call, from the shapes alone."""
    k = kernel_shape[0]
    if transpose:      # kernel k x k x C_out x C_in, one tap per input pixel
        h, w, c_in = x_shape
        return 2 * h * w * k * k * kernel_shape[2] * c_in
    oh, ow, c_out = out_shape
    return 2 * oh * ow * k * k * kernel_shape[2] * c_out


class Tracer:
    """Accumulates counts and busy times while installed."""

    def __init__(self):
        self.sum = defaultdict(float)      # name -> seconds or count
        self.calls = defaultdict(int)      # name -> number of calls
        self.step_s: list = []
        self.phase = None                  # None | "train" | "eval"
        self._stack: list = []             # active nn ops, outermost first
        self._step_open = None
        self._last_step_end = None

    # -- step accounting --------------------------------------------

    def _begin_step(self):
        now = perf()
        self._close_step()
        self._step_open = now

    def _close_step(self):
        if self._step_open is not None and self._last_step_end is not None:
            self.step_s.append(self._last_step_end - self._step_open)
        self._step_open = None
        self._last_step_end = None

    # -- wrapper factories ------------------------------------------

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.sum[name] += perf() - t0
                self.calls[name] += 1
        return wrapper

    def _phase(self, phase, name, fn):
        def wrapper(*args, **kwargs):
            outer = self.phase
            self.phase = phase
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.sum[name] += perf() - t0
                self.calls[name] += 1
                self.phase = outer
                if phase == "train":
                    self._close_step()
        return wrapper

    def _nn_op(self, op, fn):
        flops = op in ("conv2d", "conv2d_transpose")

        def wrapper(*args, **kwargs):
            if self.phase != "train":
                return fn(*args, **kwargs)
            self._stack.append(op)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                self._stack.pop()
            self.sum[f"nn.{op}.fwd"] += dt
            self.calls[f"nn.{op}.fwd"] += 1
            f = 0
            if flops:
                x, p = args[0], args[1]
                f = _conv_flops(x.shape, p.kernel.shape, out.shape,
                                op == "conv2d_transpose")
                self.sum[f"nn.{op}.fwd_flop"] += f
            grad_fn = out._grad_fn
            if grad_fn is not None:
                def counted(g, _f=f, _fn=grad_fn):
                    # the op's output node runs its gradient once per backward;
                    # kernel and input gradients are two forward-sized products
                    self.calls[f"nn.{op}.bwd"] += 1
                    self.sum[f"nn.{op}.bwd_flop"] += 2 * _f
                    return _fn(g)
                out._grad_fn = counted
            return out
        return wrapper

    def _from_op(self, fn):
        def wrapper(data, parents, grad_fn):
            out = fn(data, parents, grad_fn)
            if out._grad_fn is None:
                return out
            self.calls[f"tensor.nodes.{self.phase}"] += 1
            tags = tuple(dict.fromkeys(self._stack))
            inner = out._grad_fn

            def timed_grad(g):
                t0 = perf()
                r = inner(g)
                dt = perf() - t0
                self.sum["tensor.grad_fn"] += dt
                for tag in tags:
                    self.sum[f"nn.{tag}.bwd"] += dt
                return r
            out._grad_fn = timed_grad
            return out
        return wrapper

    def _from_root(self, fn):
        def wrapper(root):
            t0 = perf()
            tape = fn(root)
            if self.phase == "train":
                self.sum["tensor.tape_build"] += perf() - t0
                self.sum["tensor.tape_nodes"] += len(tape.nodes)
            return tape
        return wrapper

    def _io(self, fn):
        def wrapper(path, *args):
            t0 = perf()
            out = fn(path, *args)
            self.sum["tensor.io"] += perf() - t0
            self.sum["tensor.io_bytes"] += os.path.getsize(path)
            return out
        return wrapper

    def _opt_zero_grad(self, fn):
        def wrapper(opt):
            if self.phase == "train" and any(
                    not k.startswith("adaptive.") for k in opt.params):
                self._begin_step()
            return fn(opt)
        return wrapper

    def _opt_step(self, fn):
        def wrapper(opt):
            t0 = perf()
            try:
                return fn(opt)
            finally:
                now = perf()
                if self.phase == "train":
                    self.sum["optim.step"] += now - t0
                    self._last_step_end = now
        return wrapper

    def _synth(self, fn):
        def wrapper(*args, **kwargs):
            t0 = perf()
            tiles = fn(*args, **kwargs)
            self.sum["datapipe.synth"] += perf() - t0
            self.sum["datapipe.shots"] += sum(len(t.shots) for t in tiles)
            return tiles
        return wrapper

    # -- installation -------------------------------------------------

    def _plan(self):
        import canopyheights.cli as cli
        import canopyheights.datapipe as dp
        import canopyheights.hytec as hy
        import canopyheights.losses as ls
        import canopyheights.metrics as mt
        import canopyheights.nn as nn
        import canopyheights.optim as optim
        import canopyheights.tensor as tn
        import canopyheights.train as tr
        import canopyheights.unet as un

        funcs = [(getattr(nn, op), self._nn_op(op, getattr(nn, op)))
                 for op in NN_OPS]
        timed = {
            un.unet_forward: "unet.forward", hy.hytec_forward: "hytec.forward",
            hy.encoder_forward: "hytec.encoder", tn.backward: "tensor.backward",
            ls.bin_assign_map: "losses.bin_assign_map",
            ls.kd_teacher_consensus: "losses.consensus",
            tr.teacher_heights: "train.teacher_infer",
            tr.aux_targets_from_teachers: "train.aux_targets",
            tr.save_checkpoint: "train.checkpoint",
            dp.shots_from_csv: "datapipe.csv_read",
            dp.shots_to_csv: "datapipe.csv_write",
            dp.filter_gedi: "datapipe.filter", dp.build_grid: "datapipe.grid",
            dp.median_composite: "datapipe.composite",
            mt.gsi: "metrics.gsi", cli.read_dataset: "cli.read_dataset",
        }
        funcs += [(f, self._timed(name, f)) for f, name in timed.items()]
        funcs += [
            (tr.train_unet, self._phase("train", "train.loop", tr.train_unet)),
            (tr.train_hytec, self._phase("train", "train.loop", tr.train_hytec)),
            (tr.predict_heights,
             self._phase("eval", "train.predict", tr.predict_heights)),
            (tn.save_tensor, self._io(tn.save_tensor)),
            (tn.load_tensor, self._io(tn.load_tensor)),
            (dp.synth_dataset, self._synth(dp.synth_dataset)),
        ]
        # the loss a training step calls directly: time it only where the
        # train module calls it, so nested calls inside losses stay uncounted
        local = [(tr, name, self._timed("losses.loss", getattr(tr, name)))
                 for name in ("combined_cr_loss", "hytec_total_loss", "huber")]
        methods = [
            (tn.Tensor, "from_op", staticmethod(self._from_op(tn.Tensor.from_op))),
            (tn.Tape, "from_root", staticmethod(self._from_root(tn.Tape.from_root))),
        ]
        for cls in (optim.SGD, optim.AdamW):
            methods.append((cls, "zero_grad", self._opt_zero_grad(cls.zero_grad)))
            methods.append((cls, "step", self._opt_step(cls.step)))
        return funcs, local, methods

    @contextlib.contextmanager
    def installed(self):
        funcs, local, methods = self._plan()
        undo = []
        modules = [m for n, m in sys.modules.items()
                   if n == "canopyheights" or n.startswith("canopyheights.")]
        by_id = {id(orig): new for orig, new in funcs}
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in by_id:
                    undo.append((mod, attr, val))
                    setattr(mod, attr, by_id[id(val)])
        for mod, attr, new in local:
            undo.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, new)
        for cls, attr, new in methods:
            undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, new)
        try:
            yield self
        finally:
            for obj, attr, old in reversed(undo):
                setattr(obj, attr, old)
            self.phase = None
            self._stack.clear()

    # -- report -------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer figures of the traced rounds, as name -> (value, unit).

        Per-step figures divide by the optimizer steps taken, per-call
        figures by the calls made, per-round figures by ``rounds``.
        """
        s, c = self.sum, self.calls
        steps = max(len(self.step_s), 1)

        def per_call(key, scale):
            return s[key] * scale / c[key] if c[key] else 0.0

        out = {
            "tensor.nodes_per_step": (s["tensor.tape_nodes"] / steps, "count"),
            "tensor.tape_build_ms": (s["tensor.tape_build"] * 1e3 / steps, "ms"),
            "tensor.backward_self_ms": (
                (s["tensor.backward"] - s["tensor.grad_fn"]) * 1e3 / steps, "ms"),
            "tensor.infer_nodes_per_tile": (
                c["tensor.nodes.eval"] / c["train.predict"]
                if c["train.predict"] else 0.0, "count"),
            "tensor.io_s": (s["tensor.io"] / rounds, "s"),
            "tensor.io_mb": (s["tensor.io_bytes"] / 1e6 / rounds, "MB"),
        }
        for op in NN_OPS:
            out[f"nn.{op}.calls_per_step"] = (c[f"nn.{op}.fwd"] / steps, "count")
            out[f"nn.{op}.fwd_us"] = (per_call(f"nn.{op}.fwd", 1e6), "us")
            out[f"nn.{op}.bwd_us"] = (
                s[f"nn.{op}.bwd"] * 1e6 / c[f"nn.{op}.bwd"]
                if c[f"nn.{op}.bwd"] else 0.0, "us")
        conv_s = s["nn.conv2d.fwd"] + s["nn.conv2d.bwd"]
        conv_flop = s["nn.conv2d.fwd_flop"] + s["nn.conv2d.bwd_flop"]
        out["nn.conv2d.gflop_per_s"] = (
            conv_flop / conv_s / 1e9 if conv_s else 0.0, "GFLOP/s")
        for key, name in (("unet.forward", "unet.forward_ms"),
                          ("hytec.forward", "hytec.forward_ms"),
                          ("hytec.encoder", "hytec.encoder_ms"),
                          ("losses.bin_assign_map", "losses.bin_assign_map_ms"),
                          ("losses.loss", "losses.loss_ms"),
                          ("losses.consensus", "losses.consensus_ms"),
                          ("train.teacher_infer", "train.teacher_infer_ms"),
                          ("train.aux_targets", "train.aux_targets_ms"),
                          ("train.checkpoint", "train.checkpoint_ms"),
                          ("train.predict", "train.predict_ms"),
                          ("metrics.gsi", "metrics.gsi_ms")):
            out[name] = (per_call(key, 1e3), "ms")
        step_ms = [x * 1e3 for x in self.step_s] or [0.0]
        out["train.step_ms"] = (statistics.median(step_ms), "ms")
        out["train.step_p90_ms"] = (
            statistics.quantiles(step_ms, n=10)[-1] if len(step_ms) > 1
            else step_ms[0], "ms")
        out["optim.step_ms"] = (s["optim.step"] * 1e3 / steps, "ms")
        for key in ("csv_read", "csv_write", "filter", "grid", "composite"):
            out[f"datapipe.{key}_s"] = (s[f"datapipe.{key}"] / rounds, "s")
        out["cli.read_dataset_s"] = (s["cli.read_dataset"] / rounds, "s")
        return out
