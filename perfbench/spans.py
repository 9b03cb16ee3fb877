"""Per-layer tracing for the benchmark, from outside the program.

``Tracer.install`` replaces every public function of the probfas modules
named in ``LAYERS`` (and the array views of ``data.Dataset``) with a
wrapper that records one span: name, start, end, parent span and
operation id. Callers look these attributes up at call time (``training``
calls ``losses.stage1_objective``, ``model.flatten_params`` and so on),
so the wrappers see the calls between layers without any change under
``src/``. ``uninstall`` puts the originals back; an untraced run never
installs anything.

Spans stay in memory and are written once, by ``save``, at the end of a
run. A layer's self time is the duration of its spans minus the part
covered by their child spans, so the self times of one operation add up
to the duration of its root span, ``cli.main``.
"""

import importlib
import inspect
import os
import time
from array import array

import numpy as np

LAYERS = ("cli", "experiments", "training", "model", "losses", "kernels", "inference", "metrics", "data")
# Dataset methods that restack the per-sample objects into arrays, plus copy.
DATASET_METHODS = ("X", "c_labels", "s_labels", "flag_mask", "copy")
RESTACKS = tuple(f"data.Dataset.{m}" for m in DATASET_METHODS if m != "copy")
PARAM_COPIES = ("model.flatten_params", "model.unflatten_params", "model.zeros_like_params")
KERNELS = ("adam_step", "softmax_xent", "gaussian_nll", "smooth_rows")
F8 = 8  # bytes per float64 or int64 element


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _kernel_bytes(name, args, kwargs):
    """Bytes a kernel reads plus writes, computed from its argument shapes."""
    if name == "adam_step":  # reads p, g, m, v; writes p, m, v
        return 7 * F8 * _arg(args, kwargs, 0, "p").size
    if name == "softmax_xent":  # reads logits, labels; writes probs, loss
        logits = _arg(args, kwargs, 0, "logits")
        return F8 * 2 * (logits.size + logits.shape[0])
    if name == "gaussian_nll":  # reads d2, s2; writes the loss
        return 3 * F8 * np.size(_arg(args, kwargs, 0, "d2"))
    return 2 * F8 * np.size(_arg(args, kwargs, 0, "X"))  # smooth_rows


def _count(counters, name, args, kwargs, result):
    """Work counts taken at the layer boundary, from arguments and results."""
    if name == "model.embed_with_cache":
        counters["model.embed_rows"] += np.shape(_arg(args, kwargs, 1, "X"))[0]
    elif name.startswith("kernels."):
        counters[f"{name}_bytes_computed"] += _kernel_bytes(name[8:], args, kwargs)
    elif name == "inference.predict_batch":
        counters["inference.rows"] += np.shape(_arg(args, kwargs, 1, "X"))[0]
    elif name == "metrics.roc_sweep":  # every distinct threshold scans all N scores
        counters["metrics.threshold_compares"] += len(result) * np.size(_arg(args, kwargs, 0, "scores"))
    elif name == "data.save_dataset":
        counters["data.rows_written"] += len(_arg(args, kwargs, 0, "ds"))
        counters["data.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
    elif name == "data.load_dataset":
        counters["data.rows_read"] += len(result)
        counters["data.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


COUNTED = {"model.embed_with_cache", "inference.predict_batch", "metrics.roc_sweep",
           "data.save_dataset", "data.load_dataset", *(f"kernels.{k}" for k in KERNELS)}


def _targets():
    """(owner, attribute, span name) of every function the tracer wraps."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"probfas.{layer}")
        for attr, fn in list(vars(mod).items()):
            if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out.append((mod, attr, f"{layer}.{attr}"))
    dataset = importlib.import_module("probfas.data").Dataset
    out += [(dataset, attr, f"data.Dataset.{attr}") for attr in DATASET_METHODS]
    return out


class Tracer:
    def __init__(self):
        self.names = []  # span name table; spans store indices into it
        self._name_ids = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {k: 0 for k in (
            "model.embed_rows", "inference.rows", "metrics.threshold_compares",
            "data.rows_written", "data.bytes_written", "data.rows_read", "data.bytes_read",
            *(f"kernels.{k}_bytes_computed" for k in KERNELS))}
        self.op_id = -1
        self._stack = []
        self._originals = []

    def install(self, op_id):
        """Wrap every target; spans recorded until ``uninstall`` carry op_id."""
        self.op_id = op_id
        for owner, attr, name in _targets():
            fn = vars(owner)[attr]
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def _wrap(self, name, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        counted = name in COUNTED
        stack, names, parents, ops, starts, ends = (
            self._stack, self.span_name, self.parent, self.op, self.start, self.end)
        counters, clock, tracer = self.counters, time.perf_counter, self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if counted:
                _count(counters, name, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return name, dur, dur - covered

    def layer_metrics(self, n_ops):
        """Per-operation means of every per-layer metric: {name: (value, unit)}."""
        name, dur, self_time = self._arrays()
        ids = {n: i for i, n in enumerate(self.names)}

        def select(names):
            return np.isin(name, [ids[n] for n in names if n in ids])

        def incl(*names):
            return float(dur[select(names)].sum()) / n_ops

        def calls(*names):
            return int(select(names).sum()) / n_ops

        layer_of = np.array([n.split(".", 1)[0] for n in self.names] or [""])
        span_layer = layer_of[name] if len(name) else np.array([], dtype=layer_of.dtype)
        m = {f"{layer}.self_s": (float(self_time[span_layer == layer].sum()) / n_ops, "s")
             for layer in LAYERS}
        per_op = {k: v / n_ops for k, v in self.counters.items()}
        roc_calls = calls("metrics.roc_sweep")
        evaluates = calls("metrics.evaluate")
        m.update({
            "training.stage1_s": (incl("training.train_stage1_lq"), "s"),
            "training.stage2_s": (incl("training.train_stage2_dq"), "s"),
            "training.steps": (calls("losses.stage1_objective", "losses.stage2_objective"), "count"),
            "training.checkpoint_io_s": (incl("training.save_checkpoint", "training.load_checkpoint",
                                              "training.save_trainlog", "training.load_trainlog"), "s"),
            "model.param_copy_s": (incl(*PARAM_COPIES), "s"),
            "model.param_copy_calls": (calls(*PARAM_COPIES), "count"),
            "model.embed_s": (incl("model.embed_with_cache"), "s"),
            "model.embed_rows": (per_op["model.embed_rows"], "count"),
            "losses.stage1_objective_s": (incl("losses.stage1_objective"), "s"),
            "losses.stage2_objective_s": (incl("losses.stage2_objective"), "s"),
        })
        for k in KERNELS:
            m[f"kernels.{k}_s"] = (incl(f"kernels.{k}"), "s")
            m[f"kernels.{k}_calls"] = (calls(f"kernels.{k}"), "count")
            m[f"kernels.{k}_bytes_computed"] = (per_op[f"kernels.{k}_bytes_computed"], "bytes")
        m.update({
            "inference.predict_batch_s": (incl("inference.predict_batch"), "s"),
            "inference.rows": (per_op["inference.rows"], "count"),
            "inference.save_predictions_s": (incl("inference.save_predictions"), "s"),
            "metrics.evaluate_s": (incl("metrics.evaluate"), "s"),
            "metrics.roc_sweep_calls": (roc_calls, "count"),
            "metrics.roc_sweeps_per_evaluate": (roc_calls / evaluates if evaluates else 0.0, "ratio"),
            "metrics.threshold_compares": (per_op["metrics.threshold_compares"], "count"),
            "data.generate_s": (incl("data.generate_synthetic"), "s"),
            "data.inject_s": (incl("data.inject_semantic_label_noise", "data.inject_binary_label_noise",
                                   "data.inject_data_noise"), "s"),
            "data.copy_s": (incl("data.Dataset.copy"), "s"),
            "data.save_s": (incl("data.save_dataset"), "s"),
            "data.load_s": (incl("data.load_dataset"), "s"),
            "data.rows_written": (per_op["data.rows_written"], "count"),
            "data.rows_read": (per_op["data.rows_read"], "count"),
            "data.bytes_written": (per_op["data.bytes_written"], "bytes"),
            "data.bytes_read": (per_op["data.bytes_read"], "bytes"),
            "data.restacks": (calls(*RESTACKS), "count"),
            "experiments.quality_report_s": (incl("experiments.quality_report"), "s"),
            "experiments.make_benchmark_data_s": (incl("experiments.make_benchmark_data"), "s"),
            "trace.spans_per_op": (len(name) / n_ops, "count"),
            "trace.self_sum_s": (float(self_time.sum()) / n_ops, "s"),
        })
        return m

    def save(self, path):
        """Writes every span: name index, parent index, op id, start, end."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
