"""In-memory span tracer that wraps gridonet's public functions from outside.

The tracer replaces each public function of the ten `gridonet` modules with a
wrapper that records one span per call: name, start, end and parent span.
A name is wrapped wherever its callers look it up, so a function that another
module imported by name (`cli` binds `predict`, `load_checkpoint`, ...) is
wrapped in that module too, under the same span name. `mlp` reaches the tape
through `T.sin`, `T.matmul`, ..., and the `Tensor` operators call the module
functions, so wrapping `tensor`'s functions covers every primitive.

Spans stay in memory until `uninstall`; self time and layer shares are
derived afterwards. Nothing here edits the package on disk.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import defaultdict

MODULES = ("gridsim", "dataset", "tensor", "mlp", "deeponet", "train", "sghmc",
           "checkpoint", "uqeval", "cli")

# per-Tensor coercion helper: wrapping it would add a span to every primitive
_SKIP = {("tensor", "as_array")}
_ELEMENTWISE = ("add", "sub", "mul", "add_bias", "sum_rows", "square", "exp", "clip")
_TENSOR_OPS = _ELEMENTWISE + ("matmul", "sin", "log", "sum_all")
_PREDICT_PATHS = ("deeponet.predict", "deeponet.predict_prob", "deeponet.ensemble_predict")
STAGES = ("simulate", "dataset", "train", "sghmc", "evaluate", "alarms", "residuals",
          "predict")
# What carries the serve commands: the share of a stage's time inside each span
BREAKDOWN_STAGES = ("evaluate", "alarms")
BREAKDOWN_SPANS = {"branch": "mlp.hidden.b_", "trunk": "mlp.hidden.t_",
                   "load": "checkpoint.load_checkpoint"}


def _span_name(short: str, attr: str) -> str:
    if short == "cli" and attr.startswith("cmd_"):
        return f"cli.stage.{attr[4:]}"
    if short == "cli" and attr == "_write_csv":
        return "cli.write_csv"
    return f"{short}.{attr}"


def _public_functions(short: str, mod):
    for attr, val in vars(mod).items():
        if not inspect.isfunction(val) or val.__module__ != mod.__name__:
            continue
        if (short, attr) in _SKIP:
            continue
        if attr.startswith("_") and not (short == "cli" and attr == "_write_csv"):
            continue
        yield attr, val


def _hidden_label(args, kwargs):
    prefix = args[3] if len(args) > 3 else kwargs.get("prefix", "")
    return f"mlp.hidden.{prefix}"


def _path_bytes(args, kwargs):
    return os.path.getsize(args[0])


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.bytes: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._patched = []

    def _wrapper(self, fn, name, label=None, nbytes=None):
        clock = time.perf_counter
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counters = self._stack, self.bytes

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(label(args, kwargs) if label else name)
            parents.append(stack[-1])
            ends.append(0.0)
            if nbytes:
                counters[name] += nbytes(args, kwargs)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, fn, name):
        label = _hidden_label if name == "mlp.hidden" else None
        nbytes = _path_bytes if name in ("checkpoint.load_checkpoint",
                                         "cli.file_sha256") else None
        setattr(owner, attr, self._wrapper(fn, name, label, nbytes))
        self._patched.append((owner, attr, fn))

    def install(self, modules: dict) -> None:
        """Wrap every public function of `modules` (short name -> module) at
        each of its bindings, plus `Tape.backward`."""
        originals = {}
        for short, mod in modules.items():
            for attr, fn in _public_functions(short, mod):
                originals[id(fn)] = (fn, _span_name(short, attr))
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, val, hit[1])
        tape = modules["tensor"].Tape
        self._patch(tape, "backward", tape.backward, "tensor.Tape.backward")

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()


def _module(name: str) -> str:
    return name.split(".", 1)[0]


class SpanTable:
    """Derived per-name totals: calls, inclusive seconds, self seconds."""

    def __init__(self, tr: Tracer):
        n = len(tr.names)
        self.tr = tr
        self.dur = [tr.ends[i] - tr.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = tr.parents[i]
            if p >= 0:
                child[p] += self.dur[i]
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        for i, name in enumerate(tr.names):
            self.calls[name] += 1
            self.incl[name] += self.dur[i]
            self.self_s[name] += self.dur[i] - child[i]
        roots = [i for i in range(n) if tr.parents[i] < 0]
        self.total = sum(self.dur[i] for i in roots)

    def outermost(self, match) -> tuple[float, list[int]]:
        """Seconds inside spans that `match` and have no matching ancestor
        (the union of the matching intervals), plus, per span, the index of
        its outermost matching ancestor (or -1)."""
        names, parents = self.tr.names, self.tr.parents
        top = [-1] * len(names)
        secs = 0.0
        for i, name in enumerate(names):
            p = parents[i]
            top[i] = top[p] if p >= 0 else -1
            if top[i] < 0 and match(name):
                top[i] = i
                secs += self.dur[i]
        return secs, top

    def stage_share(self, stage: str, span: str) -> float:
        """Share of `cli.stage.<stage>` time spent inside `span`."""
        stage_s = self.incl[f"cli.stage.{stage}"]
        _, in_stage = self.outermost(lambda n: n == f"cli.stage.{stage}")
        _, top = self.outermost(lambda n: n == span)
        secs = sum(self.dur[i] for i in range(len(top)) if top[i] == i and in_stage[i] >= 0)
        return secs / stage_s if stage_s > 0 else 0.0

    def share(self, modules) -> float:
        modules = set(modules)
        secs = self.outermost(lambda n: _module(n) in modules)[0]
        return secs / self.total if self.total > 0 else 0.0


def layer_metrics(t: SpanTable, n_cycles: int, scored_in_evaluate: int) -> dict:
    """Per-layer values from the traced cycles, normalised per cycle.

    `scored_in_evaluate` is the number of trajectories the traced `evaluate`
    commands scored, the base of the predict waste ratio.
    """
    tr = t.tr
    per = 1.0 / n_cycles
    m = {}

    def put(name, value):
        m[name] = float(value)

    put("gridsim.simulate.self_s", t.self_s["gridsim.simulate"] * per)
    put("gridsim.kron_reduce.calls", t.calls["gridsim.kron_reduce"] * per)
    put("gridsim.equilibrium.s", t.incl["gridsim.equilibrium"] * per)
    put("gridsim.simulate.calls", t.calls["gridsim.simulate"] * per)

    for op in ("matmul", "sin"):
        put(f"tensor.{op}.self_s", t.self_s[f"tensor.{op}"] * per)
    put("tensor.elementwise.self_s",
        sum(t.self_s[f"tensor.{op}"] for op in _ELEMENTWISE) * per)
    put("tensor.Tape.backward.self_s", t.self_s["tensor.Tape.backward"] * per)
    put("tensor.Tape.backward.calls", t.calls["tensor.Tape.backward"] * per)
    step_names = ("train.loss_and_grads", "sghmc.grad_potential")
    steps = sum(t.calls[s] for s in step_names)
    _, top = t.outermost(lambda n: n in step_names)
    ops = sum(1 for i, n in enumerate(tr.names)
              if top[i] >= 0 and n.startswith("tensor.") and n[7:] in _TENSOR_OPS)
    put("tensor.ops_per_step", ops / steps if steps else 0.0)

    put("mlp.hidden.b_.s", t.incl["mlp.hidden.b_"] * per)
    put("mlp.hidden.t_.s", t.incl["mlp.hidden.t_"] * per)
    put("mlp.head.s", t.incl["mlp.head"] * per)

    put("deeponet.predict.calls", t.calls["deeponet.predict"] * per)
    put("deeponet.predict.self_s", t.self_s["deeponet.predict"] * per)
    put("deeponet.predict_prob.s", t.incl["deeponet.predict_prob"] * per)
    put("deeponet.ensemble_predict.s", t.incl["deeponet.ensemble_predict"] * per)
    # model-level predicts (an ensemble call counts once) per scored trajectory
    _, top_eval = t.outermost(lambda n: n == "cli.stage.evaluate")
    _, top_pred = t.outermost(lambda n: n in _PREDICT_PATHS)
    model_predicts = sum(1 for i in range(len(tr.names))
                         if top_pred[i] == i and top_eval[i] >= 0)
    put("deeponet.predict_calls_per_scored_traj",
        model_predicts / scored_in_evaluate if scored_in_evaluate else 0.0)

    put("train.loss_and_grads.s", t.incl["train.loss_and_grads"] * per)
    put("train.adam_step.self_s", t.self_s["train.adam_step"] * per)
    put("train.batch_arrays.s", t.incl["train.batch_arrays"] * per)
    put("train.steps", t.calls["train.loss_and_grads"] * per)

    put("sghmc.grad_potential.s", t.incl["sghmc.grad_potential"] * per)
    put("sghmc.potential_energy.s", t.incl["sghmc.potential_energy"] * per)
    put("checkpoint.unflatten.self_s", t.self_s["checkpoint.unflatten"] * per)
    put("sghmc.grad_evals", t.calls["sghmc.grad_potential"] * per)

    put("checkpoint.load_checkpoint.calls", t.calls["checkpoint.load_checkpoint"] * per)
    put("checkpoint.load_checkpoint.s", t.incl["checkpoint.load_checkpoint"] * per)
    put("checkpoint.bytes_read", tr.bytes["checkpoint.load_checkpoint"] * per)
    put("checkpoint.save_checkpoint.s", t.incl["checkpoint.save_checkpoint"] * per)

    put("dataset.build_train.s", t.incl["dataset.build_train"] * per)
    put("dataset.build_test.s", t.incl["dataset.build_test"] * per)
    put("dataset.build_test.calls", t.calls["dataset.build_test"] * per)

    put("uqeval.self_s", sum(v for k, v in t.self_s.items() if _module(k) == "uqeval") * per)
    put("cli.file_sha256.s", t.incl["cli.file_sha256"] * per)
    put("cli.file_sha256.bytes", tr.bytes["cli.file_sha256"] * per)
    put("cli.write_csv.s", t.incl["cli.write_csv"] * per)
    for stage in STAGES:
        put(f"cli.stage.{stage}.self_s", t.self_s[f"cli.stage.{stage}"] * per)

    for stage in BREAKDOWN_STAGES:
        for key, span in BREAKDOWN_SPANS.items():
            put(f"cli.stage.{stage}.{key}_share", t.stage_share(stage, span))
    for mod in MODULES:
        put(f"{mod}.share", t.share([mod]))
    return m

