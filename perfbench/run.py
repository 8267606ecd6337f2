"""Benchmark harness for the gridonet pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload build|serve --seed N --seconds S --trace 0|1

The harness imports `src/gridonet` and drives `gridonet.cli.main(argv)` in
this process as a closed loop with one client: the next CLI command starts
when the previous one returns. It starts no threads and pins BLAS to one
thread. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `--trace 0` reports the
end-to-end metrics and `--trace 1` the per-layer ones. README.md describes
the workloads, the metrics and the layer each metric should move.

`--record` re-measures the reference values in refs.json instead of
benchmarking; run it only at a commit whose outputs are known good.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # one client process on a 2-core host; must precede numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracer import (BREAKDOWN_SPANS, BREAKDOWN_STAGES, MODULES, STAGES,  # noqa: E402
                    SpanTable, Tracer, layer_metrics)

WORKLOADS = ("build", "serve")
REF_SEED = 0
# Set-up runs twice at the workload seed (the repeat must be byte-identical)
# and once at REF_SEED, whose outputs are checked against refs.json.
SETUP_SEEDS = ("seed", "seed", "ref")

# Pool: one N-1 and one N-2 trajectory, split 1 train / 1 test. 256 queries
# on the training trajectory give exactly one B=256 step per epoch.
N1, N2, QUERIES = 1, 1, 256
MESH = 500  # SplitSpec.n_mesh, the evaluate/predict query mesh
GEOMETRY = {"m": 200, "width": 100, "depth": 3, "q": 100, "batch": 256}
EPOCHS = 10
# The default SGHMC step (eps_t=1e-5 with m_inner=50) leaves the chain
# non-finite within 1-2 outer iterations on splits this small, so the build
# chain keeps m_inner=50 and B=256 at eps_t=1e-6, and the 100-member serve
# chain keeps eps_t=1e-5 with m_inner=2 (a batch of 32 keeps set-up short).
# The build workload ends with a probe at the full default; see README.md.
# The config file sets what has no flag: the 100-member chains' m_inner, and
# no band re-prediction in the quality case's evaluate (the only evaluate
# that is given the file).
CONFIG_INI = "[sghmc]\nm_inner = 2\n[evaluate]\nbands = 0\n"
SERVE_CHAIN = {"n_outer": 100, "m_inner": 2, "members": 100}
BUILD_CHAIN = {"n_outer": 1, "m_inner": 50, "members": 1}
# The quality case gives the guard metrics (train_vanilla_best_loss and
# eval_bayes_*). It is always seeded with REF_SEED, and it is larger and
# trained longer than the set-up case, so that the errors and the band carry
# information: 3 N-1 + 3 N-2 trajectories split 3 train / 3 test, 150 Adam
# steps at lr 1e-3, and a 100-member chain at an eps_t it survives.
QUALITY_POOL, QUALITY_EPOCHS, QUALITY_LR, QUALITY_EPS = (3, 3), 50, "1e-3", "5e-6"


@dataclass(frozen=True)
class Cmd:
    key: str  # metric sample bucket; "" for commands no metric reads
    argv: tuple
    work: object = None  # units of work, or callable(workdir) -> units
    config: bool = False  # pass CONFIG_INI


def _chain(chain, eps, s, batch=None):
    argv = ("sghmc", "--eps-t", eps, "--n-outer", str(chain["n_outer"]), "--burn-in", "0",
            "--thinning", "1", "--m-ensemble", str(chain["members"]), "--seed", s)
    return argv + (("--batch-size", str(batch)) if batch else ())


def _train_samples(kind):
    def count(wd):
        doc = json.loads((wd / "models" / f"{kind}.manifest.json").read_text())
        return doc["epochs"] * doc["n_train_samples"]
    return count


def _scored(tag):
    def count(wd):
        return checks.eval_aggregate(wd, tag)["count"]
    return count


def _n_test(wd):
    return len(json.loads((wd / "dataset" / "split.json").read_text())["test_ids"])


def build_cmds(s):
    """simulate -> dataset -> train x2 -> one outer SGHMC iteration at B=256."""
    return [
        Cmd("simulate", ("simulate", "--n1", str(N1), "--n2", str(N2), "--seed", s), N1 + N2),
        Cmd("", ("dataset", "--queries", str(QUERIES), "--seed", s, "--query-seed", s)),
        *(Cmd(f"train_{k}", ("train", "--model", k, "--epochs", str(EPOCHS), "--lr", "1e-3",
                             "--seed", s), _train_samples(k)) for k in ("vanilla", "prob")),
        Cmd("sghmc", _chain(BUILD_CHAIN, "1e-6", s),
            BUILD_CHAIN["n_outer"] * BUILD_CHAIN["m_inner"]),
    ]


def setup_cmds(s):
    """The build pipeline, ending in the 100-member chain serve loads."""
    cmds = build_cmds(s)[:-1] + [Cmd("", _chain(SERVE_CHAIN, "1e-5", s, batch=32))]
    return [Cmd(c.key, c.argv, c.work, config=True) for c in cmds]


def quality_cmds():
    s = str(REF_SEED)
    n1, n2 = QUALITY_POOL
    argvs = [
        ("simulate", "--n1", str(n1), "--n2", str(n2), "--seed", s),
        ("dataset", "--queries", str(QUERIES), "--train-frac", "0.5", "--seed", s,
         "--query-seed", s),
        ("train", "--model", "vanilla", "--epochs", str(QUALITY_EPOCHS), "--lr", QUALITY_LR,
         "--seed", s),
        _chain(SERVE_CHAIN, QUALITY_EPS, s, batch=32),
        ("evaluate", "--which", "bayes"),
    ]
    return [Cmd("", a, config=True) for a in argvs]


def quality_values(wd: Path) -> dict:
    return {"vanilla_loss": checks.best_losses(wd, ("vanilla",))["vanilla"],
            "bayes": checks.eval_aggregate(wd, "bayes")}


def _evaluate(which, *extra):
    tag = which + ("_noise" if extra else "")
    return Cmd(f"eval_{which}", ("evaluate", "--which", which, "--count", "1", *extra),
               _scored(tag))


# The vanilla and prob evaluates take ~0.05 s, short enough for a noise
# burst to cover one whole, so each cycle repeats them.
CHEAP_REPEATS = 6


def serve_cmds(_s=None):
    return [*[_evaluate("vanilla"), _evaluate("prob")] * CHEAP_REPEATS, _evaluate("bayes"),
            _evaluate("bayes", "--noise", "0.01"),
            Cmd("alarms_bayes", ("alarms", "--which", "bayes"), _n_test),
            Cmd("", ("residuals", "--which", "bayes")),
            Cmd("predict_bayes", ("predict", "--which", "bayes"))]


def serve_metric_cmds(_s=None):
    """The serve commands an end-to-end metric reads."""
    return [c for c in serve_cmds() if c.key and "--noise" not in c.argv]


CYCLES = {"build": build_cmds, "serve": serve_cmds}
# Side rounds give each workload's foreign metrics samples spread over the
# run: build scores the reference models, serve rebuilds a pool and models.
SIDE = {"build": serve_metric_cmds, "serve": build_cmds}
# artifacts a cycle rewrites; every cycle must reproduce the first one's bytes
OUTPUTS = {"build": ("pools", "dataset", "models"), "serve": ("eval",)}

E2E = (  # name, unit, better, sample bucket (None: derived separately)
    ("setup_s", "s", "lower", None),
    ("wall_s", "s", "lower", None),
    ("peak_rss_mb", "MB", "lower", None),
    ("sim_traj_per_s", "traj/s", "higher", "simulate"),
    ("train_vanilla_samples_per_s", "samples/s", "higher", "train_vanilla"),
    ("train_prob_samples_per_s", "samples/s", "higher", "train_prob"),
    ("sghmc_grad_evals_per_s", "evals/s", "higher", "sghmc"),
    ("train_vanilla_best_loss", "pu2", "lower", None),
    ("eval_vanilla_traj_per_s", "traj/s", "higher", "eval_vanilla"),
    ("eval_prob_traj_per_s", "traj/s", "higher", "eval_prob"),
    ("eval_bayes_traj_per_s", "traj/s", "higher", "eval_bayes"),
    ("alarms_bayes_traj_per_s", "traj/s", "higher", "alarms_bayes"),
    ("predict_bayes_s", "s", "lower", "predict_bayes"),
    ("eval_bayes_mean_L2_pct", "%", "lower", None),
    ("eval_bayes_eps_ratio_pct", "%", "higher", None),
)

PER_LAYER_UNITS = {
    "gridsim.simulate.self_s": "s/cycle", "gridsim.kron_reduce.calls": "count/cycle",
    "gridsim.equilibrium.s": "s/cycle", "gridsim.simulate.calls": "count/cycle",
    "gridsim.accept_ratio": "ratio", "gridsim.rk4_steps": "steps/traj",
    "tensor.matmul.self_s": "s/cycle", "tensor.sin.self_s": "s/cycle",
    "tensor.elementwise.self_s": "s/cycle", "tensor.Tape.backward.self_s": "s/cycle",
    "tensor.Tape.backward.calls": "count/cycle", "tensor.ops_per_step": "ops/step",
    "mlp.hidden.b_.s": "s/cycle", "mlp.hidden.t_.s": "s/cycle", "mlp.head.s": "s/cycle",
    "deeponet.predict.calls": "count/cycle", "deeponet.predict.self_s": "s/cycle",
    "deeponet.predict_prob.s": "s/cycle", "deeponet.ensemble_predict.s": "s/cycle",
    "deeponet.predict_calls_per_scored_traj": "ratio", "deeponet.flops_per_predict": "flop",
    "train.loss_and_grads.s": "s/cycle", "train.adam_step.self_s": "s/cycle",
    "train.batch_arrays.s": "s/cycle", "train.steps": "count/cycle",
    "train.flops_per_step": "flop",
    "sghmc.grad_potential.s": "s/cycle", "sghmc.potential_energy.s": "s/cycle",
    "sghmc.grad_evals": "count/cycle", "sghmc.default_eps_probe.failures": "count",
    "checkpoint.unflatten.self_s": "s/cycle", "checkpoint.load_checkpoint.calls": "count/cycle",
    "checkpoint.load_checkpoint.s": "s/cycle", "checkpoint.bytes_read": "B/cycle",
    "checkpoint.save_checkpoint.s": "s/cycle", "checkpoint.bytes_per_bayes_cmd": "B",
    "dataset.build_train.s": "s/cycle", "dataset.build_test.s": "s/cycle",
    "dataset.build_test.calls": "count/cycle",
    "uqeval.self_s": "s/cycle", "cli.file_sha256.s": "s/cycle",
    "cli.file_sha256.bytes": "B/cycle", "cli.write_csv.s": "s/cycle",
    **{f"cli.stage.{s}.self_s": "s/cycle" for s in STAGES},
    **{f"cli.stage.{s}.{k}_share": "frac" for s in BREAKDOWN_STAGES for k in BREAKDOWN_SPANS},
    **{f"{m}.share": "frac" for m in MODULES},
    "trace.overhead_frac": "frac",
}
# derived from the geometry or the artifacts rather than timed or counted
COMPUTED = ("gridsim.rk4_steps", "train.flops_per_step", "deeponet.flops_per_predict",
            "checkpoint.bytes_per_bayes_cmd")
# The traced cycles must load the layers each workload targets.
SHARE_GROUPS = (("gridsim",), ("tensor", "train", "sghmc"), ("deeponet", "mlp", "checkpoint"))
TARGET_LAYERS = {"build": SHARE_GROUPS[0] + SHARE_GROUPS[1], "serve": SHARE_GROUPS[2]}


# Reference work timed before every command. The host runs this VM 20-50%
# faster or slower for tens of seconds at a time, and the commands slow down
# together with these kernels, so every timing metric is scaled by the run's
# slowdown: the geometric mean over the kernels of median / nominal time. The
# kernels cover the program's three kinds of work (scalar floats in the RK4,
# BLAS and transcendentals in the tape, memory copies in checkpoint loads);
# the nominal times are their medians on the 2-vCPU development host.
_RNG = np.random.default_rng(0)
_A, _W = _RNG.standard_normal((256, 200)), _RNG.standard_normal((200, 100)) * 0.1
_BUF = _RNG.standard_normal(1 << 20)


def _scalar_floats():
    s = 0.0
    for i in range(3000):
        s += math.sin(i * 1e-3)
    return s


REFERENCE_WORK = {  # name -> (kernel, nominal seconds)
    "python": (_scalar_floats, 0.40e-3),
    "blas": (lambda: np.sin(_A @ _W), 1.18e-3),
    "memory": (_BUF.copy, 2.45e-3),
}


class SetupFailed(RuntimeError):
    pass


class Bench:
    def __init__(self, cli, workload: str, seed: int, root: Path):
        self.cli = cli
        self.workload = workload
        self.seed = str(seed)
        self.root = root
        self.seed_wd, self.ref_wd, self.side_wd = root / "seed", root / "ref", root / "side"
        self.attempted = 0
        self.failures: list[str] = []
        self.samples = defaultdict(list)  # key -> per-command rates (latency for predict)
        self.notes: list[str] = []
        self.reference_times = defaultdict(list)  # kernel -> seconds
        self.rss_pid = self.rss_pipe = None  # the peak-RSS child
        self.timing = True  # time the reference work before each command

    # ---------------------------------------------------------- operations
    def run_cmd(self, wd: Path, cmd: Cmd) -> float | None:
        for name, (kernel, _) in REFERENCE_WORK.items() if self.timing else ():
            t0 = time.perf_counter()
            kernel()
            self.reference_times[name].append(time.perf_counter() - t0)
        argv = ["--workdir", str(wd)]
        if cmd.config:
            argv += ["--config", str(self.root / "config.ini")]
        argv += list(cmd.argv)
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            rc = e.code
        except Exception as e:  # noqa: BLE001 - count the operation as failed, go on
            rc = f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        self.attempted += 1
        if rc != 0:
            msg = err.getvalue().strip().splitlines()[-1:] or [""]
            self.failures.append(f"{' '.join(cmd.argv)}: exit {rc} {msg[0]}")
            return None
        if cmd.key:
            work = cmd.work(wd) if callable(cmd.work) else cmd.work
            self.samples[cmd.key].append(dt if work is None else work / dt)
        return dt

    def check(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"check {what}: " + "; ".join(problems[:3]))

    def read(self, what: str, fn):
        """fn(), which reads artifacts; if one is missing or malformed (a
        command failed before writing it), a failed check and None."""
        try:
            return fn()
        except (OSError, KeyError, ValueError, StopIteration) as e:
            self.check(what, [f"cannot read the outputs: {type(e).__name__}: {e}"])
            return None

    def checked(self, what: str, fn) -> None:
        """Check `fn()`'s problems, or fail the check if it cannot read."""
        problems = self.read(what, fn)
        if problems is not None:
            self.check(what, problems)

    def failed_result(self) -> dict:
        return {"correct": False, "attempted": self.attempted, "failed": len(self.failures),
                "metrics": {}}

    def cycle(self, wd: Path, cmds) -> float | None:
        t0 = time.perf_counter()
        for c in cmds:
            if self.run_cmd(wd, c) is None:
                return None
        return time.perf_counter() - t0

    # -------------------------------------------------------------- phases
    def setup(self) -> list[float]:
        (self.root / "config.ini").write_text(CONFIG_INI)
        times, digests = [], []
        for which in SETUP_SEEDS:
            wd = self.ref_wd if which == "ref" else self.seed_wd
            shutil.rmtree(wd, ignore_errors=True)
            s = str(REF_SEED) if which == "ref" else self.seed
            dt = self.cycle(wd, setup_cmds(s))
            if dt is None:
                raise SetupFailed(self.failures[-1])
            times.append(dt)
            if which == "seed":
                digests.append(checks.tree_digest(wd, ("pools", "dataset", "models")))
        self.check("set-up repeat is byte-identical",
                   [] if digests[0] == digests[1] else ["artifact digests differ"])
        return times

    def loop(self, seconds: float, side: bool, tracer: Tracer | None = None,
             modules=None) -> list[float]:
        """Whole cycles (each followed by a side round if `side`) until
        `seconds` have passed; returns the workload's own cycle times."""
        own, extra = CYCLES[self.workload](self.seed), SIDE[self.workload](self.seed)
        side_wd = self.ref_wd if self.workload == "build" else self.side_wd
        other = "serve" if self.workload == "build" else "build"
        times, first = [], {}
        deadline = time.perf_counter() + seconds
        while not times or time.perf_counter() < deadline:
            if tracer:
                tracer.install(modules)
            try:
                dt = self.cycle(self.seed_wd, own)
            finally:
                if tracer:
                    tracer.uninstall()
            if dt is None:
                break
            times.append(dt)
            self.check_repeat(first, "cycle", self.seed_wd, OUTPUTS[self.workload])
            if side:
                if self.cycle(side_wd, extra) is None:
                    break
                self.check_repeat(first, "side round", side_wd, OUTPUTS[other])
        return times

    def check_repeat(self, first: dict, what: str, wd: Path, subdirs) -> None:
        digest = checks.tree_digest(wd, subdirs)
        if what not in first:
            first[what] = digest
            if "eval" in subdirs:
                self.check_serve_outputs(wd)
        else:
            self.check(f"{what} repeat is byte-identical",
                       [] if digest == first[what] else ["artifact digests differ"])

    def check_serve_outputs(self, wd: Path) -> None:
        self.checked("alarm flags", lambda: checks.check_alarms(
            wd / "eval" / "bayes_alarms.csv", _n_test(wd)))
        preds = sorted((wd / "eval").glob("predict_bayes_*.csv"))
        self.checked("predict rows", lambda: checks.check_predict(preds[0], MESH) if preds
                     else ["no predict CSV"])

    def reference(self, refs: dict) -> None:
        """Set-up and serve outputs at REF_SEED against refs.json."""
        wd = self.ref_wd
        if not (wd / "eval" / "bayes_eval.manifest.json").exists():
            for c in serve_metric_cmds():  # build's side rounds already ran these
                self.run_cmd(wd, Cmd("", c.argv))  # outside the loop: no samples
        self.checked("reference pool",
                     lambda: checks.check_pool(checks.pool_summary(wd), refs["pool"]))
        self.checked("reference best losses",
                     lambda: checks.check_losses(checks.best_losses(wd), refs["losses"]))
        for w in ("vanilla", "prob", "bayes"):
            self.checked(f"reference evaluate {w}", lambda w=w: checks.check_aggregate(
                w, checks.eval_aggregate(wd, w), refs["evaluate"][w]))

    def quality(self, refs: dict) -> dict | None:
        """Builds the quality case, checks it against refs.json and returns
        its guard values (None if a command failed)."""
        wd = self.root / "quality"
        if self.cycle(wd, quality_cmds()) is None:
            return None
        got = self.read("quality outputs", lambda: quality_values(wd))
        if got is not None:
            self.check("quality case", checks.check_quality(got, refs["quality"]))
        return got

    # peak_rss_mb comes from one more of the workload's own cycles, run
    # untimed in a child forked before set-up. A forked child's peak starts
    # from the RSS it inherits, so forking before set-up, whose 100-member
    # chain grows this process, leaves the child's peak to the interpreter,
    # the imports and that one cycle. The child waits on a pipe until the
    # timed loop is over, then runs while this process does the untimed
    # checks, which touch none of the child's files. Forking is safe here:
    # the process has no threads (BLAS is pinned to one).
    def fork_rss_child(self) -> None:
        sys.stdout.flush()
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(w)
            code = 1
            try:
                go = os.read(r, 1) == b"y"
                code = 0 if not go or self.cycle(self.seed_wd, CYCLES[self.workload](self.seed)) \
                    else 1
            finally:
                os._exit(code)
        os.close(r)
        self.rss_pid, self.rss_pipe = pid, w

    def release_rss_child(self, run: bool = False) -> None:
        """Lets the child run its cycle if `run`, else exit."""
        if self.rss_pipe is not None:
            if run:
                os.write(self.rss_pipe, b"y")
            os.close(self.rss_pipe)
            self.rss_pipe = None

    def wait_rss_child(self) -> int | None:
        """The child's exit code once it has ended (None if there is none)."""
        if self.rss_pid is None:
            return None
        pid, self.rss_pid = self.rss_pid, None
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    def peak_rss_mb(self) -> float | None:
        code = self.wait_rss_child()
        self.check("peak-RSS cycle", [] if code == 0 else [f"child exited {code}"])
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024 if code == 0 else None

    def default_eps_probe(self) -> int:
        """One outer SGHMC iteration at every default but the chain length.

        A known defect: it usually ends non-finite. The outcome is reported
        (sghmc.default_eps_probe.failures and a note) but is not counted as
        a failed operation, so the failure count stays a regression signal.
        """
        argv = ["--workdir", str(self.seed_wd), "sghmc", "--n-outer", "1", "--burn-in", "0",
                "--thinning", "1", "--m-ensemble", "1", "--seed", self.seed]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        detail = (err.getvalue().strip().splitlines() or [""])[-1] if rc else "survived"
        self.notes.append(f"default-eps_t SGHMC probe: exit {rc} ({detail})")
        return int(rc != 0)

    # ------------------------------------------------------------- metrics
    def slowdown(self) -> float:
        """How much slower than nominal the reference work ran in this run."""
        logs = [math.log(statistics.median(self.reference_times[name]) / nominal)
                for name, (_, nominal) in REFERENCE_WORK.items()]
        return math.exp(statistics.fmean(logs))

    def e2e(self, setup_times, cycle_times, rss, quality) -> dict | None:
        """The end-to-end metrics, or None if a failure left one without
        samples."""
        q = quality or {"bayes": {}}
        derived = {
            "setup_s": setup_times,
            "wall_s": cycle_times,
            "peak_rss_mb": [rss],
            "train_vanilla_best_loss": [q.get("vanilla_loss")],
            "eval_bayes_mean_L2_pct": [q["bayes"].get("mean_L2")],
            "eval_bayes_eps_ratio_pct": [q["bayes"].get("eps_ratio")],
        }
        slow = self.slowdown()
        self.notes.append(f"slowdown {slow:.4f}: timings below are scaled to the nominal host "
                          "(rates x slowdown, seconds / slowdown)")
        out = {}
        for name, unit, better, key in E2E:
            vals = [v for v in (derived[name] if key is None else self.samples[key])
                    if v is not None]
            if not vals:
                self.notes.append(f"{name}: no samples, because an operation failed")
                return None
            raw = statistics.median(vals)
            value = raw * slow if unit.endswith("/s") else raw / slow if unit == "s" else raw
            out[name] = {"value": value, "unit": unit}
            self.notes.append(f"{name:28s} {value:12.6g} {unit:9s} ({better} is better; raw "
                              f"median of {len(vals)} {raw:.6g}, range {min(vals):.6g}-"
                              f"{max(vals):.6g})")
        return out

    def layers(self, tracer, plain, traced, probe) -> dict | None:
        """The per-layer metrics, or None if a failure left them without
        cycles or artifacts to read."""
        if not plain or not traced:
            self.notes.append("no per-layer metrics: a cycle failed")
            return None
        computed = self.read("computed counts", lambda: {
            **computed_counts(self.seed_wd), "gridsim.accept_ratio": accept_ratio(self.seed_wd),
            "scored": len(traced) * sum(c.work(self.seed_wd) for c in serve_cmds()
                                        if c.argv[0] == "evaluate")
            if self.workload == "serve" else 0})
        if computed is None:
            return None
        scored = computed.pop("scored")
        table = SpanTable(tracer)
        layer = layer_metrics(table, len(traced), scored)
        for group in SHARE_GROUPS:
            self.notes.append(f"layers {'+'.join(group)}: {table.share(group):.3f} of traced time")
        share = table.share(TARGET_LAYERS[self.workload])
        self.check("target layers carry most of the traced time",
                   [] if share > 0.5 else [f"share {share:.3f}"])
        if self.workload == "serve":
            for name in ("gridsim.simulate.calls", "tensor.Tape.backward.calls"):
                self.check(f"serve makes no {name}",
                           [] if layer[name] == 0 else [f"{layer[name]} per cycle"])
        layer.update(computed)
        layer["sghmc.default_eps_probe.failures"] = float(probe)
        layer["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
        out = {}
        for name, unit in PER_LAYER_UNITS.items():
            out[name] = {"value": layer[name], "unit": unit}
            tag = "computed" if name in COMPUTED else "measured"
            self.notes.append(f"{name:42s} {layer[name]:14.6g} {unit:12s} {tag}")
        return out


def rk4_steps_per_traj(wd: Path, h_max: float = 1e-3) -> float:
    """RK4 steps `simulate` takes per trajectory (same interval split)."""
    total, count = 0, 0
    for kind in ("n1", "n2"):
        with open(wd / "pools" / f"{kind}.jsonl") as f:
            for line in f:
                rec = json.loads(line)
                n = int(round(rec["T"] * rec["sample_rate"]))
                t_prev = 0.0
                for t_next in (np.arange(n) + 1) * (1.0 / rec["sample_rate"]):
                    cuts = [t_prev] + [b for b in (rec["t_f"], rec["t_cl"])
                                       if t_prev < b < t_next] + [t_next]
                    for a, b in zip(cuts[:-1], cuts[1:]):
                        if b - a > 0:
                            total += max(1, int(np.ceil((b - a) / h_max - 1e-12)))
                    t_prev = t_next
                count += 1
    return total / count


def matmul_flops(rows: int, fan_in: int) -> int:
    """Forward matmul FLOPs (2*n*k*m) of one gated MLP on `rows` inputs."""
    w, d, q = GEOMETRY["width"], GEOMETRY["depth"], GEOMETRY["q"]
    return 2 * rows * (3 * fan_in * w + (d - 1) * w * w + w * q)


def computed_counts(wd: Path) -> dict:
    b, m, q = GEOMETRY["batch"], GEOMETRY["m"], GEOMETRY["q"]
    member = next((wd / "models" / "bayes").glob("member_*.ckpt"))
    return {
        "gridsim.rk4_steps": rk4_steps_per_traj(wd),
        # the tape's matmul vjp forms both operand gradients: 2x the forward
        "train.flops_per_step": 3 * (matmul_flops(b, m) + matmul_flops(b, 1)),
        "deeponet.flops_per_predict": matmul_flops(1, m) + matmul_flops(MESH, 1) + 2 * MESH * q,
        "checkpoint.bytes_per_bayes_cmd": SERVE_CHAIN["members"] * member.stat().st_size,
    }


def accept_ratio(wd: Path) -> float:
    pools = json.loads((wd / "pools" / "simulate.manifest.json").read_text())["pools"]
    acc = sum(p["accepted"] for p in pools.values())
    return acc / (acc + sum(p["rejections"] for p in pools.values()))


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"host": platform.node(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": BLAS_THREADS}


def import_gridonet(src: Path):
    """The package under test must come from ./src, not from elsewhere."""
    sys.path.insert(0, str(src))
    try:
        import gridonet
        cli = importlib.import_module("gridonet.cli")
    except ImportError as e:
        raise SystemExit(f"error: cannot import gridonet from {src}: {e}")
    if Path(gridonet.__file__).resolve().parent != (src / "gridonet").resolve():
        raise SystemExit(f"error: gridonet resolved to {gridonet.__file__}, not {src}")
    return cli, {m: importlib.import_module(f"gridonet.{m}") for m in MODULES}


def bench(args, cli, modules, root: Path):
    b = Bench(cli, args.workload, args.seed, root)
    if not args.trace:
        b.fork_rss_child()
    try:
        return run_phases(b, args, modules)
    finally:
        b.release_rss_child()
        b.wait_rss_child()


def run_phases(b: Bench, args, modules):
    refs = checks.load_refs()
    try:
        setup_times = b.setup()
    except SetupFailed:
        return b.failed_result(), b
    if args.trace:
        # untraced then traced halves of the workload's own cycles; the
        # ratio of their cycle times is the tracing overhead
        plain = b.loop(args.seconds / 2, side=False)
        tracer = Tracer()
        traced = (b.loop(args.seconds / 2, side=False, tracer=tracer, modules=modules)
                  if plain else [])
    else:
        plain = b.loop(args.seconds, side=True)
    b.timing = False  # the rest is untimed
    probe = b.default_eps_probe() if args.workload == "build" else 0
    b.release_rss_child(run=bool(plain))
    b.reference(refs)
    if args.trace:
        metrics = b.layers(tracer, plain, traced, probe)
    else:
        quality = b.quality(refs) if plain else None
        metrics = b.e2e(setup_times, plain, b.peak_rss_mb() if plain else None, quality)
    if metrics is None:
        return b.failed_result(), b
    return {"correct": not b.failures, "attempted": b.attempted,
            "failed": len(b.failures), "metrics": metrics}, b


def record(cli, root: Path) -> None:
    b = Bench(cli, "build", REF_SEED, root)
    (root / "config.ini").write_text(CONFIG_INI)
    quality_wd = root / "quality"
    for wd, cmds in ((b.ref_wd, setup_cmds(str(REF_SEED)) + serve_metric_cmds()),
                     (quality_wd, quality_cmds())):
        for c in cmds:
            if b.run_cmd(wd, c) is None:
                raise SystemExit(f"error: {b.failures[-1]}")
    checks.save_refs({
        "seed": REF_SEED,
        "pool": checks.pool_summary(b.ref_wd),
        "losses": checks.best_losses(b.ref_wd),
        "evaluate": {w: checks.eval_aggregate(b.ref_wd, w)
                     for w in ("vanilla", "prob", "bayes")},
        "quality": quality_values(quality_wd),
    })
    print(f"wrote {checks.REFS_PATH}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true", help="re-measure refs.json")
    args = p.parse_args(argv)
    if not args.record and args.workload is None:
        p.error("--workload is required")
    cli, modules = import_gridonet(Path.cwd() / "src")
    work = Path.cwd() / ".perfbench_work"
    root = work / f"{args.workload or 'record'}-{args.seed}-{os.getpid()}"
    root.mkdir(parents=True)
    try:
        if args.record:
            record(cli, root)
            return 0
        result, b = bench(args, cli, modules, root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.rmdir()
    print("# env " + json.dumps(environment(), sort_keys=True))
    print("# samples " + json.dumps(b.samples, sort_keys=True))
    for line in b.notes + [f"FAILED {f}" for f in b.failures]:
        print("# " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
