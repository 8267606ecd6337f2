"""CLI contract: the option table, exit codes, stale inputs, byte-identical reruns."""

import csv
import dataclasses
import hashlib
import inspect
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gridonet import cli, sghmc
from gridonet import gridsim as gs
from gridonet.checkpoint import load_checkpoint, save_checkpoint
from gridonet.dataset import SplitSpec
from gridonet.deeponet import DeepOnetConfig, layout
from gridonet.sghmc import BayesConfig
from gridonet.train import TrainConfig
from gridonet.uqeval import residual_normality

INI = "[deeponet]\nq = 4\nwidth = 6\ndepth = 2\n[sghmc]\nm_inner = 2\n[evaluate]\nbands = 1\n"
WHICH = ("vanilla", "prob", "bayes")
PIPELINE = (
    ("simulate", "--n1", "2", "--n2", "2", "--seed", "1"),
    ("dataset", "--m", "20", "--queries", "4", "--train-frac", "0.5", "--seed", "1"),
    *(("train", "--model", k, "--epochs", "3", "--lr", "1e-3", "--batch-size", "4")
      for k in ("vanilla", "prob")),
    ("sghmc", "--eps-t", "1e-6", "--n-outer", "3", "--burn-in", "0", "--thinning", "1",
     "--m-ensemble", "3", "--batch-size", "4"),
    *(("evaluate", "--which", w) for w in WHICH),
    ("evaluate", "--which", "bayes", "--noise", "0.01"),
    *(("residuals", "--which", w) for w in WHICH),
    *(("predict", "--which", w) for w in WHICH),
    *(("alarms", "--which", w) for w in ("prob", "bayes")),
)
# sha256 of every artifact of the tiny pipeline, under the host it was recorded on
PINS = Path(__file__).with_name("pipeline.sha256")


def run(capsys, wd, *argv, config=None):
    """(exit code, stderr lines) of one in-process CLI call."""
    capsys.readouterr()
    rc = cli.main([*(("--config", str(config)) if config else ()), "--workdir", str(wd), *argv])
    return rc, capsys.readouterr().err.splitlines()


def digests(root):
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def host() -> list[str]:
    """What the artifact bytes depend on besides the code: numpy, its BLAS, the CPU."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return [f"numpy {np.__version__}", f"blas {blas.get('name')} {blas.get('version')}",
            f"machine {platform.machine()}"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A finished tiny pipeline, run twice into the same relative workdir from a
    fixed cwd, so that the paths the manifests echo do not depend on the tmp
    dir: (workdir, first run's digests, second run's digests, INI path)."""
    base = tmp_path_factory.mktemp("cli")
    (base / "tiny.ini").write_text(INI)
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(base)
        for _ in range(2):
            shutil.rmtree("wd", ignore_errors=True)
            for argv in PIPELINE:
                assert cli.main(["--config", "tiny.ini", "--workdir", "wd", *argv]) == 0, argv
            runs.append(digests(base / "wd"))
    return base / "wd", runs[0], runs[1], base / "tiny.ini"


@pytest.fixture
def workdir_copy(pipeline, tmp_path):
    wd = tmp_path / "wd"
    shutil.copytree(pipeline[0], wd)
    return wd


def test_rerun_is_byte_identical(pipeline):
    _, first, second, _ = pipeline
    assert len(first) >= 40
    assert first == second


def test_artifacts_match_the_pins(pipeline, tmp_path):
    got = pipeline[1]
    fresh = tmp_path / PINS.name  # what to commit after a declared artifact change
    fresh.write_text("".join(f"# {line}\n" for line in host())
                     + "".join(f"{d}  {name}\n" for name, d in got.items()))
    lines = PINS.read_text().splitlines()
    recorded = [line[2:] for line in lines if line.startswith("# ")]
    pins = {name: d for d, name in (line.split("  ", 1) for line in lines
                                    if not line.startswith("#"))}
    moved = sorted(name for name in pins.keys() | got.keys() if pins.get(name) != got.get(name))
    assert not moved or recorded == host(), (
        f"{len(moved)} artifacts differ from {PINS.name}, which was recorded on "
        f"{recorded}; this host runs {host()}")
    assert not moved, f"artifacts moved from {PINS.name}: {moved}; this run's pins: {fresh}"


def _flag_cases():
    for section, key, default, cast, _, _, commands in cli.OPTIONS:
        for command in commands:
            yield pytest.param(section, key, default, cast, command,
                               id=f"{command}-{section}.{key}")


@pytest.mark.parametrize("section, key, default, cast, command", list(_flag_cases()))
def test_flag_and_ini_echo_the_same_config(monkeypatch, tmp_path, capsys,
                                           section, key, default, cast, command):
    value = {int: "7", float: "0.25", str: str(tmp_path / "elsewhere")}[cast]
    assert value != default
    seen = []
    target = "simulate" if command == cli.TOP else command
    monkeypatch.setattr(cli, f"cmd_{target}", lambda cfg, args: seen.append(cfg) or 0)
    required = {"train": ("--model", "vanilla"), "predict": ("--which", "prob"),
                "evaluate": ("--which", "prob"), "alarms": ("--which", "prob")}
    flag = ("--" + key.replace("_", "-"), value)
    argv = [*(flag if command == cli.TOP else ()), target, *required.get(target, ()),
            *(() if command == cli.TOP else flag)]
    ini = tmp_path / "set.ini"
    ini.write_text(f"[{section}]\n{key} = {value}\n")
    assert cli.main(argv) == 0
    assert cli.main(["--config", str(ini), target, *required.get(target, ())]) == 0
    by_flag, by_ini = seen
    assert by_flag[section][key] == value
    assert by_flag == by_ini
    assert cli.opts(by_flag, section)[key] == cast(value)


def test_options_table_has_one_row_per_key():
    pairs = [(row[0], row[1]) for row in cli.OPTIONS]
    assert len(pairs) == len(set(pairs))
    assert sum(len(keys) for keys in cli.DEFAULTS.values()) == len(pairs)
    for section, key, default, cast, domain, _, _ in cli.OPTIONS:
        assert domain is None or domain in cli.DOMAINS, (section, key)
        assert cli.check(key, cast(default), domain) == cast(default)


def test_config_defaults_agree_with_the_options_table():
    """Each default spelled again beside its `OPTIONS` row, by a config
    dataclass or a function, is the row's. `load_scale` differs on purpose:
    `build_model` defaults to the unscaled model, and the CLI runs at 1.51."""
    row = {(section, key): cast(default) for section, key, default, cast, *_ in cli.OPTIONS}
    spelled = {}
    for config, sections in ((TrainConfig, ("train",)), (BayesConfig, ("sghmc",)),
                             (DeepOnetConfig, ("deeponet", "dataset")), (SplitSpec, ("dataset",))):
        for f in dataclasses.fields(config):
            hit = next(((s, f.name) for s in sections if (s, f.name) in row), None)
            if hit and f.default is not dataclasses.MISSING:
                spelled[f"{config.__name__}.{f.name}"] = (f.default, row[hit])
    for fn, name in ((gs.simulate, "h_max"), (gs.generate_pools, "h_max"),
                     (gs.build_model, "monitor_bus")):
        spelled[f"{fn.__name__}.{name}"] = (inspect.signature(fn).parameters[name].default,
                                            row["simulate", name])
    assert len(spelled) == 6 + 12 + 4 + 3 + 3
    assert {k: v for k, v in spelled.items() if v[0] != v[1]} == {}


def test_bad_ini_value_is_a_usage_error(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[train]\nepochs = many\n")
    rc, err = run(capsys, tmp_path / "wd", "train", "--model", "vanilla", config=ini)
    assert rc == 2 and err == ["error: bad value for [train] epochs: 'many'"]


@pytest.mark.parametrize("argv, message", [
    (("train", "--model", "vanilla", "--epochs", "0"), "epochs must be >= 1"),
    (("dataset", "--train-frac", "1.5"), "invalid split spec"),
    (("sghmc", "--n-outer", "5", "--burn-in", "1", "--thinning", "1", "--m-ensemble", "9"),
     "retains only 4"),
    (("simulate", "--monitor-bus", "99"), "monitor_bus must be in [0, 9)"),
    (("evaluate", "--which", "vanilla", "--count", "0"), "count must be >= 1"),
    (("simulate", "--h-max", "0"), "h_max must be finite and > 0"),
    (("simulate", "--h-max", "nan"), "h_max must be finite and > 0"),
    (("simulate", "--h-max", "-1"), "h_max must be finite and > 0"),
    (("evaluate", "--which", "prob", "--level", "1.5"), "level must be in (0, 1)"),
    (("evaluate", "--which", "vanilla", "--level", "nan"), "level must be in (0, 1)"),
    (("alarms", "--which", "bayes", "--level", "0"), "level must be in (0, 1)"),
    (("predict", "--which", "vanilla", "--level", "-0.5"), "level must be in (0, 1)"),
    (("evaluate", "--which", "vanilla", "--noise", "nan"), "--noise must be finite and >= 0"),
    (("evaluate", "--which", "vanilla", "--chi-max", "-1"), "chi_max must be finite and >= 0"),
    (("evaluate", "--which", "vanilla", "--chi-points", "-1"), "chi_points must be >= 1"),
    (("train", "--model", "vanilla", "--lr", "nan"), "lr must be finite and > 0, got nan"),
    (("train", "--model", "vanilla", "--lr", "inf"), "lr must be finite and > 0, got inf"),
    (("train", "--model", "prob", "--min-lr", "nan"), "min_lr must be finite and > 0, got nan"),
    (("train", "--model", "vanilla", "--patience", "-1"), "patience must be >= 0, got -1"),
    (("sghmc", "--eps-t", "nan"), "eps_t must be finite and > 0, got nan"),
    (("sghmc", "--c", "inf"), "need finite C >= B_hat >= 0"),
    (("simulate", "--load-scale", "-1"), "load_scale must be finite and > 0, got -1.0"),
    (("simulate", "--load-scale", "nan"), "load_scale must be finite and > 0, got nan"),
    (("simulate", "--seed", "-1"), "seed must be >= 0, got -1"),
    (("dataset", "--seed", "-1"), "seed must be >= 0, got -1"),
    (("train", "--model", "vanilla", "--seed", "-1"), "seed must be >= 0, got -1"),
    (("sghmc", "--seed", "-1"), "seed must be >= 0, got -1"),
    (("evaluate", "--which", "bayes", "--seed", "-1"), "seed must be >= 0, got -1"),
    (("dataset", "--query-seed", "-1"), "query_seed must be >= 0, got -1"),
    (("evaluate", "--which", "prob", "--noise-seed", "-1"), "noise_seed must be >= 0, got -1"),
    (("evaluate", "--which", "vanilla", "--bands", "-1"), "bands must be >= 0, got -1"),
    (("simulate", "--h-max", "9e-6"), "h_max must be finite and > 0, at least 1e-5 s, got 9e-06"),
    (("train", "--model", "vanilla", "--lr", "1e-7"),
     "min_lr must be <= lr, got min_lr=1e-06 > lr=1e-07"),
])
def test_invalid_config_value_exits_2(tmp_path, capsys, argv, message):
    rc, err = run(capsys, tmp_path / "wd", *argv)
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


@pytest.mark.parametrize("text", [
    "epochs = 3\n",
    "[train]\nepochs = 3\n[train]\nlr = 1e-3\n",
    "[train]\nepochs = 3\nepochs = 4\n",
    None,
], ids=["no-section-header", "duplicate-section", "duplicate-key",
        "directory"])
def test_bad_config_file_is_a_usage_error(tmp_path, capsys, text):
    ini = tmp_path / "bad.ini"
    if text is None:
        ini.mkdir()
    else:
        ini.write_text(text)
    rc, err = run(capsys, tmp_path / "wd", "simulate", "--n1", "1", "--n2", "1", config=ini)
    assert rc == 2
    assert len(err) == 1 and err[0].startswith(f"error: bad config file {ini}: ")
    assert not (tmp_path / "wd").exists()


@pytest.mark.parametrize("text, message", [
    (None, "config file not found: {ini}"),
    ("[x]\nepochs = 3\n", "unknown config section [x]"),
    ("[train]\nx = 3\n", "unknown config key [train] x"),
], ids=["missing", "unknown-section", "unknown-key"])
def test_unknown_config_file_section_or_key_exits_2(tmp_path, capsys, text, message):
    ini = tmp_path / "cfg.ini"
    if text is not None:
        ini.write_text(text)
    rc, err = run(capsys, tmp_path / "wd", "simulate", "--n1", "1", "--n2", "1", config=ini)
    assert (rc, err) == (2, [f"error: {message.format(ini=ini)}"])
    assert not (tmp_path / "wd").exists()


def test_every_csv_cell_is_a_number(pipeline):
    """Every data cell of every CSV the tiny pipeline writes parses with int()
    or float(): no numpy repr such as np.float64(...) leaks into a file."""
    paths = sorted(pipeline[0].rglob("*.csv"))
    assert len(paths) >= 10
    bad = []
    for path in paths:
        for row in list(csv.reader(path.read_text().splitlines()))[1:]:
            for cell in row:
                try:
                    int(cell)
                except ValueError:
                    try:
                        float(cell)
                    except ValueError:
                        bad.append(f"{path.relative_to(pipeline[0])}: {cell}")
    assert not bad, bad[:5]


def test_power_flow_failure_exits_1(tmp_path, capsys):
    rc, err = run(capsys, tmp_path / "wd", "simulate", "--load-scale", "3.0",
                  "--n1", "1", "--n2", "1")
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: power flow did not converge")


DIVERGED = "non-physical state at t=1.70s (|V|=2.100)"


@pytest.fixture
def second_run_diverges(monkeypatch, tmp_path):
    """gridsim.simulate raising SimulationDiverged on the second scenario drawn.

    Positions count the scenarios in the order they are drawn, over every pool
    of the call. The fixture's sets name where simulate raises
    SimulationDiverged (`diverge`, {1} by default), SIGKILLs its own process
    (`kill`), raises KeyboardInterrupt (`interrupt`) or sleeps 60 s first
    (`stall`); a divergence in the caller waits first for the child to log
    `wait_for`, if set. `calls()` is
    the (pid, position) of every call, read from a log that the caller and
    its forked child both append to."""
    real_sample, real_simulate = gs.sample_scenarios, gs.simulate
    log, drawn, caller = tmp_path / "simulate-calls.log", [], os.getpid()

    def calls():
        return [tuple(map(int, line.split())) for line in log.read_text().splitlines()]

    case = SimpleNamespace(diverge={1}, kill=set(), interrupt=set(), stall=set(), wait_for=None,
                           calls=calls)
    log.write_text("")

    def sample_scenarios(*args, **kw):
        out = real_sample(*args, **kw)
        drawn.extend(out)
        return out

    def simulate(model, scenario, **kw):
        pos = drawn.index(scenario)
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {pos}\n")
        if pos in case.stall:
            time.sleep(60)
        if pos in case.kill:
            os.kill(os.getpid(), signal.SIGKILL)
        if pos in case.interrupt:
            raise KeyboardInterrupt
        if pos in case.diverge:
            for _ in range(1000):  # at most 10 s
                if case.wait_for is None or os.getpid() != caller or any(
                        p != caller and at == case.wait_for for p, at in calls()):
                    break
                time.sleep(0.01)
            raise gs.SimulationDiverged(DIVERGED, scenario)
        return real_simulate(model, scenario, **kw)

    monkeypatch.setattr(gs, "sample_scenarios", sample_scenarios)
    monkeypatch.setattr(gs, "simulate", simulate)
    return case


def no_child_left():
    """True if this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def by_process(calls):
    """(positions simulated by this process, positions simulated by any other)."""
    here = [at for pid, at in calls if pid == os.getpid()]
    return here, [at for pid, at in calls if pid != os.getpid()]


def test_diverged_scenario_fails_the_pool(second_run_diverges):
    with pytest.raises(gs.SimulationDiverged):
        gs.generate_pools(gs.build_model(), [(3, "N1", 5)])
    here, there = by_process(second_run_diverges.calls())
    assert here == [0, 1]  # no redraw after the failure
    assert set(there) <= {2}
    assert no_child_left()


def test_diverged_scenario_exits_1(tmp_path, capsys, second_run_diverges):
    rc, err = run(capsys, tmp_path / "wd", "simulate", "--n1", "2", "--n2", "1")
    assert rc == 1
    assert err == ["error: non-physical state at t=1.70s (|V|=2.100)"]
    assert not (tmp_path / "wd" / "pools" / "n1.jsonl").exists()
    assert no_child_left()


def test_a_divergence_in_the_childs_half_is_raised_with_its_scenario(second_run_diverges):
    second_run_diverges.diverge = {2}
    model = gs.build_model()
    with pytest.raises(gs.SimulationDiverged) as caught:
        gs.generate_pools(model, [(3, "N1", 5)])
    assert (type(caught.value), str(caught.value)) == (gs.SimulationDiverged, DIVERGED)
    assert caught.value.scenario == gs.sample_scenarios(model, 3, "N1", 5)[2]
    assert by_process(second_run_diverges.calls()) == ([0, 1], [2])
    assert no_child_left()


def test_the_callers_divergence_wins_over_the_childs(second_run_diverges):
    """Both halves diverge, the child's first: the error raised is the
    caller's, the one a serial loop over the scenarios meets first."""
    second_run_diverges.diverge, second_run_diverges.wait_for = {1, 2}, 2
    model = gs.build_model()
    with pytest.raises(gs.SimulationDiverged) as caught:
        gs.generate_pools(model, [(3, "N1", 5)])
    assert caught.value.scenario == gs.sample_scenarios(model, 3, "N1", 5)[1]
    assert by_process(second_run_diverges.calls()) == ([0, 1], [2])
    assert no_child_left()


def test_a_child_killed_by_a_signal_exits_1(tmp_path, capsys, second_run_diverges):
    second_run_diverges.diverge, second_run_diverges.kill = set(), {2}
    rc, err = run(capsys, tmp_path / "wd", "simulate", "--n1", "2", "--n2", "1")
    assert rc == 1
    assert err == ["error: the simulating child process ended by signal 9 without a result"]
    assert by_process(second_run_diverges.calls()) == ([0, 1], [2])
    assert not (tmp_path / "wd" / "pools" / "n1.jsonl").exists()
    assert no_child_left()


def test_an_interrupt_in_the_callers_half_kills_the_child(second_run_diverges):
    """The child, stalled in its half, is killed rather than awaited."""
    second_run_diverges.diverge, second_run_diverges.interrupt = set(), {0}
    second_run_diverges.stall = {2}
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        gs.generate_pools(gs.build_model(), [(3, "N1", 5)])
    assert time.monotonic() - start < 30
    assert by_process(second_run_diverges.calls())[0] == [0]
    assert no_child_left()


ORPHAN = """
import os, sys, time, types
import numpy as np
from gridonet import gridsim as gs
log, count, nap, size = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), int(sys.argv[4])
caller = os.getpid()

def simulate(model, scenario, **kw):
    if os.getpid() == caller:
        time.sleep(60)
    else:
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\\n")
        time.sleep(nap)
    return types.SimpleNamespace(values=np.zeros(size))

gs.simulate = simulate
gs.generate_pools(gs.build_model(), [(count, "N1", 0)])
"""


def ended(pid) -> bool:
    """True if process pid is gone or a zombie."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def orphan_ends_within(tmp_path, seconds, count, nap, size) -> bool:
    """Run ORPHAN with a `count`-scenario pool whose child sleeps `nap` s per
    scenario and returns `size` floats each; SIGKILL the caller (asleep in its
    own half) once the child has logged, and say whether the child is gone
    `seconds` later. A survivor is killed."""
    log = tmp_path / "child.pid"
    env = {**os.environ, "PYTHONPATH": str(Path(gs.__file__).parents[1])}
    args = [sys.executable, "-c", ORPHAN, str(log), str(count), str(nap), str(size)]
    proc = subprocess.Popen(args, env=env)
    child = None
    try:
        for _ in range(3000):  # at most 30 s
            if log.exists() and "\n" in (text := log.read_text()):
                child = int(text.split()[0])
                break
            time.sleep(0.01)
    finally:
        proc.kill()
        proc.wait(timeout=30)
    assert child is not None, "the child logged no scenario within 30 s"
    try:
        deadline = time.monotonic() + seconds
        while not ended(child) and time.monotonic() < deadline:
            time.sleep(0.01)
        return ended(child)
    finally:
        if not ended(child):
            os.kill(child, signal.SIGKILL)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_a_child_orphaned_by_a_killed_caller_exits(tmp_path):
    """A caller killed without its cleanup leaves the child, past its last
    scenario, blocked on a full pipe; the child holds no read end of its own,
    so its write fails and it exits."""
    assert orphan_ends_within(tmp_path, 10.0, count=2, nap=0.0, size=100_000)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_an_orphaned_child_leaves_before_its_next_scenario(tmp_path):
    """A caller killed without its cleanup leaves its child orphaned in a
    10-scenario half of 0.5 s per scenario; the child sees its parent change
    before its next scenario and exits, well before the half is done."""
    assert orphan_ends_within(tmp_path, 3.0, count=20, nap=0.5, size=1)


def test_pools_run_on_the_caller_and_one_child(monkeypatch, second_run_diverges):
    """The second half of a command's scenarios runs in one child process; a
    one-scenario pool, or a platform without fork, runs all on the caller,
    with the same bytes."""
    second_run_diverges.diverge = set()
    model, draws = gs.build_model(), [(2, "N1", [0, 10]), (1, "N2", [0, 11])]
    forked = gs.generate_pools(model, draws)
    here, there = by_process(second_run_diverges.calls())
    assert here == [0, 1] and there == [2]
    assert [[tr.traj_id for tr in pool] for pool in forked] == [[0, 1], [2]]
    assert len(gs.generate_pools(model, [(1, "N1", 5)])[0]) == 1
    assert by_process(second_run_diverges.calls()[3:]) == ([3], [])
    monkeypatch.delattr(os, "fork")
    serial = gs.generate_pools(model, draws)
    assert by_process(second_run_diverges.calls()[4:]) == ([0, 1, 2], [])
    assert [[tr.values.tobytes() for tr in pool] for pool in serial] == \
        [[tr.values.tobytes() for tr in pool] for pool in forked]
    assert no_child_left()


def test_no_admissible_trip_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(gs, "admissible_trips", lambda model, kind: [])
    rc, err = run(capsys, tmp_path / "wd", "simulate", "--n1", "1", "--n2", "1")
    assert rc == 1
    assert err == ["error: no admissible N1 trips in this model"]


def test_truncated_checkpoint_exits_1(workdir_copy, capsys):
    ckpt = workdir_copy / "models" / "vanilla.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:-8])
    rc, err = run(capsys, workdir_copy, "predict", "--which", "vanilla")
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: ") and "truncated" in err[0]


def test_truncated_last_member_exits_1_and_writes_nothing(workdir_copy, capsys):
    """The last member is read only while `predict` runs; it still fails cleanly."""
    shutil.rmtree(workdir_copy / "eval")
    ckpt = workdir_copy / "models" / "bayes" / "member_002.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:-8])
    rc, err = run(capsys, workdir_copy, "evaluate", "--which", "bayes")
    assert rc == 1
    assert len(err) == 1 and err[0].startswith(f"error: {ckpt}: truncated")
    assert not list(workdir_copy.glob("eval/bayes_*"))


def test_truncated_pool_exits_1(workdir_copy, capsys):
    pool = workdir_copy / "pools" / "n1.jsonl"
    pool.write_bytes(pool.read_bytes()[:3000])
    rc, err = run(capsys, workdir_copy, "dataset")
    assert rc == 1
    assert len(err) == 1 and err[0].startswith(f"error: {pool} line 1: ")


def test_pool_record_of_the_wrong_length_exits_1(workdir_copy, capsys):
    pool = workdir_copy / "pools" / "n2.jsonl"
    first, *rest = pool.read_text().splitlines(keepends=True)
    rec = json.loads(first)
    rec["values"] = rec["values"][:10]
    pool.write_text(json.dumps(rec, sort_keys=True) + "\n" + "".join(rest))
    rc, err = run(capsys, workdir_copy, "dataset")
    assert rc == 1
    assert err == [f"error: {pool} line 1: 10 values, expected 900"]


def _edit(key, *value):
    """An edit that sets the (dotted) `key` of a JSON document to `value`, or
    deletes it if no value is given."""
    def edit(text):
        doc = node = json.loads(text)
        *parents, last = key.split(".")
        for part in parents:
            node = node[part]
        if value:
            node[last] = value[0]
        else:
            del node[last]
        return json.dumps(doc)
    return edit


def _first_record(edit):
    """An edit of a pool file's first record by `edit`, a JSON document edit."""
    def apply(text):
        first, rest = text.split("\n", 1)
        return edit(first) + "\n" + rest
    return apply


VANILLA, BAYES = ("predict", "--which", "vanilla"), ("predict", "--which", "bayes")


@pytest.mark.parametrize("artifact, edit, argv, message", [
    ("dataset/split.json", lambda text: text[:100], VANILLA, "is not valid JSON: "),
    ("dataset/split.json", _edit("train_ids"), VANILLA, "lacks key 'train_ids'"),
    ("dataset/split.json", _edit("spec"), VANILLA, "lacks key 'spec.m'"),
    ("dataset/split.json", _edit("seeds.queries"), VANILLA, "lacks key 'seeds.queries'"),
    ("dataset/split.json", _edit("train_ids", None), ("train", "--model", "vanilla"),
     "is not a valid split: "),
    ("dataset/split.json", _edit("spec.m", "20"), VANILLA, "is not a valid split: "),
    ("dataset/split.json", _edit("seeds.queries", None), ("train", "--model", "vanilla"),
     "is not a valid split: seeds.queries must be an int >= 0, got None"),
    ("dataset/split.json", _edit("seeds.queries", -1), VANILLA,
     "is not a valid split: seeds.queries must be an int >= 0, got -1"),
    ("models/bayes/chain.manifest.json", lambda text: text[:-20], BAYES, "is not valid JSON: "),
    ("models/bayes/chain.manifest.json", _edit("members"), BAYES, "lacks key 'members'"),
    ("models/bayes/chain.manifest.json", _edit("members", [1, 2]), BAYES,
     "is not a valid chain: members is not a list of names"),
], ids=["split-cut", "split-no-train-ids", "split-no-spec", "split-no-query-seed",
        "split-train-ids-null", "split-m-string", "split-query-seed-null",
        "split-query-seed-negative", "chain-cut", "chain-no-members", "chain-members-ints"])
def test_corrupt_json_artifact_exits_1(workdir_copy, capsys, artifact, edit, argv, message):
    path = workdir_copy / artifact
    path.write_text(edit(path.read_text()))
    rc, err = run(capsys, workdir_copy, *argv)
    assert rc == 1
    assert len(err) == 1 and err[0].startswith(f"error: {path} {message}")


@pytest.mark.parametrize("argv", [("dataset",), ("train", "--model", "vanilla"),
                                  ("evaluate", "--which", "vanilla"), ("alarms", "--which", "prob")],
                         ids=["dataset", "train", "evaluate", "alarms"])
def test_non_finite_pool_value_exits_1(pipeline, workdir_copy, capsys, argv):
    pool = workdir_copy / "pools" / "n1.jsonl"
    lines = []
    for line in pool.read_text().splitlines():
        rec = json.loads(line)
        rec["values"][49] = rec["values"][400] = float("nan")
        lines.append(json.dumps(rec, sort_keys=True) + "\n")
    pool.write_text("".join(lines))
    rc, err = run(capsys, workdir_copy, *argv, config=pipeline[3])
    assert rc == 1
    assert err == [f"error: {pool} line 1: non-finite value at sample 49"]


def test_predict_out_in_a_missing_directory_exits_2(workdir_copy, capsys):
    out = workdir_copy / "nodir" / "x.csv"
    rc, err = run(capsys, workdir_copy, "predict", "--which", "vanilla", "--out", str(out))
    assert rc == 2
    assert err == [f"error: cannot write --out {out}: No such file or directory"]


def test_pools_are_described_once(pipeline):
    pools = pipeline[0] / "pools"
    assert sorted(p.name for p in pools.iterdir()) == [
        "n1.jsonl", "n2.jsonl", "simulate.manifest.json"]
    manifest = json.loads((pools / "simulate.manifest.json").read_text())
    o = manifest["config"]["simulate"]
    model = gs.build_model(float(o["load_scale"]), int(o["monitor_bus"]))
    assert manifest["model_hash"] == gs.model_hash(model)


def test_checkpoint_without_geometry_exits_2(workdir_copy, capsys):
    ckpt = workdir_copy / "models" / "vanilla.ckpt"
    save_checkpoint(ckpt, load_checkpoint(ckpt)[0], meta={"kind": "vanilla"})
    rc, err = run(capsys, workdir_copy, "predict", "--which", "vanilla")
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(ckpt) in err[0] and "'m'" in err[0]


def test_a_checkpoint_depth_beyond_its_arrays_exits_2_before_the_layout(workdir_copy, capsys,
                                                                       monkeypatch):
    """A meta depth of 1e9 on a 21-array checkpoint is refused before `layout`,
    which loops once per gate, is asked for more gates than the file holds."""
    ckpt = workdir_copy / "models" / "vanilla.ckpt"
    params, meta = load_checkpoint(ckpt)
    save_checkpoint(ckpt, params, meta={**meta, "depth": 10**9})

    def bounded(net, kind):
        if net.depth > len(params):
            pytest.fail(f"layout asked for {net.depth} gates of a {len(params)}-array file")
        return layout(net, kind)

    monkeypatch.setattr(cli, "layout", bounded)
    rc, err = run(capsys, workdir_copy, "predict", "--which", "vanilla")
    assert rc == 2
    assert len(err) == 1 and err[0].startswith(f"error: {ckpt} does not hold a vanilla net")


@pytest.mark.parametrize("which, source, target", [
    ("vanilla", "prob.ckpt", "vanilla.ckpt"),
    ("prob", "vanilla.ckpt", "prob.ckpt"),
    ("bayes", "prob.ckpt", "bayes/member_001.ckpt"),
])
def test_checkpoint_of_another_layout_exits_2(workdir_copy, capsys, which, source, target):
    models = workdir_copy / "models"
    shutil.copyfile(models / source, models / target)
    rc, err = run(capsys, workdir_copy, "predict", "--which", which)
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"does not hold a {which} net" in err[0]


def test_sghmc_init_of_another_layout_exits_2(pipeline, workdir_copy, capsys):
    models = workdir_copy / "models"
    shutil.copyfile(models / "prob.ckpt", models / "vanilla.ckpt")
    rc, err = run(capsys, workdir_copy, "sghmc", config=pipeline[3])
    assert rc == 2
    assert len(err) == 1 and "vanilla.ckpt does not hold a vanilla net" in err[0]


@pytest.mark.parametrize("argv, gone, writer", [
    (("sghmc",), "models/vanilla.ckpt", "train --model vanilla"),
    (("predict", "--which", "bayes"), "models/bayes/member_001.ckpt", "sghmc"),
    (("evaluate", "--which", "prob"), "dataset/split.json", "dataset"),
    (("train", "--model", "vanilla"), "pools/n2.jsonl", "simulate"),
], ids=["sghmc-init", "bayes-member", "split", "pool"])
def test_missing_input_names_its_writer(pipeline, workdir_copy, capsys, argv, gone, writer):
    (workdir_copy / gone).unlink()
    rc, err = run(capsys, workdir_copy, *argv, config=pipeline[3])
    assert rc == 2
    assert err == [f"error: missing {workdir_copy / gone}; run `{writer}` first"]


def test_sghmc_takes_its_geometry_from_the_init(pipeline, workdir_copy, capsys):
    """Without the INI that set the tiny geometry, the chain still runs on it."""
    sghmc = next(argv for argv in PIPELINE if argv[0] == "sghmc")
    assert run(capsys, workdir_copy, *sghmc)[0] == 0
    models = workdir_copy / "models"
    member = load_checkpoint(models / "bayes" / "member_000.ckpt")[1]
    assert member == {**load_checkpoint(models / "vanilla.ckpt")[1], "kind": "bayes-member"}


@pytest.mark.parametrize("flag", ["--init", "--q", "--width", "--depth"])
def test_sghmc_takes_no_geometry_flags(capsys, flag):
    with pytest.raises(SystemExit) as e:
        cli.main(["sghmc", flag, "1"])
    assert e.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_every_flag_is_read_by_its_command(pipeline, workdir_copy, monkeypatch, capsys):
    """A command reads the config section of each option it takes as a flag."""
    read = {name: set() for name in cli.COMMANDS}
    opts = cli.opts
    monkeypatch.setattr(cli, "opts", lambda cfg, section: read[command].add(section)
                        or opts(cfg, section))
    for argv in PIPELINE:
        command = argv[0]
        assert run(capsys, workdir_copy, *argv, config=pipeline[3])[0] == 0, argv
    for section, key, *_, commands in cli.OPTIONS:
        for name in set(commands) - {cli.TOP}:
            assert section in read[name], f"{name} --{key} is never read"


def test_alarm_probe_before_clearing_exits_2(pipeline, workdir_copy, capsys):
    rc, err = run(capsys, workdir_copy, "alarms", "--which", "prob", "--y-star", "1.0",
                  config=pipeline[3])
    assert rc == 2
    assert err == ["error: y_star must be after the clearing time t_cl=2.0, got 1.0"]


@pytest.mark.parametrize("y_star", ["nan", "9.5"])
def test_alarm_probe_after_horizon_exits_2(pipeline, workdir_copy, capsys, y_star):
    rc, err = run(capsys, workdir_copy, "alarms", "--which", "bayes", "--y-star", y_star,
                  config=pipeline[3])
    assert rc == 2
    assert err == [f"error: y_star must be at most the horizon T=9.0, got {float(y_star)}"]


def test_stale_split_is_refused(pipeline, workdir_copy, capsys):
    ini = pipeline[3]
    assert run(capsys, workdir_copy, "simulate", "--n1", "2", "--n2", "2", "--seed", "7",
               config=ini)[0] == 0
    rc, err = run(capsys, workdir_copy, "evaluate", "--which", "vanilla", config=ini)
    assert rc == 2
    assert err == ["error: pools changed since `dataset`; rerun `dataset`"]


@pytest.mark.parametrize("argv", [("evaluate", "--which", "vanilla", "--bands", "2"),
                                  ("residuals",), ("alarms", "--which", "prob")],
                         ids=["evaluate", "residuals", "alarms"])
def test_read_commands_predict_once(pipeline, workdir_copy, monkeypatch, capsys, argv):
    """One batched predict call scores both test trajectories of the tiny split."""
    inputs = []
    predict = cli.predict
    monkeypatch.setattr(cli, "predict", lambda *a: inputs.append(np.shape(a[2])) or predict(*a))
    assert run(capsys, workdir_copy, *argv, config=pipeline[3])[0] == 0
    assert inputs == [(2, 20)]  # (test trajectories, m)


def test_bayes_members_are_streamed(workdir_copy, monkeypatch, capsys):
    """While `predict --which bayes` runs, at most two members' weights are alive."""
    refs, alive = [], []
    load = cli.load_checkpoint

    def tracked(path):
        params, meta = load(path)
        refs.append([weakref.ref(a) for a in params.values()])
        alive.append(sum(any(r() is not None for r in member) for member in refs))
        return params, meta

    monkeypatch.setattr(cli, "load_checkpoint", tracked)
    assert run(capsys, workdir_copy, "predict", "--which", "bayes")[0] == 0
    assert len(refs) == 3
    assert max(alive) <= 2, alive


# The last pipeline call of each command, which for a reading one runs its band paths
LAST = {argv[0]: argv for argv in PIPELINE}
# One reading command of each kind: the three stages that read the pipeline's
# inputs, and one read command per model
READERS = (*(LAST[name] for name in ("dataset", "train", "sghmc")),
           *(("evaluate", "--which", w) for w in WHICH))


def snapshot(root):
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def restore(root, files):
    """Put the workdir back to `files`, a snapshot of it."""
    for p in root.rglob("*"):
        if p.is_file() and p not in files:
            p.unlink()
    for p, data in files.items():
        if not p.exists() or p.read_bytes() != data:
            p.write_bytes(data)


@pytest.fixture(scope="module")
def shared_copy(pipeline, tmp_path_factory):
    wd = tmp_path_factory.mktemp("shared") / "wd"
    shutil.copytree(pipeline[0], wd)
    return wd, snapshot(wd)


@pytest.fixture
def restored_workdir(shared_copy):
    """A copy of the pipeline's workdir, put back after the test: cheaper
    than `workdir_copy` for many short runs."""
    wd, files = shared_copy
    yield wd
    restore(wd, files)


def corruptions(path, data):
    cases = {
        "empty": b"",
        "half": data[: len(data) // 2],
        # a lost final newline leaves the same document, so drop a content byte
        "last-byte": data.rstrip(b"\n")[:-1],
        "garbage": np.random.default_rng(0).bytes(len(data)),
    }
    if path.suffix == ".json":
        cases.update({"null": b"null", "list": b"[]"})
    return cases


def clean_exit(capsys, wd, argv, config, codes):
    """None if the command exits with one of `codes`, printing nothing to
    stderr on exit 0 and exactly one `error:` line otherwise; else what it did."""
    try:
        rc, err = run(capsys, wd, *argv, config=config)
    except Exception as e:  # a traceback is what this looks for
        return f"raised {type(e).__name__}: {e}"
    one_error = len(err) == 1 and err[0].startswith("error: ")
    if rc not in codes or not (err == [] if rc == 0 else one_error):
        return f"exit {rc}, stderr {err}"
    return None


def test_corrupt_inputs_exit_1_or_2_with_one_error_line(pipeline, workdir_copy, monkeypatch,
                                                        capsys):
    """Each input file a reader passes to `_need`, under each corruption,
    fails each kind of reader that reads it with exit 1 or 2 and one `error:`
    line. Every input lies in a `COMMANDS` output directory, and every pool
    and checkpoint there is an input."""
    config, need, reads = pipeline[3], cli._need, {}

    def recording(cfg, rel):
        reads.setdefault(rel, set()).add(argv)
        return need(cfg, rel)

    monkeypatch.setattr(cli, "_need", recording)
    for argv in READERS:
        assert run(capsys, workdir_copy, *argv, config=config)[0] == 0, argv
    monkeypatch.undo()
    dirs = {out for _, out in cli.COMMANDS.values()}
    assert all(str(Path(rel).parent) in dirs for rel in reads), sorted(reads)
    stored = {str(p.relative_to(workdir_copy)) for d in dirs for p in (workdir_copy / d).iterdir()
              if p.suffix in (".jsonl", ".ckpt")}
    assert stored <= set(reads)  # every pool and checkpoint
    files, bad = snapshot(workdir_copy), []
    for rel, readers in sorted(reads.items()):
        path = workdir_copy / rel
        # every reading stage, and the first read command, that reads the file
        stages = [argv for argv in READERS if argv in readers]
        kinds = ([argv for argv in stages if argv[0] != "evaluate"]
                 + [argv for argv in stages if argv[0] == "evaluate"][:1])
        for how, data in corruptions(path, files[path]).items():
            for argv in kinds:
                path.write_bytes(data)
                fault = clean_exit(capsys, workdir_copy, argv, config, (1, 2))
                if fault:
                    bad.append(f"{rel} {how}, {' '.join(argv[:3])}: {fault}")
                restore(workdir_copy, files)
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("ckpt, member", [("models/prob.ckpt", 0),
                                           ("models/bayes/member_001.ckpt", 1)],
                         ids=["prob", "bayes-member-1"])
@pytest.mark.parametrize("command", ["evaluate", "residuals", "predict", "alarms"])
def test_non_finite_weight_exits_1_with_one_error_line(pipeline, restored_workdir, capsys,
                                                       ckpt, member, command):
    """An inf in one bias of a checkpoint fails each read command with one
    line naming the member, where it would otherwise write NaN curves."""
    path = restored_workdir / ckpt
    params, meta = load_checkpoint(path)
    params["b_u_b"].flat[0] = np.inf
    save_checkpoint(path, params, meta=meta)
    which = "prob" if member == 0 else "bayes"
    rc, err = run(capsys, restored_workdir, command, "--which", which, config=pipeline[3])
    assert (rc, err) == (1, [f"error: member {member} gives non-finite values"])


@pytest.mark.parametrize("artifact, edit, argv, code, message", [
    (None, None, (*LAST["dataset"], "--train-frac", "0.1"), 2,
     "train_frac 0.1 leaves an empty split for N=4"),
    (None, None, (*LAST["sghmc"], "--sigma-l", "1e-300"), 2,
     "sigma_l squared must be finite and > 0, got sigma_l=1e-300"),
    (None, None, (*LAST["sghmc"], "--sigma-l", "1e300"), 2,
     "sigma_l squared must be finite and > 0, got sigma_l=1e+300"),
    (None, None, (*LAST["sghmc"], "--sigma-l", "1e154"), 2,
     "2 pi sigma_l squared must be finite, got sigma_l=1e+154"),
    ("pools/n1.jsonl", lambda text: "", LAST["dataset"], 1, "{path} holds no trajectories"),
    ("dataset/split.json", _edit("spec.T", 20.0), ("evaluate", "--which", "vanilla"), 1,
     "{path} is not a valid split: trajectory 2 ends at 9.000s, needs 20.0s"),
    ("dataset/split.json", _edit("spec.T", 20.0), LAST["train"], 1,
     "{path} is not a valid split: trajectory 2 ends at 9.000s, needs 20.0s"),
    ("dataset/split.json", _edit("spec.n_mesh", 0), ("evaluate", "--which", "vanilla"), 1,
     "{path} is not a valid split: invalid split spec"),
    ("dataset/split.json", _edit("spec.n_mesh", 1), ("residuals",), 1,
     "{path} cannot be scored for residual normality: need at least 8 residuals, got 2"),
    *(("dataset/split.json", _edit("test_ids", []), argv, 1,
       "{path} is not a valid split: train_ids and test_ids must both be non-empty")
      for argv in (("evaluate", "--which", "vanilla"), ("residuals",),
                   ("predict", "--which", "vanilla"))),
    *(("dataset/split.json", _edit("train_ids", []), argv, 1,
       "{path} is not a valid split: train_ids and test_ids must both be non-empty")
      for argv in (LAST["train"], LAST["sghmc"])),
    ("models/bayes/chain.manifest.json", _edit("members", ["", "member_001.ckpt"]),
     LAST["predict"], 1, "{path} is not a valid chain: members is not a list of names"),
    ("models/bayes/chain.manifest.json", _edit("members", ["..", "member_001.ckpt"]),
     LAST["predict"], 2, "missing {path.parent}/..; run `sghmc` first"),
    (None, None, (*LAST["sghmc"], "--prior-lambda", "1e-310"), 2,
     "2 pi / prior_lambda must be finite, got prior_lambda=1e-310"),
    ("dataset/split.json", _edit("spec.t_cl", 1.5), ("evaluate", "--which", "vanilla"), 1,
     "{path} is not a valid split: trajectory 2 clears at 2.0s, needs t_cl=1.5s"),
    ("dataset/split.json", _edit("spec.m", 10), ("evaluate", "--which", "vanilla"), 2,
     "checkpoint expects m=20 sensors, dataset provides m=10"),
    ("dataset/split.json", _edit("test_ids", [77]), ("evaluate", "--which", "vanilla"), 1,
     "split references unknown trajectory id 77 in {path}"),
    # the split is train [2, 0] / test [1, 3]: each edit below trains at the parent
    ("dataset/split.json", _edit("train_ids", [2, 0.0]), LAST["train"], 1,
     "{path} is not a valid split: train_ids id 0.0 is not an int >= 0"),
    ("dataset/split.json", _edit("train_ids", [2, True]), LAST["train"], 1,
     "{path} is not a valid split: train_ids id True is not an int >= 0"),
    ("dataset/split.json", _edit("train_ids", [2, 2]), LAST["train"], 1,
     "{path} is not a valid split: id 2 is in train_ids and again in train_ids"),
    ("dataset/split.json", _edit("train_ids", [2, 0, 1]), LAST["train"], 1,
     "{path} is not a valid split: id 1 is in train_ids and again in test_ids"),
    # each spec edit below ends in a TypeError traceback at the parent
    *(("dataset/split.json", _edit("spec.m", 20.0), argv, 1,
       "{path} is not a valid split: m must be an int, got 20.0")
      for argv in (LAST["train"], ("predict", "--which", "vanilla"))),
    ("dataset/split.json", _edit("spec.queries", 4.5), LAST["train"], 1,
     "{path} is not a valid split: queries must be an int, got 4.5"),
    ("dataset/split.json", _edit("spec.queries", True), LAST["sghmc"], 1,
     "{path} is not a valid split: queries must be an int, got True"),
    ("dataset/split.json", _edit("spec.n_mesh", 10.5), ("evaluate", "--which", "vanilla"), 1,
     "{path} is not a valid split: n_mesh must be an int, got 10.5"),
    ("models/bayes/chain.manifest.json", _edit("members", ["member_000.ckpt"]),
     LAST["predict"], 2, "ensemble has fewer than 2 members"),
    # scored at the parent as a zero-width band
    ("models/bayes/chain.manifest.json", _edit("members", ["member_000.ckpt"] * 2),
     ("evaluate", "--which", "bayes"), 1,
     "{path} is not a valid chain: member_000.ckpt is listed twice"),
    (None, None, ("alarms", "--which", "vanilla"), 2,
     "alarm analysis needs a predictive band; use prob or bayes"),
    (None, None, ("predict", "--which", "vanilla", "--traj-id", "99"), 2,
     "trajectory 99 is not in the test split"),
    ("pools/n1.jsonl", _first_record(_edit("kind")), LAST["dataset"], 1,
     "{path} line 1: record lacks key 'kind'"),
    ("pools/n1.jsonl", _first_record(_edit("T", 0)), LAST["dataset"], 1,
     "{path} line 1: need finite T, sample_rate > 0, got 0, 100.0"),
    # the parent builds a 711 PiB sample grid before it counts the values
    ("pools/n1.jsonl", _first_record(_edit("T", 1e15)), LAST["dataset"], 1,
     "{path} line 1: 900 values, expected 100000000000000000"),
    ("pools/n1.jsonl", _first_record(lambda r: _edit("T", 1e300)(_edit("sample_rate", 1e300)(r))),
     LAST["dataset"], 1, "{path} line 1: cannot convert float infinity to integer"),
    ("pools/n1.jsonl", _first_record(_edit("id", 1.5)), LAST["dataset"], 1,
     "{path} line 1: id 1.5 is not an int >= 0"),
    ("pools/n1.jsonl", _first_record(_edit("id", "x")), LAST["dataset"], 1,
     "{path} line 1: id 'x' is not an int >= 0"),
    ("pools/n1.jsonl", _first_record(_edit("id", 2)), LAST["dataset"], 1,
     "{path.parent}/n2.jsonl repeats trajectory id 2"),
], ids=["train-frac-0.1", "sigma-l-1e-300", "sigma-l-1e300", "sigma-l-1e154", "n1-empty",
        "split-T-20-evaluate", "split-T-20-train", "split-n-mesh-0", "split-n-mesh-1-residuals",
        "split-test-ids-empty-evaluate", "split-test-ids-empty-residuals",
        "split-test-ids-empty-predict", "split-train-ids-empty-train",
        "split-train-ids-empty-sghmc", "chain-member-empty", "chain-member-parent-dir",
        "prior-lambda-1e-310", "split-t-cl-1.5", "split-m-10", "split-unknown-id",
        "split-id-float", "split-id-bool", "split-id-repeat", "split-id-overlap",
        "split-m-float-train", "split-m-float-predict", "split-queries-float",
        "split-queries-bool", "split-n-mesh-float", "chain-one-member", "chain-member-repeat", "alarms-vanilla", "predict-unknown-traj-id", "pool-no-kind",
        "pool-T-0", "pool-T-huge", "pool-T-rate-inf", "pool-id-1.5", "pool-id-str", "pool-id-dup"])
def test_unservable_input_or_value_exits_with_one_error_line(pipeline, restored_workdir, capsys,
                                                             artifact, edit, argv, code,
                                                             message):
    path = restored_workdir / artifact if artifact else None
    if path:
        path.write_text(edit(path.read_text()))
    rc, err = run(capsys, restored_workdir, *argv, config=pipeline[3])
    assert rc == code
    assert len(err) == 1 and err[0].startswith(f"error: {message.format(path=path)}")


def _edge_cases():
    """Each option a command takes as a flag, at 1e-300 and 1e300 if it is a
    float, else at 0 and 1 (no huge counts)."""
    for section, key, _, cast, _, _, commands in cli.OPTIONS:
        for command in set(commands) & set(LAST):
            for value in ("1e-300", "1e300") if cast is float else ("0", "1"):
                yield pytest.param(LAST[command], "--" + key.replace("_", "-"), value,
                                   id=f"{command}-{section}.{key}={value}")


@pytest.mark.parametrize("argv, flag, value", sorted(_edge_cases(), key=lambda p: p.id))
def test_option_edge_exits_cleanly(pipeline, restored_workdir, capsys, argv, flag, value):
    """Exit 0 without stderr, or exit 1 or 2 with one `error:` line."""
    fault = clean_exit(capsys, restored_workdir, (*argv, flag, value), pipeline[3], (0, 1, 2))
    assert fault is None, fault


def test_singular_power_flow_exits_1(tmp_path, capsys):
    rc, err = run(capsys, tmp_path / "wd", "simulate", "--load-scale", "1e300",
                  "--n1", "1", "--n2", "1")
    assert rc == 1
    assert err == ["error: power flow Jacobian is singular"]


def test_residuals_manifest_holds_the_normality_report(pipeline):
    doc = json.loads((pipeline[0] / "eval/vanilla_residuals.manifest.json").read_text())
    report = residual_normality(np.arange(8.0))[0]
    assert set(doc) - {"config", "which", "n"} == set(report)


@pytest.mark.parametrize("command, blocked, work", [
    (("simulate", "--n1", "1", "--n2", "1"), ".", "generate_pools"),
    (LAST["train"], "models", "fit"),
    (LAST["sghmc"], "models/bayes", "sghmc_run"),
], ids=["simulate", "train", "sghmc"])
def test_an_output_directory_that_cannot_be_made_exits_2_before_the_work(
        pipeline, workdir_copy, capsys, monkeypatch, command, blocked, work):
    """A file where a command's output directory belongs is a usage error, met
    before the command's compute runs."""
    shutil.rmtree(workdir_copy / blocked)
    (workdir_copy / blocked).write_text("")

    def computed(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(cli.gs if work == "generate_pools" else cli, work, computed)
    rc, err = run(capsys, workdir_copy, *command, config=pipeline[3])
    out = workdir_copy / cli.COMMANDS[command[0]][1]
    assert rc == 2
    assert len(err) == 1 and err[0].startswith(f"error: cannot make {out}: ")


@pytest.mark.parametrize("command, blocked, removed", [
    (PIPELINE[2], "models/vanilla.ckpt", ["models/vanilla.manifest.json"]),
    (PIPELINE[2], "models/vanilla_loss.csv", ["models/vanilla.manifest.json"]),
    (PIPELINE[2], "models/vanilla.manifest.json", ["models/vanilla.manifest.json"]),
    (LAST["sghmc"], "models/bayes/member_001.ckpt", ["models/bayes/chain.manifest.json"]),
    (PIPELINE[0], "pools/n1.jsonl", []),
    (("evaluate", "--which", "vanilla"), "eval/vanilla_report.csv", []),
], ids=["train", "train-loss-csv", "train-manifest", "sghmc", "simulate", "evaluate"])
def test_an_output_file_that_cannot_be_written_exits_1(pipeline, workdir_copy, capsys,
                                                       command, blocked, removed):
    """A directory where an output belongs (checkpoint, pool, CSV or manifest)
    is one error line naming the file. `train` and `sghmc` remove their old
    manifest before they write, so one stopped by it leaves no manifest of the
    outputs it replaced; every other manifest stays."""
    def manifests():
        return {p for p in workdir_copy.rglob("*.manifest.json") if p.is_file()}

    before = manifests()
    (workdir_copy / blocked).unlink()
    (workdir_copy / blocked).mkdir()
    rc, err = run(capsys, workdir_copy, *command, config=pipeline[3])
    assert rc == 1
    assert err == [f"error: cannot write {workdir_copy / blocked}: Is a directory"]
    assert manifests() == before - {workdir_copy / r for r in removed}


def test_a_chain_that_diverges_after_writing_members_leaves_no_manifest(
        pipeline, workdir_copy, capsys, monkeypatch):
    """Members are written as the chain keeps them: a chain whose state goes
    non-finite at outer iteration 3 has written the members of iterations 1
    and 2, exits 1, and leaves no manifest, so the ensemble's readers ask for
    `sghmc` again."""
    bayes = workdir_copy / "models/bayes"
    for member in bayes.glob("member_*.ckpt"):
        member.unlink()
    calls, grad_potential = [], sghmc.grad_potential

    def diverging(*args):
        grads = grad_potential(*args)
        calls.append(len(calls) + 1)
        if len(calls) == 3:  # the one gradient of outer iteration 3 (m_inner = 2)
            for g in grads.values():
                g[...] = np.nan
        return grads

    monkeypatch.setattr(sghmc, "grad_potential", diverging)
    rc, err = run(capsys, workdir_copy, *LAST["sghmc"], config=pipeline[3])
    assert (rc, err) == (1, ["error: non-finite state at outer iteration 3"])
    assert sorted(p.name for p in bayes.glob("member_*")) == ["member_000.ckpt",
                                                             "member_001.ckpt"]
    assert not (bayes / "chain.manifest.json").exists()
    rc, err = run(capsys, workdir_copy, "evaluate", "--which", "bayes")
    assert rc == 2 and len(err) == 1 and err[0].endswith("run `sghmc` first")
