"""CLI contract: the option table, exit codes, stale inputs, byte-identical reruns."""

import hashlib
import shutil

import pytest

from gridonet import cli
from gridonet.checkpoint import load_checkpoint, save_checkpoint

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


def run(capsys, wd, *argv, config=None):
    """(exit code, stderr lines) of one in-process CLI call."""
    capsys.readouterr()
    rc = cli.main([*(("--config", str(config)) if config else ()), "--workdir", str(wd), *argv])
    return rc, capsys.readouterr().err.splitlines()


def digests(root):
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A finished tiny pipeline, run twice into the same path: (workdir, first
    run's digests, second run's digests, INI path)."""
    base = tmp_path_factory.mktemp("cli")
    ini = base / "tiny.ini"
    ini.write_text(INI)
    wd = base / "wd"
    runs = []
    for _ in range(2):
        shutil.rmtree(wd, ignore_errors=True)
        for argv in PIPELINE:
            assert cli.main(["--config", str(ini), "--workdir", str(wd), *argv]) == 0, argv
        runs.append(digests(wd))
    return wd, runs[0], runs[1], ini


@pytest.fixture
def workdir_copy(pipeline, tmp_path):
    wd = tmp_path / "wd"
    shutil.copytree(pipeline[0], wd)
    return wd


def test_rerun_is_byte_identical(pipeline):
    _, first, second, _ = pipeline
    assert len(first) >= 40
    assert first == second


def _flag_cases():
    for section, key, default, cast, _, commands in cli.OPTIONS:
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
    for section, key, default, cast, _, _ in cli.OPTIONS:
        cast(default)


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
])
def test_invalid_config_value_exits_2(tmp_path, capsys, argv, message):
    rc, err = run(capsys, tmp_path / "wd", *argv)
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


def test_power_flow_failure_exits_1(tmp_path, capsys):
    rc, err = run(capsys, tmp_path / "wd", "simulate", "--load-scale", "3.0",
                  "--n1", "1", "--n2", "1")
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: power flow did not converge")


def test_truncated_checkpoint_exits_1(workdir_copy, capsys):
    ckpt = workdir_copy / "models" / "vanilla.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:-8])
    rc, err = run(capsys, workdir_copy, "predict", "--which", "vanilla")
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: ") and "truncated" in err[0]


def test_checkpoint_without_geometry_exits_2(workdir_copy, capsys):
    ckpt = workdir_copy / "models" / "vanilla.ckpt"
    save_checkpoint(ckpt, load_checkpoint(ckpt)[0], meta={"kind": "vanilla"})
    rc, err = run(capsys, workdir_copy, "predict", "--which", "vanilla")
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(ckpt) in err[0] and "'m'" in err[0]


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
    rc, err = run(capsys, workdir_copy, "sghmc", "--init",
                  str(workdir_copy / "models" / "prob.ckpt"), config=pipeline[3])
    assert rc == 2
    assert len(err) == 1 and "prob.ckpt does not hold a vanilla net" in err[0]


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


def test_evaluate_predicts_each_trajectory_once(pipeline, workdir_copy, monkeypatch, capsys):
    calls = []
    predict = cli.predict
    monkeypatch.setattr(cli, "predict", lambda *a: calls.append(1) or predict(*a))
    rc, _ = run(capsys, workdir_copy, "evaluate", "--which", "vanilla", "--bands", "2",
                config=pipeline[3])
    assert rc == 0
    per_traj = (workdir_copy / "eval" / "vanilla_per_traj.csv").read_text().splitlines()
    assert len(calls) == len(per_traj) - 1 == 2
