"""Pipeline driver: simulate -> dataset -> train/sghmc -> predict/evaluate.

Every command is a pure function of (config file, flags, input files); reruns
write byte-identical artifacts. The effective merged configuration is echoed
into each output manifest. Usage errors exit 2, runtime failures exit 1.

Settings live in one place, the `OPTIONS` table: one row per config key,
with its INI section, default string, type, domain, help and the commands
that take it as a flag. The INI defaults, every command's config flags, the
flag -> config override and the typed, range-checked reads (`opts`) all come
from that table, so a new setting is one new row there. A domain names the
`DOMAINS` rule of the key's values, or is None where a config dataclass or
the split (`y_star`) holds the rule.

Every input a command reads comes through one loader here (`_load_pools`,
`_load_split`, `_load_model`), and each input file through `_need`, whose
error names the command that writes it. A model's geometry is read from its
checkpoint, so only `train` takes the `[deeponet]` keys. `_load_model` streams
a bayes ensemble's members to `predict`, which keeps their curves only.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import gridsim as gs
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .dataset import SplitSpec, add_input_noise, build_test, build_train, split_pools
from .deeponet import DeepOnetConfig, init, layout, predict
from .sghmc import BayesConfig, SamplerError, sghmc_run
from .train import TrainConfig, TrainingError, fit
from . import uqeval


TOP = "gridonet"  # the top-level parser: its flags come before the command

OPTIONS = (
    # section, key, default, type, domain, help, commands that take the key as a flag
    ("paths", "workdir", "runs/desk", str, None, "artifact directory", (TOP,)),
    ("simulate", "load_scale", "1.51", float, "pos", "load and generation scale", ("simulate",)),
    ("simulate", "monitor_bus", "4", int, "bus", "recorded bus (0-based)", ("simulate",)),
    ("simulate", "n1", "300", int, "int>=1", "N-1 pool size", ("simulate",)),
    ("simulate", "n2", "300", int, "int>=1", "N-2 pool size", ("simulate",)),
    ("simulate", "seed", "0", int, "int>=0", "pool sampling seed", ("simulate",)),
    ("simulate", "h_max", "1e-3", float, "pos", "max RK4 step, s", ("simulate",)),
    ("dataset", "m", "200", int, None, "branch sensors", ("dataset",)),
    ("dataset", "queries", "10", int, None, "training queries per trajectory", ("dataset",)),
    ("dataset", "train_frac", "0.7", float, None, "train fraction", ("dataset",)),
    ("dataset", "seed", "0", int, "int>=0", "split shuffle seed", ("dataset",)),
    ("dataset", "query_seed", "0", int, "int>=0", "query sampling seed", ("dataset",)),
    ("deeponet", "q", "100", int, None, "latent feature dimension", ("train",)),
    ("deeponet", "width", "100", int, None, "hidden layer width", ("train",)),
    ("deeponet", "depth", "3", int, None, "hidden layers per sub-net", ("train",)),
    ("train", "epochs", "2000", int, None, "training epochs", ("train",)),
    ("train", "batch_size", "256", int, None, "minibatch size", ("train",)),
    ("train", "lr", "1e-4", float, None, "initial learning rate", ("train",)),
    ("train", "patience", "200", int, None, "epochs without improvement before a drop",
     ("train",)),
    ("train", "factor", "0.5", float, None, "learning-rate drop factor", ("train",)),
    ("train", "min_lr", "1e-6", float, None, "learning-rate floor", ("train",)),
    ("train", "seed", "0", int, "int>=0", "init and minibatch seed", ("train",)),
    ("sghmc", "sigma_l", "0.01", float, None, "likelihood noise scale, pu", ("sghmc",)),
    ("sghmc", "prior_lambda", "1.0", float, None, "Gaussian prior precision", ("sghmc",)),
    ("sghmc", "eps_t", "1e-5", float, None, "step size", ("sghmc",)),
    ("sghmc", "c", "10.0", float, None, "friction constant", ("sghmc",)),
    ("sghmc", "b_hat", "0.0", float, None, "gradient-noise estimate, at most c", ("sghmc",)),
    ("sghmc", "m_inner", "50", int, None, "inner steps per outer iteration", ("sghmc",)),
    ("sghmc", "n_outer", "2000", int, None, "outer iterations", ("sghmc",)),
    ("sghmc", "burn_in", "1000", int, None, "outer iterations discarded", ("sghmc",)),
    ("sghmc", "thinning", "5", int, None, "keep every k-th retained sample", ("sghmc",)),
    ("sghmc", "m_ensemble", "100", int, None, "retained ensemble size", ("sghmc",)),
    ("sghmc", "batch_size", "256", int, None, "minibatch size", ("sghmc",)),
    ("sghmc", "seed", "0", int, "int>=0", "chain seed", ("sghmc",)),
    ("evaluate", "level", "0.95", float, "unit", "CI level", ("evaluate", "alarms", "predict")),
    ("evaluate", "count", "100", int, "int>=1", "test trajectories to score", ("evaluate",)),
    ("evaluate", "seed", "0", int, "int>=0", "test subsample seed", ("evaluate",)),
    ("evaluate", "bands", "5", int, "int>=0", "scored trajectories written to the bands CSV",
     ("evaluate",)),
    ("evaluate", "chi_max", "3.0", float, "nonneg", "coverage curve's largest chi", ("evaluate",)),
    ("evaluate", "chi_points", "31", int, "int>=1", "points on the coverage curve", ("evaluate",)),
    ("evaluate", "y_star", "2.2", float, None, "alarm probe time, s", ("alarms",)),
    ("evaluate", "noise_seed", "0", int, "int>=0", "sensor-noise seed", ("evaluate",)),
)

DOMAINS = {  # name: (test, phrase) of the values an option may take
    "int>=0": (lambda v: v >= 0, "must be >= 0"),
    "int>=1": (lambda v: v >= 1, "must be >= 1"),
    "pos": (lambda v: 0.0 < v < np.inf, "must be finite and > 0"),
    "nonneg": (lambda v: 0.0 <= v < np.inf, "must be finite and >= 0"),
    "unit": (lambda v: 0.0 < v < 1.0, "must be in (0, 1)"),
    "bus": (lambda v: 0 <= v < gs.GridModel.n_bus, f"must be in [0, {gs.GridModel.n_bus})"),
}

DEFAULTS = {section: {key: default for sec, key, default, *_ in OPTIONS if sec == section}
            for section, *_ in OPTIONS}

COMMANDS = {
    "simulate": "generate N-1/N-2 trajectory pools",
    "dataset": "split pools and fix dataset seeds",
    "train": "train the vanilla or probabilistic model",
    "sghmc": "sample a posterior weight ensemble",
    "predict": "write one trajectory's predicted curve",
    "evaluate": "error/coverage reports on the test split",
    "alarms": "under-voltage alarm classification at y*",
    "residuals": "residual normality report",
}
WHICH = ("vanilla", "prob", "bayes")


class UsageError(ValueError):
    pass


class ArtifactError(ValueError):
    """A JSON artifact that does not parse or lacks a key its reader needs."""


def load_config(path: str | None) -> dict:
    cfg = {section: dict(keys) for section, keys in DEFAULTS.items()}
    if path is None:
        return cfg
    if not Path(path).exists():
        raise UsageError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as f:
            parser.read_file(f)
    except (OSError, UnicodeDecodeError, configparser.Error) as e:
        raise UsageError(f"bad config file {path}: {' '.join(str(e).split())}") from None
    for section in parser.sections():
        if section not in cfg:
            raise UsageError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in cfg[section]:
                raise UsageError(f"unknown config key [{section}] {key}")
            cfg[section][key] = value
    return cfg


def check(name: str, value, domain: str | None):
    """`value`, or a usage error if it lies outside the named `DOMAINS` entry."""
    if domain and not DOMAINS[domain][0](value):
        raise UsageError(f"{name} {DOMAINS[domain][1]}, got {value}")
    return value


def opts(cfg: dict, section: str) -> dict:
    """The keys of one config section, cast to their `OPTIONS` types and
    checked against their domains."""
    out = {}
    for sec, key, _, cast, domain, *_ in OPTIONS:
        if sec == section:
            raw = cfg[sec][key]
            try:
                out[key] = cast(raw)
            except ValueError:
                raise UsageError(f"bad value for [{sec}] {key}: {raw!r}") from None
            check(key, out[key], domain)
    return out


def _build(cls, **kwargs):
    """A config dataclass; a value its validation rejects is a usage error."""
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise UsageError(str(e)) from None


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _write_csv(path, header, rows) -> None:
    """Deterministic CSV: fixed header order, repr-style floats, newline \\n."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(x) if isinstance(x, float) else x for x in row])


def read_json(path, *keys) -> dict:
    """The JSON object in `path`, which must hold each of `keys`; a dotted key
    names a nested one. ArtifactError if it does not parse or lacks a key."""
    try:
        doc = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ArtifactError(f"{path} is not valid JSON: {e}") from None
    for key in keys:
        node = doc
        for part in key.split("."):
            if not isinstance(node, dict) or part not in node:
                raise ArtifactError(f"{path} lacks key {key!r}")
            node = node[part]
    return doc


def workdir(cfg) -> Path:
    return Path(cfg["paths"]["workdir"])


def _need(path: Path, writer: str) -> Path:
    """`path`, an input file; a usage error naming `writer`, the command that
    writes it, if it does not exist."""
    if not path.exists():
        raise UsageError(f"missing {path}; run `{writer}` first")
    return path


# ---------------------------------------------------------------- simulate

def cmd_simulate(cfg, args) -> int:
    o = opts(cfg, "simulate")
    n1, n2, seed = o["n1"], o["n2"], o["seed"]
    model = gs.build_model(load_scale=o["load_scale"], monitor_bus=o["monitor_bus"])
    out = workdir(cfg) / "pools"
    out.mkdir(parents=True, exist_ok=True)
    report = {}
    for kind, count, sub in (("N1", n1, 10), ("N2", n2, 11)):
        offset = 0 if kind == "N1" else n1
        pool = gs.generate_pool(
            model, count, kind, seed=[seed, sub], id_offset=offset, h_max=o["h_max"]
        )
        path = out / f"{kind.lower()}.jsonl"
        gs.save_pool(path, pool)
        report[kind] = {
            "accepted": len(pool),
            # always 0 since a diverged scenario fails the command; kept because
            # the pinned manifests and perfbench's accept ratio read the key
            "rejections": 0,
            "file": path.name,
            "sha256": file_sha256(path),
        }
        print(f"{kind}: {len(pool)} trajectories")
    write_json(out / "simulate.manifest.json",
               {"config": cfg, "model_hash": gs.model_hash(model), "pools": report})
    return 0


def _load_pools(cfg):
    """(N-1 pool, N-2 pool, sha256 of each pool file), from one read of each."""
    pools, sha256 = [], {}
    for kind in ("n1", "n2"):
        path = _need(workdir(cfg) / "pools" / f"{kind}.jsonl", "simulate")
        data = path.read_bytes()
        pools.append(gs.load_pool(path, data))
        sha256[kind] = hashlib.sha256(data).hexdigest()
    return *pools, sha256


# ----------------------------------------------------------------- dataset

def cmd_dataset(cfg, args) -> int:
    o = opts(cfg, "dataset")
    spec = _build(SplitSpec, m=o["m"], Q=o["queries"], train_frac=o["train_frac"])
    n1, n2, pool_sha256 = _load_pools(cfg)
    train, test = split_pools(n1, n2, spec.train_frac, seed=o["seed"])
    out = workdir(cfg) / "dataset"
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "train_ids": [tr.traj_id for tr in train],
        "test_ids": [tr.traj_id for tr in test],
        "spec": {
            "m": spec.m, "queries": spec.Q, "train_frac": spec.train_frac,
            "t_cl": spec.t_cl, "T": spec.T, "n_mesh": spec.n_mesh,
        },
        "seeds": {"split": o["seed"], "queries": o["query_seed"]},
        "pool_sha256": pool_sha256,
        "config": cfg,
    }
    write_json(out / "split.json", doc)
    print(f"split: {len(train)} train / {len(test)} test trajectories")
    return 0


def _load_split(cfg):
    path = _need(workdir(cfg) / "dataset" / "split.json", "dataset")
    doc = read_json(path, "train_ids", "test_ids", "seeds.queries",
                    *(f"spec.{k}" for k in ("m", "queries", "train_frac", "t_cl", "T", "n_mesh")))
    n1, n2, pool_sha256 = _load_pools(cfg)
    if doc.get("pool_sha256") != pool_sha256:
        raise UsageError("pools changed since `dataset`; rerun `dataset`")
    by_id = {tr.traj_id: tr for tr in n1 + n2}
    s = doc["spec"]
    try:
        train = [by_id[i] for i in doc["train_ids"]]
        test = [by_id[i] for i in doc["test_ids"]]
        spec = SplitSpec(m=s["m"], Q=s["queries"], train_frac=s["train_frac"],
                         t_cl=s["t_cl"], T=s["T"], n_mesh=s["n_mesh"])
        if type(q := doc["seeds"]["queries"]) is not int or q < 0:
            raise ValueError(f"seeds.queries must be an int >= 0, got {q!r}")
    except KeyError as e:
        raise UsageError(f"split references unknown trajectory id {e}") from None
    except (TypeError, ValueError) as e:
        raise ArtifactError(f"{path} is not a valid split: {e}") from None
    return train, test, spec, doc


# ------------------------------------------------------------------- train

def cmd_train(cfg, args) -> int:
    kind = args.model
    config = _build(TrainConfig, **opts(cfg, "train"))
    train_pool, _, spec, doc = _load_split(cfg)
    net = _build(DeepOnetConfig, m=spec.m, **opts(cfg, "deeponet"))
    data = build_train(train_pool, spec, seed=doc["seeds"]["queries"])
    params, history = fit(init(net, kind, config.seed), net, data, config)
    out = workdir(cfg) / "models"
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / f"{kind}.ckpt"
    save_checkpoint(ckpt, params, meta={"kind": kind, **dataclasses.asdict(net)})
    _write_csv(out / f"{kind}_loss.csv",
               ["epoch", "train_loss", "lr"],
               [[h["epoch"], h["train_loss"], h["lr"]] for h in history])
    best = min(h["train_loss"] for h in history)
    write_json(out / f"{kind}.manifest.json", {
        "config": cfg, "checkpoint_sha256": file_sha256(ckpt),
        "best_train_loss": best, "epochs": len(history),
        "n_train_samples": len(data[2]),
    })
    print(f"{kind}: trained {len(history)} epochs, best loss {best:.6g}")
    return 0


# ------------------------------------------------------------------- sghmc

def cmd_sghmc(cfg, args) -> int:
    o = opts(cfg, "sghmc")
    bc = _build(BayesConfig, C=o.pop("c"), B_hat=o.pop("b_hat"), M=o.pop("m_ensemble"), **o)
    train_pool, _, spec, doc = _load_split(cfg)
    (params0,), net = _load_model(cfg, "vanilla", spec)
    init_path = workdir(cfg) / "models" / "vanilla.ckpt"
    data = build_train(train_pool, spec, seed=doc["seeds"]["queries"])
    members, trace = sghmc_run(params0, net, data, bc)
    out = workdir(cfg) / "models" / "bayes"
    out.mkdir(parents=True, exist_ok=True)
    names, hashes = [], {}
    meta = {"kind": "bayes-member", **dataclasses.asdict(net)}
    for i, member in enumerate(members):
        path = out / f"member_{i:03d}.ckpt"
        save_checkpoint(path, member, meta=meta)
        names.append(path.name)
        hashes[path.name] = file_sha256(path)
    _write_csv(out / "utrace.csv", ["iteration", "potential"],
               [[k, trace[k]] for k in sorted(trace)])
    write_json(out / "chain.manifest.json", {
        "config": cfg, "members": names, "member_sha256": hashes,
        "init": str(init_path), "init_sha256": file_sha256(init_path),
        "final_potential": trace[max(trace)],
    })
    print(f"sghmc: retained ensemble of {len(members)}, "
          f"final U = {trace[max(trace)]:.6g}")
    return 0


# ------------------------------------------------------------ model loading

def _load_model(cfg, which: str, spec: SplitSpec):
    """(members, net): a generator of one model's checkpoints, each read when
    taken (the first is read here) and checked to hold exactly the parameters
    (names, shapes) of a prob net for `prob`, else of a vanilla one; and the
    geometry the first one's meta records, whose m must be the dataset's."""
    models = workdir(cfg) / "models"
    if which == "bayes":
        manifest = _need(models / "bayes" / "chain.manifest.json", "sghmc")
        names = read_json(manifest, "members")["members"]
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise ArtifactError(f"{manifest} is not a valid chain: members is not a list of names")
        paths = [_need(models / "bayes" / name, "sghmc") for name in names]
        if len(paths) < 2:
            raise UsageError("ensemble has fewer than 2 members")
    else:
        paths = [_need(models / f"{which}.ckpt", f"train --model {which}")]
    first, meta = load_checkpoint(paths[0])
    geometry = [f.name for f in dataclasses.fields(DeepOnetConfig)]
    for k in geometry:
        if not isinstance(meta.get(k), int):
            raise UsageError(f"{paths[0]} has no integer {k!r} in its meta")
    net = _build(DeepOnetConfig, **{k: meta[k] for k in geometry})
    want = layout(net, "prob" if which == "prob" else "vanilla")

    def stream(params):
        for i, path in enumerate(paths):
            params = load_checkpoint(path)[0] if i else params
            got = {k: v.shape for k, v in params.items()}
            if got != want:
                bad = sorted(set(got) ^ set(want)) or sorted(k for k in got if got[k] != want[k])
                raise UsageError(f"{path} does not hold a {which} net of {net} "
                                 f"(differs at {bad[0]})")
            yield params

    if net.m != spec.m:
        raise UsageError(f"checkpoint expects m={net.m} sensors, dataset provides m={spec.m}")
    return stream(first), net


def _band(mean, std, level: float):
    """(lower, upper) of the central `level` band; NaN curves without a std."""
    if std is None:
        return np.full_like(mean, np.nan), np.full_like(mean, np.nan)
    return uqeval.confidence_interval(mean, std, level)


# ---------------------------------------------------------------- evaluate

def cmd_evaluate(cfg, args) -> int:
    which, noise = args.which, check("--noise", args.noise, "nonneg")
    o = opts(cfg, "evaluate")
    level = o["level"]
    _, test_pool, spec, _ = _load_split(cfg)
    members, net = _load_model(cfg, which, spec)

    U, mesh, G = build_test(test_pool, spec)
    if o["count"] < len(G):
        sel = np.sort(np.random.default_rng([o["seed"], 4]).choice(
            len(G), size=o["count"], replace=False))
    else:
        sel = np.arange(len(G))
    ids = [test_pool[k].traj_id for k in sel]
    U = np.array([add_input_noise(U[k], noise, [o["noise_seed"], 5, i]) for k, i in zip(sel, ids)])
    G = G[sel]
    mean, std = predict(members, net, U, mesh)
    lo, hi = _band(mean, std, level)
    l1, l2 = uqeval.relative_errors(mean, G)
    eps = np.full(len(G), np.nan) if std is None else uqeval.epsilon_ratio(lo, hi, G)

    out = workdir(cfg) / "eval"
    out.mkdir(parents=True, exist_ok=True)
    tag = which if noise == 0.0 else f"{which}_noise"
    agg = uqeval.aggregate_reports(l1, l2, eps)
    _write_csv(out / f"{tag}_report.csv",
               ["count", "mean_L1", "sd_L1", "mean_L2", "sd_L2", "eps_ratio"],
               [[agg["count"], agg["mean_L1"], agg["sd_L1"], agg["mean_L2"],
                 agg["sd_L2"], agg["eps_ratio"]]])
    _write_csv(out / f"{tag}_per_traj.csv",
               ["traj_id", "l1_pct", "l2_pct", "eps_ratio"],
               zip(ids, l1.tolist(), l2.tolist(), eps.tolist()))

    outputs = [f"{tag}_report.csv", f"{tag}_per_traj.csv"]
    if std is not None:
        chis = np.linspace(0.0, o["chi_max"], o["chi_points"])
        emp, ana = uqeval.chi_coverage_curve(mean, std, G, chis)
        _write_csv(out / f"{tag}_chi.csv", ["chi", "empirical", "analytic"],
                   [[float(c), float(e), float(a)] for c, e, a in zip(chis, emp, ana)])
        outputs.append(f"{tag}_chi.csv")

    b = min(o["bands"], len(G))
    band_cols = [np.repeat(ids[:b], len(mesh)), np.tile(mesh, b), G[:b], mean[:b], lo[:b], hi[:b]]
    _write_csv(out / f"{tag}_bands.csv", ["traj_id", "y", "truth", "mean", "lower", "upper"],
               zip(*(np.ravel(c).tolist() for c in band_cols)))
    outputs.append(f"{tag}_bands.csv")

    write_json(out / f"{tag}_eval.manifest.json", {
        "config": cfg, "which": which, "noise_sigma": noise, "level": level,
        "aggregate": {k: (None if isinstance(v, float) and np.isnan(v) else v)
                      for k, v in agg.items()},
        "outputs": {name: file_sha256(out / name) for name in outputs},
    })
    print(f"{which}: mean L2 {agg['mean_L2']:.3f}% "
          f"(sd {agg['sd_L2']:.3f}), eps_ratio {agg['eps_ratio']:.2f}%"
          + (f" at sigma={noise}" if noise else ""))
    return 0


# ------------------------------------------------------------------ alarms

def cmd_alarms(cfg, args) -> int:
    which = args.which
    if which == "vanilla":
        raise UsageError("alarm analysis needs a predictive band; use prob or bayes")
    o = opts(cfg, "evaluate")
    level, y_star = o["level"], o["y_star"]
    _, test_pool, spec, _ = _load_split(cfg)
    if y_star <= spec.t_cl:
        raise UsageError(f"y_star must be after the clearing time t_cl={spec.t_cl}, got {y_star}")
    if not y_star <= spec.T:
        raise UsageError(f"y_star must be at most the horizon T={spec.T}, got {y_star}")
    members, net = _load_model(cfg, which, spec)
    U = build_test(test_pool, spec)[0]
    mean, std = (c[:, 0] for c in predict(members, net, U, [y_star]))
    lo, hi = _band(mean, std, level)
    ids = [tr.traj_id for tr in test_pool]
    truth = np.array([np.interp(y_star, tr.times, tr.values) for tr in test_pool])
    flags, summary = uqeval.alarm_analysis(lo, hi, truth, y_star=y_star, t_cl=spec.t_cl)
    out = workdir(cfg) / "eval"
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / f"{which}_alarms.csv",
               ["traj_id", "truth", "mean", "lower", "upper",
                *(key.lower() for key in uqeval.ALARM_FLAGS)],
               zip(ids, truth.tolist(), mean.tolist(), lo.tolist(), hi.tolist(),
                   *(flags[key].astype(int).tolist() for key in uqeval.ALARM_FLAGS)))
    write_json(out / f"{which}_alarms.manifest.json",
               {"config": cfg, "which": which, "level": level, "summary": summary})
    print(f"{which} alarms at y*={y_star}: FN={summary['FN']} "
          f"FP_cons={summary['FP_conservative']} "
          f"FP_noncons={summary['FP_nonconservative']} "
          f"TP={summary['TP']} TN={summary['TN']}")
    return 0


# --------------------------------------------------------------- residuals

def cmd_residuals(cfg, args) -> int:
    which = args.which
    _, test_pool, spec, _ = _load_split(cfg)
    members, net = _load_model(cfg, which, spec)
    U, mesh, G = build_test(test_pool, spec)
    res = predict(members, net, U, mesh)[0] - G
    report = uqeval.residual_normality(res)
    out = workdir(cfg) / "eval"
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / f"{which}_residuals.csv", ["bin_left", "bin_right", "count"],
               [[float(report.hist_edges[i]), float(report.hist_edges[i + 1]),
                 int(report.hist_counts[i])] for i in range(len(report.hist_counts))])
    write_json(out / f"{which}_residuals.manifest.json", {
        "config": cfg, "which": which, "n": int(res.size),
        "skewness": report.skewness, "excess_kurtosis": report.excess_kurtosis,
        "normal": report.normal,
    })
    print(f"{which} residuals: skew {report.skewness:+.3f}, "
          f"excess kurtosis {report.excess_kurtosis:+.3f}, "
          f"verdict {'normal' if report.normal else 'not normal'}")
    return 0


# ----------------------------------------------------------------- predict

def cmd_predict(cfg, args) -> int:
    which, traj_id = args.which, args.traj_id
    level = opts(cfg, "evaluate")["level"]
    _, test_pool, spec, _ = _load_split(cfg)
    members, net = _load_model(cfg, which, spec)
    by_id = {tr.traj_id: tr for tr in test_pool}
    if traj_id is None:
        traj_id = min(by_id)
    if traj_id not in by_id:
        raise UsageError(f"trajectory {traj_id} is not in the test split")
    (u,), mesh, (truth,) = build_test([by_id[traj_id]], spec)
    mean, std = predict(members, net, u, mesh)
    lo, hi = _band(mean, std, level)
    out = workdir(cfg) / "eval"
    out.mkdir(parents=True, exist_ok=True)
    path = Path(args.out) if args.out else out / f"predict_{which}_{traj_id}.csv"
    nanv = float("nan")
    try:
        _write_csv(path, ["y", "truth", "mean", "std", "lower", "upper"],
                   [[float(mesh[j]), float(truth[j]), float(mean[j]),
                     nanv if std is None else float(std[j]), float(lo[j]), float(hi[j])]
                    for j in range(len(mesh))])
    except OSError as e:
        raise UsageError(f"cannot write --out {path}: {e.strerror}") from None
    print(f"wrote {path}")
    return 0


# -------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog=TOP,
        description="Operator-learning pipeline for post-fault voltage prediction",
    )
    p.add_argument("--config", metavar="INI", help="INI config file; flags override its keys")
    sub = p.add_subparsers(dest="command", required=True)
    parsers = {TOP: p, **{name: sub.add_parser(name, help=text)
                          for name, text in COMMANDS.items()}}
    parsers["train"].add_argument("--model", required=True, choices=WHICH[:2],
                                  help="model to train")
    for name in ("predict", "evaluate", "alarms", "residuals"):
        required = name != "residuals"
        parsers[name].add_argument(
            "--which", choices=WHICH, default="vanilla", required=required,
            help="model to load" + ("" if required else " (default vanilla)"))
    parsers["predict"].add_argument("--traj-id", type=int, metavar="ID",
                                    help="test trajectory id (default: lowest)")
    parsers["predict"].add_argument(
        "--out", metavar="CSV", help="output CSV path (default eval/predict_WHICH_ID.csv)")
    parsers["evaluate"].add_argument(
        "--noise", type=float, default=0.0, metavar="SIGMA",
        help=f"sensor noise sigma (pu) on test inputs (default 0.0; {DOMAINS['nonneg'][1]})")
    for section, key, default, cast, domain, text, commands in OPTIONS:
        rule = f"; {DOMAINS[domain][1]}" if domain else ""
        for name in commands:
            parsers[name].add_argument("--" + key.replace("_", "-"), dest=f"{section}.{key}",
                                       type=cast, metavar=key.upper(),
                                       help=f"{text} (default {default}{rule})")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        for section, key, *_ in OPTIONS:
            value = getattr(args, f"{section}.{key}", None)
            if value is not None:
                cfg[section][key] = str(value)
        # looked up at call time, so a wrapper set on the module attribute runs
        return globals()[f"cmd_{args.command}"](cfg, args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (TrainingError, SamplerError, gs.SimulationDiverged, gs.ScenarioRejected,
            gs.PowerFlowError, gs.PoolError, CheckpointError, ArtifactError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
