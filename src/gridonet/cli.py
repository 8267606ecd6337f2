"""Pipeline driver: simulate -> dataset -> train/sghmc -> predict/evaluate.

Every command is a pure function of (config file, flags, input files); reruns
write byte-identical artifacts. BLAS runs on one thread unless the user set a
count (importing the package sets it, unless numpy came first: a library
caller's bytes may then differ), since a matmul's bits follow the thread
count. The effective merged configuration is echoed into each output
manifest. Every error the package raises on purpose is a `gridonet.Error`:
`main` exits 2 on a `UsageError` and 1 on any other, in one line.

Settings live in one place, the `OPTIONS` table: one row per config key,
with its INI section, default string, type, domain, help and the commands
that take it as a flag. The INI defaults, every command's config flags, the
flag -> config override and the typed, range-checked reads (`opts`) all come
from that table, so a new setting is one new row there. A domain names the
`DOMAINS` rule of the key's values, or is None where a config dataclass or
the split (`y_star`) holds the rule. A config field is named by its key.

The commands form one stage table, `COMMANDS`: each row holds a command's
help text and its output directory, which `_outdir` makes. Every input file
passes `_need`, which names the command whose directory holds a missing one,
on its way to a loader (`_load_pools`, `_load_split`, `_load_model`, and
`_load_test` for the read commands). A model's geometry is read from its
checkpoint, so only `train` takes the `[deeponet]` keys. `_load_model`
streams a bayes ensemble's members to `predict`, which keeps their curves
only. `simulate` runs half of its scenarios in a forked child. Every CSV is
written by `_write_csv` from named columns, one dict per file.

Every output goes through `gridonet.write`, which returns the sha256 of the
bytes as it writes them (only the `sghmc` init, an input, is hashed by a read)
and names a file it cannot write in one error (exit 1). Each command writes its
manifest last; once their inputs pass their checks, `train` and `sghmc` (which
writes each member as the chain keeps it) remove their old one first, so one
that fails midway leaves no manifest of outputs it replaced.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import Error, gridsim as gs, write
from .checkpoint import load_checkpoint, save_checkpoint
from .dataset import (SplitSpec, add_input_noise, build_test, build_train, check_coverage,
                      split_pools)
from .deeponet import DeepOnetConfig, init, layout, predict
from .sghmc import BayesConfig, sghmc_run
from .train import TrainConfig, fit
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
    ("simulate", "h_max", "1e-3", float, "step", "max RK4 step, s", ("simulate",)),
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
    # at most 1,000 RK4 steps per 10 ms sample interval
    "step": (lambda v: 1e-5 <= v < np.inf, "must be finite and > 0, at least 1e-5 s"),
    "nonneg": (lambda v: 0.0 <= v < np.inf, "must be finite and >= 0"),
    "unit": (lambda v: 0.0 < v < 1.0, "must be in (0, 1)"),
    "bus": (lambda v: 0 <= v < gs.GridModel.n_bus, f"must be in [0, {gs.GridModel.n_bus})"),
}

DEFAULTS = {section: {key: default for sec, key, default, *_ in OPTIONS if sec == section}
            for section, *_ in OPTIONS}

COMMANDS = {  # name: (help, output directory under the workdir)
    "simulate": ("generate N-1/N-2 trajectory pools", "pools"),
    "dataset": ("split pools and fix dataset seeds", "dataset"),
    "train": ("train the vanilla or probabilistic model", "models"),
    "sghmc": ("sample a posterior weight ensemble", "models/bayes"),
    "predict": ("write one trajectory's predicted curve", "eval"),
    "evaluate": ("error/coverage reports on the test split", "eval"),
    "alarms": ("under-voltage alarm classification at y*", "eval"),
    "residuals": ("residual normality report", "eval"),
}
WHICH = ("vanilla", "prob", "bayes")


class UsageError(Error):
    pass


class ArtifactError(Error):
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


def _build(make, *args, **kwargs):
    """`make(*args, **kwargs)`, a config dataclass or the split; a value its
    validation rejects is a usage error."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise UsageError(str(e)) from None


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _discard(path: Path) -> None:
    """Remove the old output `path`, if any; a failure is an error naming it."""
    try:
        path.unlink(missing_ok=True)
    except OSError as e:
        raise Error(f"cannot write {path}: {e.strerror}") from None


def write_json(path, obj) -> str:
    return write(path, [json.dumps(obj, sort_keys=True, indent=1).encode() + b"\n"])


def _write_csv(path, columns: dict) -> str:
    """Deterministic CSV of `columns`, a dict of equal-length columns (a scalar
    is a one-row column) whose names are the header; each column becomes
    Python numbers once, so a cell is a number's plain repr. A column holds one
    type, since numpy turns a mixed int/float column into floats."""
    text = io.StringIO()
    w = csv.writer(text, lineterminator="\n")
    w.writerow(columns)
    w.writerows(zip(*(np.ravel(c).tolist() for c in columns.values()), strict=True))
    return write(path, [text.getvalue().encode()])


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


def _outdir(cfg, command: str) -> Path:
    """The output directory of `command`'s `COMMANDS` row, made if missing."""
    out = workdir(cfg) / COMMANDS[command][1]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise UsageError(f"cannot make {out}: {e.strerror}") from None
    return out


def _need(cfg, rel: str) -> Path:
    """The input file `rel` under the workdir; if it is not a file, a usage
    error naming the command whose `COMMANDS` directory holds it most closely."""
    path = workdir(cfg) / rel
    if not path.is_file():
        writer = next(name for d in Path(rel).parents
                      for name, (_, out) in COMMANDS.items() if out == str(d))
        model = f" --model {path.stem}" if writer == "train" else ""
        raise UsageError(f"missing {path}; run `{writer}{model}` first")
    return path


# ---------------------------------------------------------------- simulate

def cmd_simulate(cfg, args) -> None:
    o = opts(cfg, "simulate")
    out = _outdir(cfg, "simulate")
    model = gs.build_model(load_scale=o["load_scale"], monitor_bus=o["monitor_bus"])
    draws = [(o["n1"], "N1", [o["seed"], 10]), (o["n2"], "N2", [o["seed"], 11])]
    pools = gs.generate_pools(model, draws, h_max=o["h_max"])
    report = {}
    for (_, kind, _), pool in zip(draws, pools):
        path = out / f"{kind.lower()}.jsonl"
        # "rejections" is always 0 since a diverged scenario fails the command;
        # kept because the pinned manifests and perfbench's accept ratio read it
        report[kind] = {"accepted": len(pool), "rejections": 0, "file": path.name,
                        "sha256": gs.save_pool(path, pool)}
        print(f"{kind}: {len(pool)} trajectories")
    write_json(out / "simulate.manifest.json",
               {"config": cfg, "model_hash": gs.model_hash(model), "pools": report})


def _load_pools(cfg):
    """(N-1 pool, N-2 pool, sha256 of each pool file), from one read of each;
    no trajectory id may appear twice across the two."""
    pools, sha256, ids = [], {}, set()
    for kind in ("n1", "n2"):
        path = _need(cfg, f"pools/{kind}.jsonl")
        data = path.read_bytes()
        pools.append(gs.load_pool(path, data))
        if not pools[-1]:
            raise gs.PoolError(f"{path} holds no trajectories")
        for tr in pools[-1]:
            if tr.traj_id in ids:
                raise gs.PoolError(f"{path} repeats trajectory id {tr.traj_id}")
            ids.add(tr.traj_id)
        sha256[kind] = hashlib.sha256(data).hexdigest()
    return *pools, sha256


# ----------------------------------------------------------------- dataset

def cmd_dataset(cfg, args) -> None:
    o = opts(cfg, "dataset")
    spec = _build(SplitSpec, m=o["m"], queries=o["queries"], train_frac=o["train_frac"])
    n1, n2, pool_sha256 = _load_pools(cfg)
    train, test = _build(split_pools, n1, n2, spec.train_frac, seed=o["seed"])
    doc = {
        "train_ids": [tr.traj_id for tr in train],
        "test_ids": [tr.traj_id for tr in test],
        "spec": dataclasses.asdict(spec),
        "seeds": {"split": o["seed"], "queries": o["query_seed"]},
        "pool_sha256": pool_sha256,
        "config": cfg,
    }
    write_json(_outdir(cfg, "dataset") / "split.json", doc)
    print(f"split: {len(train)} train / {len(test)} test trajectories")


def _load_split(cfg):
    """(train pool, test pool, spec, query seed) of `split.json`."""
    path = _need(cfg, "dataset/split.json")
    keys = [f.name for f in dataclasses.fields(SplitSpec)]
    doc = read_json(path, "train_ids", "test_ids", "seeds.queries", *(f"spec.{k}" for k in keys))
    n1, n2, pool_sha256 = _load_pools(cfg)
    if doc.get("pool_sha256") != pool_sha256:
        raise UsageError("pools changed since `dataset`; rerun `dataset`")
    by_id, listed = {tr.traj_id: tr for tr in n1 + n2}, {}
    try:
        for name in ("train_ids", "test_ids"):
            for i in doc[name]:  # True and 1.0 would look up trajectory 1
                if type(i) is not int or i < 0:
                    raise ValueError(f"{name} id {i!r} is not an int >= 0")
                if i in listed:
                    raise ValueError(f"id {i} is in {listed[i]} and again in {name}")
                listed[i] = name
        train = [by_id[i] for i in doc["train_ids"]]
        test = [by_id[i] for i in doc["test_ids"]]
        spec = SplitSpec(**{k: doc["spec"][k] for k in keys})
        if not (train and test):
            raise ValueError("train_ids and test_ids must both be non-empty")
        for tr in train + test:
            check_coverage(tr, spec)
        if type(q := doc["seeds"]["queries"]) is not int or q < 0:
            raise ValueError(f"seeds.queries must be an int >= 0, got {q!r}")
    except KeyError as e:
        raise ArtifactError(f"split references unknown trajectory id {e} in {path}") from None
    except (TypeError, ValueError) as e:
        raise ArtifactError(f"{path} is not a valid split: {e}") from None
    return train, test, spec, q


# ------------------------------------------------------------------- train

def cmd_train(cfg, args) -> None:
    kind = args.model
    config = _build(TrainConfig, **opts(cfg, "train"))
    train_pool, _, spec, query_seed = _load_split(cfg)
    net = _build(DeepOnetConfig, m=spec.m, **opts(cfg, "deeponet"))
    out = _outdir(cfg, "train")
    data = build_train(train_pool, spec, seed=query_seed)
    _discard(out / f"{kind}.manifest.json")  # a failed train leaves no stale manifest
    params, history = fit(init(net, kind, config.seed), net, data, config)
    digest = save_checkpoint(out / f"{kind}.ckpt", params,
                             meta={"kind": kind, **dataclasses.asdict(net)})
    _write_csv(out / f"{kind}_loss.csv", {key: [h[key] for h in history] for key in history[0]})
    best = min(h["train_loss"] for h in history)
    write_json(out / f"{kind}.manifest.json", {
        "config": cfg, "checkpoint_sha256": digest,
        "best_train_loss": best, "epochs": len(history),
        "n_train_samples": len(data[2]),
    })
    print(f"{kind}: trained {len(history)} epochs, best loss {best:.6g}")


# ------------------------------------------------------------------- sghmc

def cmd_sghmc(cfg, args) -> None:
    bc = _build(BayesConfig, **opts(cfg, "sghmc"))
    train_pool, _, spec, query_seed = _load_split(cfg)
    (params0,), net, init_path = _load_model(cfg, "vanilla", spec)
    out = _outdir(cfg, "sghmc")
    data = build_train(train_pool, spec, seed=query_seed)
    _discard(out / "chain.manifest.json")  # a failed chain leaves no stale manifest
    meta = {"kind": "bayes-member", **dataclasses.asdict(net)}
    hashes = {}

    def keep(member):
        """Write the chain's next member and record its sha256."""
        path = out / f"member_{len(hashes):03d}.ckpt"
        hashes[path.name] = save_checkpoint(path, member, meta=meta)

    _, trace = sghmc_run(params0, net, data, bc, keep=keep)
    _write_csv(out / "utrace.csv", {"iteration": sorted(trace),
                                    "potential": [trace[k] for k in sorted(trace)]})
    write_json(out / "chain.manifest.json", {
        "config": cfg, "members": list(hashes), "member_sha256": hashes,
        "init": str(init_path), "init_sha256": file_sha256(init_path),
        "final_potential": trace[max(trace)],
    })
    print(f"sghmc: retained ensemble of {len(hashes)}, "
          f"final U = {trace[max(trace)]:.6g}")


# ------------------------------------------------------------ model loading

def _load_model(cfg, which: str, spec: SplitSpec):
    """(members, net, first path): a generator of one model's checkpoints, each
    read when taken (the first is read here) and checked to hold exactly the
    parameters (names, shapes) of a prob net for `prob`, else of a vanilla one;
    the geometry the first one's meta records, whose m must be the dataset's."""
    if which == "bayes":
        manifest = _need(cfg, "models/bayes/chain.manifest.json")
        names = read_json(manifest, "members")["members"]
        if not (isinstance(names, list)
                and all(isinstance(n, str) and n and n == Path(n).name for n in names)):
            raise ArtifactError(f"{manifest} is not a valid chain: members is not a list of names")
        if repeated := [n for n in names if names.count(n) > 1]:
            raise ArtifactError(f"{manifest} is not a valid chain: {repeated[0]} is listed twice")
        paths = [_need(cfg, f"models/bayes/{name}") for name in names]
        if len(paths) < 2:
            raise UsageError("ensemble has fewer than 2 members")
    else:
        paths = [_need(cfg, f"models/{which}.ckpt")]
    first, meta = load_checkpoint(paths[0])
    geometry = [f.name for f in dataclasses.fields(DeepOnetConfig)]
    for k in geometry:
        if not isinstance(meta.get(k), int):
            raise UsageError(f"{paths[0]} has no integer {k!r} in its meta")
    net = _build(DeepOnetConfig, **{k: meta[k] for k in geometry})
    if net.depth > len(first):  # a depth-d net holds 13 + 4d arrays or more; layout loops d times
        raise UsageError(f"{paths[0]} does not hold a {which} net of {net} ({len(first)} arrays)")
    want = layout(net, "prob" if which == "prob" else "vanilla")

    def stream(held):
        for path in paths:
            if not held:
                held.append(load_checkpoint(path)[0])
            got = {k: v.shape for k, v in held[0].items()}
            if got != want:
                bad = sorted(set(got) ^ set(want)) or sorted(k for k in got if got[k] != want[k])
                raise UsageError(f"{path} does not hold a {which} net of {net} "
                                 f"(differs at {bad[0]})")
            yield held.pop()  # no local keeps the member while predict's lanes score it

    if net.m != spec.m:
        raise UsageError(f"checkpoint expects m={net.m} sensors, dataset provides m={spec.m}")
    return stream([first]), net, paths[0]


def _load_test(cfg, which: str):
    """(test pool, spec, members, net): what a read command scores."""
    _, test_pool, spec, _ = _load_split(cfg)
    members, net, _ = _load_model(cfg, which, spec)
    return test_pool, spec, members, net


def _band(mean, std, level: float):
    """(lower, upper) of the central `level` band; NaN curves without a std."""
    if std is None:
        return np.full_like(mean, np.nan), np.full_like(mean, np.nan)
    return uqeval.confidence_interval(mean, std, level)


# ---------------------------------------------------------------- evaluate

def cmd_evaluate(cfg, args) -> None:
    which, noise = args.which, check("--noise", args.noise, "nonneg")
    o = opts(cfg, "evaluate")
    level = o["level"]
    test_pool, spec, members, net = _load_test(cfg, which)

    U, mesh, G = build_test(test_pool, spec)
    sel = np.sort(np.random.default_rng([o["seed"], 4]).choice(
        len(G), size=min(o["count"], len(G)), replace=False))
    ids = [test_pool[k].traj_id for k in sel]
    U = np.array([add_input_noise(U[k], noise, [o["noise_seed"], 5, i]) for k, i in zip(sel, ids)])
    G = G[sel]
    mean, std = predict(members, net, U, mesh)
    lo, hi = _band(mean, std, level)
    l1, l2 = uqeval.relative_errors(mean, G)
    eps = np.full(len(G), np.nan) if std is None else uqeval.epsilon_ratio(lo, hi, G)

    out = _outdir(cfg, "evaluate")
    tag = which if noise == 0.0 else f"{which}_noise"
    agg = uqeval.aggregate_reports(l1, l2, eps)
    tables = {f"{tag}_report.csv": agg,  # output name: its columns
              f"{tag}_per_traj.csv": {"traj_id": ids, "l1_pct": l1, "l2_pct": l2,
                                      "eps_ratio": eps}}
    if std is not None:
        chis = np.linspace(0.0, o["chi_max"], o["chi_points"])
        emp, ana = uqeval.chi_coverage_curve(mean, std, G, chis)
        tables[f"{tag}_chi.csv"] = {"chi": chis, "empirical": emp, "analytic": ana}
    b = min(o["bands"], len(G))
    tables[f"{tag}_bands.csv"] = {"traj_id": np.repeat(ids[:b], len(mesh)),
                                  "y": np.tile(mesh, b), "truth": G[:b], "mean": mean[:b],
                                  "lower": lo[:b], "upper": hi[:b]}
    outputs = {name: _write_csv(out / name, columns) for name, columns in tables.items()}
    write_json(out / f"{tag}_eval.manifest.json", {
        "config": cfg, "which": which, "noise_sigma": noise, "level": level,
        "aggregate": {k: (None if isinstance(v, float) and np.isnan(v) else v)
                      for k, v in agg.items()},
        "outputs": outputs,
    })
    print(f"{which}: mean L2 {agg['mean_L2']:.3f}% "
          f"(sd {agg['sd_L2']:.3f}), eps_ratio {agg['eps_ratio']:.2f}%"
          + (f" at sigma={noise}" if noise else ""))


# ------------------------------------------------------------------ alarms

def cmd_alarms(cfg, args) -> None:
    which = args.which
    if which == "vanilla":
        raise UsageError("alarm analysis needs a predictive band; use prob or bayes")
    o = opts(cfg, "evaluate")
    level, y_star = o["level"], o["y_star"]
    test_pool, spec, members, net = _load_test(cfg, which)
    if y_star <= spec.t_cl:
        raise UsageError(f"y_star must be after the clearing time t_cl={spec.t_cl}, got {y_star}")
    if not y_star <= spec.T:
        raise UsageError(f"y_star must be at most the horizon T={spec.T}, got {y_star}")
    U = build_test(test_pool, spec)[0]
    mean, std = (c[:, 0] for c in predict(members, net, U, [y_star]))
    lo, hi = _band(mean, std, level)
    ids = [tr.traj_id for tr in test_pool]
    truth = np.array([np.interp(y_star, tr.times, tr.values) for tr in test_pool])
    flags, summary = uqeval.alarm_analysis(lo, hi, truth, y_star=y_star, t_cl=spec.t_cl)
    out = _outdir(cfg, "alarms")
    _write_csv(out / f"{which}_alarms.csv",
               {"traj_id": ids, "truth": truth, "mean": mean, "lower": lo, "upper": hi,
                **{key.lower(): flags[key].astype(int) for key in uqeval.ALARM_FLAGS}})
    write_json(out / f"{which}_alarms.manifest.json",
               {"config": cfg, "which": which, "level": level, "summary": summary})
    print(f"{which} alarms at y*={y_star}: FN={summary['FN']} "
          f"FP_cons={summary['FP_conservative']} "
          f"FP_noncons={summary['FP_nonconservative']} "
          f"TP={summary['TP']} TN={summary['TN']}")


# --------------------------------------------------------------- residuals

def cmd_residuals(cfg, args) -> None:
    which = args.which
    test_pool, spec, members, net = _load_test(cfg, which)
    U, mesh, G = build_test(test_pool, spec)
    res = predict(members, net, U, mesh)[0] - G
    try:
        report, counts, edges = uqeval.residual_normality(res)
    except ValueError as e:
        raise ArtifactError(f"{workdir(cfg) / 'dataset/split.json'} cannot be scored "
                            f"for residual normality: {e}") from None
    out = _outdir(cfg, "residuals")
    _write_csv(out / f"{which}_residuals.csv",
               {"bin_left": edges[:-1], "bin_right": edges[1:], "count": counts})
    write_json(out / f"{which}_residuals.manifest.json",
               {"config": cfg, "which": which, "n": int(res.size), **report})
    print(f"{which} residuals: skew {report['skewness']:+.3f}, "
          f"excess kurtosis {report['excess_kurtosis']:+.3f}, "
          f"verdict {'normal' if report['normal'] else 'not normal'}")


# ----------------------------------------------------------------- predict

def cmd_predict(cfg, args) -> None:
    which, traj_id = args.which, args.traj_id
    level = opts(cfg, "evaluate")["level"]
    test_pool, spec, members, net = _load_test(cfg, which)
    by_id = {tr.traj_id: tr for tr in test_pool}
    if traj_id is None:
        traj_id = min(by_id)
    if traj_id not in by_id:
        raise UsageError(f"trajectory {traj_id} is not in the test split")
    (u,), mesh, (truth,) = build_test([by_id[traj_id]], spec)
    mean, std = predict(members, net, u, mesh)
    lo, hi = _band(mean, std, level)
    out = _outdir(cfg, "predict")
    path = Path(args.out) if args.out else out / f"predict_{which}_{traj_id}.csv"
    try:
        _write_csv(path, {"y": mesh, "truth": truth, "mean": mean,
                          "std": np.full_like(mean, np.nan) if std is None else std,
                          "lower": lo, "upper": hi})
    except Error as e:  # `write`'s error, caused by the OSError
        raise UsageError(f"cannot write --out {path}: {e.__cause__.strerror}") from None
    print(f"wrote {path}")


# -------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog=TOP,
        description="Operator-learning pipeline for post-fault voltage prediction",
    )
    p.add_argument("--config", metavar="INI", help="INI config file; flags override its keys")
    sub = p.add_subparsers(dest="command", required=True)
    parsers = {TOP: p, **{name: sub.add_parser(name, help=text)
                          for name, (text, _) in COMMANDS.items()}}
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
        globals()[f"cmd_{args.command}"](cfg, args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Error as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
