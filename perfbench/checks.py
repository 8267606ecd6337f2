"""Output checks: stored reference values, artifact digests and CSV shapes.

`refs.json` holds values measured on the reference case (the set-up and the
reference stage at `REF_SEED`, see run.py). Each check returns a list of
problems; an empty list means the check passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REFS_PATH = Path(__file__).with_name("refs.json")
POOL_TOL = 1e-10  # pu, the simulator gate
SCENARIO_TOL = 1e-12  # s, fault time drawn from the rng stream
# losses and evaluate aggregates come out of chaotic training and sampling
# runs, so an ulp-level change upstream may move them further than the pool
REL_TOL = 1e-6
AGG_KEYS = ("count", "mean_L1", "sd_L1", "mean_L2", "sd_L2", "eps_ratio")


def tree_digest(root: Path, subdirs) -> str:
    """sha256 over the relative paths and bytes of every file below subdirs."""
    h = hashlib.sha256()
    for sub in subdirs:
        for path in sorted(p for p in (root / sub).rglob("*") if p.is_file()):
            h.update(str(path.relative_to(root)).encode() + b"\0")
            h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def pool_summary(workdir: Path) -> list[dict]:
    """Scenario and |V| summary of every trajectory in the pool files."""
    out = []
    for kind in ("n1", "n2"):
        with open(workdir / "pools" / f"{kind}.jsonl") as f:
            for line in f:
                rec = json.loads(line)
                v = rec["values"]
                out.append({
                    "id": rec["id"], "kind": rec["kind"], "tripped": rec["tripped"],
                    "t_f": rec["t_f"], "min": min(v), "mean": math.fsum(v) / len(v),
                    "final": v[-1],
                })
    return out


def best_losses(workdir: Path, kinds=("vanilla", "prob")) -> dict:
    return {kind: json.loads((workdir / "models" / f"{kind}.manifest.json").read_text())
            ["best_train_loss"] for kind in kinds}


def eval_aggregate(workdir: Path, which: str) -> dict:
    doc = json.loads((workdir / "eval" / f"{which}_eval.manifest.json").read_text())
    return doc["aggregate"]


def _close(a, b, rel=REL_TOL, abs_tol=1e-12) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= max(rel * abs(b), abs_tol)


def check_pool(got: list[dict], ref: list[dict]) -> list[str]:
    if len(got) != len(ref):
        return [f"pool has {len(got)} trajectories, reference {len(ref)}"]
    bad = []
    for g, r in zip(got, ref):
        tag = f"trajectory {r['id']}"
        if (g["id"], g["kind"], g["tripped"]) != (r["id"], r["kind"], r["tripped"]):
            bad.append(f"{tag}: scenario {g['kind']} {g['tripped']} != {r['kind']} {r['tripped']}")
        if abs(g["t_f"] - r["t_f"]) > SCENARIO_TOL:
            bad.append(f"{tag}: t_f {g['t_f']!r} != {r['t_f']!r}")
        for key in ("min", "mean", "final"):
            if abs(g[key] - r[key]) > POOL_TOL:
                bad.append(f"{tag}: {key} |V| {g[key]!r} != {r[key]!r}")
    return bad


def check_losses(got: dict, ref: dict) -> list[str]:
    return [f"best {k} loss {got[k]!r} != {ref[k]!r}" for k in ref if not _close(got[k], ref[k])]


def check_aggregate(which: str, got: dict, ref: dict) -> list[str]:
    return [f"evaluate {which} {k} {got.get(k)!r} != {ref[k]!r}"
            for k in AGG_KEYS if not _close(got.get(k), ref[k])]


def check_quality(got: dict, ref: dict) -> list[str]:
    return (check_losses({"vanilla": got["vanilla_loss"]}, {"vanilla": ref["vanilla_loss"]})
            + check_aggregate("bayes", got["bayes"], ref["bayes"]))


def check_alarms(path: Path, expected_rows: int) -> list[str]:
    """Every trajectory carries exactly one outcome flag."""
    with open(path) as f:
        rows = list(csv.DictReader(f))
    flags = ("fn", "tp", "fp_conservative", "fp_nonconservative", "tn")
    total = sum(int(r[k]) for r in rows for k in flags)
    bad = []
    if len(rows) != expected_rows:
        bad.append(f"alarms: {len(rows)} rows, expected {expected_rows}")
    if total != len(rows) or any(sum(int(r[k]) for k in flags) != 1 for r in rows):
        bad.append(f"alarms: flags sum to {total} over {len(rows)} trajectories")
    return bad


def check_predict(path: Path, mesh_points: int) -> list[str]:
    with open(path) as f:
        rows = list(csv.reader(f))[1:]
    finite = all(math.isfinite(float(x)) for r in rows for x in r[:6])
    bad = [] if len(rows) == mesh_points else [f"predict: {len(rows)} rows, expected {mesh_points}"]
    return bad + ([] if finite else ["predict: non-finite value in the bayes curve"])


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text())


def save_refs(refs: dict) -> None:
    REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
