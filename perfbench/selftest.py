"""Self-test of the benchmark harness; run from the repository root:

    python3 perfbench/selftest.py

It makes a minimal run (one cycle) of every workload in both modes and
asserts that every metric BENCHMARK.json names appears with its unit and
that every output check passed. It then makes a command fail on purpose, in
a workload's own cycle and in a side round, and asserts that the run still
prints a result line that counts the failure. Last, it checks that the pool
checker rejects a value perturbed beyond its tolerance, and that the
workload seed changes the generated inputs while a repeat reproduces them.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import run  # noqa: E402


def minimal_runs(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, (workload, trace, out.stdout)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[kind]}
            assert got == want, (workload, trace, set(got) ^ set(want))
            print(f"ok: {workload} --trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations")


def failing_commands() -> None:
    bad = run.Cmd("eval_bayes", ("evaluate", "--which", "nonsense"))  # argparse exits 2
    cases = (("own cycle", run.CYCLES, "serve", (0, 1)),
             ("side round", run.SIDE, "build", (0,)))
    for what, table, workload, traces in cases:
        original = table[workload]
        table[workload] = lambda s, original=original: [bad, *original(s)]
        try:
            for trace in traces:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                                   "--trace", str(trace)])
                result = json.loads(out.getvalue().strip().splitlines()[-1])
                assert rc == 0 and result["failed"] > 0 and not result["correct"], result
                assert result["metrics"] == {}, (what, trace, result)
                print(f"ok: a failing command in {workload}'s {what} (--trace {trace}) is "
                      f"reported: {result['failed']} of {result['attempted']} operations failed")
        finally:
            table[workload] = original


def simulate(cli, wd: Path, seed: int) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["--workdir", str(wd), "simulate", "--n1", str(run.N1),
                       "--n2", str(run.N2), "--seed", str(seed)])
    assert rc == 0, f"simulate --seed {seed} exited {rc}"


def pool_digest(wd: Path) -> str:
    return hashlib.sha256(b"".join((wd / "pools" / f"{k}.jsonl").read_bytes()
                                   for k in ("n1", "n2"))).hexdigest()


def checker_and_seeds(root: Path) -> None:
    cli, _ = run.import_gridonet(Path.cwd() / "src")
    refs = checks.load_refs()
    wd = root / "ref"
    simulate(cli, wd, refs["seed"])
    assert not checks.check_pool(checks.pool_summary(wd), refs["pool"]), "reference pool differs"
    path = wd / "pools" / "n1.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["values"][-1] += 10 * checks.POOL_TOL
    path.write_text("\n".join([json.dumps(rec, sort_keys=True)] + lines[1:]) + "\n")
    problems = checks.check_pool(checks.pool_summary(wd), refs["pool"])
    assert problems, "perturbed pool value passed the check"
    print(f"ok: perturbed pool rejected ({problems[0]})")

    digests = {}
    for name, seed in (("a", 1), ("b", 1), ("c", 2)):
        simulate(cli, root / name, seed)
        digests[name] = pool_digest(root / name)
    assert digests["a"] == digests["b"], "the same seed produced different pools"
    assert digests["a"] != digests["c"], "a different seed produced the same pools"
    print("ok: seed 1 repeats byte-identically, seed 2 changes the pools")


def main() -> int:
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    minimal_runs(spec)
    failing_commands()
    root = Path.cwd() / ".perfbench_work" / f"selftest-{os.getpid()}"
    root.mkdir(parents=True)
    try:
        checker_and_seeds(root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        with contextlib.suppress(OSError):
            root.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
