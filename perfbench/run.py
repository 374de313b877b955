"""hanlink benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload link_exact --seed 1 --seconds 30 --trace 0

Run from the repository root. The run prepares the workload's inputs from
the seed in a fresh process, then runs whole rounds of the workload, each
in its own fresh process, until --seconds have passed. Round 0 also checks
the outputs. With --trace 0 the result holds the end-to-end metrics
(medians over rounds); with --trace 1 the per-layer metrics of traced
rounds. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("link_exact", "link_fused", "study")
BUDGET_S = 170.0   # a run ends well inside 180 s


def source_digest() -> str:
    """Digest of the program and benchmark sources; keys the shared inputs."""
    h = hashlib.sha256()
    for base, pattern in ((ROOT / "src" / "hanlink", "**/*"), (BENCH, "*.py")):
        for path in sorted(base.glob(pattern)):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(path.relative_to(base).as_posix().encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"   # NamePairScorer featurizes in set() order
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = child_env()
        self.log = run_dir / "child.log"

    def child(self, *argv: str) -> bool:
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            return False
        with open(self.log, "a", encoding="utf-8") as log:
            try:
                done = subprocess.run([sys.executable, str(BENCH / "child.py"), *argv],
                                      cwd=ROOT, env=self.env, stdout=log, stderr=log,
                                      timeout=remaining, check=False)
            except subprocess.TimeoutExpired:
                log.write(f"timed out: {argv}\n")
                return False
        return done.returncode == 0

    def round(self, name: str, *flags: str) -> dict | None:
        out = self.run_dir / f"{name}.json"
        ok = self.child("round", "--dir", str(self.run_dir), "--out", str(out),
                        *flags, "--t0", repr(time.monotonic()))
        if not ok or not out.exists():
            return None
        return json.loads(out.read_text(encoding="utf-8"))


def median(values) -> float:
    return float(statistics.median(values))


def summarize(rounds: list[dict | None], traced: bool) -> dict:
    done = [r for r in rounds if r is not None]
    first = rounds[0] if rounds else None
    correct = (first is not None and first.get("checks_passed", 0) > 0
               and not first["check_failures"]
               and len({r["report"] for r in done}) == 1)
    metrics: dict = {}
    if done and not traced:
        metrics["setup_s"] = {"value": median([r["setup_s"] for r in done]),
                              "unit": "s"}
        metrics["run_s"] = {"value": median([r["run_s"] for r in done]), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": median([r["peak_rss_mb"] for r in done]),
                                  "unit": "MB"}
    elif done:
        correct = correct and len({json.dumps(r["counts"], sort_keys=True)
                                   for r in done}) == 1
        for name in done[0]["layers"]:
            metrics[name + "_s"] = {"value": median([r["layers"][name] for r in done]),
                                    "unit": "s"}
        for name, value in done[0]["counts"].items():
            metrics[name] = {"value": value, "unit": "count"}
        for name, key in (("process.run_s", "run_s"), ("process.cpu_s", "cpu_s"),
                          ("host.steal_s", "steal_s")):
            metrics[name] = {"value": median([r[key] for r in done]), "unit": "s"}
    return {"correct": bool(correct), "attempted": len(rounds),
            "failed": len(rounds) - len(done), "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    begin = time.monotonic()
    if not (ROOT / "src" / "hanlink" / "__init__.py").is_file():
        print(f"error: no hanlink sources under {ROOT / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2

    seed = args.seed % 2**63
    run_dir = OUT / f"{args.workload}-{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(run_dir, begin + BUDGET_S)
    build_dir = OUT / "build" / source_digest()
    if not runner.child("prepare", "--workload", args.workload, "--seed", str(seed),
                        "--dir", str(run_dir), "--build", str(build_dir)):
        print(f"error: preparing inputs failed; see {runner.log}", file=sys.stderr)
        sys.stderr.write(runner.log.read_text(encoding="utf-8")[-4000:])
        return 1

    trace_flag = ("--trace", str(args.trace))
    rounds: list[dict | None] = []
    start = time.monotonic()
    longest = 0.0
    while not rounds or time.monotonic() - start < args.seconds:
        if time.monotonic() + 1.5 * longest > runner.deadline:
            break  # the next round would not end inside the budget
        began = time.monotonic()
        flags = trace_flag + (("--check",) if not rounds else ())
        rounds.append(runner.round(f"round-{len(rounds)}", *flags))
        longest = max(longest, time.monotonic() - began)

    result = summarize(rounds, bool(args.trace))
    env = json.loads((run_dir / "env.json").read_text(encoding="utf-8"))
    first = rounds[0] or {}
    print(json.dumps({"env": env, "checks_passed": first.get("checks_passed"),
                      "check_failures": first.get("check_failures"),
                      "round_run_s": [r and r["run_s"] for r in rounds]}))
    (run_dir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
