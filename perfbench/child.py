"""One fresh process of the benchmark: prepares inputs, or runs one round.

    child.py prepare --workload W --seed N --dir RUN_DIR --build BUILD_DIR
    child.py round   --dir RUN_DIR --out ROUND.json --t0 T --trace 0|1 [--check]

A round loads nothing before its first timed call except the interpreter,
numpy and the hanlink modules, so `setup_s` (T, the parent's clock reading
just before it started this process, to the first timed call) is what a
user of the library pays at start. A round runs in RUN_DIR, so the
config's relative file names resolve as they do for `hanlink experiment`.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

import hanlink
from hanlink import compare, matcher

import checks
import spans
import workloads


def read_steal_ticks() -> int:
    with open("/proc/stat", encoding="ascii") as handle:
        return int(handle.readline().split()[8])


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_checks(config: dict, run_dir: Path, report: dict, rec: spans.Recorder) -> checks.Checks:
    chk = checks.Checks()
    tab_calls = rec.calls["experiment.tabulate"]
    em_calls = rec.calls["linkage.em_fit"]
    chk.expect(len(tab_calls) == 1, "one pattern tabulation")
    checks.check_em(chk, em_calls)
    if not tab_calls or not em_calls:
        return chk
    dataset, (table, pos) = tab_calls[0][0][0], tab_calls[0][2]
    if "data" in config:
        data = config["data"]
        records_a = checks.read_csv_columns(run_dir / data["file_a"])
        records_b = checks.read_csv_columns(run_dir / data["file_b"])
        truth = checks.read_truth_pairs(run_dir / data["truth"])
        reports = report["reports"]
        model_dict = (json.loads((run_dir / config["classifier"].split(":", 1)[1])
                                 .read_text(encoding="utf-8"))
                      if config.get("classifier") else None)
    else:
        sim = rec.calls["simgen.generate_pair_files"][-1][2]  # the replicate
        records_a, records_b, truth = sim.records_a, sim.records_b, sim.truth
        reports = report["replicates"][0]
        model_dict = report["model"]
        chk.expect(model_dict["trainer"]["converged"], "trained matcher converged")
        dists = rec.calls["matcher.fit_dist"]
        chk.expect(len(dists) == 1, "one fitted score distribution")
        for _, _, dist in dists:
            checks.check_distribution(chk, dist)
    checks.check_tabulation(chk, dataset.fields, records_a, records_b, truth, table, pos)
    exact_fits = [c for c in em_calls if c[0][0] is table]
    chk.expect(len(exact_fits) == 1, "one EM fit on the tabulated table")
    if exact_fits and "exact" in reports:
        checks.check_exact_ranking(chk, reports["exact"], table, pos, exact_fits[0][2])
    checks.check_method_reports(chk, reports)
    if model_dict is not None:
        checks.check_name_scores(chk, model_dict, rec.calls["experiment.scorer"])
    return chk


def blas_threads() -> int | None:
    """Threads of the OpenBLAS pool numpy loaded, asked of the library itself."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cmd_round(args) -> int:
    traced = bool(args.trace)
    run_dir = Path(args.dir)
    config = json.loads((run_dir / "config.json").read_text(encoding="utf-8"))
    rec = spans.Recorder(timed=traced)
    spans.install(rec, workloads.targets(traced))
    os.chdir(run_dir)
    steal0, cpu0 = read_steal_ticks(), cpu_seconds()
    start = time.monotonic()
    out = {"setup_s": start - args.t0}
    report = workloads.run(config)
    end = time.monotonic()
    out["run_s"] = end - start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["cpu_s"] = cpu_seconds() - cpu0
    out["steal_s"] = (read_steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK")
    text = workloads.canonical(report)
    out["report"] = text
    if traced:
        self_times = rec.self_times()
        out["layers"] = {name: self_times.get(name, 0.0)
                         for name in workloads.SPAN_METRICS}
        out["layers"]["process.other"] = (end - start) - sum(self_times.values())
        out["counts"] = {name: int(rec.counts.get(name, 0))
                         for name in workloads.COUNT_METRICS}
    if args.check:
        chk = run_checks(config, run_dir, json.loads(text), rec)
        out["checks_passed"] = chk.passed
        out["check_failures"] = chk.failures
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")
    return 0


def matcher_specs(run_dir: Path, config: dict) -> list[str] | None:
    """Feature names of the loaded matcher (trained study models are in the report)."""
    if not config.get("classifier"):
        return None
    path = run_dir / config["classifier"].split(":", 1)[1]
    return [spec.name for spec in matcher.MatcherModel.load(path).specs]


def cmd_prepare(args) -> int:
    run_dir = Path(args.dir)
    config = workloads.prepare(args.workload, args.seed, run_dir, Path(args.build))
    (run_dir / "config.json").write_text(json.dumps(config, indent=1, sort_keys=True),
                                         encoding="utf-8")
    env = {"python": ".".join(map(str, sys.version_info[:3])),
           "numpy": np.__version__, "hanlink": hanlink.__version__,
           "have_numba": bool(compare._HAVE_NUMBA), "nproc": os.cpu_count(),
           "blas_threads": blas_threads(),
           "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
           "matcher_specs": matcher_specs(run_dir, config)}
    (run_dir / "env.json").write_text(json.dumps(env, sort_keys=True), encoding="utf-8")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("prepare")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--build", required=True)
    p.set_defaults(func=cmd_prepare)
    p = sub.add_parser("round")
    p.add_argument("--dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_round)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
