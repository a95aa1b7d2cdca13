"""Benchmark of qmoments: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload battery --seed 1 --seconds 20 --trace 0

Workloads (see README.md):
  battery        `qmoments all`, the 317-case battery, through the CLI
  lowfreq-sweep  low-harmonic vanishing integrals and modulated moments
  pointwise      density, q-Pearson and q-derivative batches, roughness fits

Every workload runs in fresh interpreters started from here, against the
package under src/.  Outputs are checked against references computed in
this directory (check.py), including a 30-digit mpmath subset done here,
after the timed work.  With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run of a fixed amount of work, plus the tracing overhead against
an untraced run of the same work.  The line before it records the machine
and run details.  Run files and span traces go to .perfbench/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from spans import PER_LAYER  # noqa: E402

CHILD = str(HERE / "child.py")
CHILD_TIMEOUT = 170
SETUP_PROBES = 8
BATTERY_MIN_ROUNDS = 2
# Requests a run needs before its 99th percentile has ten beyond it.
P99_MIN_SAMPLES = 1000

WORKLOADS = {"battery": "battery", "lowfreq-sweep": "lowfreq", "pointwise": "pointwise"}
# Work of one traced run, fixed so its counts repeat exactly.
TRACE_ROUNDS = {"battery": 1, "lowfreq": 10, "pointwise": 2}


class BenchError(Exception):
    pass


def _env():
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def _spawn(args):
    try:
        proc = subprocess.run([sys.executable, CHILD] + args, cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} exceeded {CHILD_TIMEOUT} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc


def setup_sample():
    """Seconds from starting an interpreter until qmoments is imported."""
    t0 = time.perf_counter()
    proc = _spawn(["import-only"])
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def run_worker(mode, ns, outdir, tag, rounds=0, traced=False):
    """One worker process; returns its result dict with its set-up time."""
    result = outdir / f"{tag}.json"
    args = [mode, "--seed", str(ns.seed), "--seconds", str(ns.seconds),
            "--rounds", str(rounds), "--result", str(result)]
    if mode == "battery":
        args += ["--report", str(outdir / f"{tag}-report.json")]
    if traced:
        args += ["--trace", str(outdir / f"{tag}-spans.jsonl")]
    t0 = time.perf_counter()
    _spawn(args)
    res = json.loads(result.read_text(encoding="utf-8"))
    res["setup_s"] = res["t_imported"] - t0
    if mode == "battery":
        judge_battery(res, outdir / f"{tag}-report.json", ns.seed)
    return res


def judge_battery(res, report_path, seed):
    """Check the battery report against references built here."""
    if res["exit_code"] not in (0, 1):
        raise BenchError(f"qmoments all exited {res['exit_code']}")
    cases = json.loads(report_path.read_text(encoding="utf-8"))["cases"]
    failed, wrong = check.check_battery(cases)
    _, mut_wrong = check.check_battery(check.battery_opposite_convention(cases))
    res.update(attempted=len(cases), failed=len(failed), wrong=wrong[:20],
               wrong_count=len(wrong),
               mutant={"applicable": 1, "caught": int(len(mut_wrong) > len(wrong))},
               mp_integrals=check.battery_mp_samples(cases, seed))


def run_battery_rounds(ns, outdir):
    """Fresh `qmoments all` processes until --seconds have passed.

    At least BATTERY_MIN_ROUNDS: one battery takes longer than a run's
    --seconds today, and the median of two halves the weight of a slow
    stretch on a shared machine.
    """
    start = time.perf_counter()
    runs = []
    while len(runs) < BATTERY_MIN_ROUNDS or time.perf_counter() - start < ns.seconds:
        runs.append(run_worker("battery", ns, outdir, f"round{len(runs)}"))
    merged = {key: [] for key in ("walls", "cpus", "latencies")}
    for r in runs:
        for key in merged:
            merged[key] += r[key]
    merged.update(
        attempted=sum(r["attempted"] for r in runs),
        failed=sum(r["failed"] for r in runs),
        wrong=[w for r in runs for w in r["wrong"]],
        wrong_count=sum(r["wrong_count"] for r in runs),
        mutant={"applicable": len(runs), "caught": sum(r["mutant"]["caught"] for r in runs)},
        mp_integrals=runs[0]["mp_integrals"],
        peak_rss_mb=max(r["peak_rss_mb"] for r in runs),
        setup_samples=[r["setup_s"] for r in runs],
        env=runs[0]["env"],
    )
    return merged


def verdict(res):
    """Fold mpmath comparisons and the mutant check into the result."""
    mp_wrong = check.check_mp_integrals(res.get("mp_integrals", []))
    mp_wrong += check.check_mp_densities(res.get("mp_densities", []))
    res["wrong"] = res["wrong"] + mp_wrong
    res["wrong_count"] += len(mp_wrong)
    res["mp_checked"] = len(res.get("mp_integrals", [])) + len(res.get("mp_densities", []))
    mutant = res.get("mutant")
    res["mutant_caught"] = None if mutant is None else (
        mutant["applicable"] > 0 and mutant["caught"] == mutant["applicable"])
    return res["wrong_count"] == 0 and res["mutant_caught"] is not False


def end_to_end(res):
    """The metrics of an untraced run.

    wall_s and cpu_s are the mean over rounds.  On this shared machine
    the speed of the same code shifts between regimes as far apart as
    1.7x for tens of seconds, so a run's median round lands in whichever
    regime held most of it, and medians of lowfreq-sweep rounds spread
    29% over ten seeds against 17% for means.
    """
    lat = res["latencies"]
    tail = (statistics.quantiles(lat, n=100)[98] if len(lat) >= P99_MIN_SAMPLES
            else max(lat))
    return {
        "setup_s": (statistics.median(res["setup_samples"]), "s"),
        "wall_s": (statistics.fmean(res["walls"]), "s"),
        "cpu_s": (statistics.fmean(res["cpus"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ops_per_s": (res["attempted"] / sum(res["walls"]), "1/s"),
        "request_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "request_p99_ms": (tail * 1e3, "ms"),
    }


def per_layer(plain, traced):
    values = dict(traced["layers"])
    values["trace.wall_s"] = sum(traced["walls"])
    values["trace.overhead_s"] = sum(traced["walls"]) - sum(plain["walls"])
    names = [name for name, _, _ in PER_LAYER]
    if sorted(values) != sorted(names):
        raise BenchError(f"per-layer metrics differ from the table: {sorted(set(values) ^ set(names))}")
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if ns.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "qmoments" / "__init__.py").is_file():
        print(f"run.py: no qmoments package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    mode = WORKLOADS[ns.workload]
    outdir = ROOT / ".perfbench" / f"{ns.workload}-seed{ns.seed}-trace{ns.trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        if ns.trace:
            rounds = TRACE_ROUNDS[mode]
            plain = run_worker(mode, ns, outdir, "untraced", rounds=rounds)
            res = run_worker(mode, ns, outdir, "traced", rounds=rounds, traced=True)
            metrics = per_layer(plain, res)
        else:
            setups = [setup_sample() for _ in range(SETUP_PROBES)]
            if mode == "battery":
                res = run_battery_rounds(ns, outdir)
            else:
                res = run_worker(mode, ns, outdir, "run")
                res["setup_samples"] = [res["setup_s"]]
            res["setup_samples"] += setups
            metrics = end_to_end(res)
        correct = verdict(res)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    details = {
        "workload": ns.workload, "seed": ns.seed, "trace": ns.trace,
        "rounds": len(res["walls"]), "env": res["env"],
        "mp_checked": res["mp_checked"], "mutant_caught": res["mutant_caught"],
        "wrong": res["wrong"][:5], "untraced": res.get("untraced", []),
    }
    (outdir / "summary.json").write_text(json.dumps(
        {"details": details, "metrics": metrics}, indent=1), encoding="utf-8")
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
