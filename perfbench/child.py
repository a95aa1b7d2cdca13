"""One workload in a fresh interpreter; started by run.py, never by hand.

The first statement after ``import time`` imports qmoments, so the time
from process start to ``T_IMPORTED`` is the package's set-up cost.  The
worker then runs whole rounds of its workload, timing every operation,
checks each round's outputs outside the timed sections, and writes one
JSON result file for run.py.

Modes:
  import-only   print T_IMPORTED and exit (set-up samples)
  battery       `qmoments all` through cli.main, one round
  lowfreq       rounds of LOWFREQ_ROUND low-harmonic quadrature calls
  pointwise     rounds of batch evaluations and roughness fits
"""

import time

import qmoments

T_IMPORTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
import inputs  # noqa: E402
from spans import Tracer  # noqa: E402

perf_counter = time.perf_counter
process_time = time.process_time


def _timed(fn, *args):
    t0, c0 = perf_counter(), process_time()
    out = fn(*args)
    return out, perf_counter() - t0, process_time() - c0


class Rounds:
    """Per-round wall and CPU seconds and per-operation latencies."""

    def __init__(self, seconds, fixed):
        self.seconds, self.fixed = seconds, fixed
        self.start = perf_counter()
        self.walls, self.cpus, self.latencies = [], [], []
        self.attempted = 0
        self.wrong = []

    def more(self):
        if self.fixed:
            return len(self.walls) < self.fixed
        return not self.walls or perf_counter() - self.start < self.seconds

    def add_round(self, wall, cpu):
        self.walls.append(wall)
        self.cpus.append(cpu)

    def result(self):
        return {"walls": self.walls, "cpus": self.cpus,
                "latencies": self.latencies, "attempted": self.attempted,
                # An exception ends the worker, so a finished run has no
                # failed operation; battery cases are judged in run.py.
                "failed": 0, "wrong": self.wrong[:20],
                "wrong_count": len(self.wrong)}


# ------------------------------------------------------------------ battery

def run_battery(ns, rounds):
    """`qmoments all --seed <seed>` as a user runs it: one round."""
    cli = importlib.import_module("qmoments.cli")
    argv = ["all", "--seed", str(ns.seed), "--out", ns.report]
    code, wall, cpu = _timed(cli.main, argv)
    rounds.add_round(wall, cpu)
    rounds.latencies.append(wall)
    return {"exit_code": code}


# ------------------------------------------------------------------ lowfreq

def _prepare(call):
    if call["kind"] == "vanish":
        return qmoments.vanishing_integral, (
            qmoments.LogNormalWeight(call["k"]), call["n"], call["j"])
    density = qmoments.PerturbedDensity.of(qmoments.modulator_from_dict(call["modulator"]))
    return qmoments.integrate_moment, (density, call["n"])


def run_lowfreq(ns, rounds):
    rng = inputs.rng_for(ns.seed, 1)
    mutant_applicable = mutant_caught = 0
    mp_samples = []
    while rounds.more():
        calls = inputs.lowfreq_round(rng)
        prepared = [_prepare(c) for c in calls]
        outputs = []
        wall = cpu = 0.0
        for fn, args in prepared:
            r, dt, dc = _timed(fn, *args)
            wall += dt
            cpu += dc
            rounds.latencies.append(dt)
            outputs.append((r.value.sign, r.value.ln_abs))
        rounds.add_round(wall, cpu)
        rounds.attempted += len(calls)
        for call, (sign, ln_abs) in zip(calls, outputs):
            rounds.wrong += check.check_integral(call, sign, ln_abs)
            if call["kind"] == "moment" and call["n"] != -1:
                mutant_applicable += 1
                mutated = check.opposite_convention(call, sign, ln_abs)
                mutant_caught += bool(check.check_integral(call, *mutated))
        if not mp_samples:
            pick = inputs.rng_for(ns.seed, 3)
            for kind in ("vanish", "moment"):
                idx = [i for i, c in enumerate(calls)
                       if c["kind"] == kind and check.mp_eligible(c)]
                for i in pick.choice(idx, size=min(2, len(idx)), replace=False):
                    mp_samples.append((calls[i], check.integral_over_scale(calls[i], *outputs[i])))
    return {"mutant": {"applicable": mutant_applicable, "caught": mutant_caught},
            "mp_integrals": mp_samples}


# ---------------------------------------------------------------- pointwise

MP_POINTS = 12
CHECK_STRIDE = 4


def _pointwise_ops(grid, seed):
    """The operations of one round: (label, callable, args)."""
    ops = []
    for name, desc in inputs.BATTERY_MODULATORS.items():
        m = qmoments.modulator_from_dict(desc)
        d = qmoments.PerturbedDensity.of(m)
        q = m.weight.q
        for start in range(0, grid.size, inputs.POINTWISE_BATCH):
            xb = grid[start:start + inputs.POINTWISE_BATCH]
            ops.append(((name, "eval_density", start), qmoments.eval_density, (d, xb)))
            ops.append(((name, "q_pearson_residual", start),
                        qmoments.q_pearson_residual, (d, xb)))
            ops.append(((name, "q_derivative", start), qmoments.q_derivative, (m, xb, q)))
    for a, b in inputs.HOLDER_SPECS:
        spec = qmoments.WeierstrassSpec(a, b, inputs.SERIES_TERMS, "sine")
        ops.append((("holder", a, b), qmoments.holder_estimate,
                    (spec, None, 64, 16, seed)))
    a, b = inputs.WITNESS_SPEC
    spec = qmoments.WeierstrassSpec(a, b, inputs.SERIES_TERMS, "sine")
    ops.append((("witness", a, b), qmoments.divergence_witness,
                (spec, None, 32, 8, seed)))
    return ops


def _check_pointwise(label, args, out):
    if label[0] == "holder":
        return check.check_holder(label[1], label[2], out.alpha, out.r_squared)
    if label[0] == "witness":
        return check.check_witness(label[1], label[2], out.quotients, out.implied_alpha)
    name, func, _ = label
    desc = inputs.BATTERY_MODULATORS[name]
    x = args[1]
    if func == "eval_density":
        return check.check_density(desc, x[::CHECK_STRIDE], out[::CHECK_STRIDE])
    if func == "q_pearson_residual":
        return check.check_pearson(desc, x, out)
    return check.check_qderiv(desc, x[::CHECK_STRIDE], out[::CHECK_STRIDE])


def run_pointwise(ns, rounds):
    grid = inputs.pointwise_grid(ns.seed)
    mp_idx = set(inputs.rng_for(ns.seed, 4).choice(grid.size, MP_POINTS, replace=False).tolist())
    mp_samples = []
    while rounds.more():
        ops = _pointwise_ops(grid, ns.seed)
        wall = cpu = 0.0
        for label, fn, args in ops:
            out, dt, dc = _timed(fn, *args)
            wall += dt
            cpu += dc
            if label[0] in inputs.BATTERY_MODULATORS:
                rounds.latencies.append(dt)
            rounds.wrong += _check_pointwise(label, args, out)
            if len(rounds.walls) == 0 and label[1] == "eval_density":
                start = label[2]
                for i in sorted(mp_idx):
                    if start <= i < start + inputs.POINTWISE_BATCH:
                        mp_samples.append((label[0], float(grid[i]), float(out[i - start])))
        rounds.add_round(wall, cpu)
        rounds.attempted += len(ops)
    return {"mp_densities": mp_samples}


# ------------------------------------------------------------ layer probes

PROBE_K = 1.0
PROBE_N = 20  # no workload asks for this order at k = 1
PROBE_HARMONICS = (1, 3 ** 5, 3 ** 10)


def component_probes():
    """One sine component integral at k = 1, cold per harmonic, then warm.

    ``vanishing_integral`` is exactly one component integral.  Cold means
    no earlier call in the process used this (k, n, harmonic).
    """
    w = qmoments.LogNormalWeight(PROBE_K)
    out = {}
    for h in PROBE_HARMONICS:
        _, dt, _ = _timed(qmoments.vanishing_integral, w, PROBE_N, h)
        out[f"quadrature.cold_ms.h{h}"] = dt * 1e3
    h = PROBE_HARMONICS[-1]
    _, dt, _ = _timed(qmoments.vanishing_integral, w, PROBE_N, h)
    out[f"quadrature.warm_ms.h{h}"] = dt * 1e3
    return out


def _best(fn, args, repeats=5):
    fn(*args)
    return min(_timed(fn, *args)[1] for _ in range(repeats))


def kernel_throughput():
    """The figures benchmarks/bench_kernels.py prints, on the active backend.

    Panel kernel: 20000 panels of 32 Gauss-Legendre nodes.  Weierstrass
    scan: 200000 points, 21 terms.  Best of five after one warm-up call.
    """
    kernels = importlib.import_module("qmoments._kernels")
    nodes, weights = np.polynomial.legendre.leggauss(32)
    panels = 20_000
    centers = np.linspace(-5.0, 5.0, panels)
    phase0 = np.random.default_rng(1).uniform(0.0, 2.0 * np.pi, panels)
    args = (centers, 5.0 / panels, nodes, weights, 1.0, 0.0, 0.0, phase0, 40.0, 2)
    gp = panels * 32 / _best(kernels.gauss_panels, args)
    u = np.random.default_rng(2).uniform(0.0, 1.0, 200_000)
    ws = u.size * 21 / _best(kernels.weier_sum_u, (u, 0.5, 3.0, 21, 1))
    return {"kernels.bench.gauss_panels.nodes_per_s": gp,
            "kernels.bench.weier_sum_u.terms_per_s": ws}


# --------------------------------------------------------------------- main

RUNNERS = {"battery": run_battery, "lowfreq": run_lowfreq, "pointwise": run_pointwise}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("import-only",) + tuple(RUNNERS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--rounds", type=int, default=0,
                    help="fixed round count; 0 runs rounds for --seconds")
    ap.add_argument("--trace", default=None, help="span file; enables tracing")
    ap.add_argument("--report", default=None, help="battery report path")
    ap.add_argument("--result", default=None)
    ns = ap.parse_args()
    if ns.mode == "import-only":
        print(repr(T_IMPORTED))
        return 0

    tracer = Tracer() if ns.trace else None
    if tracer:
        tracer.install()
    rounds = Rounds(ns.seconds, ns.rounds)
    extra = RUNNERS[ns.mode](ns, rounds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = rounds.result()
    result.update(extra)
    result.update({
        "t_imported": T_IMPORTED,
        "peak_rss_mb": peak_kb / 1024.0,
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": np.__version__,
                "backend": getattr(qmoments, "backend_name", lambda: "absent")()},
    })
    if tracer:
        tracer.uninstall()
        tracer.dump(ns.trace)
        layers = tracer.metrics()
        layers.update(component_probes())
        layers.update(kernel_throughput())
        result["layers"] = layers
        result["untraced"] = tracer.missing
    with open(ns.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
