"""Seeded inputs for the three workloads.

Everything a workload feeds the program is generated here from the run's
seed, in plain Python and numpy, so the same seed gives the same inputs
and the program never sees the seed itself (the battery excepted: there
the seed is the CLI's own ``--seed``).  Inputs are plain data (numbers,
tuples, dicts); turning them into program objects happens in the worker.
"""

import math

import numpy as np

# The five modulators of the CLI battery, in the JSON shape the program
# accepts (``modulator_from_dict``).  The pointwise workload evaluates all
# five; the battery builds the same ones itself.
BATTERY_MODULATORS = {
    "sine1": {"k": 1.0, "lambda": 1.0,
              "modes": [{"a": 1.0, "b": 1, "kind": "sine"}]},
    "sine3": {"k": 1.0, "lambda": 1.0,
              "modes": [{"a": 0.5, "b": 1, "kind": "sine"},
                        {"a": 0.3, "b": 2, "kind": "sine"},
                        {"a": 0.2, "b": 5, "kind": "sine"}]},
    "weier": {"k": 1.0, "lambda": 0.9,
              "weierstrass": {"a": 0.5, "b": 3, "N": 10, "kind": "sine"}},
    "cos1": {"k": 0.5, "lambda": 0.1,
             "modes": [{"a": 1.0, "b": 1, "kind": "cosine"}]},
    "mix": {"k": 0.45, "lambda": -0.6,
            "modes": [{"a": 0.5, "b": 1, "kind": "cosine"},
                      {"a": 0.5, "b": 3, "kind": "sine"}]},
}

# lowfreq-sweep: one round is this many quadrature calls, half vanishing
# integrals and half modulated moments, interleaved.
LOWFREQ_ROUND = 400
LOWFREQ_K = (0.45, 3.0)
LOWFREQ_N = (-10, 30)
LOWFREQ_MAX_HARMONIC = 8

# pointwise: the grid, its batches, and the fits of one round.
POINTWISE_POINTS = 100_000
POINTWISE_BATCH = 5_000
POINTWISE_X = (1e-3, 1e3)
HOLDER_SPECS = ((0.5, 3), (0.7, 2), (0.9, 2))
WITNESS_SPEC = (0.5, 3)
SERIES_TERMS = 10


def rng_for(seed, stream):
    """Independent generator per (seed, purpose) pair."""
    return np.random.default_rng([seed, stream])


def modulator_terms(desc):
    """Expand a modulator dict into (amplitude, harmonic, kind) triples."""
    if "weierstrass" in desc:
        w = desc["weierstrass"]
        return [(w["a"] ** i, w["b"] ** i, w["kind"])
                for i in range(1, w["N"] + 1)]
    return [(m["a"], m["b"], m["kind"]) for m in desc["modes"]]


def sup_bound(desc):
    """Bound on sup|g| used to scale lambda: sum |a|, or a/(1-a)."""
    if "weierstrass" in desc:
        a = desc["weierstrass"]["a"]
        return a / (1.0 - a)
    return float(sum(abs(m["a"]) for m in desc["modes"]))


def lowfreq_round(rng):
    """One round of calls: dicts describing a vanishing integral or a moment.

    k is drawn continuously, so (k, n, harmonic) keys practically never
    repeat and the per-harmonic cache is bypassed.
    """
    calls = []
    for i in range(LOWFREQ_ROUND):
        k = float(rng.uniform(*LOWFREQ_K))
        n = int(rng.integers(LOWFREQ_N[0], LOWFREQ_N[1] + 1))
        if i % 2 == 0:
            j = int(rng.integers(1, LOWFREQ_MAX_HARMONIC + 1))
            calls.append({"kind": "vanish", "k": k, "n": n, "j": j})
            continue
        modes = []
        for _ in range(int(rng.integers(1, 4))):
            modes.append({
                "a": float(rng.uniform(0.1, 1.0)) * float(rng.choice((-1.0, 1.0))),
                "b": int(rng.integers(1, LOWFREQ_MAX_HARMONIC + 1)),
                "kind": "sine" if rng.uniform() < 0.5 else "cosine",
            })
        desc = {"k": k, "lambda": 0.0, "modes": modes}
        desc["lambda"] = float(rng.uniform(-1.0, 1.0)) / sup_bound(desc)
        calls.append({"kind": "moment", "n": n, "modulator": desc})
    return calls


def pointwise_grid(seed):
    """Log-uniform sample points on POINTWISE_X."""
    lo, hi = (math.log(v) for v in POINTWISE_X)
    return np.exp(rng_for(seed, 2).uniform(lo, hi, POINTWISE_POINTS))
