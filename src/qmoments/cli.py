"""Command line battery for the shared-moment constructions.

Every subcommand produces a report: a header describing the run and a
flat list of cases, each holding the measured value, the reference it
is held against, the tolerance, the numerical error estimate where one
exists, and a boolean verdict.  JSON output is the full report; CSV is
a flat projection of the case list, one row per case with the inputs
packed into a JSON string column.

Report schema, version 6; the version changes with the report layout,
with what a verdict means or which points a seed gives, and with the
package's public API (``qmoments.__all__`` and the fields and methods of
its classes)::

    {
      "header": {
        "schema_version": 6,
        "package_version": "...",
        "timestamp": "...ISO 8601 UTC...",
        "command": "<subcommand>",
        "config": {...echo of the effective options...},
        "moment_convention": "...the sign convention in force..."
      },
      "cases": [
        {"id": "...", "inputs": {...}, "value": ..., "reference": ...,
         "tolerance": ..., "error_estimate": ..., "pass": bool},
        ...
      ],
      "summary": {"total": N, "passed": N, "failed": N}
    }

One rule decides every case but Hankel's: with d = |value - reference|
and b the case's bound (its ``error_estimate``), PASS when d + b <=
tolerance, FAIL when d - b > tolerance, and otherwise a refusal.  A ratio
spread's b is the sum of its two extreme ratios' bounds; the exact
convention case has b = 0.  Pearson and qderiv (ROADMAP item 4) and
holder (item 5) have no derived bound yet: they decide with b = 0 and
report null.  Hankel decides by a bare Cholesky (item 3).  A refusal is
a failed case with value, reference and error_estimate null and a
``reason`` in its inputs naming the case's inputs and what could not be
decided; a ``BudgetExceededError`` or a numpy floating-point warning
refuses every case its family would have emitted.

Cases are emitted sorted by id.  Reports are deterministic for a given
configuration and package version except for the header timestamp;
``--seed`` offsets the Weyl sequence of every sample and base point.
Non-finite numbers are rendered as null (NaN) or "inf"/"-inf" strings
so the output is always strict JSON.

Exit status: 0 when every case passes, 1 when any case fails or is
refused, 2 for configuration errors only (unknown flags, unparseable
modulator JSON, bad ranges, size bounds, a negative or non-finite
tolerance).
"""

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .measures import (
    LogNormalWeight,
    Modulator,
    PerturbedDensity,
    TrigMode,
    WeierstrassSpec,
    _weyl_uniform,
    eval_modulator,
    eval_weight,
    modulator_from_dict,
    positivity_bound,
)
from .moments import MomentSequence, hankel_check, stieltjes_wigert_check
from .qcalc import q_derivative, q_pearson_residual
from .quadrature import (
    MOMENT_SIGN_NOTE,
    BudgetExceededError,
    QuadratureSpec,
    _integrate_orders,
    _vanishing_orders,
    base_moment_closed_form,
    modulator_moment_factor,
)
from .roughness import holder_estimate

SCHEMA_VERSION = 6

_DEFAULT_SEED = 20260817
# size bounds: ~200 MB of pointwise work, a 1000 x 1000 Hankel or Gram matrix
_MAX_POINTS = 1_000_000
_MAX_DIM = 1000


class ConfigError(Exception):
    pass


@dataclass
class Case:
    id: str
    inputs: dict
    value: float
    reference: float
    tolerance: float
    error_estimate: float
    passed: bool

    def as_dict(self) -> dict:
        d = dict(vars(self))
        d["pass"] = d.pop("passed")
        return d


def _cases_or_refusals(heads, tolerance, build) -> list:
    """The cases ``build()`` makes for one family or, if float64 refuses (a
    numpy warning too), one failed case per (id, inputs) head, with reason."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return build()
    except (BudgetExceededError, FloatingPointError) as exc:
        return [Case(cid, dict(inputs, reason=str(exc)), None, None,
                     tolerance, None, False) for cid, inputs in heads]


def _decided(cid, inputs, value, reference, tolerance, bound) -> Case:
    """The case decided by the module's rule with error bound ``bound``;
    ``None`` (no derived bound yet) decides with 0 and reports null."""
    gap, b = abs(value - reference), bound or 0.0
    passed = gap + b <= tolerance
    if passed or gap - b > tolerance:
        return Case(cid, inputs, value, reference, tolerance, bound, passed)
    named = ", ".join(f"k={v!r}" if key == "k" else f"{key} {v!r}"
                      for key, v in inputs.items())
    reason = (f"{named}: bound {b:.3g} cannot decide |value - reference| "
              f"{gap:.3g} against tolerance {tolerance:g}")
    return Case(cid, dict(inputs, reason=reason), None, None, tolerance, None, False)


def _held_cases(heads, results, reference, tolerance) -> list:
    """One case per head: a result's value_over_scale() held to reference."""
    return [_decided(cid, inputs, r.value_over_scale(), reference, tolerance,
                     r.error_estimate) for (cid, inputs), r in zip(heads, results)]


def _sanitize(obj):
    """Replace non-finite floats so the report is strict JSON."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def _parse_span(text: str) -> tuple:
    """"lo..hi" -> (lo, ..., hi) inclusive; a bare integer -> (n,)."""
    s = str(text).strip()
    try:
        if ".." in s:
            lo_s, hi_s = s.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1))
        return (int(s),)
    except ValueError:
        raise ValueError(
            f"expected an integer or lo..hi range, got {text!r}"
        ) from None


def _load_modulator(raw: str) -> Modulator:
    text = raw
    if not text.lstrip().startswith("{"):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read modulator file: {exc}") from None
    try:
        desc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"modulator is not valid JSON: {exc}") from None
    if not isinstance(desc, dict):
        raise ConfigError("modulator JSON must be an object")
    try:
        return modulator_from_dict(desc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _object_under_test(ns):
    """(weight, modulator or None, integrand object) from the options."""
    if getattr(ns, "modulator", None):
        if ns.k is not None:
            raise ConfigError(
                "k comes from the modulator description; drop the --k flag"
            )
        m = _load_modulator(ns.modulator)
        return m.weight, m, PerturbedDensity.of(m)
    k = ns.k if ns.k is not None else 1.0
    w = LogNormalWeight(k)
    return w, None, w


def _spec(ns) -> QuadratureSpec:
    return QuadratureSpec(rel_tol=ns.rel_tol)


def _sample_points(seed, x_min=1e-3, x_max=1e3, points=100) -> np.ndarray:
    """Log-uniform sample points in [x_min, x_max), the battery's by default."""
    if not (0.0 < x_min < x_max):
        raise ConfigError("need 0 < x-min < x-max")
    if not 1 <= points <= _MAX_POINTS:
        raise ConfigError(f"--points must be in [1, {_MAX_POINTS}]")
    return np.exp(_weyl_uniform(seed, math.log(x_min), math.log(x_max), points))


def _vanish_cases(ks, orders, js, spec, tolerance) -> list:
    cases = []
    for k in ks:
        w = LogNormalWeight(k)
        for j in js:
            heads = [(f"vanish/k={k}/n={n}/j={j}", {"k": k, "n": n, "j": j})
                     for n in orders]
            cases += _cases_or_refusals(heads, tolerance, lambda: _held_cases(
                heads, _vanishing_orders(w, orders, j, spec), 0.0, tolerance))
    return cases


def run_vanish(ns) -> list:
    ks = ns.k if ns.k else [0.5, 1.0, 2.0]
    return _vanish_cases(ks, ns.n, ns.j, _spec(ns), ns.tolerance)


def _moment_cases(tag, obj, m, orders, spec, tolerance, extra=None) -> list:
    factor = modulator_moment_factor(m) if m is not None else 1.0
    heads = [(f"{tag}/n={n}", {**(extra or {}), "n": n}) for n in orders]
    return _cases_or_refusals(heads, tolerance, lambda: _held_cases(
        heads, _integrate_orders(obj, orders, spec), factor, tolerance))


def run_moments(ns) -> list:
    w, m, obj = _object_under_test(ns)
    extra = {"k": w.k, "lambda": m.lam if m else 0.0}
    return _moment_cases(
        f"moments/k={w.k}", obj, m, ns.n, _spec(ns), ns.tolerance, extra
    )


def _ratio_cases(tag, m, orders, spec, tolerance) -> list:
    obj = PerturbedDensity.of(m)
    cases = _moment_cases(tag, obj, m, orders, spec, tolerance,
                          {"k": m.weight.k, "lambda": m.lam})
    done = sorted((c for c in cases if c.value is not None), key=lambda c: c.value)
    if len(done) >= 2:
        lo, hi = done[0], done[-1]
        cases.append(_decided(f"{tag}/spread", {"orders": list(orders)},
                              hi.value - lo.value, 0.0, tolerance,
                              lo.error_estimate + hi.error_estimate))
    return cases


def run_ratio(ns) -> list:
    w, m, obj = _object_under_test(ns)
    if m is None:
        raise ConfigError("ratio needs --modulator")
    return _ratio_cases(f"ratio/k={w.k}", m, ns.n, _spec(ns), ns.tolerance)


def _sample_inputs(k, xs) -> dict:
    return {"k": k, "points": int(xs.size),
            "x_min": float(xs.min()), "x_max": float(xs.max())}


def _pearson_case(tag, obj, xs, tolerance) -> list:
    w = obj.weight if isinstance(obj, PerturbedDensity) else obj
    inputs = _sample_inputs(w.k, xs)

    def build():
        res = q_pearson_residual(obj, xs)
        f = eval_weight(w, xs)
        if f.min() < np.finfo(float).tiny:  # there the residual keeps no digits
            raise BudgetExceededError(f"k={w.k!r}: the weight underflows float64 "
                                      f"at x = {float(xs[np.argmin(f)])!r}")
        scale = f * np.maximum(1.0, math.sqrt(w.q) * xs)
        if obj is not w:
            m = obj.modulator
            scale = scale * (1.0 + abs(m.lam) * m.sup_bound)
        worst = float(np.max(np.abs(res) / scale))
        # no derived bound until ROADMAP item 4 supplies the kernel's floor
        return [_decided(tag, inputs, worst, 0.0, tolerance, None)]

    return _cases_or_refusals([(tag, inputs)], tolerance, build)


def run_pearson(ns) -> list:
    w, m, obj = _object_under_test(ns)
    xs = _sample_points(ns.seed, ns.x_min, ns.x_max, ns.points)
    return _pearson_case(f"pearson/k={w.k}", obj, xs, ns.tolerance)


def _qderiv_case(tag, m, xs, tolerance) -> list:
    # q_derivative takes g(q*x) from ln x + ln q in double-double, so no
    # rounded q*x enters; the floor a float64 q*x would need (~1.25 eps of
    # ln x) is still subtracted, conservative until a derived one replaces it.
    k, q = m.weight.k, m.weight.q
    inputs = _sample_inputs(k, xs)

    def build():
        # the floor holds only for normal q and q*x, and 1 - q must not be 0
        if not (q * min(1.0, xs.min()) >= np.finfo(float).tiny and q < 1.0):
            raise BudgetExceededError(f"k={k!r}: q = {q!r} has no float64 q-step"
                                      ": q and q*x must be normal, q < 1")
        with np.errstate(over="ignore"):
            floor = (1.25 * np.finfo(float).eps * m.log_slope_bound
                     / ((1.0 - q) * xs))
        if not np.all(np.isfinite(floor)):  # vals - inf would clip to 0
            raise BudgetExceededError(
                f"k={k!r}: phase-noise floor is not finite: "
                f"log_slope_bound {m.log_slope_bound}"
            )
        norm = 1.0 + np.abs(eval_modulator(m, xs)) / xs
        if np.min(floor / norm) >= tolerance:  # no point resolves the tolerance
            raise BudgetExceededError(f"k={k!r}: the phase-noise floor reaches the "
                                      f"tolerance {tolerance:g} at every point")
        vals = np.abs(q_derivative(m, xs, q))
        worst = float(np.max(np.maximum(vals - floor, 0.0) / norm))
        raw = dict(inputs, raw_worst=float(np.max(vals / norm)))
        # no derived bound until ROADMAP item 4 replaces the floor above
        return [_decided(tag, raw, worst, 0.0, tolerance, None)]

    return _cases_or_refusals([(tag, inputs)], tolerance, build)


def run_qderiv(ns) -> list:
    w, m, _ = _object_under_test(ns)
    if m is None:
        raise ConfigError("qderiv needs --modulator")
    xs = _sample_points(ns.seed, ns.x_min, ns.x_max, ns.points)
    return _qderiv_case(f"qderiv/k={w.k}", m, xs, ns.tolerance)


def _hankel_cases(tag, obj, dim, spec) -> list:
    """Hankel cases of a bare weight's closed-form or a density's quadrature moments."""
    def build():
        if isinstance(obj, LogNormalWeight):
            seq = MomentSequence.closed_form(obj, 2 * dim)
        else:
            seq = MomentSequence.from_quadrature(obj, 2 * dim, spec)
        rep = hankel_check(seq, dim)
        # a bare Cholesky decides until ROADMAP item 3 gives a margin
        shared = {"dim": rep.dim, "condition": rep.condition,
                  "shifted_condition": rep.shifted_condition}
        return [
            Case(f"{tag}/dim={rep.dim}", shared, rep.min_eigenvalue, 0.0,
                 0.0, rep.moment_error, rep.positive_definite),
            Case(f"{tag}/dim={rep.dim}/shifted", shared,
                 rep.shifted_min_eigenvalue, 0.0, 0.0, rep.moment_error,
                 rep.shifted_positive_definite),
        ]

    return _cases_or_refusals([(tag, {"dim": dim})], 0.0, build)


def run_hankel(ns) -> list:
    w, m, obj = _object_under_test(ns)
    if not 1 <= ns.dim <= _MAX_DIM:
        raise ConfigError(f"--dim must be in [1, {_MAX_DIM}]")
    return _hankel_cases(f"hankel/k={w.k}", obj, ns.dim, _spec(ns))


def _gram_cases(tag, w, degree, spec, tolerance, cross_mods) -> list:
    count = 2 * degree + 1
    inputs = {"k": w.k, "degree": degree}
    heads = [(f"{tag}/self", inputs)] + [
        (f"{tag}/cross/{name}", {**inputs, "lambda": m.lam})
        for name, m in cross_mods
    ]

    def case(head, seq):
        rep = stieltjes_wigert_check(w, seq, degree)
        return [_decided(*head, rep.residual, 0.0, tolerance, rep.bound)]

    def build():
        # a k without float64 closed-form moments refuses every case
        exact = MomentSequence.closed_form(w, count)
        cases = _cases_or_refusals(heads[:1], tolerance, lambda: case(heads[0], exact))
        for head, (_, m) in zip(heads[1:], cross_mods):
            cases += _cases_or_refusals([head], tolerance, lambda: case(
                head, MomentSequence.from_quadrature(PerturbedDensity.of(m), count, spec)))
        return cases

    return _cases_or_refusals(heads, tolerance, build)


def run_gram(ns) -> list:
    w, m, obj = _object_under_test(ns)
    if not 1 <= ns.degree <= _MAX_DIM:
        raise ConfigError(f"--degree must be in [1, {_MAX_DIM}]")
    cross = [("modulated", m)] if m is not None else []
    return _gram_cases(f"gram/k={w.k}", w, ns.degree, _spec(ns),
                       ns.tolerance, cross)


def _holder_cases(tag, profile, exact, samples, probes, seed,
                  tolerance, extra=None) -> list:
    base = dict(extra or {}, samples=samples, probes=probes, seed=seed)

    def build():
        est = holder_estimate(profile, samples=samples, probes=probes, seed=seed)
        inputs = dict(base, terms_used=est.terms_used)
        # no derived bound until ROADMAP item 5 bounds the fit
        return [_decided(f"{tag}/alpha", inputs, est.alpha, exact, tolerance, None),
                _decided(f"{tag}/fit", inputs, est.r_squared, 1.0, 0.02, None)]

    return _cases_or_refusals([(f"{tag}/alpha", base), (f"{tag}/fit", base)],
                              tolerance, build)


def run_holder(ns) -> list:
    spec = WeierstrassSpec(ns.a, ns.b, ns.depth, ns.kind)
    exact = min(spec.holder_exponent, 1.0)
    return _holder_cases(
        f"holder/a={ns.a}/b={ns.b}", spec, exact, ns.samples, ns.probes,
        ns.seed, ns.tolerance, {"a": ns.a, "b": ns.b, "kind": ns.kind},
    )


def _battery_modulators():
    """The named constructions every full run exercises."""
    k1 = LogNormalWeight(1.0)
    return {
        "sine1": Modulator(k1, 1.0, (TrigMode(1.0, 1, "sine"),)),
        "sine3": Modulator(k1, 1.0, (TrigMode(0.5, 1, "sine"),
                                     TrigMode(0.3, 2, "sine"),
                                     TrigMode(0.2, 5, "sine"))),
        "weier": Modulator(k1, 0.9, WeierstrassSpec(0.5, 3, 10, "sine")),
        "cos1": Modulator(LogNormalWeight(0.5), 0.1,
                          (TrigMode(1.0, 1, "cosine"),)),
        "mix": Modulator(LogNormalWeight(0.45), -0.6,
                         (TrigMode(0.5, 1, "cosine"),
                          TrigMode(0.5, 3, "sine"))),
    }


def run_all(ns) -> list:
    spec = _spec(ns)
    mods = _battery_modulators()
    cases = []

    # Oscillatory integrals that the closed form says vanish.
    cases += _vanish_cases((0.5, 1.0, 2.0), range(11), range(1, 6), spec,
                           1e-10)

    # Sine-only perturbations leave every integer moment unchanged.
    for name in ("sine1", "sine3", "weier"):
        m = mods[name]
        lam_max = positivity_bound(m)
        for lam in (-lam_max, 0.3, lam_max):
            ml = Modulator(m.weight, lam, m.content)
            cases += _moment_cases(
                f"invariance/{name}/lam={lam}", PerturbedDensity.of(ml), ml,
                range(11), spec, 1e-10, {"k": ml.weight.k, "lambda": lam},
            )

    # Cosine content rescales all moments by one common factor.
    for name in ("cos1", "mix"):
        cases += _ratio_cases(f"ratio/{name}", mods[name], range(11), spec,
                              1e-8)

    # q-Pearson identity for the weight and a rough density.
    xs = _sample_points(ns.seed)
    for k in (0.5, 1.0, 2.0):
        cases += _pearson_case(f"pearson/weight/k={k}", LogNormalWeight(k),
                               xs, 1e-13)
    cases += _pearson_case("pearson/density/weier",
                           PerturbedDensity.of(mods["weier"]), xs, 1e-13)

    # The q-derivative annihilates every constructed modulator.
    for name, m in sorted(mods.items()):
        cases += _qderiv_case(f"qderiv/{name}", m, xs, 1e-12)

    # Hankel positive definiteness, closed form and quadrature fed.
    for k in (0.5, 1.0, 2.0):
        cases += _hankel_cases(f"hankel/closed/k={k}", LogNormalWeight(k), 6,
                               spec)
    cases += _hankel_cases("hankel/quadrature/weier",
                           PerturbedDensity.of(mods["weier"]), 6, spec)

    # Orthogonality transfer through degree 6 at k = 1.
    cases += _gram_cases(
        "gram/k=1.0", LogNormalWeight(1.0), 6, spec, 1e-6,
        [("sine3", mods["sine3"]), ("weier", mods["weier"])],
    )

    # Roughness exponents of the series profiles, plus a smooth control.
    for a, b in ((0.5, 3), (0.7, 2), (0.9, 2)):
        w_spec = WeierstrassSpec(a, b, 10, "sine")
        cases += _holder_cases(
            f"holder/a={a}/b={b}", w_spec, w_spec.holder_exponent,
            64, 16, ns.seed, 0.05, {"a": a, "b": b, "kind": "sine"},
        )
    cases += _holder_cases(
        "holder/smooth", lambda u: np.sin(2.0 * np.pi * u), 1.0,
        64, 16, ns.seed, 0.02, {"profile": "sin(2*pi*u)"},
    )

    # The moment exponent is positive; the report header states it.
    v = base_moment_closed_form(LogNormalWeight(1.0), 1).ln_abs
    cases.append(_decided("convention/positive-exponent", {"k": 1.0, "n": 1},
                          v, 1.0, 0.0, 0.0))  # exact
    return cases


def _tolerance(text: str) -> float:
    if not 0.0 <= float(text) < math.inf:  # nan fails both comparisons
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return float(text)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qmoments",
        description="verified checks for log-normal moment constructions",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, tolerance=None, integrates=True):
        if integrates:
            p.add_argument("--rel-tol", type=float, default=1e-12,
                           help="quadrature relative tolerance")
        if tolerance is not None:
            p.add_argument("--tolerance", type=_tolerance, default=tolerance,
                           help=f"pass threshold (default {tolerance:g})")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default="-",
                       help="output path, - for stdout")

    def with_object(p):
        p.add_argument("--k", type=float, default=None,
                       help="weight parameter (without --modulator)")
        p.add_argument("--modulator", default=None,
                       help="inline JSON or a path to a JSON file")

    def sampled(p, tolerance):
        p.add_argument("--x-min", type=float, default=1e-3)
        p.add_argument("--x-max", type=float, default=1e3)
        p.add_argument("--points", type=int, default=100)
        p.add_argument("--seed", type=int, default=_DEFAULT_SEED)
        common(p, tolerance, integrates=False)

    p = sub.add_parser("vanish", help="oscillatory integrals that must vanish")
    p.add_argument("--k", type=float, action="append",
                   help="repeatable; default 0.5 1 2")
    p.add_argument("--n", type=_parse_span, default=tuple(range(11)),
                   help="moment orders, e.g. 0..10")
    p.add_argument("--j", type=_parse_span, default=tuple(range(1, 6)),
                   help="oscillation indices, e.g. 1..5")
    common(p, 1e-10)
    p.set_defaults(run=run_vanish)

    p = sub.add_parser("moments",
                       help="integer moments against the closed form")
    with_object(p)
    p.add_argument("--n", type=_parse_span, default=tuple(range(11)))
    common(p, 1e-10)
    p.set_defaults(run=run_moments)

    p = sub.add_parser("ratio", help="moment over closed form is one constant")
    with_object(p)
    p.add_argument("--n", type=_parse_span, default=tuple(range(11)))
    common(p, 1e-8)
    p.set_defaults(run=run_ratio)

    p = sub.add_parser("pearson", help="q-difference equation residuals")
    with_object(p)
    sampled(p, 1e-13)
    p.set_defaults(run=run_pearson)

    p = sub.add_parser("qderiv", help="q-derivative annihilation residuals")
    with_object(p)
    sampled(p, 1e-12)
    p.set_defaults(run=run_qderiv)

    p = sub.add_parser("hankel", help="Hankel positive definiteness")
    with_object(p)
    p.add_argument("--dim", type=int, default=6)
    common(p)
    p.set_defaults(run=run_hankel)

    p = sub.add_parser("gram", help="Stieltjes-Wigert orthonormality, self and cross")
    with_object(p)
    p.add_argument("--degree", type=int, default=6)
    common(p, 1e-6)
    p.set_defaults(run=run_gram)

    p = sub.add_parser("holder", help="roughness exponent of a series profile")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--kind", choices=("sine", "cosine"), default="sine")
    p.add_argument("--depth", type=int, default=10,
                   help="minimum series depth; raised automatically")
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--probes", type=int, default=16)
    p.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    common(p, 0.05, integrates=False)
    p.set_defaults(run=run_holder)

    p = sub.add_parser("all", help="the full verification battery")
    p.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    common(p)
    p.set_defaults(run=run_all)

    return ap


def _config_echo(ns) -> dict:
    skip = {"run", "command", "format", "out"}
    return {key: list(val) if isinstance(val, tuple) else val
            for key, val in vars(ns).items() if key not in skip}


def build_report(ns, cases: list) -> dict:
    cases = sorted(cases, key=lambda c: c.id)
    passed = sum(1 for c in cases if c.passed)
    report = {
        "header": {
            "schema_version": SCHEMA_VERSION,
            "package_version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "command": ns.command,
            "config": _config_echo(ns),
            "moment_convention": MOMENT_SIGN_NOTE,
        },
        "cases": [c.as_dict() for c in cases],
        "summary": {"total": len(cases), "passed": passed,
                    "failed": len(cases) - passed},
    }
    return _sanitize(report)


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


_CSV_COLUMNS = ("id", "pass", "value", "reference", "tolerance", "error_estimate")


def render_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*_CSV_COLUMNS, "inputs"])
    for case in report["cases"]:
        inputs = json.dumps(case["inputs"], sort_keys=True, separators=(",", ":"))
        writer.writerow([case[col] for col in _CSV_COLUMNS] + [inputs])
    return buf.getvalue()


def _emit(report: dict, fmt: str, out: str) -> None:
    text = render_json(report) if fmt == "json" else render_csv(report)
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    ap = _build_parser()
    ns = ap.parse_args(argv)
    try:
        cases = ns.run(ns)
        report = build_report(ns, cases)
        _emit(report, ns.format, ns.out)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"qmoments: {exc}", file=sys.stderr)
        return 2
    return 0 if report["summary"]["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
