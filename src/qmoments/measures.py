"""Log-normal weight, q-periodic modulators, and perturbed densities.

The weight at shape parameter ``k > 0`` is

    f(x) = (k / sqrt(pi)) * exp(-k**2 * ln(x)**2),  x > 0,

with the associated ratio ``q = exp(-1 / (2 * k**2))`` in (0, 1).  A
modulator is a bounded function ``g`` that is periodic in the variable
``u = ln(x) / ln(q)`` with period 1, so that ``g(q * x) = g(x)`` for every
``x > 0``.  The perturbed density ``f(x) * (1 + lam * g(x))`` then shares
every integer moment with ``f`` itself while differing pointwise, and it
stays a genuine density whenever ``|lam| * sup|g| <= 1``.

Two modulator shapes are supported: finite lists of sine/cosine harmonics,
and truncated Weierstrass sums ``sum_{n=1..N} a**n * trig(2*pi * b**n * u)``
whose limits are continuous but nowhere differentiable when ``a * b >= 1``.

Evaluation precision
--------------------
Pointwise identities downstream are checked to 1e-12 of local scale, so
``eval_modulator`` takes the base phase frac(ln x / ln q) from compensated
(double-double) logarithms as a 128-bit fixed-point fraction, which every
harmonic folds exactly, at any size; the residual error of the
q-periodicity identity is a few 1e-16 even for a 30-term Weierstrass sum
at k = 2.  A plain float64 log would lose up to
``2 * k**2 * |ln x| * eps`` of phase and could not meet that budget.  A
point with ``2 * k**2 * |ln x| >= 2**104`` has no known phase bit and is
refused with :class:`BudgetExceededError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from . import _dd

__all__ = [
    "LogNormalWeight",
    "TrigMode",
    "WeierstrassSpec",
    "Modulator",
    "PerturbedDensity",
    "eval_weight",
    "eval_modulator",
    "eval_density",
    "positivity_bound",
    "modulator_to_dict",
    "modulator_from_dict",
]

_INV_SQRT_PI = 0.5641895835477563  # 1 / sqrt(pi)
_MAX_HARMONIC = 2**53

_KINDS = ("sine", "cosine")
# |u| = 2 k**2 |ln x| where the ~2**-104 rounding of u = -2 k**2 ln x passes a turn
_MAX_PHASE = 2.0**104


class BudgetExceededError(ValueError):
    """Refusal, with the reason named, of an admitted input for which
    float64 cannot give an answer: node budget, window center, ln q,
    phase, moment exponent or basis.  The CLI reports it as a failed case."""


def _check_positive_finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def _check_int(value, name: str, lo: int, hi: Union[int, None] = None) -> int:
    """``value`` as an int in [lo, hi]; refuses bools and non-integers."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ValueError(f"{name} must be <= {hi}, got {value}")
    return value


def _weyl_uniform(seed, low: float, high: float, size: int) -> np.ndarray:
    """``size`` points of [low, high), seed an int >= 0: the Weyl sequence
    w_i = s + i G mod 2**64, G = floor(2**64/phi) (Weyl, Math. Ann. 77, 1916),
    offset s the SplitMix64 finalizer (Steele, Lea & Flood, OOPSLA 2014)
    folded over the seed's 64-bit words, each mapped as numpy maps 64 bits."""
    seed, s, m64 = _check_int(seed, "seed", 0), 0, 2**64 - 1
    for shift in range(0, max(seed.bit_length(), 1), 64):
        s = (s ^ seed >> shift & m64) + 0x9E3779B97F4A7C15 & m64
        s = (s ^ s >> 30) * 0xBF58476D1CE4E5B9 & m64
        s = (s ^ s >> 27) * 0x94D049BB133111EB & m64
        s ^= s >> 31
    w = np.arange(size, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15) + np.uint64(s)
    return low + (high - low) * ((w >> np.uint64(11)) * 2.0**-53)


def _as_positive_array(x, name: str = "x"):
    """Validate and convert x; returns (array, was_scalar)."""
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)
    if arr.size and not (arr.min() > 0.0 and arr.max() < math.inf):
        offender = arr[~np.isfinite(arr) | (arr <= 0.0)][0]
        raise ValueError(f"{name} must be positive and finite, got {offender!r}")
    return arr, scalar


@dataclass(frozen=True)
class LogNormalWeight:
    """The density ``(k / sqrt(pi)) * exp(-k**2 * ln(x)**2)`` on (0, inf)."""

    k: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _check_positive_finite(self.k, "k"))

    @property
    def ln_q(self) -> float:
        return -1.0 / (2.0 * self.k * self.k)

    @property
    def q(self) -> float:
        return math.exp(self.ln_q)

    def __call__(self, x):
        return eval_weight(self, x)


@dataclass(frozen=True)
class TrigMode:
    """One harmonic ``amplitude * trig(2*pi * harmonic * u)`` of a modulator."""

    amplitude: float
    harmonic: int
    kind: str

    def __post_init__(self) -> None:
        if not math.isfinite(float(self.amplitude)):
            raise ValueError(f"amplitude must be finite, got {self.amplitude!r}")
        object.__setattr__(self, "amplitude", float(self.amplitude))
        # folding is exact at any h; quadrature._plan_components gives why 2**53
        h = _check_int(self.harmonic, "harmonic", 1, _MAX_HARMONIC)
        object.__setattr__(self, "harmonic", h)
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class WeierstrassSpec:
    """Truncation of ``sum_{n>=1} a**n * trig(2*pi * b**n * u)``.

    The infinite sum is continuous for ``0 < a < 1`` and, by Hardy's
    criterion, nowhere differentiable when ``a * b >= 1``; its Holder
    exponent is ``ln(1/a) / ln(b)`` in that regime.

    Parameters
    ----------
    a : float
        Geometric amplitude decay, strictly inside (0, 1).
    b : int
        Integer frequency growth factor, at least 2.
    terms : int
        Number of retained terms N; the dropped tail is bounded by
        ``a**N / (1 - a)``.
    kind : str
        ``"sine"`` or ``"cosine"``.
    """

    a: float
    b: int
    terms: int
    kind: str

    def __post_init__(self) -> None:
        a = float(self.a)
        if not (0.0 < a < 1.0) or not math.isfinite(a):
            raise ValueError(f"a must lie strictly inside (0, 1), got {self.a!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", _check_int(self.b, "b", 2))
        object.__setattr__(self, "terms", _check_int(self.terms, "terms", 1))
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")

    @property
    def nowhere_differentiable(self) -> bool:
        """Hardy's criterion ``a * b >= 1`` for the untruncated limit."""
        return self.a * self.b >= 1.0

    @property
    def holder_exponent(self) -> float:
        """``ln(1/a) / ln(b)``, the sharp exponent when ``a * b >= 1``."""
        return math.log(1.0 / self.a) / math.log(self.b)

    @property
    def tail_bound(self) -> float:
        """Sup bound ``a**terms / (1 - a)`` on the dropped tail."""
        return self.a**self.terms / (1.0 - self.a)


ModulatorContent = Union[tuple, WeierstrassSpec]


@dataclass(frozen=True)
class Modulator:
    """A q-periodic perturbation ``lam * g`` tied to a weight.

    ``content`` is either a tuple of :class:`TrigMode` (possibly empty) or
    a :class:`WeierstrassSpec`.  The modulator evaluates ``g`` alone; the
    overall amplitude ``lam`` is applied by :func:`eval_density`.
    """

    weight: LogNormalWeight
    lam: float
    content: ModulatorContent

    def __post_init__(self) -> None:
        if not isinstance(self.weight, LogNormalWeight):
            raise ValueError(f"weight must be a LogNormalWeight, got {self.weight!r}")
        lam = float(self.lam)
        if not math.isfinite(lam):
            raise ValueError(f"lam must be finite, got {self.lam!r}")
        object.__setattr__(self, "lam", lam)
        c = self.content
        if isinstance(c, WeierstrassSpec):
            return
        if isinstance(c, (list, tuple)):
            modes = tuple(c)
            for m in modes:
                if not isinstance(m, TrigMode):
                    raise ValueError(f"modes must be TrigMode instances, got {m!r}")
            object.__setattr__(self, "content", modes)
            return
        raise ValueError(
            f"content must be a tuple of TrigMode or a WeierstrassSpec, got {c!r}"
        )

    @property
    def sup_bound(self) -> float:
        """An upper bound S on sup|g|.

        For harmonic lists this is the exact-by-triangle-inequality sum of
        |amplitude|.  For a Weierstrass sum it is ``a / (1 - a)``, the
        bound for the *untruncated* series: positivity guarantees derived
        from it remain valid for every truncation level, so refining the
        truncation never changes which (lam, g) pairs count as positive.
        """
        c = self.content
        if isinstance(c, WeierstrassSpec):
            return c.a / (1.0 - c.a)
        return float(sum(abs(m.amplitude) for m in c))

    @property
    def positive(self) -> bool:
        """True when ``|lam| * sup_bound <= 1`` (density stays >= 0).

        The comparison allows ~1e-15 relative slack so that ``lam`` set to
        the float nearest ``1 / sup_bound`` is accepted.
        """
        s = self.sup_bound
        if s == 0.0:
            return True
        return abs(self.lam) * s <= 1.0 + 1e-15

    @property
    def log_slope_bound(self) -> float:
        """Bound on |d g / d ln x|: ``2*pi * sum(a*b) * 2*k**2``.

        Useful as an evaluation noise model: a float64 perturbation
        ``delta`` of ln(x) moves g by at most ``log_slope_bound * delta``.
        Overflows to inf, never raises, for steep Weierstrass truncations or
        huge k; that is the honest answer.
        """
        c = self.content
        if isinstance(c, WeierstrassSpec):
            ab = c.a * c.b
            if ab == 1.0:
                s = float(c.terms)
            else:
                try:
                    s = ab * (ab**c.terms - 1.0) / (ab - 1.0)
                except OverflowError:  # ab**terms passes the float range
                    return math.inf
        else:
            s = float(sum(abs(m.amplitude) * m.harmonic for m in c))
        # k * k, not k**2, overflows to inf instead of raising
        return 2.0 * math.pi * s * (2.0 * self.weight.k * self.weight.k) if s else 0.0

    def terms(self) -> Iterator[tuple]:
        """Yield ``(amplitude, harmonic, kind)`` with exact int harmonics.

        Weierstrass content expands to its N retained terms; harmonics
        ``b**n`` are Python ints, so remain exact at any size.
        """
        c = self.content
        if isinstance(c, WeierstrassSpec):
            amp = 1.0
            harm = 1
            for _ in range(c.terms):
                amp *= c.a
                harm *= c.b
                yield amp, harm, c.kind
        else:
            for m in c:
                yield m.amplitude, m.harmonic, m.kind

    def __call__(self, x):
        return eval_modulator(self, x)


@dataclass(frozen=True)
class PerturbedDensity:
    """``p(x) = f(x) * (1 + lam * g(x))`` for a weight f and modulator g."""

    weight: LogNormalWeight
    modulator: Modulator

    def __post_init__(self) -> None:
        if not isinstance(self.weight, LogNormalWeight):
            raise ValueError(f"weight must be a LogNormalWeight, got {self.weight!r}")
        if not isinstance(self.modulator, Modulator):
            raise ValueError(
                f"modulator must be a Modulator, got {self.modulator!r}"
            )
        if self.modulator.weight != self.weight:
            raise ValueError(
                "modulator is tied to a different weight: "
                f"k={self.modulator.weight.k} vs k={self.weight.k}"
            )

    @classmethod
    def of(cls, modulator: Modulator) -> "PerturbedDensity":
        return cls(modulator.weight, modulator)

    @property
    def positive(self) -> bool:
        return self.modulator.positive

    def __call__(self, x):
        return eval_density(self, x)


def _weight_values(w: LogNormalWeight, arr):
    # -(k*t)**2, not -k**2 * t**2: k*k overflows for k above ~1.3e154 and
    # then gives inf * 0 = NaN at x = 1; (k*t)**2 overflowing is exp(-inf) = 0
    with np.errstate(over="ignore"):
        kt = w.k * np.log(arr)
        return (w.k * _INV_SQRT_PI) * np.exp(-(kt * kt))


def eval_weight(w: LogNormalWeight, x):
    """Evaluate the weight; x may be a float or an ndarray of positives."""
    arr, scalar = _as_positive_array(x)
    out = _weight_values(w, arr)
    return float(out[0]) if scalar else out


def _lnq_dd(k: float):
    """ln q = -1 / (2 k**2) as a double-double pair.

    Refuses, naming k, a k for which ln q is not a finite nonzero
    double-double and every phase would be NaN: the splitting products
    overflow for k below about 6e-151 or above about 8e149.
    """
    lh = ll = math.nan
    if 0.0 < k * k < math.inf:
        kh, kl = _dd.two_prod(k, k)
        dh, dl = _dd.dd_mul_d(kh, kl, 2.0)
        lh, ll = _dd.dd_div(-1.0, 0.0, dh, dl)
    if not (math.isfinite(lh) and math.isfinite(ll) and lh != 0.0):
        raise BudgetExceededError(
            f"k={k!r}: ln q = -1/(2 k**2) is not finite and nonzero in float64"
        )
    return lh, ll


def _base_phase(k: float, th, tl):
    """The phase frac(t / ln q) of a dd log t = th + tl: u = -2 k**2 t, one
    double-double product with the exact k**2, as ln q = -1/(2 k**2).  A t
    with |u| >= 2**104, whose phase has no bit left, is refused by k and point."""
    _lnq_dd(k)  # refuses a k whose k**2 or ln q is not a finite double
    kh, kl = _dd.two_prod(k, k)
    uh, ul = _dd.dd_mul_d(th, tl, -2.0 * kh)
    far = np.abs(uh) >= _MAX_PHASE
    if far.any():
        raise BudgetExceededError(f"k={k!r}: at ln x = {float(th[far][0])!r} the "
                                  "phase 2 k**2 |ln x| is >= 2**104 and has no bit left")
    ul += th * (-2.0 * kl)
    return _dd.phase_from_dd(uh, ul)


def _modulator_from_phase(m: Modulator, w):
    # term by term: a sum over a terms axis would round differently
    w0_limbs = _dd.limbs(w[1])
    acc = np.zeros(w[0].shape)
    for amp, harmonic, kind in m.terms():
        top = _dd.fold_top(w, w0_limbs, harmonic)
        if kind == "cosine":
            top += np.uint64(2**62)  # a quarter turn: cos(2 pi w) = sin(2 pi (w + 1/4))
        s = _dd.phase_sin(top)
        s *= amp
        acc += s
    return acc


def _modulator_from_log_dd(m: Modulator, th, tl):
    return _modulator_from_phase(m, _base_phase(m.weight.k, th, tl))


def eval_modulator(m: Modulator, x):
    """Evaluate g(x) through the compensated-phase pathway."""
    arr, scalar = _as_positive_array(x)
    out = _modulator_from_log_dd(m, *_dd.dd_log(arr))
    return float(out[0]) if scalar else out


def eval_density(d: PerturbedDensity, x):
    """Evaluate ``f(x) * (1 + lam * g(x))``."""
    arr, scalar = _as_positive_array(x)
    # g first: at a k whose ln q is refused, the weight's k**2 may be inf.
    g = _modulator_from_log_dd(d.modulator, *_dd.dd_log(arr))
    f = _weight_values(d.weight, arr)
    out = f * (1.0 + d.modulator.lam * g)
    return float(out[0]) if scalar else out


def positivity_bound(m: Modulator) -> float:
    """Largest |lam| for which ``1 + lam * g >= 0`` is guaranteed.

    Returns inf for a zero modulator (empty mode list).
    """
    s = m.sup_bound
    return math.inf if s == 0.0 else 1.0 / s


def modulator_to_dict(m: Modulator) -> dict:
    """Serialize to the JSON shape accepted by :func:`modulator_from_dict`."""
    c = m.content
    if isinstance(c, WeierstrassSpec):
        return {
            "k": m.weight.k,
            "lambda": m.lam,
            "weierstrass": {"a": c.a, "b": c.b, "N": c.terms, "kind": c.kind},
        }
    return {
        "k": m.weight.k,
        "lambda": m.lam,
        "modes": [
            {"a": mode.amplitude, "b": mode.harmonic, "kind": mode.kind}
            for mode in c
        ],
    }


def _require_number(obj: dict, key: str, path: str) -> float:
    if key not in obj:
        raise ValueError(f"{path}: missing required field {key!r}")
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{path}.{key}: expected a number, got {v!r}")
    return float(v)


def _require_int(obj: dict, key: str, path: str) -> int:
    if key not in obj:
        raise ValueError(f"{path}: missing required field {key!r}")
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{path}.{key}: expected an integer, got {v!r}")
    return v


def _require_kind(obj: dict, path: str) -> str:
    if "kind" not in obj:
        raise ValueError(f"{path}: missing required field 'kind'")
    v = obj["kind"]
    if v not in _KINDS:
        raise ValueError(f"{path}.kind: expected one of {_KINDS}, got {v!r}")
    return v


def modulator_from_dict(data: dict, path: str = "modulator") -> Modulator:
    """Build a Modulator from its JSON dict form.

    Accepted shapes::

        {"k": 1.0, "lambda": 0.5, "modes": [{"a": 1.0, "b": 1, "kind": "sine"}]}
        {"k": 1.0, "lambda": 0.1,
         "weierstrass": {"a": 0.5, "b": 3, "N": 10, "kind": "sine"}}

    Raises ValueError with the offending field path on any malformed input.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected an object, got {data!r}")
    known = {"k", "lambda", "modes", "weierstrass"}
    extra = set(data) - known
    if extra:
        raise ValueError(f"{path}: unknown fields {sorted(extra)!r}")
    k = _require_number(data, "k", path)
    lam = _require_number(data, "lambda", path)
    weight = LogNormalWeight(k)
    has_modes = "modes" in data
    has_weier = "weierstrass" in data
    if has_modes == has_weier:
        raise ValueError(f"{path}: exactly one of 'modes' or 'weierstrass' required")
    if has_modes:
        raw = data["modes"]
        if not isinstance(raw, list):
            raise ValueError(f"{path}.modes: expected a list, got {raw!r}")
        modes = []
        for i, entry in enumerate(raw):
            p = f"{path}.modes[{i}]"
            if not isinstance(entry, dict):
                raise ValueError(f"{p}: expected an object, got {entry!r}")
            a = _require_number(entry, "a", p)
            b = _require_int(entry, "b", p)
            kind = _require_kind(entry, p)
            try:
                modes.append(TrigMode(a, b, kind))
            except ValueError as exc:
                raise ValueError(f"{p}: {exc}") from None
        return Modulator(weight, lam, tuple(modes))
    raw = data["weierstrass"]
    p = f"{path}.weierstrass"
    if not isinstance(raw, dict):
        raise ValueError(f"{p}: expected an object, got {raw!r}")
    a = _require_number(raw, "a", p)
    b = _require_int(raw, "b", p)
    n = _require_int(raw, "N", p)
    kind = _require_kind(raw, p)
    try:
        spec = WeierstrassSpec(a, b, n, kind)
    except ValueError as exc:
        raise ValueError(f"{p}: {exc}") from None
    return Modulator(weight, lam, spec)
