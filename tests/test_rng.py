"""The seeded sample design: one Weyl sequence for every seeded draw.

``measures._weyl_uniform`` gives the pearson/qderiv sample points and the
base points of ``holder_estimate`` and ``divergence_witness``.  The seed is
checked once there, so every entry point refuses a seed that is not a
non-negative int by name, and no run loads numpy.random.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qmoments
from qmoments.cli import main
from qmoments.measures import WeierstrassSpec, _weyl_uniform
from qmoments.roughness import divergence_witness, holder_estimate

SEEDS = [*range(300), 3001, 20260817, 2**32 - 1, 2**32, 2**64 + 5,
         2**200 + 12345]
RANGES = [(0.0, 1.0), (math.log(1e-3), math.log(1e3)), (-2.5, 3.0)]
SIZES = [1, 2, 31, 32, 33, 64, 100, 4097]


def test_a_seed_gives_the_same_points_on_every_call():
    for seed in (0, 7, 2**64 + 5):
        for n in SIZES:
            first = _weyl_uniform(seed, -2.5, 3.0, n)
            assert first.shape == (n,)
            assert np.array_equal(_weyl_uniform(seed, -2.5, 3.0, n), first)


def test_seeds_give_distinct_point_sets():
    sets = {frozenset(_weyl_uniform(seed, 0.0, 1.0, 8)) for seed in SEEDS}
    assert len(sets) == len(SEEDS)


@pytest.mark.parametrize("low, high", RANGES)
def test_points_lie_in_the_half_open_range(low, high):
    outside = [seed for seed in SEEDS
               if not np.all((low <= (x := _weyl_uniform(seed, low, high, 4097)))
                             & (x < high))]
    assert outside == []


def star_discrepancy(x):
    x, n = np.sort(x), x.size
    i = np.arange(1, n + 1)
    return max(np.max(i / n - x), np.max(x - (i - 1) / n))


@pytest.mark.parametrize("n", [8, 32, 64, 100, 4097])
def test_star_discrepancy_is_of_order_log_n_over_n(n):
    # a Kronecker sequence on the golden ratio has D*_n = O((1 + ln n)/n),
    # 100 uniform draws ~n**-0.5; the largest over SEEDS is under half this
    bound = (1.0 + math.log(n)) / n
    worst = max(star_discrepancy(_weyl_uniform(s, 0.0, 1.0, n)) for s in SEEDS)
    assert worst <= bound


def test_numpy_integer_seed_is_the_int_seed():
    assert np.array_equal(_weyl_uniform(np.int64(7), 0.0, 1.0, 50),
                          _weyl_uniform(7, 0.0, 1.0, 50))


BAD_SEEDS = [
    (None, "seed must be an integer, got None"),
    (True, "seed must be an integer, got True"),
    (1.5, "seed must be an integer, got 1.5"),
    ("3", "seed must be an integer, got '3'"),
    (-1, "seed must be >= 0, got -1"),
]
SPEC = WeierstrassSpec(0.5, 3, 10, "sine")


@pytest.mark.parametrize("fit", [holder_estimate, divergence_witness])
@pytest.mark.parametrize("seed, message", BAD_SEEDS)
def test_bad_seed_is_refused_by_name(fit, seed, message):
    with pytest.raises(ValueError) as info:
        fit(SPEC, seed=seed)
    assert str(info.value) == message


@pytest.mark.parametrize("argv", [
    ["all"],
    ["holder", "--a", "0.5", "--b", "3"],
])
def test_cli_negative_seed_exits_2_naming_it(argv, capsys):
    assert main(argv + ["--seed", "-1"]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


GUARD = """
import os, sys
import qmoments
assert "numpy.random" not in sys.modules, "import qmoments"
from qmoments.cli import main
sine1 = '{"k": 1, "lambda": 0.5, "modes": [{"a": 1, "b": 1, "kind": "sine"}]}'
for argv in (["all"], ["pearson", "--k", "1"], ["qderiv", "--modulator", sine1],
             ["holder", "--a", "0.5", "--b", "3"]):
    assert main(argv + ["--out", os.devnull]) == 0, argv
    assert "numpy.random" not in sys.modules, argv
qmoments.divergence_witness(qmoments.WeierstrassSpec(0.5, 3, 10, "sine"))
assert "numpy.random" not in sys.modules, "divergence_witness"
"""


def test_no_run_loads_numpy_random():
    src = os.path.dirname(os.path.dirname(qmoments.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", GUARD], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
