"""The seeded stream: numpy's default_rng(seed).uniform, bit for bit.

``_rng.uniform`` reproduces SeedSequence, PCG64 and the uniform transform
without loading numpy.random; here numpy.random itself is the reference.
Seeds are checked once, in ``_rng.uniform``, so every entry point refuses
a seed that is not a non-negative int by name.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qmoments
from qmoments import _rng
from qmoments.cli import main
from qmoments.measures import WeierstrassSpec
from qmoments.roughness import divergence_witness, holder_estimate

SEEDS = [*range(300), 3001, 20260817, 2**32 - 1, 2**32, 2**64 + 5,
         2**200 + 12345]
RANGES = [(0.0, 1.0), (math.log(1e-3), math.log(1e3))]
SIZES = [1, 2, 31, 32, 33, 64, 100, 4097]


def numpy_uniform(seed, low, high, size):
    return np.random.default_rng(seed).uniform(low, high, size)


@pytest.mark.parametrize("low, high", RANGES)
def test_stream_matches_numpy(low, high):
    wrong = [(seed, n) for seed in SEEDS for n in SIZES
             if not np.array_equal(_rng.uniform(seed, low, high, n),
                                   numpy_uniform(seed, low, high, n))]
    assert wrong == []


def test_stream_matches_numpy_across_blocks():
    b = _rng._BLOCK
    for seed in (0, 1, 20260817, 2**64 + 5):
        for n in (b - 1, b, b + 1, 2 * b + 1):
            assert np.array_equal(_rng.uniform(seed, -2.5, 3.0, n),
                                  numpy_uniform(seed, -2.5, 3.0, n))


def test_stream_matches_numpy_at_a_million():
    lo, hi = RANGES[1]
    assert np.array_equal(_rng.uniform(20260817, lo, hi, 10**6),
                          numpy_uniform(20260817, lo, hi, 10**6))


def test_numpy_integer_seed_is_the_int_seed():
    assert np.array_equal(_rng.uniform(np.int64(7), 0.0, 1.0, 50),
                          _rng.uniform(7, 0.0, 1.0, 50))


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
for argv in (["all"], ["pearson", "--k", "1"],
             ["holder", "--a", "0.5", "--b", "3"]):
    assert main(argv + ["--out", os.devnull]) == 0, argv
    assert "numpy.random" not in sys.modules, argv
"""


def test_no_run_loads_numpy_random():
    src = os.path.dirname(os.path.dirname(qmoments.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", GUARD], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
