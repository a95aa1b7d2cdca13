"""Blocks of moment orders against one-order calls.

One block shares the panel grid, the Filon weights and the planning of
an integral across its orders; each order keeps its own envelope, anchors
and sums.  So every result of a block must equal, bit for bit, the
result of the one-order call, in any order, with repeats, and across
block boundaries, and a block's memory must not grow with its length.
"""

import tracemalloc

import pytest

from test_measures import trig_modulator, weier_modulator

from qmoments import quadrature as qd
from qmoments.measures import LogNormalWeight, PerturbedDensity
from qmoments.quadrature import integrate_moment, vanishing_integral

# unsorted, with a repeat, and one order far from the rest
ORDERS = [40, -3, 0, 0, 2**20, 7]
BASE = LogNormalWeight(0.7)
# mu/ln q is -(n+1) up to the rounding of mu, so anchors taken from the
# wrong order's mu move a result only by about h * 2k**2 * ulp(mu) turns;
# at low k and n = 2**20 that shows in the trig and vanishing results
TRIG3 = PerturbedDensity.of(
    trig_modulator(0.1, -0.6, [(0.5, 1, "sine"), (0.3, 2, "cosine"), (0.2, 5, "sine")])
)
WEIER = PerturbedDensity.of(weier_modulator(1.0, 0.9, 0.5, 3, 10))  # the battery's
VANISH_W, VANISH_J = LogNormalWeight(0.3), 1

FORMS = {
    "base": (lambda orders: qd._integrate_orders(BASE, orders),
             lambda n: integrate_moment(BASE, n), 1),
    "trig3": (lambda orders: qd._integrate_orders(TRIG3, orders),
              lambda n: integrate_moment(TRIG3, n), 4),
    "weierstrass": (lambda orders: qd._integrate_orders(WEIER, orders),
                    lambda n: integrate_moment(WEIER, n), 11),
    "vanishing": (lambda orders: qd._vanishing_orders(VANISH_W, orders, VANISH_J),
                  lambda n: vanishing_integral(VANISH_W, n, VANISH_J), 1),
}


def counting(monkeypatch, name):
    calls = []
    original = getattr(qd, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(qd, name, counted)
    return calls


@pytest.mark.parametrize("per_block", [None, 4])
@pytest.mark.parametrize("form", sorted(FORMS))
def test_block_equals_one_order_calls(form, per_block, monkeypatch):
    block_form, one_order, components = FORMS[form]
    expected = [one_order(n) for n in ORDERS]
    if per_block is not None:
        # the planned panel rows per order, the same for every k at the
        # default tolerance
        _, _, (centers, _) = qd._plan_components(1.0, [0], [], qd.QuadratureSpec())
        rows = centers.size * (qd._NODES_PER_PANEL + components)
        monkeypatch.setattr(qd, "_BLOCK_ELEMENTS", per_block * rows)
    blocks = counting(monkeypatch, "_panel_integrals")
    got = list(block_form(ORDERS))
    assert len(blocks) == (1 if per_block is None else 2)
    assert [len(b[1]) for b in blocks] == ([6] if per_block is None else [4, 2])
    assert got == expected


@pytest.mark.parametrize("block_form", [
    lambda orders: qd._integrate_orders(WEIER, orders),
    lambda orders: qd._vanishing_orders(VANISH_W, orders, VANISH_J),
], ids=["moments", "vanishing"])
@pytest.mark.parametrize("bad", [2.5, "3", True, 2**49, -(2**49)])
def test_bad_order_anywhere_is_refused_before_any_anchor(block_form, bad, monkeypatch):
    anchors = counting(monkeypatch, "_phase_anchors")
    with pytest.raises(ValueError, match="moment order"):
        block_form([0, 1, 2, 3, bad])
    assert anchors == []


def streamed_peak(orders):
    tracemalloc.start()
    try:
        for _ in qd._integrate_orders(WEIER, range(orders)):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_memory_stays_flat(monkeypatch):
    # one unbounded block of this 11-component density would hold ~40 kB
    # per order; blocks under _BLOCK_ELEMENTS keep the working set fixed,
    # and results consumed as they come hold no more than one block.  With
    # blocks of 2 orders (the default makes 20), 8x the orders may add only
    # their own list of ints, and the peak stays within the default's 2 MB
    # bound scaled to the block.
    monkeypatch.setattr(qd, "_BLOCK_ELEMENTS", 2**12)
    few, many = streamed_peak(16), streamed_peak(128)
    assert many <= few + 2**13
    assert many <= 2 * 2**20 * 2**12 // 2**15
