"""Hand-checkable cases for the benchmark's own oracles.

    python3 -m pytest perfbench

Each oracle is pinned on a state or code whose answer is known by hand, and
on a near miss that a wrong oracle would confuse with it.
"""

from itertools import combinations
from math import log2

import numpy as np
import pytest

import oracles


def ghz4():
    amps = np.zeros(16)
    amps[0] = amps[15] = 1 / np.sqrt(2)
    return amps


def ame43():
    amps = np.zeros(81)
    for i in range(3):
        for j in range(3):
            digits = (i, j, (i + j) % 3, (i + 2 * j) % 3)
            amps[sum(s * 3 ** (3 - k) for k, s in enumerate(digits))] = 1 / 3
    return amps


def test_ghz4_is_one_bit_across_every_cut():
    for sites in [(1, 2), (1, 3), (2, 4), (1,), (1, 2, 3)]:
        assert oracles.entropy_svd(ghz4(), 4, 2, sites) == pytest.approx(1.0, abs=1e-12)


def test_product_state_has_zero_entropy():
    amps = np.zeros(16)
    amps[5] = 1.0
    assert oracles.entropy_svd(amps, 4, 2, (1, 2)) == pytest.approx(0.0, abs=1e-12)


def test_partial_entanglement_is_not_rounded_to_a_rank():
    # cos t |00> + sin t |11>: binary entropy of cos^2 t, not log2(rank) = 1.
    t = 0.3
    amps = np.array([np.cos(t), 0, 0, np.sin(t)])
    p = np.cos(t) ** 2
    h = -(p * log2(p) + (1 - p) * log2(1 - p))
    got = oracles.entropy_svd(amps, 2, 2, (1,))
    assert got == pytest.approx(h, abs=1e-12)
    assert not oracles.is_integer(got)


def test_ame43_is_maximal_on_every_cut():
    amps = ame43()
    for m in (1, 2):
        for sites in combinations(range(1, 5), m):
            assert oracles.entropy_svd(amps, 4, 3, sites) == pytest.approx(m * log2(3), abs=1e-12)


def test_site_order_matters_for_non_symmetric_states():
    # A Bell pair on sites 1, 2 and |0> on site 3.
    amps = np.zeros(8)
    amps[0b000] = amps[0b110] = 1 / np.sqrt(2)
    assert oracles.entropy_svd(amps, 3, 2, (1,)) == pytest.approx(1.0, abs=1e-12)
    assert oracles.entropy_svd(amps, 3, 2, (3,)) == pytest.approx(0.0, abs=1e-12)


def test_rs3_generator_and_ranks():
    g = oracles.rs_generator(3)
    assert g == [[1, 1, 1, 0], [0, 1, 2, 1]]
    for cut in combinations(range(4), 2):
        assert oracles.rank_mod_p([[row[j] for j in cut] for row in g], 3) == 2


def test_rank_mod_p_sees_singularity_the_reals_miss():
    # det = 1*1 - 2*2 = -3: nonsingular over the reals, singular mod 3.
    assert oracles.rank_mod_p([[1, 2], [2, 1]], 3) == 1
    assert oracles.rank_mod_p([[1, 2], [2, 1]], 5) == 2
    assert oracles.rank_mod_p([[0, 0], [0, 0]], 7) == 0


def test_gf2_rank():
    assert oracles.gf2_rank([0b011, 0b101, 0b110]) == 2  # third = sum of first two
    assert oracles.gf2_rank([0b001, 0b010, 0b100]) == 3
    assert oracles.gf2_rank([0, 0b1, 0b1]) == 1


def test_code_cut_entropy_matches_ghz4():
    # Repetition code x1 = x2 = x3 = x4: its code state is GHZ(4).
    h = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]
    cols = oracles.column_masks(h)
    for sites in [(0, 1), (0, 2), (1,), (0, 1, 2)]:
        assert oracles.code_cut_entropy(cols, sites) == 1
        dense = oracles.entropy_svd(ghz4(), 4, 2, [s + 1 for s in sites])
        assert dense == pytest.approx(1.0, abs=1e-12)


def test_code_cut_entropy_of_a_product_code_is_zero():
    # x1 = x2 and x3 = x4: two Bell pairs, (12|34) unentangled, (13|24) two bits.
    cols = oracles.column_masks([[1, 1, 0, 0], [0, 0, 1, 1]])
    assert oracles.code_cut_entropy(cols, (0, 1)) == 0
    assert oracles.code_cut_entropy(cols, (0, 2)) == 2
