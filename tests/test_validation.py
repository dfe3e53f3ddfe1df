"""Each input kind has one validity rule, and every library entry point applies it."""

import math
import re

import numpy as np
import pytest

from stepldp import ldplab
from stepldp.coloured import (ColouredStepGraphon, coloured_from_json, dk_distance_search,
                              dk_norm, gamma_block)
from stepldp.cutmetric import SignedStepFn
from stepldp.graphon import LabeledGraph, PartWeights, make_step_graphon
from stepldp.ldplab import (
    BlockFamily,
    EventSpec,
    GnpFamily,
    WRandomFamily,
    binomial_tail_logprob,
    block_density_rate,
    check_method,
    density_logprob_block,
    exact_event_logprob_block,
    exact_event_logprob_wrandom,
    gnp_density_rate,
    tilted_density_logprob_block,
)
from stepldp.rates import rate_Ip, rate_J
from stepldp.samplers import apportion_counts, coupled_block_sample, sample_block, sample_wrandom

P2 = ((0.5, 0.1), (0.1, 0.5))
P_ABOVE_ONE = ((1.5, 0.1), (0.1, 0.5))
P_MIXED = ((0.4, 0.3), (0.3, 0.6))
DENSITY = EventSpec("density-ge", r=0.5)
U1 = make_step_graphon([1.0], [[0.4]])


def _one_colour_used():
    """Two parts, both of colour 0 out of 2: gamma_block(., 0, 0, p) keeps every cell."""
    g = make_step_graphon([0.5, 0.5], [[0.2, 0.4], [0.4, 0.6]])
    return ColouredStepGraphon(g, [0, 0], num_colours=2)


INVALID = [
    ("gnp probability above one", lambda: GnpFamily(1.5), "probabilities must lie in [0, 1]"),
    ("gnp probability nan", lambda: GnpFamily(math.nan), "probabilities must be finite"),
    ("block probability above one",
     lambda: BlockFamily(alpha=(1.0, 1.0), p=((1.5, 0.1), (0.1, 0.5))),
     "probabilities must lie in [0, 1]"),
    ("block alpha nan", lambda: BlockFamily(alpha=(math.nan, 1.0), p=P2),
     "alpha must be finite"),
    ("block alpha longer than p", lambda: BlockFamily(alpha=(1.0, 1.0, 1.0), p=P2),
     "probability matrix must be 3x3, got (2, 2)"),
    ("density rate at a negative alpha", lambda: block_density_rate([-1.0, 2.0], P2, 0.3),
     "alpha must be nonnegative"),
    ("density rate at p above one",
     lambda: block_density_rate([1.0, 1.0], [[0.5, 1.5], [1.5, 0.5]], 0.3),
     "probabilities must lie in [0, 1]"),
    # one threshold rule, however many pair classes the layout has
    ("one-class density rate at a threshold past one",
     lambda: block_density_rate([1.0], [[0.4]], 1.5),
     "density events need a threshold r in [0, 1]"),
    ("two-class density rate at a threshold past one",
     lambda: block_density_rate([1.0, 1.0], P_MIXED, 1.5),
     "density events need a threshold r in [0, 1]"),
    ("gnp density rate at p above one", lambda: gnp_density_rate(1.5, 0.5),
     "probabilities must lie in [0, 1]"),
    ("gnp density rate at a nan threshold", lambda: gnp_density_rate(0.4, math.nan),
     "density events need a threshold r in [0, 1]"),
    ("binomial tail at p above one", lambda: binomial_tail_logprob(10, 1.5, 3),
     "probabilities must lie in [0, 1]"),
    ("binomial tail at a nan probability", lambda: binomial_tail_logprob(10, math.nan, 3),
     "probabilities must be finite"),
    ("I_p at p above one", lambda: rate_Ip(1.5, U1), "probabilities must lie in [0, 1]"),
    ("I_p at a nan p", lambda: rate_Ip(math.nan, U1), "probabilities must be finite"),
    ("I_p at a negative p", lambda: rate_Ip(-0.1, U1), "probabilities must lie in [0, 1]"),
    ("dk norm across colour counts",
     lambda: dk_norm(ColouredStepGraphon(U1, [0]), _one_colour_used()),
     "colour counts differ: 1 vs 2"),
    ("dk search across colour counts",
     lambda: dk_distance_search(ColouredStepGraphon(U1, [0]), _one_colour_used()),
     "colour counts differ: 1 vs 2"),
    ("apportioning a nan weight", lambda: apportion_counts(10, [math.nan, 1.0]),
     "weights must be finite"),
    ("apportioning all-zero weights", lambda: apportion_counts(10, [0.0, 0.0]),
     "weights must have a positive finite sum"),
    ("apportioning weights whose sum overflows", lambda: apportion_counts(4, [1e308, 1e308]),
     "weights must have a positive finite sum"),
    ("coloured JSON without weights",
     lambda: coloured_from_json({"values": [[0.5]], "colours": [1]}),
     "graphon JSON missing field 'weights'"),
    ("gamma_block at a reference entry of 2.0",
     lambda: gamma_block(_one_colour_used(), 0, 0, [[0.5, 0.5], [0.5, 2.0]]),
     "probabilities must lie in [0, 1]"),
    ("gamma_block at an asymmetric reference",
     lambda: gamma_block(_one_colour_used(), 0, 0, [[0.5, 0.5], [0.4, 0.5]]),
     "probability matrix must be symmetric"),
    ("a ball of radius nan",
     lambda: EventSpec("ball", target=make_step_graphon([1.0], [[0.4]]), eta=math.nan),
     "eta >= 0"),
    ("infinite block counts", lambda: sample_block([np.inf, 1.0], P2, 0),
     "block counts must be integers"),
    ("coupled counts of unequal length", lambda: coupled_block_sample([3, 3], [4], P2, 0),
     "count vectors must have the same number of blocks"),
    ("J at an infinite alpha",
     lambda: rate_J([np.inf, 1.0], P2, make_step_graphon([1.0], [[0.4]])),
     "alpha must be finite"),
    ("part weights of the wrong shape", lambda: PartWeights([[0.5, 0.5]]),
     "part weights must form a nonempty vector"),
    ("signed values past one", lambda: SignedStepFn([1.0], [[-1.5]]),
     "values must lie in [-1, 1]"),
    ("exact density law at p above one",
     lambda: density_logprob_block([3, 3], P_ABOVE_ONE, DENSITY),
     "probabilities must lie in [0, 1]"),
    ("exact density law at a nan probability",
     lambda: density_logprob_block([3, 3], ((math.nan, 0.1), (0.1, 0.5)), DENSITY),
     "probabilities must be finite"),
    ("exact event law at p above one",
     lambda: exact_event_logprob_block(
         [2, 2], P_ABOVE_ONE, EventSpec("ball", target=make_step_graphon([1.0], [[0.4]]),
                                        eta=0.3)),
     "probabilities must lie in [0, 1]"),
    ("tilted density law at p above one",
     lambda: tilted_density_logprob_block([3, 3], P_ABOVE_ONE, DENSITY, 10, 0),
     "probabilities must lie in [0, 1]"),
    ("exact density law at a negative count",
     lambda: density_logprob_block([3, -1], P2, DENSITY),
     "block counts must be nonnegative"),
    ("block counts past int64", lambda: sample_block([2 ** 70, 1], P2, 0),
     "block counts must be integers below 2^63"),
    ("block counts whose sum passes int64", lambda: sample_block([2 ** 62, 2 ** 62], P2, 0),
     "block counts must sum below 2^63"),
    # graphs label vertices by int32, so each sampler refuses a larger total before
    # building any array; the exact laws build no graph and take larger counts
    ("a graph past the int32 vertex limit", lambda: LabeledGraph(2 ** 31),
     "a graph holds at most 2147483647 vertices (int32 labels), got 2147483648"),
    ("block counts past the vertex limit", lambda: sample_block([2 ** 31 - 1, 1], P2, 0),
     "a graph holds at most 2147483647 vertices (int32 labels), got 2147483648"),
    ("a W-random graph past the vertex limit",
     lambda: sample_wrandom(3 * 10 ** 9, make_step_graphon([1.0], [[0.4]]), 0),
     "a graph holds at most 2147483647 vertices (int32 labels), got 3000000000"),
    ("coupled counts past the vertex limit",
     lambda: coupled_block_sample([3, 3], [2 ** 63 - 1, 0], P2, 0),
     "a graph holds at most 2147483647 vertices (int32 labels), got 9223372036854775807"),
    # pair counts are Python ints: n(n-1)/2 passes 2^63 here, and no law is built
    ("exact density law past 2^63 pairs",
     lambda: density_logprob_block([2 ** 32, 2], P_MIXED, DENSITY),
     "exact density law: 9223372043297226753 free pairs exceed the FFT cap of 2097151"),
    ("tilted density law past 2^63 pairs",
     lambda: tilted_density_logprob_block([2 ** 32, 2], P_MIXED, DENSITY, 10, 0),
     "tilted sampling needs fewer than 2^63 free pairs"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in INVALID],
                         ids=[case[0] for case in INVALID])
def test_invalid_input_raises_the_validators_message(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


class TestEnumerationLimitIsCheckedUpFront:
    ball = EventSpec("ball", target=make_step_graphon([1.0], [[0.4]]), eta=0.3)

    def test_block_layout(self):
        # n=8 has 28 free pairs, past the 21 an enumeration takes
        with pytest.raises(ValueError, match="got 28 at n=8$"):
            check_method(GnpFamily(0.4), self.ball, "enum", [3, 8])
        check_method(GnpFamily(0.4), self.ball, "enum", [3, 7])
        # pairs at probability 0 or 1 are fixed, so they do not count
        check_method(BlockFamily(alpha=(1.0, 1.0), p=((0.5, 0.0), (0.0, 1.0))),
                     self.ball, "enum", [12])

    def test_every_block_count_layout_under_random_types(self):
        u = make_step_graphon([0.5, 0.5], [[0.5, 0.0], [0.0, 1.0]])
        fam = WRandomFamily(u)
        # all 8 vertices in part 0 leave 28 free pairs; the split layouts leave fewer
        for method in ("exact", "enum"):
            with pytest.raises(ValueError, match="got 28 at n=8$"):
                check_method(fam, self.ball, method, [8])
        check_method(fam, self.ball, "exact", [7])
        # a part of weight 0 holds no vertex, so its layouts are not enumerated
        thin = WRandomFamily(make_step_graphon([1.0, 0.0], [[0.0, 0.5], [0.5, 0.5]]))
        check_method(thin, self.ball, "exact", [9])
        assert exact_event_logprob_wrandom(9, thin.u, self.ball) == -math.inf

    def test_pair_counts_past_int64(self, monkeypatch):
        # 2^32 vertices have 9223372034707292160 pairs; n(n-1) wraps in int64
        with pytest.raises(ValueError, match="got 9223372034707292160 at n=4294967296$"):
            check_method(GnpFamily(0.4), self.ball, "enum", [2 ** 32])

        def no_pair_arrays(*args, **kwargs):
            raise AssertionError("pair arrays built before the free pairs were counted")

        monkeypatch.setattr(ldplab.np, "repeat", no_pair_arrays)
        monkeypatch.setattr(ldplab.np, "triu_indices", no_pair_arrays)
        with pytest.raises(ValueError, match="got 9223372034707292160$"):
            exact_event_logprob_block([2 ** 32], [[0.4]], self.ball)
        with pytest.raises(ValueError, match="got 28$"):
            exact_event_logprob_block([8], [[0.4]], self.ball)


def test_tilted_law_counts_pairs_past_int64():
    # (2^32 - 3)(2^32 - 4) passes 2^63, so only Python ints count these pairs
    est = tilted_density_logprob_block([2 ** 32 - 3, 2], P_MIXED, DENSITY, 10, 0)
    assert est["method"] == "tilted" and est["hits"] > 0
    assert -1e18 < est["logprob"] < -1e17
