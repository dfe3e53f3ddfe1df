"""Each input kind has one validity rule, and every library entry point applies it."""

import math
import re

import numpy as np
import pytest

from stepldp.coloured import ColouredStepGraphon, coloured_from_json, gamma_block
from stepldp.cutmetric import SignedStepFn
from stepldp.graphon import LabeledGraph, PartWeights, make_step_graphon
from stepldp.ldplab import (
    BlockFamily,
    EventSpec,
    GnpFamily,
    WRandomFamily,
    block_density_rate,
    check_method,
    density_logprob_block,
    exact_event_logprob_block,
    exact_event_logprob_wrandom,
    tilted_density_logprob_block,
)
from stepldp.rates import rate_J
from stepldp.samplers import apportion_counts, coupled_block_sample, sample_block, sample_wrandom

P2 = ((0.5, 0.1), (0.1, 0.5))
P_ABOVE_ONE = ((1.5, 0.1), (0.1, 0.5))
DENSITY = EventSpec("density-ge", r=0.5)


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
