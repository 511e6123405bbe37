"""The sampler's stream: one fixed-width row of uniforms per trial, so the
chunk size never changes a draw, and each ingredient an exact transform of
its row's columns."""

import math

import numpy as np
import pytest

from ambicap import Lottery, StateSpace, UtilityAct
from ambicap.axioms import _AXIOM_TABLE
from ambicap.comparatives import _draw_ambiguity, _draw_filtering
from ambicap.model import serialize_lottery
from ambicap.sampling import LotterySampler, lottery_row, random_cap_model

STATES_3 = StateSpace(["s0", "s1", "s2"])
DRAWS = {axiom_id: draw for axiom_id, (draw, _) in _AXIOM_TABLE.items()}
DRAWS |= {"ambiguity": _draw_ambiguity, "filtering": _draw_filtering}


def _probes():
    """Three lottery probes, one of them wider than ``max_support`` = 4."""
    bet = Lottery.dirac(UtilityAct(STATES_3, [100.0, 0.0, -5.0]))
    wide = Lottery(STATES_3, np.full(5, 0.2), np.arange(15.0).reshape(5, 3))
    return [bet, wide, Lottery.constant(STATES_3, 7.0)]


def _sampler(probes: str) -> LotterySampler:
    lotteries = _probes() if "lottery" in probes else ()
    pairs = [(P, Q) for P, Q in zip(_probes(), _probes()[::-1])][:2] if "pair" in probes else ()
    return LotterySampler(STATES_3, seed=5, probes=lotteries, pair_probes=pairs)


def _rows(value, width: int):
    """An ingredient as bytes, one entry per trial row, lotteries padded with
    +0.0 atoms to ``width``."""
    if isinstance(value, tuple):
        probs, payoffs = value
        extra = width - probs.shape[1]
        value = np.concatenate(
            (np.pad(probs, ((0, 0), (0, extra))).reshape(len(probs), -1),
             np.pad(payoffs, ((0, 0), (0, extra), (0, 0))).reshape(len(probs), -1)),
            axis=1,
        )
    return [row.tobytes() for row in np.asarray(value).reshape(len(value), -1)]


class TestChunkIndependence:
    @pytest.mark.parametrize("probes", ("none", "lottery", "pair", "lottery+pair"))
    @pytest.mark.parametrize("name", sorted(DRAWS))
    def test_one_chunk_of_b_is_b_chunks_of_one(self, name, probes):
        draw, B = DRAWS[name], 7
        model = random_cap_model(STATES_3, np.random.default_rng(0), "cap")
        whole, single = _sampler(probes), _sampler(probes)
        chunk = draw(model, whole, B)
        rows = [draw(model, single, 1) for _ in range(B)]
        assert set(chunk) == set(rows[0])
        for key, value in chunk.items():
            width = 5 if isinstance(value, tuple) else 0
            assert _rows(value, width) == [r for row in rows for r in _rows(row[key], width)], key
        assert whole.rng.bit_generator.state == single.rng.bit_generator.state
        assert [len(left) for left in whole.checkpoint()[1:]] == [len(left) for left in single.checkpoint()[1:]]

    def test_one_trial_methods_are_chunks_of_one(self):
        # the filtering layout, ingredient by ingredient
        model = random_cap_model(STATES_3, np.random.default_rng(0), "cap")
        by_method, by_draw = _sampler("pair"), _sampler("pair")
        for _ in range(4):
            c = _draw_filtering(model, by_draw, 1)
            lam, (P, Q), t = by_method.uniform(), by_method.pair(), by_method.payoff()
            assert (lam, t) == (c["lam"][0], c["t"][0])
            assert serialize_lottery(P) == serialize_lottery(Lottery(STATES_3, *lottery_row(c["P"], 0)))
            assert serialize_lottery(Q) == serialize_lottery(Lottery(STATES_3, *lottery_row(c["Q"], 0)))
        assert by_method.rng.bit_generator.state == by_draw.rng.bit_generator.state

    @pytest.mark.parametrize("name", sorted(DRAWS))
    def test_a_chunk_is_one_call_of_random(self, name):
        class Counting:
            """Only ``random`` of the generator, counted."""

            def __init__(self, rng):
                self.rng, self.sizes = rng, []

            def random(self, size):
                self.sizes.append(size)
                return self.rng.random(size)

        model = random_cap_model(STATES_3, np.random.default_rng(0), "cap")
        sampler = _sampler("lottery+pair")
        sampler.rng = Counting(sampler.rng)
        DRAWS[name](model, sampler, 16)
        assert len(sampler.rng.sizes) == 1 and sampler.rng.sizes[0][0] == 16


def _fed(rows, *layout, **sampler_args):
    """``chunk`` of a sampler whose generator returns the given rows of
    uniforms, as one call of the shape the layout needs."""

    class Fixed:
        def random(self, size):
            assert size == np.shape(rows)
            return np.array(rows, dtype=float)

    sampler = LotterySampler(StateSpace(["a", "b"]), **sampler_args)
    sampler.rng = Fixed()
    return sampler.chunk(len(rows), *layout)


class TestTransform:
    def lottery(self, row):
        (probs, payoffs), = _fed([row], "lottery", max_support=3)
        return probs[0], payoffs[0]

    def test_hand_built_row(self):
        # support ⌊0.5·3⌋ + 1 = 2; weights -log1p(-u) = log 2 and log 4, so
        # probabilities 1/3 and 2/3; the third weight and atom are past the
        # support; payoffs -100 + 400·u
        probs, payoffs = self.lottery([0.5, 0.5, 0.75, 0.9, 0.25, 0.5, 0.0, 0.125, 0.3, 0.7])
        assert probs.tolist() == pytest.approx([1 / 3, 2 / 3, 0.0], rel=1e-15)
        assert payoffs[:2].tolist() == [[0.0, 100.0], [-100.0, -50.0]]
        assert payoffs[2].tolist() == [0.0, 0.0] and not np.signbit(payoffs[2]).any()
        assert probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_other_ingredients(self):
        row = [0.25, 0.5, 0.75, 0.125, 0.2, 0.3]
        weight, payoff, act, raw = _fed([row], "uniform", "payoff", "act", 2)
        assert (weight.tolist(), payoff.tolist(), act.tolist()) == ([0.25], [100.0], [[200.0, -50.0]])
        assert raw.tolist() == [[0.2, 0.3]]

    @pytest.mark.parametrize(
        "row, support",
        (
            ([0.0, 0.0, 0.9, 0.9], 1),  # one atom of weight 0
            ([0.5, 0.0, 0.5, 0.9], 2),  # the first real atom
            ([0.5, 0.5, 0.0, 0.9], 2),  # the last real atom
            ([0.9, 0.0, 0.0, 0.0], 3),  # every atom
        ),
    )
    def test_a_zero_uniform_gives_a_positive_atom(self, row, support):
        probs, payoffs = self.lottery(row + [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        assert np.isfinite(probs).all()
        assert (probs[:support] > 0.0).all() and (probs[support:] == 0.0).all()
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-15)
        assert len(Lottery(StateSpace(["a", "b"]), *lottery_row((probs[None], payoffs[None]), 0)).probs) == support

    def test_largest_uniform_keeps_the_support_in_range(self):
        for A in range(1, 40):
            row = [np.nextafter(1.0, 0.0)] * (1 + A + 2 * A)
            (probs, _), = _fed([row], "lottery", max_support=A)
            assert probs.shape == (1, A) and (probs > 0.0).all() and np.isfinite(probs).all()
