import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import hand_counts, path_product_nll, path_sum_likelihood
from phimp import (Alphabet, FeatureMap, InputError, PairedSequence,
                   PenaltyScheme, SuffixSet, SymbolSequence, compile_suffix_map,
                   cost, enumerate_closed_suffix_maps, estimate, estimate_paired,
                   icost, log_likelihood, ml_cost, ocost, penalty, sample_fsmx,
                   state_determines_pair, trivial_map)
from phimp.estimation import counts_nll
from phimp.sources import FsmxSource, rng_stream

BINARY = Alphabet(2)
BIC_MARKOV = PenaltyScheme.from_string("bic:markov", 2)


def seq(items, size=2):
    return SymbolSequence(Alphabet(size), np.array(items, dtype=np.int64))


def depth_one_map():
    return compile_suffix_map(SuffixSet(BINARY, ((0,), (1,))))


def general_fsm(table, start=0):
    table = np.asarray(table, dtype=np.int64)
    return FeatureMap(kind="general-fsm", alphabet_size=table.shape[1],
                      state_count=table.shape[0], start_state=start,
                      step_table=table)


@st.composite
def paired_fsm_cases(draw):
    """A general FSM (S <= 6) over a joint alphabet (X <= 3, Y <= 4) and
    paired data for it."""
    n_states = draw(st.integers(1, 6))
    x_size, y_size = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    cells = n_states * x_size * y_size
    table = draw(st.lists(st.integers(0, n_states - 1), min_size=cells, max_size=cells))
    start = draw(st.integers(0, n_states - 1))
    n = draw(st.integers(1, 60))
    xs = draw(st.lists(st.integers(0, x_size - 1), min_size=n, max_size=n))
    ys = draw(st.lists(st.integers(0, y_size - 1), min_size=n, max_size=n))
    fmap = general_fsm(np.reshape(table, (n_states, x_size * y_size)), start)
    return fmap, PairedSequence(Alphabet(x_size), Alphabet(y_size), xs, ys)


class TestEstimate:
    def test_depth_one_hand_counts(self):
        emp = estimate(depth_one_map(), seq([0, 1, 1, 0, 1]))
        # state path 0,0,1,1,0,1
        assert emp.transition[0, 1] == pytest.approx(2 / 3)
        assert emp.transition[0, 0] == pytest.approx(1 / 3)
        assert emp.transition[1, 1] == pytest.approx(1 / 2)
        assert emp.transition[1, 0] == pytest.approx(1 / 2)
        assert emp.emission[0, 0] == 1.0
        assert emp.emission[1, 1] == 1.0

    def test_single_state_frequencies(self):
        emp = estimate(trivial_map(2), seq([0, 1, 0, 1]))
        assert emp.transition[0, 0] == 1.0
        assert np.allclose(emp.emission[0], [0.5, 0.5])

    def test_reference_map_start_state_only_visited_as_origin(self, reference_map):
        emp = estimate(reference_map, seq([1, 1, 1]))
        by_suffix = {s: i for i, s in enumerate(reference_map.suffixes)}
        s0, s01, s11 = by_suffix[(0,)], by_suffix[(0, 1)], by_suffix[(1, 1)]
        assert emp.transition[s0, s01] == 1.0
        assert emp.transition[s01, s11] == 1.0
        assert emp.transition[s11, s11] == 1.0
        assert emp.transition_row_visited[s0]
        assert not emp.emission_row_visited[s0]

    def test_counts_sum_to_n(self, reference_map):
        data = sample_fsmx(FsmxSource(reference_map,
                                      [[0.8, 0.2], [0.5, 0.5], [0.2, 0.8]]),
                           500, seed=2)
        emp = estimate(reference_map, data)
        assert emp.transition_counts.sum() == 500
        assert emp.emission_counts.sum() == 500

    def test_empty_sequence_rejected(self, reference_map):
        with pytest.raises(InputError):
            estimate(reference_map, seq([]))

    @settings(max_examples=40, deadline=None)
    @given(items=st.lists(st.integers(0, 1), min_size=1, max_size=60),
           case=paired_fsm_cases())
    def test_matches_dict_walk_oracle(self, reference_map, items, case):
        data = seq(items)
        emp = estimate(reference_map, data)
        trans, emis = hand_counts(reference_map.step_table, reference_map.start_state,
                                  items, items, 3, 2)
        assert np.array_equal(emp.transition_counts, trans)
        assert np.array_equal(emp.emission_counts, emis)
        for s in range(3):
            if emp.transition_row_visited[s]:
                assert emp.transition[s].sum() == pytest.approx(1.0, abs=1e-12)
            if emp.emission_row_visited[s]:
                assert emp.emission[s].sum() == pytest.approx(1.0, abs=1e-12)

        # paired data: the joint symbol drives the walk, y alone is emitted
        fmap, paired = case
        emp = estimate_paired(fmap, paired)
        trans, emis = hand_counts(fmap.step_table, fmap.start_state,
                                  paired.joint_sequence().items, paired.ys,
                                  fmap.state_count, paired.y_alphabet.size)
        assert np.array_equal(emp.transition_counts, trans)
        assert np.array_equal(emp.emission_counts, emis)

    def test_smoothing_converges_to_mle(self, reference_map):
        data = seq([0, 1, 1, 0, 1, 1, 1, 0])
        exact = estimate(reference_map, data)
        gap = []
        for eps in (1e-3, 1e-6):
            smoothed = estimate(reference_map, data, smoothing=eps)
            gap.append(np.abs(smoothed.transition - exact.transition).max())
        assert gap[1] < gap[0] < 1e-2
        assert gap[1] < 1e-5


class TestPenalty:
    def test_bic_markov_value(self):
        assert penalty(PenaltyScheme.from_string("bic:markov", 2), 100, 2) == \
            pytest.approx(math.log(100))

    def test_bic_full_value(self):
        assert penalty(PenaltyScheme.from_string("bic:full", 2), 100, 2) == \
            pytest.approx(2 * math.log(100))

    def test_cubic_value(self):
        # beta(2) = 8 multiplies ln n
        scheme = PenaltyScheme.from_string("cubic", 2)
        assert scheme.value(100, 2) == pytest.approx(8 * math.log(100))
        assert scheme.value(3, 1) == pytest.approx(math.log(3))

    def test_sublinear_and_monotone(self):
        for spec in ("bic:markov", "bic:full", "cubic"):
            scheme = PenaltyScheme.from_string(spec, 2)
            ratios = [scheme.value(n, 3) / n for n in (100, 1000, 10_000, 100_000, 1_000_000)]
            assert all(b < a for a, b in zip(ratios, ratios[1:]))
            assert ratios[-1] < 1e-3
            values = [scheme.value(1000, s) for s in range(1, 9)]
            assert all(b > a for a, b in zip(values, values[1:]))
            assert all(v > 0 for v in values)

    def test_custom_table(self):
        scheme = PenaltyScheme(kind="custom-table",
                               table=((10, 1, 1.0), (10, 2, 2.0),
                                      (100, 1, 1.5), (100, 2, 2.5)))
        assert scheme.value(100, 2) == 2.5
        with pytest.raises(InputError):
            scheme.value(50, 2)

    def test_non_monotone_table_rejected(self):
        with pytest.raises(InputError):
            PenaltyScheme(kind="custom-table",
                          table=((10, 1, 2.0), (100, 1, 1.0)))
        with pytest.raises(InputError):
            PenaltyScheme(kind="custom-table",
                          table=((10, 1, 2.0), (10, 2, 1.0)))

    def test_unknown_spec(self):
        with pytest.raises(InputError):
            PenaltyScheme.from_string("aic", 2)

    def test_invalid_arguments(self):
        with pytest.raises(InputError):
            BIC_MARKOV.value(0, 1)
        with pytest.raises(InputError):
            BIC_MARKOV.value(10, 0)


class TestLogLikelihood:
    def test_single_state_uniform(self):
        data = seq([0, 1, 0, 1])
        fmap = trivial_map(2)
        emp = estimate(fmap, data)
        assert log_likelihood(fmap, emp, data) == pytest.approx(4 * math.log(2))

    def test_depth_one_path_product(self):
        data = seq([0, 1, 1, 0, 1])
        fmap = depth_one_map()
        emp = estimate(fmap, data)
        expected = -(math.log(1 / 3) + math.log(2 / 3) + math.log(1 / 2)
                     + math.log(1 / 2) + math.log(2 / 3))
        assert log_likelihood(fmap, emp, data) == pytest.approx(expected, abs=1e-12)

    def test_deterministic_sequence_costs_nothing(self):
        data = seq([0] * 64)
        fmap = depth_one_map()
        emp = estimate(fmap, data)
        assert log_likelihood(fmap, emp, data) == 0.0

    def test_self_estimate_is_always_finite(self, reference_map):
        rng = rng_stream(8)
        for _ in range(10):
            data = seq(rng.integers(0, 2, 30))
            emp = estimate(reference_map, data)
            assert math.isfinite(log_likelihood(reference_map, emp, data))

    def test_cross_evaluation_can_be_infinite(self):
        fmap = depth_one_map()
        emp = estimate(fmap, seq([0, 0, 0, 0]))
        assert log_likelihood(fmap, emp, seq([0, 1, 0, 1])) == math.inf

    def test_smoothing_keeps_cross_evaluation_finite(self):
        fmap = depth_one_map()
        emp = estimate(fmap, seq([0, 0, 0, 0]), smoothing=1e-3)
        assert math.isfinite(log_likelihood(fmap, emp, seq([0, 1, 0, 1])))


class TestCost:
    def test_single_state_total(self):
        breakdown = cost(trivial_map(2), seq([0, 1, 0, 1]), BIC_MARKOV)
        assert breakdown.data_cost == pytest.approx(4 * math.log(2))
        assert breakdown.penalty == pytest.approx(0.5 * math.log(4))
        assert breakdown.total == pytest.approx(3.4657, abs=1e-4)

    def test_constant_sequence_pure_penalty(self):
        breakdown = cost(depth_one_map(), seq([0] * 100), BIC_MARKOV)
        assert breakdown.data_cost == 0.0
        assert breakdown.total == pytest.approx(math.log(100))

    def test_total_is_exact_sum(self, reference_map):
        data = seq([0, 1, 1, 0, 0, 1, 1, 1])
        breakdown = cost(reference_map, data, BIC_MARKOV)
        assert breakdown.total == breakdown.data_cost + breakdown.penalty

    def test_penalty_grows_with_states_at_equal_data_cost(self):
        data = seq([0] * 200)
        small = cost(depth_one_map(), data, BIC_MARKOV)
        full = compile_suffix_map(SuffixSet(BINARY, ((0, 0), (0, 1), (1, 0), (1, 1))))
        big = cost(full, data, BIC_MARKOV)
        assert big.data_cost == small.data_cost == 0.0
        assert big.total > small.total

    def test_ml_cost_has_zero_penalty(self):
        breakdown = ml_cost(depth_one_map(), seq([0, 1, 1, 0]))
        assert breakdown.penalty == 0.0
        assert breakdown.criterion == "ml"


def random_paired(rng, n, x_size=2, y_size=2):
    return PairedSequence(Alphabet(x_size), Alphabet(y_size),
                          rng.integers(0, x_size, n), rng.integers(0, y_size, n))


class TestICost:
    def test_degenerate_side_information_equals_cost(self):
        rng = rng_stream(21)
        ys = rng.integers(0, 2, 200)
        paired = PairedSequence(Alphabet(1), BINARY, np.zeros(200, dtype=np.int64), ys)
        fmap = depth_one_map()
        plain = cost(fmap, seq(ys), BIC_MARKOV)
        side = icost(fmap, paired, BIC_MARKOV)
        assert side.criterion == "icost"
        assert side.data_cost == plain.data_cost
        assert side.total == plain.total

    def test_forward_matches_path_sum_oracle(self):
        # six-step paired data, all hidden paths enumerated
        rng = rng_stream(13)
        fmap = general_fsm([[0, 1, 1, 0], [1, 0, 0, 1]])
        for trial in range(5):
            paired = random_paired(rng, 6)
            emp = estimate_paired(fmap, paired, smoothing=1e-3)
            breakdown = icost(fmap, paired, PenaltyScheme.from_string("bic:markov", 2),
                              smoothing=1e-3)
            total = path_sum_likelihood(emp.transition, emp.emission,
                                        fmap.start_state, list(paired.ys))
            assert breakdown.data_cost == pytest.approx(-math.log(total), abs=1e-10)

    def test_independent_side_information_reaches_entropy_rate(self):
        # state tracks x, which carries no information about iid y
        rng = rng_stream(11)
        n = 100_000
        xs = rng.integers(0, 2, n)
        ys = (rng.random(n) < 0.3).astype(np.int64)
        paired = PairedSequence(BINARY, BINARY, xs, ys)
        fmap = general_fsm([[0, 0, 1, 1], [0, 0, 1, 1]])
        breakdown = icost(fmap, paired, BIC_MARKOV)
        entropy = -(0.3 * math.log(0.3) + 0.7 * math.log(0.7))
        assert abs(breakdown.data_cost / n - entropy) <= 0.01


class TestOCost:
    def test_degenerate_side_information_equals_cost(self):
        rng = rng_stream(22)
        ys = rng.integers(0, 2, 150)
        paired = PairedSequence(Alphabet(1), BINARY, np.zeros(150, dtype=np.int64), ys)
        fmap = depth_one_map()
        plain = cost(fmap, seq(ys), BIC_MARKOV)
        side = ocost(fmap, paired, BIC_MARKOV)
        assert side.data_cost == plain.data_cost
        assert side.total == plain.total

    def test_pair_suffix_map_matches_joint_cost(self):
        # a suffix map over the joint alphabet: the state pins down the pair,
        # so coding (path, y) equals coding the joint sequence; use a penalty
        # without an alphabet term so the totals match too
        rng = rng_stream(23)
        paired = random_paired(rng, 400)
        joint_map = compile_suffix_map(SuffixSet(Alphabet(4), ((0,), (1,), (2,), (3,))))
        assert state_determines_pair(joint_map, paired)
        cubic = PenaltyScheme.from_string("cubic", 4)
        path_form = ocost(joint_map, paired, cubic)
        joint_form = cost(joint_map, paired.joint_sequence(), cubic)
        assert path_form.data_cost == pytest.approx(joint_form.data_cost, abs=1e-9)
        assert path_form.total == pytest.approx(joint_form.total, abs=1e-9)

    def test_deterministic_emission_leaves_only_transition_cost(self):
        rng = rng_stream(24)
        paired = random_paired(rng, 300)
        joint_map = compile_suffix_map(SuffixSet(Alphabet(4), ((0,), (1,), (2,), (3,))))
        emp = estimate_paired(joint_map, paired)
        breakdown = ocost(joint_map, paired, BIC_MARKOV)
        transitions_only = path_product_nll(
            emp.transition, np.ones((4, 4)), joint_map.step_table,
            joint_map.start_state, list(paired.joint_sequence().items))
        assert breakdown.data_cost == pytest.approx(transitions_only, abs=1e-9)


class TestSingleCountingPass:
    def test_data_cost_equals_a_separate_walk_exactly(self):
        # cost, ml_cost and ocost code the data from the counts their
        # estimate already made; a second, independent count of the same data
        # must give the very same floats
        rng = rng_stream(31)
        suffix_maps = enumerate_closed_suffix_maps(BINARY, 3)
        for trial in range(40):
            smoothing = (0.0, 0.5)[trial % 2]
            if trial % 4 < 2:
                fmap = suffix_maps[int(rng.integers(len(suffix_maps)))]
            else:
                n_states = int(rng.integers(1, 7))
                fmap = general_fsm(rng.integers(0, n_states, (n_states, 2)),
                                   int(rng.integers(n_states)))
            data = seq(rng.integers(0, 2, int(rng.integers(1, 400))))
            expected = log_likelihood(fmap, estimate(fmap, data, smoothing), data)
            assert cost(fmap, data, BIC_MARKOV, smoothing).data_cost == expected
            assert ml_cost(fmap, data, smoothing).data_cost == expected

            x_size, y_size = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            n_states = int(rng.integers(1, 7))
            fmap = general_fsm(rng.integers(0, n_states, (n_states, x_size * y_size)))
            paired = random_paired(rng, int(rng.integers(1, 400)), x_size, y_size)
            emp = estimate_paired(fmap, paired, smoothing)
            trans, emis = hand_counts(fmap.step_table, fmap.start_state,
                                      paired.joint_sequence().items, paired.ys,
                                      n_states, y_size)
            scheme = PenaltyScheme.from_string("bic:markov", y_size)
            assert ocost(fmap, paired, scheme, smoothing).data_cost == \
                counts_nll(trans, emp.transition) + counts_nll(emis, emp.emission)

        # a self-estimate never codes its own data at +inf; an estimate from
        # other data does, and both ways of counting agree on it
        fmap = depth_one_map()
        emp = estimate(fmap, seq([0, 0, 0, 0]))
        other = seq([0, 1, 0, 1])
        trans, emis = hand_counts(fmap.step_table, fmap.start_state,
                                  other.items, other.items, 2, 2)
        assert log_likelihood(fmap, emp, other) == math.inf
        assert counts_nll(trans, emp.transition) + counts_nll(emis, emp.emission) \
            == math.inf


class TestPathFormMatchesForward:
    def test_suffix_maps_forward_equals_path_product(self, reference_map):
        # deterministic emissions collapse the hidden-state marginal onto the
        # realized path
        from phimp.sources import forward_loglik, hmm_from_map_model

        items = [0, 1, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1]  # visits every state row
        data = seq(items)
        emp = estimate(reference_map, data)
        assert emp.transition_row_visited.all() and emp.emission_row_visited.all()
        nll_path = path_product_nll(emp.transition, emp.emission,
                                    reference_map.step_table,
                                    reference_map.start_state, items)
        hmm = hmm_from_map_model(reference_map, emp.transition, emp.emission)
        assert -forward_loglik(hmm, data) == pytest.approx(nll_path, abs=1e-10)
