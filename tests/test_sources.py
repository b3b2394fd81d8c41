import math

import numpy as np
import pytest

from oracles import (binary_entropy, cross_entropy_from_flows,
                     limiting_parameters_from_flows, product_chain_flows)
from phimp import (Alphabet, FeatureMap, FsmxSource, Hmm, InputError,
                   ResourceError, SuffixSet, SymbolSequence, brute_force_loglik,
                   compile_suffix_map, cross_entropy_exact_markov,
                   cross_entropy_mc, estimate, forward_loglik,
                   forward_loglik_steps, induced_hmm,
                   is_ergodic_chain, limiting_parameters, model_from_json,
                   model_to_json, read_model, sample_fsmx, sample_hmm,
                   stationary, substring_frequency, trivial_map, write_model)
from phimp.sources import rng_stream

BINARY = Alphabet(2)


def seq(items, size=2):
    return SymbolSequence(Alphabet(size), np.array(items, dtype=np.int64))


def depth_one_source(p0=0.5, p1=0.5):
    fmap = compile_suffix_map(SuffixSet(BINARY, ((0,), (1,))))
    return FsmxSource(fmap, np.array([[1 - p0, p0], [1 - p1, p1]]))


def random_hmm(rng, n_states, n_symbols):
    return Hmm(transition=rng.dirichlet(np.ones(n_states), n_states),
               emission=rng.dirichlet(np.ones(n_symbols), n_states),
               initial=rng.dirichlet(np.ones(n_states)))


class TestSampling:
    def test_point_mass_emissions_give_deterministic_orbit(self):
        source = depth_one_source(p0=1.0, p1=0.0)  # always flip
        sample = sample_fsmx(source, 8, seed=0)
        assert list(sample.items) == [1, 0, 1, 0, 1, 0, 1, 0]

    def test_seeded_reproducibility(self, reference_source):
        a = sample_fsmx(reference_source, 1000, seed=7)
        b = sample_fsmx(reference_source, 1000, seed=7)
        c = sample_fsmx(reference_source, 1000, seed=8)
        assert np.array_equal(a.items, b.items)
        assert not np.array_equal(a.items, c.items)

    def test_streams_are_independent(self, reference_source):
        a = sample_fsmx(reference_source, 1000, seed=7, stream=0)
        b = sample_fsmx(reference_source, 1000, seed=7, stream=1)
        assert not np.array_equal(a.items, b.items)

    def test_symbol_frequency_matches_stationary_law(self, reference_source):
        sample = sample_fsmx(reference_source, 100_000, seed=3)
        chain = induced_hmm(reference_source)
        pi = stationary(chain.transition)
        expected = float(pi @ reference_source.emit[:, 1])
        got = substring_frequency(sample, seq([1]))
        assert abs(got - expected) <= 0.02

    def test_hmm_sampler_reproducible(self):
        rng = rng_stream(4)
        hmm = random_hmm(rng, 3, 2)
        a = sample_hmm(hmm, 500, seed=1)
        b = sample_hmm(hmm, 500, seed=1)
        assert np.array_equal(a.items, b.items)

    def test_length_must_be_positive(self, reference_source):
        with pytest.raises(InputError):
            sample_fsmx(reference_source, 0, seed=1)


class TestInducedHmm:
    def test_depth_one_transition_equals_emit(self):
        source = depth_one_source(p0=0.3, p1=0.9)
        chain = induced_hmm(source)
        # successor state equals the emitted symbol
        assert chain.transition[0, 1] == pytest.approx(0.3)
        assert chain.transition[1, 1] == pytest.approx(0.9)

    def test_reference_transition_matrix(self, reference_source):
        chain = induced_hmm(reference_source)
        expected = np.array([[0.8, 0.2, 0.0],
                             [0.5, 0.0, 0.5],
                             [0.2, 0.0, 0.8]])
        assert np.allclose(chain.transition, expected, atol=1e-15)

    def test_rows_sum_to_one(self, reference_source):
        rng = rng_stream(17)
        for _ in range(5):
            emit = rng.dirichlet(np.ones(2), 3)
            chain = induced_hmm(FsmxSource(reference_source.fmap, emit))
            assert np.allclose(chain.transition.sum(axis=1), 1.0, atol=1e-12)

    def test_suffix_emissions_are_deterministic(self, reference_source):
        chain = induced_hmm(reference_source)
        # state i emits the last symbol of its suffix with probability one
        for i, suffix in enumerate(reference_source.fmap.suffixes):
            assert chain.emission[i, suffix[-1]] == 1.0

    def test_general_map_emissions_from_stationary_flow(self):
        # two states both reachable by either symbol
        table = np.array([[1, 1], [0, 0]])
        fmap = FeatureMap(kind="general-fsm", alphabet_size=2, state_count=2,
                          start_state=0, step_table=table)
        source = FsmxSource(fmap, np.array([[0.3, 0.7], [0.6, 0.4]]))
        chain = induced_hmm(source)
        # state 1 is entered from state 0 by either symbol: share 0.3 / 0.7
        assert chain.emission[1] == pytest.approx([0.3, 0.7])
        assert chain.emission[0] == pytest.approx([0.6, 0.4])


class TestForwardAndBruteForce:
    def test_single_state_uniform(self):
        hmm = Hmm(np.eye(1), np.array([[0.5, 0.5]]), np.array([1.0]))
        assert forward_loglik(hmm, seq([0, 1, 1, 0])) == pytest.approx(-4 * math.log(2))

    def test_impossible_symbol_flags_minus_inf(self):
        hmm = Hmm(np.eye(1), np.array([[1.0, 0.0]]), np.array([1.0]))
        assert forward_loglik(hmm, seq([0, 1])) == -math.inf
        assert brute_force_loglik(hmm, seq([0, 1])) == -math.inf
        # the first zero-probability step floods every later step with +inf
        steps = forward_loglik_steps(hmm, np.array([0, 1, 0], dtype=np.int64))
        assert steps.tolist() == [0.0, math.inf, math.inf]

    def test_forward_matches_brute_force_random_instances(self):
        for trial in range(20):
            rng = rng_stream(100 + trial)
            n_states = int(rng.integers(1, 4))
            n_symbols = int(rng.integers(2, 4))
            hmm = random_hmm(rng, n_states, n_symbols)
            for n in (1, 4, 8):
                data = seq(rng.integers(0, n_symbols, n), size=n_symbols)
                assert forward_loglik(hmm, data) == pytest.approx(
                    brute_force_loglik(hmm, data), abs=1e-10)

    def test_brute_force_cap(self):
        rng = rng_stream(0)
        hmm = random_hmm(rng, 3, 2)
        with pytest.raises(ResourceError, match="cap"):
            brute_force_loglik(hmm, seq(rng.integers(0, 2, 30)), path_cap=1000)


class TestStationary:
    def test_symmetric_two_state(self):
        pi = stationary(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert pi == pytest.approx([0.5, 0.5])

    def test_asymmetric_two_state(self):
        pi = stationary(np.array([[0.9, 0.1], [0.5, 0.5]]))
        assert pi == pytest.approx([5 / 6, 1 / 6])

    def test_cyclic_permutation_uniform(self):
        cycle = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        assert stationary(cycle) == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    def test_fixed_point_residual(self, reference_source):
        transition = induced_hmm(reference_source).transition
        pi = stationary(transition)
        assert np.abs(pi @ transition - pi).max() <= 1e-10

    def test_permutation_invariance(self, reference_source):
        transition = induced_hmm(reference_source).transition
        perm = np.array([2, 0, 1])
        shuffled = transition[np.ix_(perm, perm)]
        assert stationary(shuffled) == pytest.approx(stationary(transition)[perm])

    def test_non_ergodic_rejected(self):
        with pytest.raises(InputError, match="is_ergodic_chain"):
            stationary(np.eye(2))

    @pytest.mark.parametrize("transition", [
        # ergodic by support, but 1e-300 next to 1.0 leaves the system
        # numerically singular
        [[1e-20, 1e-20, 0.0, 1.0], [1.0, 1e-200, 1e-300, 0.0],
         [0.0, 1e-300, 1.0, 2e-300], [1e-20, 0.0, 0.0, 1.0]],
        # subnormal exits: the solve returns NaN without raising
        [[1.0, 0.0, 6.047e-321], [9.501e-321, 1.0, 7.905e-323],
         [0.0, 6.141e-321, 1.0]],
    ], ids=["singular", "nan"])
    def test_unsolvable_chain_rejected(self, transition):
        assert is_ergodic_chain(np.array(transition))
        with pytest.raises(InputError, match="stationary"):
            stationary(np.array(transition))


class TestErgodicChain:
    def test_strictly_positive_matrix(self):
        assert is_ergodic_chain(np.full((3, 3), 1 / 3))

    def test_block_diagonal_is_not(self):
        assert not is_ergodic_chain(np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_periodic_cycle_counts_as_ergodic(self):
        cycle = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert is_ergodic_chain(cycle)


class TestCrossEntropyExact:
    def test_iid_uniform_self_entropy(self):
        source = depth_one_source()
        chain = induced_hmm(source)
        estimate_ = cross_entropy_exact_markov(source, source.fmap,
                                               chain.transition, chain.emission)
        assert estimate_.value == pytest.approx(math.log(2), abs=1e-12)

    def test_reference_self_entropy_closed_form(self, reference_source):
        chain = induced_hmm(reference_source)
        pi = stationary(chain.transition)
        expected = sum(pi[s] * binary_entropy(reference_source.emit[s, 1])
                       for s in range(3))
        got = cross_entropy_exact_markov(reference_source, reference_source.fmap,
                                         chain.transition, chain.emission)
        assert got.value == pytest.approx(expected, abs=1e-12)
        assert got.mode == "exact-markov"

    def test_single_state_model_against_bernoulli(self):
        p, q = 0.3, 0.4
        source = depth_one_source(p0=p, p1=p)  # iid Bernoulli(p)
        model_map = trivial_map(2)
        transition = np.array([[1.0]])
        emission = np.array([[1 - q, q]])
        got = cross_entropy_exact_markov(source, model_map, transition, emission)
        expected = -(p * math.log(q) + (1 - p) * math.log(1 - q))
        assert got.value == pytest.approx(expected, abs=1e-12)

    def test_zero_support_is_infinite(self):
        source = depth_one_source()
        model_map = trivial_map(2)
        got = cross_entropy_exact_markov(source, model_map, np.array([[1.0]]),
                                         np.array([[1.0, 0.0]]))
        assert got.value == math.inf

    def test_coarser_map_limiting_entropy(self, reference_source):
        # the last-symbol map merges contexts 01 and 11
        model_map = compile_suffix_map(SuffixSet(BINARY, ((0,), (1,))))
        transition, emission = limiting_parameters(reference_source, model_map)
        got = cross_entropy_exact_markov(reference_source, model_map,
                                         transition, emission)
        pi = stationary(induced_hmm(reference_source).transition)
        p1_after_1 = (pi[1] * 0.5 + pi[2] * 0.8) / (pi[1] + pi[2])
        expected = ((pi[0]) * binary_entropy(0.2)
                    + (pi[1] + pi[2]) * binary_entropy(p1_after_1))
        assert got.value == pytest.approx(expected, abs=1e-12)


class TestLimitingParameters:
    def test_true_map_recovers_induced_parameters(self, reference_source):
        chain = induced_hmm(reference_source)
        transition, emission = limiting_parameters(reference_source,
                                                   reference_source.fmap)
        assert np.allclose(transition, chain.transition, atol=1e-12)
        assert np.allclose(emission, chain.emission, atol=1e-12)

    def test_matches_long_run_estimates(self, reference_source):
        model_map = compile_suffix_map(SuffixSet(BINARY, ((0,), (1,))))
        transition, _ = limiting_parameters(reference_source, model_map)
        sample = sample_fsmx(reference_source, 100_000, seed=12)
        emp = estimate(model_map, sample)
        assert np.abs(emp.transition - transition).max() <= 0.01


def random_general_fsm(rng, n_states, n_symbols):
    return FeatureMap(kind="general-fsm", alphabet_size=n_symbols,
                      state_count=n_states, start_state=int(rng.integers(n_states)),
                      step_table=rng.integers(0, n_states, size=(n_states, n_symbols)))


class TestProductChainOracle:
    def test_matches_loop_oracle_with_transient_pairs_and_several_classes(self):
        # sparse emit tables leave pairs that are transient or sit in
        # several closed classes; both must occur for the test to count
        transient_cases = multi_class_cases = 0
        for trial in range(300):
            rng = rng_stream(9000 + trial)
            n_symbols = int(rng.integers(1, 4))
            emit = rng.dirichlet(np.ones(n_symbols), int(rng.integers(1, 7)))
            emit[rng.random(emit.shape) < 0.4] = 0.0
            emit[emit.sum(axis=1) == 0, 0] = 1.0
            emit /= emit.sum(axis=1, keepdims=True)
            source = FsmxSource(random_general_fsm(rng, emit.shape[0], n_symbols), emit)
            model_map = random_general_fsm(rng, int(rng.integers(1, 7)), n_symbols)
            try:
                flows, transient = product_chain_flows(
                    source.fmap.step_table, source.fmap.start_state, emit,
                    model_map.step_table, model_map.start_state)
            except ValueError:
                multi_class_cases += 1
                with pytest.raises(InputError, match="single recurrent class"):
                    limiting_parameters(source, model_map)
                continue
            transient_cases += transient > 0
            transition, emission = limiting_parameters(source, model_map)
            want_t, want_e = limiting_parameters_from_flows(
                flows, model_map.step_table, model_map.state_count, n_symbols)
            assert np.abs(transition - want_t).max() <= 1e-12
            assert np.abs(emission - want_e).max() <= 1e-12
            got = cross_entropy_exact_markov(source, model_map, transition, emission)
            want = cross_entropy_from_flows(flows, model_map.step_table,
                                            transition, emission)
            assert got.value == pytest.approx(want, rel=1e-12, abs=1e-300)
            # a model that forbids one move of the chain codes it at +inf
            (_, v, y), _ = next(iter(flows.items()))
            holed = transition.copy()
            holed[v, model_map.step_table[v, y]] = 0.0
            assert cross_entropy_exact_markov(
                source, model_map, holed, emission).value == math.inf
        assert transient_cases >= 10 and multi_class_cases >= 5


class TestCrossEntropyMc:
    def test_iid_uniform(self):
        source = depth_one_source()
        model = induced_hmm(source)
        got = cross_entropy_mc(source, model, 100_000, seed=2)
        assert abs(got.value - math.log(2)) <= 0.01
        assert got.std_error is not None and got.std_error < 0.01

    def test_agrees_with_exact_on_reference(self, reference_source):
        chain = induced_hmm(reference_source)
        exact = cross_entropy_exact_markov(reference_source, reference_source.fmap,
                                           chain.transition, chain.emission)
        mc = cross_entropy_mc(reference_source, chain, 100_000, seed=5)
        assert abs(mc.value - exact.value) <= 0.01

    def test_zero_support_flags_infinity(self):
        source = depth_one_source()
        model = Hmm(np.eye(1), np.array([[1.0, 0.0]]), np.array([1.0]))
        got = cross_entropy_mc(source, model, 2000, seed=3)
        assert got.value == math.inf

    def test_small_n_rejected(self, reference_source):
        with pytest.raises(InputError):
            cross_entropy_mc(reference_source, induced_hmm(reference_source),
                             100, seed=0)

    def test_reproducible(self, reference_source):
        chain = induced_hmm(reference_source)
        a = cross_entropy_mc(reference_source, chain, 5000, seed=9)
        b = cross_entropy_mc(reference_source, chain, 5000, seed=9)
        assert a.value == b.value and a.std_error == b.std_error


class TestGibbsDirection:
    def test_perturbed_models_never_beat_the_truth(self, reference_source):
        chain = induced_hmm(reference_source)
        self_entropy = cross_entropy_exact_markov(
            reference_source, reference_source.fmap,
            chain.transition, chain.emission).value
        rng = rng_stream(77)
        for trial in range(10):
            noise = rng.uniform(0.05, 0.3, size=3)
            flip = rng.integers(0, 2, size=3)
            p1 = np.clip(reference_source.emit[:, 1] + np.where(flip, noise, -noise),
                         0.02, 0.98)
            perturbed = FsmxSource(reference_source.fmap,
                                   np.column_stack([1 - p1, p1]))
            model = induced_hmm(perturbed)
            mc = cross_entropy_mc(reference_source, model, 20_000, seed=200 + trial)
            assert mc.value >= self_entropy - 2 * mc.std_error


class TestEstimatorConvergence:
    def test_transition_estimates_approach_induced_chain(self, reference_source):
        chain = induced_hmm(reference_source)
        for seed in range(10):
            sample = sample_fsmx(reference_source, 100_000, seed=seed)
            emp = estimate(reference_source.fmap, sample)
            assert np.abs(emp.transition - chain.transition).max() <= 0.05


class TestModelFiles:
    def test_fsmx_round_trip(self, tmp_path, reference_source):
        path = tmp_path / "source.json"
        write_model(path, reference_source)
        back = read_model(path)
        assert isinstance(back, FsmxSource)
        assert np.allclose(back.emit, reference_source.emit)
        assert back.fmap.map_id == reference_source.fmap.map_id

    def test_hmm_round_trip(self, tmp_path, reference_source):
        chain = induced_hmm(reference_source)
        path = tmp_path / "model.json"
        write_model(path, chain)
        back = read_model(path)
        assert isinstance(back, Hmm)
        assert np.allclose(back.transition, chain.transition)

    def test_type_field_optional(self, reference_source):
        data = model_to_json(induced_hmm(reference_source))
        del data["type"]
        assert isinstance(model_from_json(data), Hmm)

    def test_unknown_type_rejected(self):
        with pytest.raises(InputError):
            model_from_json({"type": "mystery"})

    def test_invalid_rows_rejected(self):
        with pytest.raises(InputError):
            Hmm(np.array([[0.5, 0.4], [0.5, 0.5]]),
                np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0]))
