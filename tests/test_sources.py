import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from oracles import (binary_entropy, block_bootstrap_se_gather,
                     cross_entropy_from_flows, first_zero_probability_step,
                     forward_nll_steps_before, forward_nll_steps_loop,
                     limiting_parameters_from_flows,
                     product_chain_flows, xent_via_induced_hmm)
from phimp import (Alphabet, FeatureMap, FsmxSource, Hmm, InputError,
                   ResourceError, SuffixSet, SymbolSequence, brute_force_loglik,
                   compile_suffix_map, cross_entropy_exact_fsmx,
                   cross_entropy_exact_markov, cross_entropy_mc,
                   enumerate_closed_suffix_maps, estimate, forward_loglik,
                   forward_loglik_steps, induced_hmm,
                   is_ergodic_chain, limiting_parameters, model_from_json,
                   model_to_json, read_model, sample_fsmx, sample_hmm,
                   stationary, substring_frequency, trivial_map, write_model)
from phimp import _kernels
from phimp._kernels import forward_nll_steps
from phimp.sources import _block_bootstrap_se, _state_reduction, rng_stream

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

    @pytest.mark.parametrize("seed, stream", [(2.9, 0), (True, 0), (2, 1.5), (2, False)])
    def test_seed_and_stream_must_be_integers(self, seed, stream):
        with pytest.raises(InputError, match="must be an integer"):
            rng_stream(seed, stream)

    def test_numpy_integer_seed_gives_that_seed(self, reference_source):
        assert rng_stream(np.int64(7), np.uint8(1)).random() == rng_stream(7, 1).random()
        assert np.array_equal(sample_fsmx(reference_source, 100, np.int64(7)).items,
                              sample_fsmx(reference_source, 100, 7).items)

    def test_length_must_be_an_integer(self, reference_source):
        with pytest.raises(InputError, match="sample length must be an integer"):
            sample_fsmx(reference_source, 10.7, 0)

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


def degenerate_hmm_arrays(rng):
    """Raw forward-kernel inputs (S <= 8, Y <= 4) with holes in the
    transition matrix, whole zero rows, zero emissions and emissions down to
    1e-300."""
    n_states = int(rng.integers(1, 9))
    n_symbols = int(rng.integers(1, 5))
    transition = rng.dirichlet(np.ones(n_states), n_states)
    emission = rng.dirichlet(np.ones(n_symbols), n_states)
    if rng.random() < 0.3:
        transition[rng.random((n_states, n_states)) < 0.3] = 0.0
    if rng.random() < 0.2:
        transition[rng.integers(n_states)] = 0.0
    if rng.random() < 0.3:
        emission[rng.random((n_states, n_symbols)) < 0.3] = 0.0
    if rng.random() < 0.3:
        tiny = rng.random((n_states, n_symbols)) < 0.3
        emission[tiny] = 10.0 ** -rng.uniform(100, 300, int(tiny.sum()))
    if rng.random() < 0.5:
        initial = np.zeros(n_states)
        initial[rng.integers(n_states)] = 1.0
    else:
        initial = rng.dirichlet(np.ones(n_states))
    return transition, emission, initial, n_symbols


def first_inf(steps) -> int:
    hits = np.flatnonzero(np.isinf(steps))
    return int(hits[0]) if hits.size else steps.size


# around k^2 (k = 2, 4, 10, 48) the block length isqrt(n) steps up and the last
# block goes from full to one step; primes leave a ragged last block, which
# starts from sweep 1's guess like every block after the first
FORWARD_LENGTHS = (0, 1, 2, 3, 4, 5, 15, 16, 17, 99, 100, 101, 2303, 2304, 2305,
                   7, 211, 997, 2999)


def forward_with_k(transition, emission, initial, symbols):
    """``forward_nll_steps``' result and the gram length k it stepped with;
    where k = 1 the result must be the blocked kernel's before grams, bit for
    bit."""
    used = []
    gram_length = _kernels._gram_length

    def recording(*args):
        used.append(gram_length(*args))
        return used[-1]

    with mock.patch.object(_kernels, "_gram_length", recording):
        got = forward_nll_steps(transition, emission, initial, symbols)
    [k] = used
    if k == 1:
        assert np.array_equal(got, forward_nll_steps_before(transition, emission, initial, symbols))
    return got, k


def no_double_ones(rng, n):
    """Binary data in which no 1 follows a 1."""
    symbols = rng.integers(0, 2, n)
    for t in range(1, n):
        symbols[t] &= 1 - symbols[t - 1]
    return symbols


class TestBlockedForwardKernel:
    def test_matches_loop_oracle_on_degenerate_hmms(self):
        rng = rng_stream(2024)
        dead_cases = 0
        lengths = set()
        for trial in range(400):
            transition, emission, initial, n_symbols = degenerate_hmm_arrays(rng)
            n = FORWARD_LENGTHS[trial % len(FORWARD_LENGTHS)]
            symbols = rng.integers(0, n_symbols, n)
            got, k = forward_with_k(transition, emission, initial, symbols)
            lengths.add(k)
            want = forward_nll_steps_loop(transition, emission, initial, symbols)
            assert got.shape == (n,) and not np.isnan(got).any()
            stop = first_inf(want)
            dead_cases += stop < n
            # +inf at exactly the loop's steps, a suffix
            assert np.array_equal(np.isinf(got), np.isinf(want))
            assert np.isinf(got[stop:]).all()
            assert np.all(np.abs(got[:stop] - want[:stop])
                          <= 1e-12 * np.maximum(1.0, np.abs(want[:stop])))
            if stop == n:
                total = want.sum()
                assert abs(got.sum() - total) <= 1e-12 * max(1.0, abs(total))
        assert dead_cases >= 25
        # both the symbol steps and gram steps of several lengths ran
        assert 1 in lengths and len(lengths) > 5

    def test_start_row_far_below_the_others_stays_finite(self):
        # state 0 emits the data with probability 1e-20 a step and state 1
        # cannot reach it, so from the uniform law state 1 takes over within a
        # 32-step block and every guess after block 0 is off: the check must
        # catch it and follow the loop, in which only state 0 is alive
        transition = np.eye(2)
        emission = np.array([[1e-20, 1.0 - 1e-20], [1.0, 0.0]])
        initial = np.array([1.0, 0.0])
        symbols = np.zeros(1024, dtype=np.int64)
        want = forward_nll_steps_loop(transition, emission, initial, symbols)
        got, _ = forward_with_k(transition, emission, initial, symbols)
        assert np.isfinite(want).all() and np.isfinite(got).all()
        assert got == pytest.approx(want, rel=1e-12)

    def test_path_rounded_to_zero_inside_a_block_floods_like_the_loop(self):
        # state 1 keeps a path alive at 1e-200 a step; alpha rounds it to zero
        # at step 1, so state 0's death at step 2 zeroes the normalizer, while
        # block 1, started from the uniform law in sweep 1, keeps state 1 alive
        transition = np.eye(2)
        emission = np.array([[1.0, 0.0], [1e-200, 1.0 - 1e-200]])
        initial = np.array([0.5, 0.5])
        symbols = np.array([0, 0] + [1] * 14)
        want = forward_nll_steps_loop(transition, emission, initial, symbols)
        got, _ = forward_with_k(transition, emission, initial, symbols)
        assert first_zero_probability_step(transition, emission, initial, symbols) == 16
        assert first_inf(want) == first_inf(got) == 2
        assert np.isinf(got[2:]).all()
        assert got[:2] == pytest.approx(want[:2], rel=1e-12)

    @pytest.mark.parametrize("tail", [
        # the loop rounds state 1 to zero in block 0 and dies at step 4, where
        # only state 1 can emit; exact arithmetic stays alive
        [2] * 12,
        # the same loss of state 1, but state 0 survives: every later loss
        # is -log(1e-200), not -log(0.5)
        [1] * 12,
        # state 1 falls to 4e-320 of state 0, a subnormal with a few digits,
        # and comes back level: the loop's loss at step 4 is off by 5e-6
        [0, 2] * 6,
    ], ids=["dies", "survives", "subnormal"])
    def test_follows_the_loop_where_alpha_loses_a_path(self, tail):
        # T = I, so each state's path is a product of its emissions and the
        # filter never forgets its start; over the 4-step block 0 state 1
        # falls 1e-400 (1e-320) below state 0 and climbs back
        transition = np.eye(2)
        tiny = 1e-160 if tail[0] == 0 else 1e-200
        emission = np.array([[0.5, tiny, 0.0 if tail[0] == 2 else 0.5],
                             [tiny, 0.5, 0.5]])
        initial = np.array([0.5, 0.5])
        symbols = np.array([0, 0, 1, 1] + tail)
        want = forward_nll_steps_loop(transition, emission, initial, symbols)
        got, _ = forward_with_k(transition, emission, initial, symbols)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        assert got[finite] == pytest.approx(want[finite], rel=1e-12)

    @pytest.mark.parametrize("n_states", [31, 32, 33, 64, 256])
    def test_large_state_spaces_match_the_loop(self, n_states):
        # every state count runs blocked, 256 states included
        rng = rng_stream(n_states)
        transition = rng.dirichlet(np.full(n_states, 0.3), n_states)
        transition[rng.random((n_states, n_states)) < 0.2] = 0.0
        emission = rng.dirichlet(np.ones(3), n_states)
        initial = rng.dirichlet(np.ones(n_states))
        symbols = rng.integers(0, 3, 2000)
        want = forward_nll_steps_loop(transition, emission, initial, symbols)
        got, _ = forward_with_k(transition, emission, initial, symbols)
        assert np.isfinite(want).all()
        assert got == pytest.approx(want, rel=1e-12)

    def test_gram_steps_match_the_loop_around_block_boundaries(self):
        # an 8-state model like the active_icost estimate: each state emits
        # one symbol, and no odd state reaches an odd state, so two 1s in a
        # row have probability zero. Blocks of L = 8m - 1, 8m and 8m + 1
        # steps hold grams of k = 8, then seven, no or one symbol step; the
        # last block holds L, 1, k - 1, k or k + 1 steps
        rng = rng_stream(26)
        transition = rng.dirichlet(np.ones(8), 8)
        transition[1::2, 1::2] = 0.0
        transition /= transition.sum(axis=1, keepdims=True)
        emission = np.eye(2)[np.arange(8) % 2]
        initial = np.eye(8)[0]
        for case, (length, tail) in enumerate(itertools.product(
                (15, 16, 17, 39, 40, 41), (0, 1, 7, 8, 9))):
            n = length * length + tail
            symbols = no_double_ones(rng, n)
            # every other case dies at a step next to a gram or block edge
            death = None
            if case % 2:
                death = [length - 1, length, length + 1, 8 * length - 8, 8 * length + 9,
                         n - tail - 1, n - 1][case // 2 % 7]
                symbols[death - 2:death + 1] = [0, 1, 1]
            want = forward_nll_steps_loop(transition, emission, initial, symbols)
            got, k = forward_with_k(transition, emission, initial, symbols)
            assert k == 8
            assert first_inf(want) == (n if death is None else death)
            assert np.array_equal(np.isinf(got), np.isinf(want))
            finite = np.isfinite(want)
            assert got[finite] == pytest.approx(want[finite], rel=1e-12)

    def test_alpha_near_underflow_steps_by_symbols(self):
        # state 1 starts at 1e-300 of state 0 and falls by 2e-4 a step, to a
        # subnormal after three steps; only it can emit symbol 2, so step 4's
        # loss carries the loop's subnormal rounding. Block 0 starts from this
        # alpha in both sweeps, so no guess check catches a composed product's
        # other rounding (off by 3e-7 relative): its gram steps must be
        # symbol steps
        transition = np.eye(2)
        emission = np.array([[0.5, 0.5, 0.0], [1e-4, 0.4999, 0.5]])
        initial = np.array([1.0, 1e-300])
        symbols = np.concatenate([[0] * 4, [2], rng_stream(27).integers(0, 2, 395)])
        want = forward_nll_steps_loop(transition, emission, initial, symbols)
        got, k = forward_with_k(transition, emission, initial, symbols)
        assert k > 1 and np.isfinite(want).all()
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n_states,n,bound", [
        # per-step columns alone would take 6 MB
        (8, 100_000, 2_000_000),
        # 316 blocks of 32 states, 80 kB an array
        (32, 100_000, 2_500_000),
        # sqrt(n) blocks of 256 states would peak at 1.4 MB; capped at
        # 2^14 floats, 128 kB an array
        (256, 20_000, 1_000_000),
    ])
    def test_traced_peak_memory_of_one_call(self, n_states, n, bound):
        # no (n, S) or (n, S, S) array; out itself is 8n bytes
        rng = rng_stream(7)
        transition = rng.dirichlet(np.ones(n_states), n_states)
        emission = rng.dirichlet(np.ones(2), n_states)
        initial = np.eye(n_states)[0]
        symbols = rng.integers(0, 2, n)
        tracemalloc.start()
        try:
            forward_nll_steps(transition, emission, initial, symbols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    @pytest.mark.parametrize("items", [[0, -1, 1], [0, 2]])
    def test_steps_reject_symbols_outside_the_alphabet(self, items):
        hmm = Hmm(np.eye(2), np.array([[0.6, 0.4], [0.3, 0.7]]), np.array([0.5, 0.5]))
        with pytest.raises(InputError, match="outside"):
            forward_loglik_steps(hmm, np.array(items))


class TestBlockBootstrap:
    @pytest.mark.parametrize("n", [1000, 1001, 4099, 99_999, 100_000])
    def test_prefix_sums_match_gathered_replicates(self, n):
        losses = rng_stream(n).exponential(0.6, n)
        got = _block_bootstrap_se(losses, rng_stream(11))
        want = block_bootstrap_se_gather(losses, rng_stream(11))
        assert got == pytest.approx(want, rel=1e-11)


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

    @pytest.mark.parametrize("transition, expected", [
        # ergodic by support, but 1e-300 next to 1.0 leaves the dense system
        # numerically singular
        ([[1e-20, 1e-20, 0.0, 1.0], [1.0, 1e-200, 1e-300, 0.0],
          [0.0, 1e-300, 1.0, 2e-300], [1e-20, 0.0, 0.0, 1.0]],
         [1e-20, 1e-40, 1e-40 / 3, 1.0]),
        # subnormal exits: the dense solve returns NaN without raising
        ([[1.0, 0.0, 6.047e-321], [9.501e-321, 1.0, 7.905e-323],
          [0.0, 6.141e-321, 1.0]], None),
    ], ids=["singular", "nan"])
    def test_near_singular_chain_solves_with_balanced_flows(self, transition, expected):
        transition = np.array(transition)
        assert is_ergodic_chain(transition)
        pi = stationary(transition)
        assert np.all(np.isfinite(pi)) and pi.sum() == pytest.approx(1.0)
        if expected is not None:
            assert pi == pytest.approx(expected, rel=1e-9, abs=0)
        # flow into each state equals flow out of it; the power-of-two scale
        # is exact and keeps the products of tiny entries out of the subnormals
        moves = transition * 2.0 ** 1000
        np.fill_diagonal(moves, 0.0)
        assert pi @ moves == pytest.approx(pi * moves.sum(axis=1), rel=1e-12, abs=0)

    def test_state_reduction_matches_the_dense_solve(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            transition = rng.random((n, n)) ** 3
            transition /= transition.sum(axis=1, keepdims=True)
            reduced = _state_reduction(transition)
            assert reduced / reduced.sum() == pytest.approx(stationary(transition),
                                                            rel=0, abs=5e-14)


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


def random_suffix_models(reference_source):
    """62 suffix-tree models with random emissions, each with a source over
    its alphabet: every closed binary map of depth <= 3 and full binary
    depths 4 and 5 against the reference source, and every closed ternary
    map of depth <= 2 against a ternary suffix source, each drawn twice."""
    rng = rng_stream(4242)
    binary = enumerate_closed_suffix_maps(BINARY, 3) + [
        compile_suffix_map(SuffixSet(BINARY, tuple(itertools.product(range(2), repeat=d))))
        for d in (4, 5)]
    ternary = enumerate_closed_suffix_maps(Alphabet(3), 2)
    ternary_source = FsmxSource(ternary[5], rng.dirichlet(np.ones(3), ternary[5].state_count))
    return [(source, FsmxSource(fmap, rng.dirichlet(np.ones(fmap.alphabet_size),
                                                    fmap.state_count)))
            for _ in range(2)
            for source, maps in ((reference_source, binary), (ternary_source, ternary))
            for fmap in maps]


# a model whose state is the parity of the ones read so far; general, not a
# suffix tree, so two symbols can enter one state
PARITY_MODEL = FsmxSource(
    FeatureMap(kind="general-fsm", alphabet_size=2, state_count=2, start_state=0,
               step_table=np.array([[0, 1], [1, 0]])),
    np.array([[0.6, 0.4], [0.3, 0.7]]))


class TestOneLawPerModel:
    def test_suffix_models_score_as_their_induced_hmm(self, reference_source):
        # a suffix-tree model's induced HMM is exact, so coding along the
        # model's own state path changes no bit in either mode
        models = random_suffix_models(reference_source)
        assert len(models) >= 60
        for k, (source, model) in enumerate(models):
            got = cross_entropy_exact_fsmx(source, model)
            want = xent_via_induced_hmm(source, model, "exact")
            assert (got.value, got.mode) == (want.value, want.mode)
            for n in (1000, 4099, 100_000):
                got = cross_entropy_mc(source, model, n, seed=k)
                want = xent_via_induced_hmm(source, model, "mc", n, seed=k)
                assert (got.value, got.std_error) == (want.value, want.std_error)

    def test_suffix_models_score_as_their_induced_hmm_by_gram_steps(self, reference_source):
        # the forward steps the induced HMM's point-mass alphas k symbols at a
        # time, so its per-step losses are the path's factors up to rounding,
        # at every length the test above checks
        models = random_suffix_models(reference_source)
        assert len(models) >= 60
        for k, (source, model) in enumerate(models):
            chain = induced_hmm(model)
            for n in (1000, 4099, 100_000):
                got = cross_entropy_mc(source, chain, n, seed=k)
                want = cross_entropy_mc(source, model, n, seed=k)
                assert got.value == pytest.approx(want.value, rel=1e-12)
                assert got.std_error == pytest.approx(want.std_error, rel=1e-12)

    def test_parity_model_scored_by_its_own_law(self, reference_source):
        flows, _ = product_chain_flows(
            reference_source.fmap.step_table, reference_source.fmap.start_state,
            reference_source.emit, PARITY_MODEL.fmap.step_table, 0)
        want = sum(-flow * math.log(PARITY_MODEL.emit[v, y])
                   for (_, v, y), flow in flows.items())
        exact = cross_entropy_exact_fsmx(reference_source, PARITY_MODEL)
        assert exact.value == pytest.approx(want, rel=1e-12)
        mc = cross_entropy_mc(reference_source, PARITY_MODEL, 100_000, seed=0)
        assert abs(mc.value - exact.value) <= 4 * mc.std_error
        # the induced-HMM reference scores a general map by another law
        assert abs(xent_via_induced_hmm(reference_source, PARITY_MODEL,
                                        "exact").value - want) > 0.5

    def test_zero_emit_on_the_path_is_infinite(self, reference_source):
        model = FsmxSource(reference_source.fmap,
                           np.array([[1.0, 0.0], [0.5, 0.5], [0.2, 0.8]]))
        assert cross_entropy_exact_fsmx(reference_source, model).value == math.inf
        got = cross_entropy_mc(reference_source, model, 2000, seed=0)
        assert got.value == math.inf and got.std_error is None

    def test_alphabet_mismatch_rejected(self, reference_source):
        model = FsmxSource(trivial_map(3), np.full((1, 3), 1 / 3))
        with pytest.raises(InputError, match="alphabet"):
            cross_entropy_exact_fsmx(reference_source, model)
        with pytest.raises(InputError, match="alphabet"):
            cross_entropy_mc(reference_source, model, 2000, seed=0)


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

    @pytest.mark.parametrize("data,message", [
        ([1, 2], "model file must be a JSON object"),
        ({"type": "hmm", "E": [[1.0]]}, "hmm model missing fields: ['T', 'initial']"),
        ({"type": "fsmx", "emit": [[1.0]]}, "fsmx model missing fields: ['map']"),
        ({"type": "fsmx", "emit": [[1.0]], "map": {"kind": "general-fsm", "states": 1,
                                                   "alphabet_size": True,
                                                   "start_state": 0, "psi": [[0]]}},
         "map description field 'alphabet_size' must be an integer, got True"),
    ])
    def test_malformed_model_refused_by_field(self, data, message):
        with pytest.raises(InputError) as err:
            model_from_json(data)
        assert str(err.value) == message

    def test_invalid_rows_rejected(self):
        with pytest.raises(InputError):
            Hmm(np.array([[0.5, 0.4], [0.5, 0.5]]),
                np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0]))
