"""The samplers and the state walk against the per-symbol loops they
replaced (``oracles``).

Tables are random with zero-probability entries, one state and one symbol
included; each case also pins one uniform to a CDF entry, where the pick rule
``u < cdf[k]`` decides a tie.
"""

from unittest import mock

import numpy as np

import oracles
from phimp import (Environment, FeatureMap, FsmxSource, Hmm, Policy,
                   policy_induced_chain, rollout, sample_fsmx, sample_hmm)
from phimp import _kernels
from phimp._kernels import (_CHUNK, _GRAM_CELLS, _block_length, count_pairs,
                            sample_walk, step_counts, walk_states)
from phimp.sources import rng_stream

LENGTHS = (1, 2, 3, 17, 300, 3000)


def stochastic_rows(rng, shape, first=None):
    """Random rows summing to 1 with about a third of the entries zero; with
    ``first`` given, every row's first entry is ``first``, so its CDF holds
    that value exactly."""
    rows = rng.dirichlet(np.ones(shape[-1]), shape[:-1])
    rows[rng.random(shape) < 0.3] = 0.0
    rows[..., -1] += rows.sum(axis=-1) == 0.0
    rows /= rows.sum(axis=-1, keepdims=True)
    if first is not None and shape[-1] > 1:
        rest = rows[..., 1:]
        rest[rest.sum(axis=-1) == 0.0] = 1.0
        rest *= (1.0 - first) / rest.sum(axis=-1, keepdims=True)
        rows[..., 0] = first
    return rows


def sizes(rng, trial):
    # one state and one symbol come up every few trials
    n_states = 1 if trial % 5 == 0 else int(rng.integers(1, 6))
    n_symbols = 1 if trial % 7 == 0 else int(rng.integers(1, 5))
    return n_states, n_symbols, LENGTHS[trial % len(LENGTHS)]


def test_sample_fsmx_matches_loop():
    rng = rng_stream(31)
    for trial in range(150):
        n_states, n_symbols, n = sizes(rng, trial)
        fmap = FeatureMap(kind="general-fsm", alphabet_size=n_symbols,
                          state_count=n_states, start_state=int(rng.integers(n_states)),
                          step_table=rng.integers(0, n_states, (n_states, n_symbols)))
        u = rng_stream(trial).random(n)
        # the first draw, made in the start state, ties with its CDF's first entry
        emit = stochastic_rows(rng, (n_states, n_symbols), first=u[0])
        source = FsmxSource(fmap, emit)
        want = oracles.sample_symbols(fmap.step_table, fmap.start_state,
                                      np.cumsum(source.emit, axis=1), u)
        assert np.array_equal(sample_fsmx(source, n, seed=trial).items, want)


def test_sample_hmm_matches_loop():
    rng = rng_stream(32)
    for trial in range(150):
        n_states, n_symbols, n = sizes(rng, trial)
        draws = rng_stream(trial)
        start_u = draws.random()
        u_state, u_emit = draws.random(n), draws.random(n)
        hmm = Hmm(transition=stochastic_rows(rng, (n_states, n_states), first=u_state[0]),
                  emission=stochastic_rows(rng, (n_states, n_symbols), first=u_emit[0]),
                  initial=stochastic_rows(rng, (n_states,)))
        start = min(int(np.searchsorted(np.cumsum(hmm.initial), start_u, side="right")),
                    n_states - 1)
        want = oracles.sample_hmm_symbols(np.cumsum(hmm.transition, axis=1),
                                          np.cumsum(hmm.emission, axis=1),
                                          start, u_state, u_emit)
        assert np.array_equal(sample_hmm(hmm, n, seed=trial).items, want)


def random_environment(rng, trial, u_action, u_pair):
    n_states = 1 if trial % 5 == 0 else int(rng.integers(1, 5))
    actions, observations, rewards = (int(v) for v in rng.integers(1, 4, 3))
    events = observations * actions * rewards
    # the state is a function of the last event, so memory is bounded
    table = np.tile(rng.integers(0, n_states, events), (n_states, 1))
    event_map = FeatureMap(kind="general-fsm", alphabet_size=events,
                           state_count=n_states, start_state=int(rng.integers(n_states)),
                           step_table=table)
    env = Environment(actions, observations, rewards, event_map,
                      stochastic_rows(rng, (n_states, actions, observations * rewards),
                                      first=u_pair))
    return env, Policy(stochastic_rows(rng, (n_states, actions), first=u_action))


def assert_rollout_matches_loop(env, policy, n, seed):
    draws = rng_stream(seed)
    u_action, u_pair = draws.random(n), draws.random(n)
    want = oracles.rollout_steps(
        env.event_map.step_table, env.event_map.start_state,
        np.cumsum(policy.probs, axis=1), np.cumsum(env.emissions, axis=2),
        u_action, u_pair, env.action_count, env.reward_count)
    got = rollout(env, policy, n, seed=seed)
    for have, expected in zip((got.actions, got.observations, got.rewards), want):
        assert np.array_equal(have, expected)


def many_action_environment(rng, n_states, actions, observations, rewards, u_action, u_pair):
    """A random environment whose per-state policy rows differ, so the union
    of the action cuts holds more than one cut."""
    events = observations * actions * rewards
    event_map = FeatureMap(kind="general-fsm", alphabet_size=events, state_count=n_states,
                           start_state=0, step_table=np.tile(rng.integers(0, n_states, events),
                                                             (n_states, 1)))
    env = Environment(actions, observations, rewards, event_map,
                      stochastic_rows(rng, (n_states, actions, observations * rewards),
                                      first=u_pair))
    probs = rng.dirichlet(np.ones(actions), n_states)
    probs[0, 0] = u_action  # the first action draw ties with a cut
    probs[0, 1:] *= (1.0 - u_action) / probs[0, 1:].sum()
    assert np.unique(np.cumsum(probs, axis=1)[:, :-1]).size > 1
    return env, Policy(probs)


def test_rollout_matches_loop():
    rng = rng_stream(33)
    for trial in range(150):
        n = LENGTHS[trial % len(LENGTHS)]
        draws = rng_stream(trial)
        env, policy = random_environment(rng, trial, *draws.random((2, n))[:, 0])
        assert_rollout_matches_loop(env, policy, n, seed=trial)
    walks = []
    walk_blocks = _kernels._walk_blocks

    def recording(*args):
        walks.append(args[2])
        return walk_blocks(*args)

    # 3 states, 3 actions and 4 outcomes: at most 3 * 7 * 28 event cells.
    # One to three events pass that table, so they are binary searches; two
    # chunks and five events walk the table
    for n in (1, 2, 3, 2 * _CHUNK + 5):
        draws = rng_stream(n)
        env, policy = many_action_environment(rng, 3, 3, 2, 2, *draws.random((2, n))[:, 0])
        del walks[:]
        with mock.patch.object(_kernels, "_walk_blocks", recording):
            assert_rollout_matches_loop(env, policy, n, seed=n)
        assert walks == ([n] if n > 3 * 7 * 28 else [])
    # 40 states with their own action and outcome cuts: the table would pass
    # _GRAM_CELLS, so every draw past a chunk is a binary search
    draws = rng_stream(40)
    env, policy = many_action_environment(rng, 40, 3, 2, 3, *draws.random((2, 2 * _CHUNK + 5))[:, 0])
    with mock.patch.object(_kernels, "_walk_blocks", side_effect=AssertionError):
        assert_rollout_matches_loop(env, policy, 2 * _CHUNK + 5, seed=40)


def test_policy_induced_chain_matches_loop():
    rng = rng_stream(34)
    for trial in range(150):
        env, policy = random_environment(rng, trial, 0.5, 0.5)
        assert np.array_equal(policy_induced_chain(env, policy),
                              oracles.policy_induced_chain_loop(env, policy))


def test_walk_picks_as_the_loop_at_ties_and_past_a_short_cdf():
    # ten masses of 0.1 sum to 1 - 2**-53, so a uniform above that falls past
    # every entry and takes the last index by default; zero masses repeat an
    # entry, and a uniform equal to an entry must skip every copy of it
    emit = np.array([[0.1] * 10,
                     [0.0, 0.25, 0.0, 0.0, 0.25, 0.5, 0.0, 0.0, 0.0, 0.0]])
    cdf = np.cumsum(emit, axis=1)
    assert cdf[0, -1] < 1.0
    step_table = np.array([[1] * 10, [0] * 10])
    # the walk alternates states 0 and 1, so draws 20 and 22 are made in state 0
    u = np.concatenate([cdf.ravel(), [np.nextafter(1.0, 0.0), 0.0, cdf[0, -1]],
                        rng_stream(35).random(200)])
    want = oracles.sample_symbols(step_table, 0, cdf, u)
    [got] = sample_walk([cdf.tolist()], [step_table.tolist()], 0, u[None])
    assert np.array_equal(got, want)
    assert got[20] == got[22] == 9


# The block walks (``_kernels._walk_blocks``) past their block and chunk
# boundaries: every state and every draw must equal the per-symbol loops.

def boundary_lengths(n_symbols, n_states):
    """0, 1, L - 1, L, L + 1, chunk - 1, chunk, chunk + 1 and 3 chunks + 5,
    for the block length L of a walk long enough to fill the table."""
    length = _block_length(n_symbols, n_states, _GRAM_CELLS)
    chunk = _CHUNK // length * length
    return sorted({0, 1, length - 1, length, length + 1,
                   chunk - 1, chunk, chunk + 1, 3 * chunk + 5})


def walked_maps(rng):
    """Random general maps, one state and one symbol included, and the
    permutation automata that count 1s mod 2 and mod 3."""
    maps = [np.array([[s, (s + 1) % k] for s in range(k)]) for k in (2, 3)]
    maps += [np.zeros((1, 1), dtype=np.int64), np.zeros((1, 3), dtype=np.int64),
             rng.integers(0, 4, (4, 1))]
    for _ in range(8):
        n_states, n_symbols = (int(v) for v in rng.integers(1, 7, 2))
        maps.append(rng.integers(0, n_states, (n_states, n_symbols)))
    return maps


def test_walk_states_matches_loop_across_blocks_and_chunks():
    rng = rng_stream(36)
    for step_table in walked_maps(rng):
        n_states, n_symbols = step_table.shape
        start = int(rng.integers(n_states))
        for n in boundary_lengths(n_symbols, n_states):
            symbols = rng.integers(0, n_symbols, n)
            want = oracles.walk_states_before(step_table, start, symbols)
            assert np.array_equal(walk_states(step_table, start, symbols), want)
        # a strided view walks as its copy does
        symbols = rng.integers(0, n_symbols, 2 * _CHUNK + 7)[::2]
        assert np.array_equal(walk_states(step_table, start, symbols),
                              oracles.walk_states_before(step_table, start, symbols))


def test_feature_map_walk_and_counts_match_loop_past_a_chunk():
    rng = rng_stream(37)
    fmap = FeatureMap(kind="general-fsm", alphabet_size=3, state_count=5, start_state=2,
                      step_table=rng.integers(0, 5, (5, 3)))
    symbols = rng.integers(0, 3, 40_000)
    states = oracles.walk_states_before(fmap.step_table, 2, symbols)
    assert np.array_equal(fmap.walk(symbols), states)
    trans, emis = step_counts(fmap.step_table, count_pairs(fmap.step_table, 2, symbols), 3)
    want_trans = np.zeros((5, 5), dtype=np.int64)
    np.add.at(want_trans, (states[:-1], states[1:]), 1)
    want_emis = np.zeros((5, 3), dtype=np.int64)
    np.add.at(want_emis, (states[1:], symbols), 1)
    assert np.array_equal(trans, want_trans) and np.array_equal(emis, want_emis)


def test_block_length_fits_the_table_cap():
    for n_symbols in range(1, 7):
        for n_states in (1, 2, 3, 7, 50, 200, 20_000):
            for n in (0, 1, 3, 17, 1000, _GRAM_CELLS - 1, _GRAM_CELLS, 10 ** 6):
                limit = min(_GRAM_CELLS, n)
                length = _block_length(n_symbols, n_states, n)
                base = max(n_symbols, 2)
                assert length == 1 or base ** length * n_states <= limit
                assert base ** (length + 1) * n_states > limit


def test_walks_build_no_table_past_the_cap():
    rng = rng_stream(38)
    built = []
    gram_steps = _kernels._gram_steps

    def recording(step_table, length):
        grams = gram_steps(step_table, length)
        built.append((length, len(grams), step_table.size))
        return grams

    with mock.patch.object(_kernels, "_gram_steps", recording):
        for step_table in walked_maps(rng):
            n_states, n_symbols = step_table.shape
            for n in (3, 100, 40_000):
                del built[:]
                walk_states(step_table, 0, rng.integers(0, n_symbols, n))
                [(length, size, one_step)] = built
                # a length-1 table is the step table itself
                assert size <= min(_GRAM_CELLS, n) or (length == 1 and size == one_step)


def test_sample_fsmx_matches_loop_past_a_chunk():
    rng = rng_stream(39)
    for trial in range(4):
        n_states, n_symbols = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        fmap = FeatureMap(kind="general-fsm", alphabet_size=n_symbols,
                          state_count=n_states, start_state=0,
                          step_table=rng.integers(0, n_states, (n_states, n_symbols)))
        u = rng_stream(trial).random(40_000)
        source = FsmxSource(fmap, stochastic_rows(rng, (n_states, n_symbols), first=u[0]))
        want = oracles.sample_symbols(fmap.step_table, 0, np.cumsum(source.emit, axis=1), u)
        assert np.array_equal(sample_fsmx(source, 40_000, seed=trial).items, want)


def test_sample_hmm_matches_loop_past_a_chunk():
    rng = rng_stream(40)
    for trial in range(4):
        n_states, n_symbols = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        draws = rng_stream(trial)
        start_u = draws.random()
        u_state, u_emit = draws.random(40_000), draws.random(40_000)
        hmm = Hmm(transition=stochastic_rows(rng, (n_states, n_states), first=u_state[0]),
                  emission=stochastic_rows(rng, (n_states, n_symbols), first=u_emit[0]),
                  initial=stochastic_rows(rng, (n_states,)))
        start = min(int(np.searchsorted(np.cumsum(hmm.initial), start_u, side="right")),
                    n_states - 1)
        want = oracles.sample_hmm_symbols(np.cumsum(hmm.transition, axis=1),
                                          np.cumsum(hmm.emission, axis=1),
                                          start, u_state, u_emit)
        assert np.array_equal(sample_hmm(hmm, 40_000, seed=trial).items, want)


def test_wide_hmm_samples_by_its_two_phase_chain():
    # 12 hidden states with distinct rows: the (state, event) table would hold
    # 12 * 133 * 13 entries, past the cap, but the two phases as one chain of
    # 24 states over 145 cells fit it, so that chain is block-walked, one
    # uniform a phase a step
    rng = rng_stream(43)
    n_states, n = 12, 40_000
    draws = rng_stream(0)
    start_u = draws.random()
    u_state, u_emit = draws.random(n), draws.random(n)
    hmm = Hmm(transition=rng.dirichlet(np.ones(n_states), n_states),
              emission=rng.dirichlet(np.ones(2), n_states),
              initial=np.full(n_states, 1.0 / n_states))
    cells = [np.unique(np.cumsum(rows, axis=1)[:, :-1]).size + 1
             for rows in (hmm.transition, hmm.emission)]
    assert n_states * cells[0] * cells[1] > _GRAM_CELLS
    start = min(int(np.searchsorted(np.cumsum(hmm.initial), start_u, side="right")),
                n_states - 1)
    want = oracles.sample_hmm_symbols(np.cumsum(hmm.transition, axis=1),
                                      np.cumsum(hmm.emission, axis=1),
                                      start, u_state, u_emit)
    walks = []
    walk_blocks = _kernels._walk_blocks

    def recording(*args):
        walks.append((args[0].shape[0], args[2]))
        return walk_blocks(*args)

    with mock.patch.object(_kernels, "_walk_blocks", recording):
        assert np.array_equal(sample_hmm(hmm, n, seed=0).items, want)
    assert walks == [(2 * n_states, 2 * n)]


def test_rollout_matches_loop_past_a_chunk():
    rng = rng_stream(41)
    for trial in range(1, 5):
        draws = rng_stream(trial)
        u_action, u_pair = draws.random(40_000), draws.random(40_000)
        env, policy = random_environment(rng, trial, u_action[0], u_pair[0])
        want = oracles.rollout_steps(
            env.event_map.step_table, env.event_map.start_state,
            np.cumsum(policy.probs, axis=1), np.cumsum(env.emissions, axis=2),
            u_action, u_pair, env.action_count, env.reward_count)
        got = rollout(env, policy, 40_000, seed=trial)
        for have, expected in zip((got.actions, got.observations, got.rewards), want):
            assert np.array_equal(have, expected)


def test_deep_source_samples_by_the_loop():
    # 130 states with distinct cuts make 131 cells, so the (state, cell) table
    # would pass the cap; the sampler keeps the per-step binary search
    rng = rng_stream(42)
    n_states = 130
    fmap = FeatureMap(kind="general-fsm", alphabet_size=2, state_count=n_states,
                      start_state=0, step_table=rng.integers(0, n_states, (n_states, 2)))
    u = rng_stream(0).random(40_000)
    source = FsmxSource(fmap, rng.dirichlet(np.ones(2), n_states))
    cells = np.unique(np.cumsum(source.emit, axis=1)[:, :-1]).size + 1
    assert n_states * cells > _GRAM_CELLS
    want = oracles.sample_symbols(fmap.step_table, 0, np.cumsum(source.emit, axis=1), u)
    with mock.patch.object(_kernels, "_gram_steps", side_effect=AssertionError):
        assert np.array_equal(sample_fsmx(source, 40_000, seed=0).items, want)
