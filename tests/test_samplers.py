"""The samplers and the state walk against the per-symbol loops they
replaced (``oracles``).

Tables are random with zero-probability entries, one state and one symbol
included; each case also pins one uniform to a CDF entry, where the pick rule
``u < cdf[k]`` decides a tie.
"""

import itertools
from unittest import mock

import numpy as np

import oracles
from phimp import (Alphabet, Environment, FeatureMap, FsmxSource, Hmm, Policy, SuffixSet,
                   compile_suffix_map, enumerate_closed_suffix_maps, memory_bound,
                   policy_induced_chain, rollout, sample_fsmx, sample_hmm)
from phimp import _kernels, active
from phimp._kernels import (_CHUNK, _GRAM_CELLS, _GUIDE, _block_length, count_pairs,
                            sample_walk, step_counts, walk_states)
from phimp.fmaps import MemoryBoundReport
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
        bound = memory_bound(FeatureMap(kind="general-fsm", alphabet_size=n_symbols,
                                        state_count=n_states, start_state=start,
                                        step_table=step_table))
        # block-walked, and gathered where the map's window fits
        windows = {None, bound.kappa + 1 if bound.bounded else None}
        for n in boundary_lengths(n_symbols, n_states):
            symbols = rng.integers(0, n_symbols, n)
            want = oracles.walk_states_before(step_table, start, symbols)
            for window in windows:
                assert np.array_equal(walk_states(step_table, start, symbols, window), want)
        # a strided view walks as its copy does
        symbols = rng.integers(0, n_symbols, 2 * _CHUNK + 7)[::2]
        for window in windows:
            assert np.array_equal(walk_states(step_table, start, symbols, window),
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
            fmap = FeatureMap(kind="general-fsm", alphabet_size=n_symbols,
                              state_count=n_states, start_state=0, step_table=step_table)
            bound = memory_bound(fmap)
            for n in (3, 100, 40_000, 200_000):
                del built[:]
                fmap.walk(rng.integers(0, n_symbols, n))
                # one table: the window's gram table, or the block walk's, so
                # an unbounded map builds its L-gram table once
                [(length, size, one_step)] = built
                assert length in (bound.kappa + 1 if bound.bounded else None,
                                  _block_length(n_symbols, n_states, n))
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


# Walks that skip what the symbols decide. Where the state after any w
# symbols depends on them alone (w = kappa + 1, ``memory_bound``) and w is at
# most the block length, a walk is one gather past its first w - 1 symbols; a
# block whose gram leads every state to one state ends there without a Python
# step (``_kernels._fixed_ends``).

def suffix_table(size, members):
    return compile_suffix_map(SuffixSet(Alphabet(size), tuple(members))).step_table


def synchronizing_cases(rng):
    """(step table, start state) pairs: suffix maps of depth 1-4 over 2 and 3
    symbols; random tables with a merging column (one symbol leads every
    state to one state) and without one; permutation tables; and tables
    started in a transient state that no symbol leads back to."""
    cases = []
    for size in (2, 3):
        for depth in range(1, 5):
            table = suffix_table(size, itertools.product(range(size), repeat=depth))
            cases.append((table, int(rng.integers(table.shape[0]))))
    for size, depth in ((2, 3), (2, 4), (3, 2), (3, 3)):
        maps = [m for m in enumerate_closed_suffix_maps(Alphabet(size), depth)
                if max(map(len, m.suffixes)) == depth]
        for i in rng.choice(len(maps), 2, replace=False):
            cases.append((maps[i].step_table, int(rng.integers(maps[i].state_count))))
    while len(cases) < 24:
        n_states, n_symbols = (int(v) for v in rng.integers(2, 6, 2))
        table = rng.integers(0, n_states, (n_states, n_symbols))
        merging = (table == table[:1]).all(axis=0).any()
        if merging == (len(cases) % 2 == 0):
            cases.append((table, int(rng.integers(n_states))))
    for n_states, n_symbols in ((2, 2), (3, 2), (5, 3)):
        table = rng.permuted(np.tile(np.arange(n_states), (n_symbols, 1)), axis=1).T
        cases.append((table, int(rng.integers(n_states))))
    # state 3 is never entered: once with a merging column, once with none
    merging = np.vstack([rng.integers(0, 3, (3, 2)), [[0, 1]]])
    merging[:, 1] = 2
    cases.append((merging, 3))
    cases.append((np.vstack([[[1, 2], [2, 0], [0, 1]], [[2, 2]]]), 3))
    return cases


def test_synchronized_walks_and_counts_match_loop():
    rng = rng_stream(44)
    windows = set()
    for step_table, start in synchronizing_cases(rng):
        n_states, n_symbols = step_table.shape
        length = _block_length(n_symbols, n_states, _GRAM_CELLS)
        fmap = FeatureMap(kind="general-fsm", alphabet_size=n_symbols, state_count=n_states,
                          start_state=start, step_table=step_table)
        bound = memory_bound(fmap)
        assert bound == MemoryBoundReport(
            *oracles.memory_oracle(step_table, n_symbols, length - 1))
        window = bound.kappa + 1 if bound.bounded else 1
        windows.add(window)
        chunk = _CHUNK // length * length
        for n in sorted({1, window - 1, window, window + 1, length - 1, length, length + 1,
                         chunk - 1, chunk, chunk + 1}):
            symbols = rng.integers(0, n_symbols, n)
            states = oracles.walk_states_before(step_table, start, symbols)
            assert np.array_equal(fmap.walk(symbols), states)
            want = oracles.count_path(step_table, start, symbols, symbols, n_states, n_symbols)
            got = step_counts(step_table, count_pairs(step_table, start, symbols), n_symbols)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert windows >= {1, 2, 3, 4}


def test_walks_take_the_route_their_table_decides():
    rng = rng_stream(45)
    codes, marks = [], []
    gram_codes, fixed_ends = _kernels.gram_codes, _kernels._fixed_ends

    def coding(symbols, m, base):
        codes.append(m)
        return gram_codes(symbols, m, base)

    def marking(grams, n_states):
        marks.append(fixed_ends(grams, n_states))
        return marks[-1]

    # the depth-1 model map of the Monte-Carlo cross-entropy: a window of 1,
    # one gather, no block walk
    model = compile_suffix_map(SuffixSet(Alphabet(2), ((0,), (1,))))
    symbols = rng.integers(0, 2, 40_000)
    with mock.patch.object(_kernels, "gram_codes", coding), \
            mock.patch.object(_kernels, "_walk_blocks", side_effect=AssertionError):
        assert np.array_equal(model.walk(symbols),
                              oracles.walk_states_before(model.step_table, 0, symbols))
    assert codes == [1]
    # the reference source's sampler marks some of its 6-gram cells, and some
    # of the sample's blocks fall on them
    fmap = suffix_table(2, ((0,), (0, 1), (1, 1)))
    source = FsmxSource(FeatureMap(kind="general-fsm", alphabet_size=2, state_count=3,
                                   start_state=0, step_table=fmap),
                        np.array([[0.8, 0.2], [0.5, 0.5], [0.2, 0.8]]))
    u = rng_stream(0).random(40_000)
    cdf = np.cumsum(source.emit, axis=1)
    with mock.patch.object(_kernels, "_fixed_ends", marking):
        assert np.array_equal(sample_fsmx(source, 40_000, seed=0).items,
                              oracles.sample_symbols(fmap, 0, cdf, u))
    [ends] = marks
    length = _block_length(4, 3, 40_000)
    assert ends.size == 4 ** length and 0 < (ends >= 0).sum() < ends.size
    cells = np.searchsorted(np.unique(cdf[:, :-1]), u, side="right")
    blocks = cells[:cells.size // length * length].reshape(-1, length)
    assert (ends.take(blocks @ 4 ** np.arange(length - 1, -1, -1)) >= 0).any()
    # ones-mod-2 and ones-mod-3: no window and no marked gram
    for k in (2, 3):
        table = np.array([[s, (s + 1) % k] for s in range(k)])
        del marks[:]
        with mock.patch.object(_kernels, "_fixed_ends", marking), \
                mock.patch.object(_kernels, "gram_codes", side_effect=AssertionError):
            assert np.array_equal(walk_states(table, 1, symbols),
                                  oracles.walk_states_before(table, 1, symbols))
            got = step_counts(table, count_pairs(table, 1, symbols), 2)
        want = oracles.count_path(table, 1, symbols, symbols, k, 2)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert marks and all((m < 0).all() for m in marks)


def test_windows_past_the_block_length_are_block_walked():
    # the run-length map of depth 16 has w = 16, more than any block length
    # its 17 states allow, so no walk gathers from its 16-grams
    fmap = compile_suffix_map(SuffixSet(Alphabet(2), [(1,) + (0,) * k for k in range(16)]
                                        + [(0,) * 16]))
    assert memory_bound(fmap) == MemoryBoundReport(bounded=True, kappa=15)
    length = _block_length(2, 17, _GRAM_CELLS)
    assert length < 16
    rng = rng_stream(46)
    for n in (15, 16, 17, length, _CHUNK - 1, _CHUNK + 1):
        # mostly 0s, so runs of 16 and more occur
        symbols = (rng.random(n) < 0.1).astype(np.int64)
        with mock.patch.object(_kernels, "gram_codes", side_effect=AssertionError):
            assert np.array_equal(fmap.walk(symbols),
                                  oracles.walk_states_before(fmap.step_table,
                                                             fmap.start_state, symbols))


# Guide cells (``_kernels._guide``): a uniform whose bucket of [0, 1) holds
# no cut reads its cell off the guide; every other uniform is searched.

def edge_uniforms(cdf, rng, n):
    """Every bucket edge, every cut, the neighbours of each cut, 0.0 and
    nextafter(1, 0), between random uniforms, n in all."""
    cuts = np.unique(cdf[..., :-1])
    pinned = np.concatenate([np.arange(_GUIDE) / _GUIDE, cuts, np.nextafter(cuts, 0.0),
                             np.nextafter(cuts, 1.0), [0.0, np.nextafter(1.0, 0.0)]])
    u = rng.random(n)
    u[rng.choice(n, pinned.size, replace=False)] = pinned
    return u


def test_guide_cells_match_the_loop_at_edges_and_cuts():
    rng = rng_stream(46)
    # cuts on bucket edges; three cuts inside one bucket, two of them 1e-9
    # apart; and a zero mass, so one row repeats a cut
    emit = np.array([[0.25, 0.25, 0.25, 0.25],
                     [0.3, 1e-9, 1e-9, 0.7 - 2e-9],
                     [0.5, 0.0, 0.25, 0.25]])
    cdf = np.cumsum(emit, axis=1)
    cuts = np.unique(cdf[:, :-1])
    guide = _kernels._guide(cuts)
    lower = np.searchsorted(cuts, np.arange(_GUIDE) / _GUIDE, side="right")
    inside = np.floor(cuts * _GUIDE)[cuts * _GUIDE % 1 > 0].astype(np.int64)
    assert np.array_equal(guide[:-1] < 0, np.isin(np.arange(_GUIDE), inside))
    assert np.array_equal(guide[:-1][guide[:-1] >= 0], lower[guide[:-1] >= 0])
    assert guide[-1] == -1 and guide[int(0.3 * _GUIDE)] == -1 and guide[_GUIDE // 4] >= 0
    step_table = rng.integers(0, 3, (3, 4))
    u = edge_uniforms(cdf, rng, 3 * _GUIDE)
    want = oracles.sample_symbols(step_table, 1, cdf, u)
    with mock.patch.object(_kernels, "_cells", wraps=_kernels._cells) as cells:
        [got] = sample_walk([cdf.tolist()], [step_table.tolist()], 1, u[None])
    assert cells.called and np.array_equal(got, want)


def test_guide_cells_match_the_loop_outside_the_unit_interval():
    rng = rng_stream(47)
    emit = np.array([[0.0, 0.25, 0.75], [0.5, 0.5, 0.0]])
    cdf = np.cumsum(emit, axis=1)
    step_table = np.array([[1, 0, 1], [0, 1, 0]])
    u = edge_uniforms(cdf, rng, 2 * _GUIDE)
    # each value 20 times, so that it is drawn in both states; -1e-300 falls
    # below the cut at 0.0 and is in the cell below it
    outside = np.repeat([-0.5, -1e-300, -0.0, 1.0, 1.5, np.inf, -np.inf, np.nan], 20)
    u[rng.choice(u.size, outside.size, replace=False)] = outside
    want = oracles.sample_symbols(step_table, 0, cdf, u)
    [got] = sample_walk([cdf.tolist()], [step_table.tolist()], 0, u[None])
    assert np.array_equal(got, want)


class FixedUniforms:
    """A stand-in for the rollout's random stream that hands out set uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        assert shape == self.u.shape
        return self.u


def test_guide_cells_match_the_rollout_loop_at_edges_and_cuts():
    rng = rng_stream(48)
    actions, observations, rewards = 3, 2, 2
    events = actions * observations * rewards
    event_map = FeatureMap(kind="general-fsm", alphabet_size=events, state_count=3,
                           start_state=2, step_table=np.tile(rng.integers(0, 3, events), (3, 1)))
    probs = np.array([[0.25, 0.25, 0.5], [0.5, 0.25, 0.25], [0.25, 0.5, 0.25]])
    emissions = np.array([[[0.25] * 4, [0.3, 1e-9, 1e-9, 0.7 - 2e-9], [0.5, 0.0, 0.25, 0.25]],
                          [[0.75, 0.0, 0.0, 0.25], [0.25] * 4, [0.1] * 3 + [0.7]],
                          [[0.5, 0.25, 0.25, 0.0], [0.3, 0.3, 0.2, 0.2], [0.25] * 4]])
    env = Environment(actions, observations, rewards, event_map, emissions)
    n = 3 * _GUIDE
    u = np.stack([edge_uniforms(np.cumsum(probs, axis=1), rng, n),
                  edge_uniforms(np.cumsum(emissions, axis=2), rng, n)])
    want = oracles.rollout_steps(event_map.step_table, 2, np.cumsum(probs, axis=1),
                                 np.cumsum(emissions, axis=2), *u, actions, rewards)
    with mock.patch.object(active, "rng_stream", lambda seed: FixedUniforms(u)), \
            mock.patch.object(_kernels, "_cells", wraps=_kernels._cells) as cells:
        got = rollout(env, Policy(probs), n, seed=0)
    assert cells.call_count > 0
    for have, expected in zip((got.actions, got.observations, got.rewards), want):
        assert np.array_equal(have, expected)
