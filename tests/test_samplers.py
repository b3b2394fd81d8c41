"""The samplers against the per-symbol loops they replaced (``oracles``).

Tables are random with zero-probability entries, one state and one symbol
included; each case also pins one uniform to a CDF entry, where the pick rule
``u < cdf[k]`` decides a tie.
"""

import numpy as np

import oracles
from phimp import (Environment, FeatureMap, FsmxSource, Hmm, Policy,
                   policy_induced_chain, rollout, sample_fsmx, sample_hmm)
from phimp._kernels import sample_walk
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


def test_rollout_matches_loop():
    rng = rng_stream(33)
    for trial in range(150):
        n = LENGTHS[trial % len(LENGTHS)]
        draws = rng_stream(trial)
        u_action, u_pair = draws.random(n), draws.random(n)
        env, policy = random_environment(rng, trial, u_action[0], u_pair[0])
        want = oracles.rollout_steps(
            env.event_map.step_table, env.event_map.start_state,
            np.cumsum(policy.probs, axis=1), np.cumsum(env.emissions, axis=2),
            u_action, u_pair, env.action_count, env.reward_count)
        got = rollout(env, policy, n, seed=trial)
        for have, expected in zip((got.actions, got.observations, got.rewards), want):
            assert np.array_equal(have, expected)


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
    got = sample_walk(cdf.tolist(), step_table.tolist(), 0, u)
    assert np.array_equal(got, want)
    assert got[20] == got[22] == 9
