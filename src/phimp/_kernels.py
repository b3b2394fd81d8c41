"""Hot inner loops, one plain NumPy/Python implementation each.

All kernels take plain int64/float64 arrays; wrapping, validation and RNG
live in the calling modules. Samplers consume pre-drawn uniforms and
pre-computed CDF rows, so a seed fixes every draw.
"""

from __future__ import annotations

import numpy as np

# read by the benchmark's metadata line; there is no jitted backend
NUMBA_ENABLED = False


def walk_states(step_table, start, symbols):
    # states[t] = state after consuming symbols[:t]; length n+1
    rows = step_table.tolist()
    s = int(start)
    states = [s]
    append = states.append
    for y in symbols.tolist():
        s = rows[s][y]
        append(s)
    return np.array(states, dtype=np.int64)


def count_path(step_table, start, drive, emit, n_states, n_emit):
    # transition counts over consecutive states, emission counts over the
    # state entered at t paired with emit[t]; drive and emit have equal length
    states = walk_states(step_table, start, drive)
    trans = np.bincount(states[:-1] * n_states + states[1:],
                        minlength=n_states * n_states)
    emis = np.bincount(states[1:] * n_emit + emit, minlength=n_states * n_emit)
    return trans.reshape(n_states, n_states), emis.reshape(n_states, n_emit)


def forward_nll_steps(transition, emission, initial, symbols):
    # out[t] = -log of the per-step normalizer; sum(out) = -log likelihood.
    # A zero normalizer floods the remaining steps with +inf.
    n = symbols.shape[0]
    out = np.empty(n, dtype=np.float64)
    alpha = initial.astype(np.float64)
    for t in range(n):
        alpha = (alpha @ transition) * emission[:, symbols[t]]
        norm = float(alpha.sum())
        if norm <= 0.0:
            out[t:] = np.inf
            return out
        alpha /= norm
        out[t] = -np.log(norm)
    return out


def sample_symbols(step_table, start, emit_cdf, u):
    # emit_cdf rows are cumulative distributions conditioned on the current
    # state; u holds pre-drawn uniforms, one per output symbol
    n = u.shape[0]
    n_symbols = emit_cdf.shape[1]
    out = np.empty(n, dtype=np.int64)
    s = start
    for t in range(n):
        ut = u[t]
        y = n_symbols - 1
        for k in range(n_symbols - 1):
            if ut < emit_cdf[s, k]:
                y = k
                break
        out[t] = y
        s = step_table[s, y]
    return out


def sample_hmm_symbols(transition_cdf, emission_cdf, start, u_state, u_emit):
    n = u_state.shape[0]
    n_states = transition_cdf.shape[1]
    n_symbols = emission_cdf.shape[1]
    out = np.empty(n, dtype=np.int64)
    s = start
    for t in range(n):
        us = u_state[t]
        nxt = n_states - 1
        for k in range(n_states - 1):
            if us < transition_cdf[s, k]:
                nxt = k
                break
        s = nxt
        ue = u_emit[t]
        y = n_symbols - 1
        for k in range(n_symbols - 1):
            if ue < emission_cdf[s, k]:
                y = k
                break
        out[t] = y
    return out


def rollout_steps(step_table, start, policy_cdf, pair_cdf, u_action, u_pair,
                  n_actions, n_rewards):
    # pair_cdf[s, a] is cumulative over joint (observation, reward) indices
    # o * n_rewards + r; the event symbol fed to the map is
    # (o * n_actions + a) * n_rewards + r
    n = u_action.shape[0]
    n_pairs = pair_cdf.shape[2]
    actions = np.empty(n, dtype=np.int64)
    observations = np.empty(n, dtype=np.int64)
    rewards = np.empty(n, dtype=np.int64)
    s = start
    for t in range(n):
        ua = u_action[t]
        a = n_actions - 1
        for k in range(n_actions - 1):
            if ua < policy_cdf[s, k]:
                a = k
                break
        up = u_pair[t]
        pair = n_pairs - 1
        for k in range(n_pairs - 1):
            if up < pair_cdf[s, a, k]:
                pair = k
                break
        o = pair // n_rewards
        r = pair % n_rewards
        event = (o * n_actions + a) * n_rewards + r
        s = step_table[s, event]
        actions[t] = a
        observations[t] = o
        rewards[t] = r
    return actions, observations, rewards


def match_positions(seq, pattern):
    # 1 where pattern starts at position t, over t = 0 .. n-m
    n = seq.shape[0]
    m = pattern.shape[0]
    k = n - m + 1
    hits = np.ones(k, dtype=bool)
    for j in range(m):
        hits &= seq[j:j + k] == pattern[j]
    return hits.astype(np.int64)
