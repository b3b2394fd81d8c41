"""Hot inner loops, one plain NumPy/Python implementation each.

All kernels take plain int64/float64 arrays; wrapping, validation and RNG
live in the calling modules. Samplers consume pre-drawn uniforms and
pre-computed CDF rows, so a seed fixes every draw.

The forward recursion steps about sqrt(n) blocks of sqrt(n) symbols in
lockstep, in three phases: scaled block products, alpha at each block start,
per-step losses (see ``forward_nll_steps``). Above 32 hidden states it runs
one block, which is the per-symbol loop.
"""

from __future__ import annotations

import math

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


# Phase 1 keeps B * S^2 floats for the block products and spends S^3 flops a
# step on them. Block counts are capped so B * S^2 stays at most
# _BLOCK_FLOATS (512 kB); above _MAX_BLOCKED_STATES states the S^3 step costs
# more than the per-step NumPy overhead it saves, and the kernel runs one
# block, which is the plain forward loop.
_BLOCK_FLOATS = 1 << 16
_MAX_BLOCKED_STATES = 32


def _block_length(n, n_states):
    if n_states > _MAX_BLOCKED_STATES:
        return n
    max_blocks = max(1, _BLOCK_FLOATS // (n_states * n_states))
    return max(math.isqrt(n), -(-n // max_blocks))


def _step_blocks(alpha, transition, columns, symbols, norms):
    # steps alpha, one row (S,) or k rows (k, S), in lockstep along the last
    # axis of symbols, writing each step's normalizer to norms; returns the
    # end alpha. A zero normalizer leaves NaN in its row from then on.
    if not alpha.size:
        return alpha
    for j in range(symbols.shape[-1]):
        alpha = (alpha @ transition) * columns.take(symbols[..., j], axis=0)
        sums = alpha.sum(axis=-1, keepdims=True)
        norms[..., j] = sums[..., 0]
        alpha /= sums
    return alpha


def forward_nll_steps(transition, emission, initial, symbols):
    """Per-step negative log normalizers of the forward recursion.

    out[t] = -log of the step-t normalizer and sum(out) = -log likelihood; the
    first step whose normalizer is zero and every later step are +inf.

    The n steps are cut into B = ceil(n / L) blocks of L steps, L = isqrt(n)
    (longer when B * S^2 would pass _BLOCK_FLOATS, L = n above
    _MAX_BLOCKED_STATES states). Phases 1 and 3 loop over the L offsets
    within a block, each operation one NumPy call over all blocks at once;
    phase 2 loops over the B blocks:

    1. Block products in lockstep: P_b is the product of T * E[:, y] over
       block b's steps, for every block but the last. Each row is
       renormalized after every step and its log scale kept apart, so a row
       far below the others (the start state's, say) never underflows to zero.
    2. alpha at each block start, by one pass over the blocks:
       alpha_{b+1} is proportional to (alpha_b * exp(logscale_b)) @ P_b; the
       pass stops at the block in which every path dies.
    3. Per-step losses in lockstep: starting from those alphas, step all
       blocks by alpha = (alpha @ T) * E[:, y] and keep the sums; the last
       block, which may be shorter, is stepped on its own. With one block
       this is the plain per-symbol loop.

    A per-symbol loop rounds to zero a path that falls more than ~1e308 below
    alpha, and keeps only a few digits of one in the subnormal range, while
    the per-row scales of phase 1 keep both. Phase 3 steps each block the way
    the loop does, so where a block's end and the next block's start differ
    by more than rounding (an entry off by 1e-13 relative, or zero against
    nonzero), the steps after that block are redone as one block from the
    stepped alpha. The result follows the loop, +inf included, and costs at
    most the blocked pass plus the loop. Extra memory is O(B * S^2), at most
    a few times _BLOCK_FLOATS floats; no per-step matrix or column is stored.
    """
    n = symbols.shape[0]
    n_states = transition.shape[0]
    length = _block_length(max(n, 1), n_states)
    n_blocks = -(-n // length)
    full = max(n_blocks - 1, 0)  # blocks followed by another, each `length` steps
    grid = symbols[:full * length].reshape(full, length)
    norms = np.zeros(n)  # step normalizers; zero where never reached
    columns = np.ascontiguousarray(emission.T, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        # phase 1: per-row scaled products of every block but the last
        products = np.broadcast_to(np.eye(n_states), (full, n_states, n_states)).copy()
        log_scale = np.zeros((full, n_states))
        for j in range(length if full else 0):
            p = (products.reshape(-1, n_states) @ transition).reshape(full, n_states, n_states)
            p *= columns.take(grid[:, j], axis=0)[:, None, :]
            sums = p.sum(axis=2)
            log_scale += np.log(sums)
            p /= np.where(sums > 0.0, sums, 1.0)[:, :, None]
            products = p
        # phase 2: alpha at each block start; a zero row past the last live
        # block
        alphas = np.zeros((n_blocks + 1, n_states))
        alphas[0] = initial
        live = n_blocks
        for b in range(full):
            weights = np.log(alphas[b]) + log_scale[b]
            top = weights.max()
            if top == -np.inf:  # every path dies inside block b
                live = b + 1
                break
            alpha = np.exp(weights - top) @ products[b]
            alphas[b + 1] = alpha / alpha.sum()
        # phase 3: step the live blocks from their starts
        stop = min(live, full)
        ends = _step_blocks(alphas[:stop].copy(), transition, columns, grid[:stop],
                            norms[:stop * length].reshape(-1, length))
        if live == n_blocks:
            _step_blocks(alphas[full].copy(), transition, columns,
                         symbols[full * length:], norms[full * length:])
        # each block's end must match the next start up to rounding; from the
        # first that does not, unless the loop died by then, step the rest as
        # one block
        differs = ~np.isclose(ends, alphas[1:stop + 1], rtol=1e-13, atol=0.0).all(axis=1)
        if differs.any():
            b = int(differs.argmax())
            cut = (b + 1) * length
            if (norms[:cut] > 0.0).all():
                _step_blocks(ends[b], transition, columns, symbols[cut:], norms[cut:])
        dead = ~(norms > 0.0)  # a zero normalizer, or NaN after one
        out = np.negative(np.log(norms, out=norms), out=norms)
    if dead.any():
        out[int(dead.argmax()):] = np.inf
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
