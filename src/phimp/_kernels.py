"""Hot inner loops, one plain NumPy/Python implementation each.

All kernels take plain int64/float64 arrays or lists of rows; wrapping,
validation and RNG live in the calling modules.

Every sampler is one walk, ``sample_walk``: at each state it inverts one
pre-drawn uniform through that state's CDF row by binary search, then moves
to the state the draw leads to. A seed fixes every draw. Samplers with two
draws a step (the hidden state then the symbol, or the action then the
outcome) walk a two-phase chain whose second-phase states stand for the
first draw's result.

Counting has two forms with identical integer results: ``count_path`` walks
the state path symbol by symbol, and ``count_table`` counts a bounded-memory
map's steps from one bincount over the data's (L-gram, next symbol, emitted
symbol) cells.

The forward recursion steps about sqrt(n) blocks of sqrt(n) symbols in
lockstep, in two sweeps: one guesses each block's start by stepping the block
before from the uniform law, one steps every block from its guess. Where a
guess is off by more than rounding, the rest runs as the per-symbol loop (see
``forward_nll_steps``).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right

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


def gram_codes(symbols, m, base):
    # base-`base` code of every window symbols[t:t+m], t = 0 .. n-m (none
    # when m > n), oldest symbol most significant; the caller keeps base**m
    # within int64
    k = max(symbols.shape[0] - m + 1, 0)
    codes = symbols[:k].astype(np.int64)
    for j in range(1, m):
        codes *= base
        codes += symbols[j:j + k]
    return codes


def count_table(step_table, start, drive, emit, n_states, n_emit, span):
    # count_path's counts for a map whose state after any `span` symbols
    # depends only on them, with len(drive) > span: the first `span` steps
    # are walked, every later step is a cell (span-gram before it, its drive
    # symbol, its emit symbol) of one bincount, folded through the map
    trans, emis = count_path(step_table, start, drive[:span], emit[:span],
                             n_states, n_emit)
    n_drive = step_table.shape[1]
    cells = gram_codes(drive, span + 1, n_drive) * n_emit + emit[span:]
    table = np.bincount(cells)
    used = np.flatnonzero(table)
    counts = table[used]
    grams, symbol = np.divmod(used // n_emit, n_drive)
    # the state a gram leads to from any state, here from state 0
    prev = np.zeros(used.size, dtype=np.int64)
    for j in range(span - 1, -1, -1):
        prev = step_table[prev, grams // n_drive ** j % n_drive]
    nxt = step_table[prev, symbol]
    np.add.at(trans, (prev, nxt), counts)
    np.add.at(emis, (nxt, used % n_emit), counts)
    return trans, emis


# Each sweep keeps B rows of S floats; the block count is capped so B * S
# stays at most _BLOCK_FLOATS (128 kB an array).
_BLOCK_FLOATS = 1 << 14


def _step_blocks(alpha, transition, columns, symbols, norms):
    # steps alpha, one row (S,) or k rows (k, S), in lockstep along the last
    # axis of symbols, writing each step's normalizer to norms; returns the
    # end alpha. A zero normalizer leaves NaN in its row from then on.
    if not alpha.size:
        return alpha
    for j in range(symbols.shape[-1]):
        alpha = alpha @ transition
        alpha *= columns.take(symbols[..., j], axis=0)
        sums = alpha.sum(axis=-1, keepdims=True)
        norms[..., j] = sums[..., 0]
        alpha /= sums
    return alpha


def forward_nll_steps(transition, emission, initial, symbols):
    """Per-step negative log normalizers of the forward recursion.

    out[t] = -log of the step-t normalizer and sum(out) = -log likelihood; the
    first step whose normalizer is zero and every later step are +inf.

    The n steps are cut into B = ceil(n / L) blocks of L steps, L = isqrt(n)
    (longer when B * S would pass _BLOCK_FLOATS). Two sweeps step all blocks
    in lockstep, by alpha = (alpha @ T) * E[:, y] with each step's sum kept,
    so each Python loop runs over the L offsets within a block:

    1. Block 0 starts from ``initial`` and every later block but the last
       from the uniform law; the end each block reaches is a guess at the
       next block's start.
    2. Block 0 again from ``initial`` and every later block from the guess
       sweep 1 left in the block before; these sums are the output. The last
       block, which may be shorter, is stepped on its own.

    Sweep 2 steps each block the way the per-symbol loop does, from the true
    alpha as long as the filter forgets its start within one block. Where a
    block's sweep-2 end and its sweep-1 guess differ by more than rounding (an
    entry off by 1e-13 relative, or zero against nonzero), the steps after
    that block are redone as one block from the sweep-2 end, which is the loop
    itself. So the result follows the loop, +inf and subnormal rounding
    included, and costs at most two sweeps plus the loop. Extra memory is a
    few arrays of B * S floats; no per-step matrix or column is stored.
    """
    n = symbols.shape[0]
    n_states = transition.shape[0]
    max_blocks = max(1, _BLOCK_FLOATS // n_states)
    length = max(math.isqrt(n), -(-n // max_blocks), 1)
    full = max(-(-n // length) - 1, 0)  # blocks followed by another, each `length` steps
    grid = symbols[:full * length].reshape(full, length)
    norms = np.zeros(n)  # step normalizers; zero where never reached
    block_norms = norms[:full * length].reshape(full, length)
    columns = np.ascontiguousarray(emission.T, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        starts = np.full((full, n_states), 1.0 / n_states)
        starts[:1] = initial
        guesses = _step_blocks(starts, transition, columns, grid, block_norms)
        starts[1:] = guesses[:-1]
        ends = _step_blocks(starts, transition, columns, grid, block_norms)
        del starts  # B * S floats fewer at the check's peak
        _step_blocks(guesses[-1] if full else initial, transition, columns,
                     symbols[full * length:], norms[full * length:])
        # each block's end must match the guess the next block started from up
        # to rounding; from the first that does not, unless the loop died by
        # then, step the rest as one block
        differs = ~np.isclose(ends, guesses, rtol=1e-13, atol=0.0).all(axis=1)
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


def sample_walk(cdf_rows, step_rows, start, u):
    # one draw per uniform: at state s, draw k = the first index whose
    # cdf_rows[s] entry exceeds u[t] (the last index when none of the others
    # does), then move to step_rows[s][k]; rows are lists and may differ in
    # length. CDF rows never decrease, so bisect_right finds that k.
    rows = [row[:-1] for row in cdf_rows]
    draws = array("q")
    append = draws.append
    s = start
    for ut in memoryview(u):
        k = bisect_right(rows[s], ut)
        append(k)
        s = step_rows[s][k]
    return np.frombuffer(draws, dtype=np.int64)
