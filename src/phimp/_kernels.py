"""Hot inner loops, one plain NumPy/Python implementation each.

All kernels take plain int64/float64 arrays or lists of rows; wrapping,
validation and RNG live in the calling modules.

A state walk is a block walk (``_walk_blocks``): one Python step per block
of L symbols through a table of every L-gram's composed step, then L - 1
vector gathers fill in the states inside the blocks, a chunk at a time.

Every sampler is one walk, ``sample_walk``: at each state it inverts one
pre-drawn uniform through that state's CDF row, then moves to the state the
draw leads to. Each uniform is cut to its cell among the sorted union of every
row's cuts, the cells are block-walked as symbols, and each draw is read from
a (state, cell) table, so the draws equal a binary search per step. A seed
fixes every draw. Samplers with two draws a step (the hidden state then the
symbol, or the action then the outcome) walk a two-phase chain whose
second-phase states stand for the first draw's result.

Counting has two forms with identical integer results: ``count_path`` counts
along the walked state path, and ``count_table`` folds a bounded-memory map's
steps from the counts of the data's (L-gram, next symbol, emitted symbol)
cells, which ``cell_counts`` takes once for every prefix length asked for and
``cell_index`` maps to one map's transitions and emissions.

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


# A block walk reads a table of every L-gram's composed step, at most
# _GRAM_CELLS entries, and works through _CHUNK symbols at a time, so one
# chunk's temporaries stay at 64 kB an array.
_GRAM_CELLS = 1 << 14
_CHUNK = 1 << 13


def _block_length(n_symbols, n_states, n):
    # the largest L >= 1 with n_symbols**L * n_states <= min(_GRAM_CELLS, n);
    # one symbol is sized as two, so L stays finite
    limit = min(_GRAM_CELLS, n)
    base = max(n_symbols, 2)
    length = 1
    while base ** (length + 1) * n_states <= limit:
        length += 1
    return length


def _gram_steps(step_table, length):
    # entry g * S + s: the state that the `length`-gram with code g (oldest
    # symbol most significant) leads to from state s; one gather a symbol
    n_states = step_table.shape[0]
    grams = step_table.T
    for _ in range(length - 1):
        grams = step_table[grams].transpose(0, 2, 1).reshape(-1, n_states)
    return grams.ravel().tolist()


def _walk_blocks(step_table, start, n, symbols_at):
    # walks n symbols, read a chunk at a time as symbols_at(lo, hi), and
    # yields (lo, symbols, path) per chunk with path[t] the state before
    # symbols[t] and path[-1] the state after the chunk; path is reused.
    # Each block of L symbols is one Python step through the L-gram table,
    # then L - 1 gathers over the chunk's blocks fill in the states inside;
    # the last n mod L symbols are stepped one by one.
    n_states, n_symbols = step_table.shape
    length = _block_length(n_symbols, n_states, n)
    grams = _gram_steps(step_table, length)
    steps = step_table.ravel()
    weights = n_symbols ** np.arange(length - 1, -1, -1) * n_states
    chunk = _CHUNK // length * length
    buffer = np.empty(chunk + 1, dtype=np.int64)
    s = start
    for lo in range(0, n, chunk):
        symbols = symbols_at(lo, min(lo + chunk, n))
        path = buffer[:symbols.shape[0] + 1]
        full = symbols.shape[0] // length
        blocks = symbols[:full * length].reshape(full, length)
        starts = [s]
        append = starts.append
        for key in (blocks @ weights).tolist():
            s = grams[key + s]
            append(s)
        path[:full * length + 1:length] = starts
        inner = path[:full * length].reshape(full, length)
        for j in range(1, length):
            inner[:, j] = steps.take(inner[:, j - 1] * n_symbols + blocks[:, j - 1])
        for t in range(full * length, symbols.shape[0]):
            s = int(steps[s * n_symbols + symbols[t]])
            path[t + 1] = s
        yield lo, symbols, path


def walk_states(step_table, start, symbols):
    # states[t] = state after consuming symbols[:t]; length n+1
    n = symbols.shape[0]
    states = np.empty(n + 1, dtype=np.int64)
    states[0] = start
    for lo, chunk, path in _walk_blocks(step_table, start, n,
                                        lambda lo, hi: symbols[lo:hi]):
        states[lo + 1:lo + chunk.shape[0] + 1] = path[1:]
    return states


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


def cell_counts(drive, emit, n_drive, n_emit, span, ends):
    # the cells (span-gram, next drive symbol, emitted symbol) that the steps
    # after the first `span` fall in, and how many of the first n steps fell
    # in each, for every n in `ends` (increasing, each past span): one
    # bincount a stretch between two ends, cumulated
    size = n_drive ** (span + 1) * n_emit
    cells = gram_codes(drive[:ends[-1]], span + 1, n_drive)
    cells *= n_emit
    cells += emit[span:ends[-1]]
    used = np.flatnonzero(np.bincount(cells, minlength=size))
    counts = np.zeros(used.size, dtype=np.int64)
    cumulative = []
    for lo, hi in zip([span, *ends], ends):
        counts = counts + np.bincount(cells[lo - span:hi - span], minlength=size)[used]
        cumulative.append(counts)
    return used, cumulative


def cell_index(step_table, cells, n_drive, n_emit, span):
    # for a map whose state after any `span` symbols depends only on them, the
    # transition (prev * S + next) and the emission (next * n_emit + emitted)
    # that a step in each cell makes
    n_states = step_table.shape[0]
    grams, symbol = np.divmod(cells // n_emit, n_drive)
    # the state a gram leads to from any state, here from state 0
    prev = np.zeros(cells.size, dtype=np.int64)
    for j in range(span - 1, -1, -1):
        prev = step_table[prev, grams // n_drive ** j % n_drive]
    nxt = step_table[prev, symbol]
    return prev * n_states + nxt, nxt * n_emit + cells % n_emit


def count_table(head, index, counts):
    # count_path's counts, as the (transition, emission) counts `head` of the
    # steps walked plus each cell's count `counts` added where `index` maps
    # it; the float sums of integer counts are exact below 2**53
    return tuple(h + np.bincount(i, weights=counts, minlength=h.size)
                 .astype(np.int64).reshape(h.shape) for h, i in zip(head, index))


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
    #
    # Every row's cuts (its entries but the last) lie in one sorted union, so
    # no cut falls strictly inside a cell between two neighbours of the union,
    # and the draw at state s is the same for every uniform in a cell: the
    # draw at the cell's lower end. The walk then runs over cells as symbols,
    # through a (state, cell) table, unless that table would pass
    # min(_GRAM_CELLS, n) entries; then each step is a binary search.
    rows = [row[:-1] for row in cdf_rows]
    n = u.shape[0]
    cuts = np.array(sorted(set().union(*rows)), dtype=np.float64)
    if len(rows) * (cuts.size + 1) > min(_GRAM_CELLS, n):
        draws = array("q")
        append = draws.append
        s = start
        for ut in memoryview(u):
            k = bisect_right(rows[s], ut)
            append(k)
            s = step_rows[s][k]
        return np.frombuffer(draws, dtype=np.int64)
    lower = np.concatenate(([-np.inf], cuts))
    draw = np.array([np.searchsorted(row, lower, side="right") for row in rows])
    step_table = np.array([np.asarray(to)[k] for to, k in zip(step_rows, draw)])
    draws = np.empty(n, dtype=np.int64)
    for lo, cells, path in _walk_blocks(
            step_table, start, n, lambda lo, hi: np.searchsorted(cuts, u[lo:hi], side="right")):
        draws[lo:lo + cells.shape[0]] = draw.take(path[:-1] * lower.size + cells)
    return draws
