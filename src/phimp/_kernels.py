"""Hot inner loops, one plain NumPy/Python implementation each.

All kernels take plain int64/float64 arrays or lists of rows; wrapping,
validation and RNG live in the calling modules.

A walk skips what its symbols already decide. Where the state after any w
symbols depends on those symbols alone (w = kappa + 1 for memory bound
kappa, which the caller passes from ``fmaps.memory_bound``) and the w-gram
table fits the block walk's budget, ``walk_states`` steps the first w - 1
symbols by hand and gathers every later state from its w-gram, with no
Python step per block. Every other walk is a block walk: one step per block
of L symbols through a table of every L-gram's composed step
(``_block_starts``), then L - 1 vector gathers fill in the states inside the
blocks, a chunk at a time (``_walk_blocks``). A block whose L-gram leads
every state to one state (a marked gram, ``_fixed_ends``) ends there from
any start, so its end is one vector gather, and the Python loop steps only
the other blocks; a table with no marked gram keeps the loop over every
block.

Every sampler is one walk, ``sample_walk``, one event a step. An event is
one draw a phase (the symbol; the hidden state then the symbol; the action
then the outcome): each phase inverts one pre-drawn uniform, from its own row
of uniforms, through its current state's CDF row. Each uniform is cut to its
cell among the sorted union of its phase's cuts, an event's cells make one
event symbol, the event symbols are block-walked over the first phase's
states, and each draw is read from a (state, event symbol) table, so the
draws equal a binary search per draw. A uniform finds its cell through a
guide table of 2^12 equal buckets of [0, 1) (``_guide``): one lookup where
its bucket holds no cut, a binary search where it does (at most one bucket a
cut) or where the uniform lies outside [0, 1). A seed fixes every draw.

Counting forms no state path. A step is a pair (state, drive symbol a); it
enters the state the step table names and emits a mod |emit|
(``pair_steps``). ``count_pairs`` counts how often any map's walk makes each
pair from the block walk's cells, (L-gram, state the block starts in): one
bincount a chunk, then each cell that occurs is folded through its L steps
(where L = 1, every symbol is stepped by hand); ``step_counts`` turns the
pair counts into transitions and emissions.
``count_table`` counts a bounded-memory map from the data's (span + 1)-gram
cells, which ``cell_counts`` takes once for every prefix length asked for and
``cell_index`` maps to the step that each cell's last symbol makes. Both
folds step grams through ``_gram_pairs``.

The forward recursion steps about sqrt(n) blocks of sqrt(n) symbols in
lockstep, in two sweeps: one guesses each block's start by stepping the block
before from the uniform law, one steps every block from its guess. Where a
guess is off by more than rounding, the rest runs as the per-symbol loop (see
``forward_nll_steps``). Both sweeps and the last block step k symbols a
Python step, through a table of every k-gram's composed transfer and prefix
masses, or one symbol a step where the table or the products would not
allow k > 2.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from itertools import accumulate

import numpy as np

# read by the benchmark's metadata line; there is no jitted backend
NUMBA_ENABLED = False


# A block walk reads a table of every L-gram's composed step, at most
# _GRAM_CELLS entries, and works through _CHUNK symbols at a time, so one
# chunk's temporaries stay at 64 kB an array.
_GRAM_CELLS = 1 << 14
_CHUNK = 1 << 13
# A sampler finds each uniform's cell through a guide table of _GUIDE equal
# buckets of [0, 1) a phase (``_guide``).
_GUIDE = 1 << 12


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
    return grams.ravel()


def _fixed_ends(grams, n_states):
    # per gram code of a gram table: the one state the gram leads every state
    # to, or -1 where it leads two states apart
    columns = np.ascontiguousarray(grams.reshape(-1, n_states).T)
    return np.where((columns == columns[0]).all(axis=0), columns[0], -1)


def _block_starts(step_table, start, n, symbols_at):
    # the block walk's one Python loop: walks n symbols, read a chunk at a time
    # as symbols_at(lo, hi), one step per block of L symbols through the
    # L-gram table, and yields (lo, symbols, blocks, keys, starts) per chunk:
    # blocks views the chunk's full blocks as rows, keys[b] is block b's
    # L-gram code times S, and starts[b] the state block b starts in, an int64
    # array that ends with the state after the last full block. The last
    # n mod L symbols are the caller's to step.
    #
    # A block whose gram leads every state to one state (a marked gram) ends
    # there whatever state it starts in, so every such block's end is one
    # gather, and the loop steps only the other blocks, in order. A table
    # with no marked gram keeps the loop over every block.
    n_states, n_symbols = step_table.shape
    length = _block_length(n_symbols, n_states, n)
    table = _gram_steps(step_table, length)
    grams = table.tolist()
    fixed = _fixed_ends(table, n_states)
    marked = fixed.max() >= 0
    weights = n_symbols ** np.arange(length - 1, -1, -1) * n_states
    chunk = _CHUNK // length * length
    s = start
    for lo in range(0, n, chunk):
        symbols = symbols_at(lo, min(lo + chunk, n))
        blocks = symbols[:symbols.shape[0] // length * length].reshape(-1, length)
        keys = blocks @ weights
        starts = np.empty(keys.shape[0] + 1, dtype=np.int64)
        starts[0] = s
        if marked:
            ends = fixed.take(keys // n_states)
            starts[1:] = ends
            rest = np.flatnonzero(ends < 0)
            # an unmarked block starts where the block before it ended: the
            # loop's last state, or a marked block's end (-1 marks neither)
            stepped = []
            append = stepped.append
            for key, entry in zip(keys.take(rest).tolist(), starts.take(rest).tolist()):
                s = grams[key + (s if entry < 0 else entry)]
                append(s)
            starts[rest + 1] = stepped
        else:
            stepped = [s]
            append = stepped.append
            for key in keys.tolist():
                s = grams[key + s]
                append(s)
            starts[:] = stepped
        s = int(starts[-1])
        yield lo, symbols, blocks, keys, starts


def _walk_blocks(step_table, start, n, symbols_at):
    # walks n symbols, read a chunk at a time as symbols_at(lo, hi), and
    # yields (lo, symbols, path) per chunk with path[t] the state before
    # symbols[t] and path[-1] the state after the chunk; path is reused.
    # Each block's start comes from _block_starts, then L - 1 gathers over
    # the chunk's blocks fill in the states inside; the last n mod L symbols
    # are stepped one by one.
    n_symbols = step_table.shape[1]
    steps = step_table.ravel()
    buffer = np.empty(_CHUNK + 1, dtype=np.int64)
    for lo, symbols, blocks, _, starts in _block_starts(step_table, start, n, symbols_at):
        path = buffer[:symbols.shape[0] + 1]
        full, length = blocks.shape
        path[:blocks.size + 1:length] = starts
        inner = path[:blocks.size].reshape(full, length)
        for j in range(1, length):
            inner[:, j] = steps.take(inner[:, j - 1] * n_symbols + blocks[:, j - 1])
        s = int(starts[-1])
        for t in range(blocks.size, symbols.shape[0]):
            s = int(steps[s * n_symbols + symbols[t]])
            path[t + 1] = s
        yield lo, symbols, path


def walk_states(step_table, start, symbols, window=None):
    # states[t] = state after consuming symbols[:t]; length n+1. Where the
    # state after any `window` symbols depends on them alone (window = kappa
    # + 1, None where the memory is unbounded) and the window is at most the
    # block length, the first window - 1 symbols are stepped by hand and every
    # later state is its last `window` symbols' gram end, one gather; any
    # other walk is block-walked.
    n = symbols.shape[0]
    states = np.empty(n + 1, dtype=np.int64)
    states[0] = start
    n_states, n_symbols = step_table.shape
    if window is not None and window <= _block_length(n_symbols, n_states, n):
        ends = _fixed_ends(_gram_steps(step_table, window), n_states)
        rows, s = step_table.tolist(), start
        for t, symbol in enumerate(symbols[:window - 1].tolist(), 1):
            s = rows[s][symbol]
            states[t] = s
        ends.take(gram_codes(symbols, window, n_symbols), out=states[window:])
        return states
    for lo, chunk, path in _walk_blocks(step_table, start, n,
                                        lambda lo, hi: symbols[lo:hi]):
        states[lo + 1:lo + chunk.shape[0] + 1] = path[1:]
    return states


def _gram_pairs(step_table, states, grams, length):
    # yields, for each of the `length` steps that every state takes through
    # its gram's symbols (codes, oldest symbol most significant), the pair
    # index state * |A| + symbol of that step, which indexes the next state in
    # the raveled step table
    n_symbols = step_table.shape[1]
    index = states * n_symbols + grams // n_symbols ** (length - 1) % n_symbols
    yield index
    for j in range(length - 2, -1, -1):
        index = step_table.take(index) * n_symbols + grams // n_symbols ** j % n_symbols
        yield index


def count_pairs(step_table, start, drive):
    # how often the walk of drive from start steps from each state on each
    # symbol, pair index state * |A| + symbol. Each block's cell, its L-gram
    # and the state it starts in, is counted by one bincount a chunk, then L
    # weighted bincounts over the cells that occur fold the cells into pairs;
    # at most n / L cells occur, so the fold takes at most n gathers. The last
    # n mod L symbols are stepped one by one, and so is every symbol where
    # L = 1, since a block of one symbol saves no Python step.
    n_states, n_symbols = step_table.shape
    n = drive.shape[0]
    length = _block_length(n_symbols, n_states, n)
    pairs = np.zeros(step_table.size)
    s, blocked = start, 0
    if length > 1:
        counts = np.zeros(n_symbols ** length * n_states, dtype=np.int64)
        for _, _, _, keys, starts in _block_starts(step_table, start, n,
                                                   lambda lo, hi: drive[lo:hi]):
            # each block's cell: its L-gram code * S + the state it starts in
            keys += starts[:-1]
            counts += np.bincount(keys, minlength=counts.size)
            s = int(starts[-1])
        used = np.flatnonzero(counts)
        grams, states = np.divmod(used, n_states)
        weights = counts[used]
        for index in _gram_pairs(step_table, states, grams, length):
            pairs += np.bincount(index, weights=weights, minlength=pairs.size)
        blocked = n - n % length
    rows = step_table.tolist()
    stepped = [0] * step_table.size
    for symbol in drive[blocked:].tolist():
        stepped[s * n_symbols + symbol] += 1
        s = rows[s][symbol]
    return (pairs + stepped).astype(np.int64)


def pair_steps(step_table, pairs, n_emit):
    # the transition (s * S + next) and emission (next * n_emit + emitted)
    # indices of the steps with pair index `pairs` (s * |A| + a): such a step
    # enters step_table[s, a] and emits a mod n_emit, which is the drive
    # symbol itself on plain data and under the joint criteria, and y on pairs
    # driven by x * |Y| + y
    n_states, n_drive = step_table.shape
    nxt = step_table.take(pairs)
    return pairs // n_drive * n_states + nxt, nxt * n_emit + pairs % n_drive % n_emit


def step_counts(step_table, pairs, n_emit):
    # the (S, S) transition and (S, n_emit) emission counts of the steps that
    # `pairs` counts, one count a pair index
    n_states = step_table.shape[0]
    trans, emis = pair_steps(step_table, np.arange(step_table.size), n_emit)
    return (np.bincount(trans, weights=pairs, minlength=n_states * n_states)
            .astype(np.int64).reshape(n_states, n_states),
            np.bincount(emis, weights=pairs, minlength=n_states * n_emit)
            .astype(np.int64).reshape(n_states, n_emit))


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


def cell_counts(drive, n_drive, span, ends):
    # the cells ((span + 1)-gram ending at the step's drive symbol) that the
    # steps after the first `span` fall in, and how many of the first n steps
    # fell in each, for every n in `ends` (increasing, each past span): one
    # bincount a stretch between two ends, cumulated
    size = n_drive ** (span + 1)
    cells = gram_codes(drive[:ends[-1]], span + 1, n_drive)
    used = np.flatnonzero(np.bincount(cells, minlength=size))
    counts = np.zeros(used.size, dtype=np.int64)
    cumulative = []
    for lo, hi in zip([span, *ends], ends):
        counts = counts + np.bincount(cells[lo - span:hi - span], minlength=size)[used]
        cumulative.append(counts)
    return used, cumulative


def cell_index(step_table, cells, n_emit, span):
    # for a map whose state after any `span` symbols depends only on them, the
    # transition and emission indices of the step that each cell's last symbol
    # makes: its gram walked from any state, here from state 0
    *_, pairs = _gram_pairs(step_table, np.zeros(cells.size, dtype=np.int64), cells, span + 1)
    return pair_steps(step_table, pairs, n_emit)


def count_table(head, index, counts):
    # step_counts' counts, as the (transition, emission) counts `head` of the
    # steps counted from the start plus each cell's count `counts` added where
    # `index` maps it; the float sums of integer counts are exact below 2**53
    return tuple(h + np.bincount(i, weights=counts, minlength=h.size)
                 .astype(np.int64).reshape(h.shape) for h, i in zip(head, index))


# Each sweep keeps B rows of S floats; the block count is capped so B * S
# stays at most _BLOCK_FLOATS (128 kB an array).
_BLOCK_FLOATS = 1 << 14
# The forward's k-gram table and each gram step's gathered (B, S, S + k) slab
# hold at most _GRAM_FLOATS floats each (512 kB). Every k-fold product of
# positive factors T[i, j] * E[j, y] stays at or above _TINY, and a row whose
# alpha holds a positive entry below _TINY steps by symbols, so no composed
# step comes near the subnormals.
_GRAM_FLOATS = 1 << 16
_TINY = 2.0 ** -400


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


def _gram_length(transition, emission, rows, length):
    # the largest k <= length whose gram table and (rows, S, S + k) slab fit
    # _GRAM_FLOATS and whose k-fold factor products stay at or above _TINY,
    # bounding the smallest positive factor by min T times min E. A gram step
    # costs two to three symbol steps, so k = 2 gains nothing and runs as 1.
    n_states, n_symbols = emission.shape
    k = 1
    while (k < length and n_symbols ** (k + 1) * n_states * (n_states + k + 1) <= _GRAM_FLOATS
           and rows * n_states * (n_states + k + 1) <= _GRAM_FLOATS):
        k += 1
    if k > 2:
        floor = (np.min(transition, where=transition > 0.0, initial=1.0)
                 * np.min(emission, where=emission > 0.0, initial=1.0))
        if floor < 1.0:
            k = min(k, int(math.log(_TINY) / math.log(floor))) if floor > 0.0 else 1
    return k if k > 2 else 1


def _gram_table(transition, emission, k):
    # entry g, for the k-gram (y_1, ..., y_k) coded oldest symbol first: the
    # composed transfer P_g = T diag(E[:, y_1]) ... T diag(E[:, y_k]) in the
    # first S columns, then the masses (T diag(E[:, y_1]) ... ) @ 1 after the
    # gram's first 1, ..., k symbols
    factors = transition * emission.T[:, None, :]
    product, masses = factors, factors.sum(axis=2)[..., None]
    for _ in range(k - 1):
        product = np.matmul(product[:, None], factors).reshape(-1, *transition.shape)
        masses = np.concatenate((masses.repeat(len(factors), axis=0),
                                 product.sum(axis=2)[..., None]), axis=2)
    return np.concatenate((product, masses), axis=2)


def _step_grams(alpha, transition, columns, symbols, norms, table, k):
    # _step_blocks' result, k symbols a Python step through the gram table:
    # with m_j = alpha @ R_g[:, j], step j's normalizer is m_j / m_{j-1} and
    # the end alpha is alpha @ P_g / m_{k-1}. The last L mod k steps are
    # symbol steps, and a row whose alpha held a positive entry below _TINY
    # at a gram step is redone by symbol steps; k = 1 is _step_blocks itself.
    if k == 1 or not alpha.size:
        return _step_blocks(alpha, transition, columns, symbols, norms)
    n_states = alpha.shape[-1]
    start = alpha.reshape(-1, n_states)
    symbols = symbols.reshape(len(start), -1)
    steps = norms.reshape(len(start), -1)
    grams = symbols.shape[1] // k
    # one code a gram, from the (rows, grams, k) view of the symbols
    codes = symbols[:, :grams * k].reshape(len(start), grams, k) @ (
        columns.shape[0] ** np.arange(k - 1, -1, -1))
    low = np.zeros(len(start), dtype=bool)
    rows = start
    for i in range(grams):
        tiny = (rows > 0.0) & (rows < _TINY)
        if tiny.any():
            low |= tiny.any(axis=1)
        ends = np.matmul(rows[:, None], table.take(codes[:, i], axis=0))[:, 0]
        steps[:, i * k:(i + 1) * k] = ends[:, n_states:]
        rows = ends[:, :n_states] / ends[:, -1:]
    # the masses become step normalizers, last offset first
    masses = steps[:, :grams * k].reshape(len(start), grams, k)
    for j in range(k - 1, 0, -1):
        masses[..., j] /= masses[..., j - 1]
    rows = _step_blocks(rows, transition, columns, symbols[:, grams * k:], steps[:, grams * k:])
    redo = np.flatnonzero(low)
    if redo.size:
        redone = steps[redo]
        rows[redo] = _step_blocks(start[redo], transition, columns, symbols[redo], redone)
        steps[redo] = redone
    return rows.reshape(alpha.shape)


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
    included, and costs at most two sweeps plus the loop.

    The sweeps and the last block take k steps at a time. For every k-gram g
    of symbols a table holds the composed transfer P_g, the product of
    T diag(E[:, y]) over the gram's symbols, and the prefix masses R_g, whose
    column j is the mass after the gram's first j + 1 symbols. With
    m = alpha @ R_g, step j's normalizer is m[j] / m[j - 1], and the next
    alpha is alpha @ P_g / m[k - 1]. k is the largest value (up to L) for
    which the |Y|^k * S * (S + k) table and each step's gathered
    (B, S, S + k) slab fit _GRAM_FLOATS and the smallest positive factor
    T[i, j] * E[j, y], raised to the k-th power, stays at or above _TINY. A
    block whose alpha holds a positive entry below _TINY is redone by symbol
    steps, so the composed products stay clear of underflow and differ from
    the symbol steps by rounding alone. Where k = 1 (many states, or factors
    like 1e-200), or k = 2, which gains nothing, every step is the symbol step
    above, bit for bit. Extra memory is a few arrays of B * S floats, the
    table, one slab and n / k gram codes; no per-step matrix or column is
    stored.
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
    k = _gram_length(transition, emission, full, length)
    table = _gram_table(transition, emission, k) if k > 1 else None

    def step(alpha, symbols, norms):
        return _step_grams(alpha, transition, columns, symbols, norms, table, k)

    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        starts = np.full((full, n_states), 1.0 / n_states)
        starts[:1] = initial
        guesses = step(starts, grid, block_norms)
        starts[1:] = guesses[:-1]
        ends = step(starts, grid, block_norms)
        del starts  # B * S floats fewer at the check's peak
        step(guesses[-1] if full else initial, symbols[full * length:], norms[full * length:])
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
    # one event per column of u, drawn in phases, one a row of u: in phase p
    # the walk is in a phase-p state s, draws k = the first index whose
    # cdf_rows[p][s] entry exceeds u[p, t] (the last index when none of the
    # others does) and moves to step_rows[p][s][k], a state of the next phase
    # (of phase 0 after the last). Rows are lists and may differ in length;
    # CDF rows never decrease, so bisect_right finds that k. Returns each
    # phase's draws, an int64 array of n each.
    #
    # Each phase's cuts (its rows' entries but the last) lie in one sorted
    # union, so no cut falls strictly inside a cell between two neighbours of
    # the union, and a phase-p draw is the same for every uniform in a cell:
    # the draw at the cell's lower end. An event's cells, one a phase and the
    # first most significant, make one event symbol; the walk runs over the
    # phase-0 states with those symbols as its symbols, through a (state,
    # event symbol) table of the state the event leads to, and reads each
    # phase's draw from a table of the same shape. Where that table would pass
    # min(_GRAM_CELLS, n) entries, the phases' states walk as one phase, one
    # draw a step over the interleaved uniforms, through that chain's (state,
    # cell) table where it fits; a single phase then draws by binary search.
    rows = [[row[:-1] for row in phase] for phase in cdf_rows]
    n = u.shape[1]
    cuts = [np.array(sorted(set().union(*phase)), dtype=np.float64) for phase in rows]
    cells = [c.size + 1 for c in cuts]
    if len(rows[0]) * math.prod(cells) > min(_GRAM_CELLS, n):
        if len(rows) > 1:
            # the chain takes the uniforms column by column
            offsets = [0, *accumulate(len(phase) for phase in rows)]
            moves = [[offsets[(p + 1) % len(rows)] + v for v in row]
                     for p, to in enumerate(step_rows) for row in to]
            [draws] = sample_walk([[row for phase in cdf_rows for row in phase]], [moves],
                                  start, u.T.ravel()[None])
            return [draws[p::len(rows)] for p in range(len(rows))]
        draws = array("q")
        append = draws.append
        s = start
        cdf, to = rows[0], step_rows[0]
        for ut in memoryview(u[0]):
            k = bisect_right(cdf[s], ut)
            append(k)
            s = to[s][k]
        return [np.frombuffer(draws, dtype=np.int64)]
    state = np.arange(len(rows[0]))[:, None]
    tables = []
    for phase, to, cut, cell in zip(rows, step_rows, cuts, np.indices(cells).reshape(len(rows), -1)):
        lower = np.concatenate(([-np.inf], cut))
        draw = np.array([np.searchsorted(row, lower, side="right") for row in phase])
        tables.append(draw[state, cell].ravel())
        state = np.array([np.asarray(t)[k] for t, k in zip(to, draw)])[state, cell]
    guides = [_guide(cut) for cut in cuts]

    def symbols_at(lo, hi):
        symbols = _cells(cuts[0], guides[0], u[0, lo:hi])
        for cut, guide, size, uniforms in zip(cuts[1:], guides[1:], cells[1:], u[1:]):
            symbols *= size
            symbols += _cells(cut, guide, uniforms[lo:hi])
        return symbols

    draws = [np.empty(n, dtype=np.int64) for _ in rows]
    for lo, symbols, path in _walk_blocks(state, start, n, symbols_at):
        index = path[:-1] * state.shape[1] + symbols
        for out, table in zip(draws, tables):
            table.take(index, out=out[lo:lo + symbols.shape[0]])
    return draws


def _guide(cut):
    # the guide table over _GUIDE equal buckets of [0, 1) (Chen and Asau's
    # method for inverting a discrete CDF): entry i is the cell, the number of
    # cuts at or below, of bucket i's lower edge i / _GUIDE, or -1 where a cut
    # falls strictly inside the bucket; a last -1 entry guards the uniforms
    # outside [0, 1)
    edges = np.arange(_GUIDE + 1) / _GUIDE
    lower = np.searchsorted(cut, edges[:-1], side="right")
    inside = np.searchsorted(cut, edges[1:], side="left") > lower
    return np.append(np.where(inside, -1, lower), -1)


def _cells(cut, guide, u):
    # np.searchsorted(cut, u, side="right"). u * _GUIDE is exact, so its floor
    # is u's bucket, and every uniform in a bucket that holds no cut is in its
    # lower edge's cell. The uniforms of the other buckets are searched, and
    # so is any u outside [0, 1), NaN included, which the clip sends to the
    # guard entry.
    scaled = np.floor(u * _GUIDE)
    np.fmax(scaled, -1.0, out=scaled)
    np.fmin(scaled, _GUIDE, out=scaled)
    found = guide.take(scaled.astype(np.int64))
    missed = np.flatnonzero(found < 0)
    if missed.size:
        found[missed] = np.searchsorted(cut, u.take(missed), side="right")
    return found
