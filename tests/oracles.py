"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes results from first principles (explicit
enumeration, dict counting, path sums) without touching the production code
paths it is used to check.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path
from unittest import mock

import numpy as np

from phimp import _kernels
from phimp._kernels import walk_states
from phimp.errors import InputError
from phimp.estimation import (CRITERIA, CostBreakdown, EmpiricalHmm, PenaltyScheme,
                              _check_smoothing, _estimate_from_counts, _penalty,
                              counts_nll)
from phimp.fmaps import (ClosureReport, FeatureMap, enumerate_closed_suffix_maps,
                         memory_bound)
from phimp.selection import (PruningLogEntry, SelectionResult, SelectionTrajectory,
                             _check_class, _check_run, _pick, _stabilization_index,
                             score_map, select, with_baseline)
from phimp.sequences import (Alphabet, PairedSequence, SymbolSequence, _check_int,
                             _read_text)
from phimp.sources import (cross_entropy_exact_markov, cross_entropy_mc,
                           induced_hmm, sample_fsmx)


def count_substring_naive(seq, pattern) -> int:
    """Overlapping occurrences by literal slice comparison."""
    seq = list(seq)
    pattern = list(pattern)
    n, m = len(seq), len(pattern)
    return sum(1 for t in range(n - m + 1) if seq[t:t + m] == pattern)


def ends_with(string, tail) -> bool:
    return len(tail) <= len(string) and tuple(string[-len(tail):]) == tuple(tail)


def all_proper_complete_sets(size: int, max_depth: int) -> set[frozenset]:
    """Every proper, complete suffix set over the alphabet, by filtering all
    subsets of non-empty strings up to the depth."""
    strings = [tuple(s) for d in range(1, max_depth + 1)
               for s in itertools.product(range(size), repeat=d)]
    found = set()
    for bits in range(1, 1 << len(strings)):
        members = [strings[i] for i in range(len(strings)) if bits >> i & 1]
        if not _is_proper(members):
            continue
        depth = max(len(s) for s in members)
        if _is_complete(members, size, depth):
            found.add(frozenset(members))
    return found


def _is_proper(members) -> bool:
    return not any(a != b and ends_with(b, a) for a in members for b in members)


def _is_complete(members, size, depth) -> bool:
    for ctx in itertools.product(range(size), repeat=depth):
        if sum(1 for s in members if ends_with(ctx, s)) != 1:
            return False
    return True


def match_unique(members, history):
    hits = [s for s in members if ends_with(history, s)]
    return hits[0] if len(hits) == 1 else None


def closure_oracle(members, size: int):
    """Context-extension closure check: group every depth-length context by
    (matched member, appended symbol) and require a single successor per
    group. Returns (closed, table or witness)."""
    members = [tuple(s) for s in members]
    depth = max(len(s) for s in members)
    table = {}
    for ctx in itertools.product(range(size), repeat=depth):
        current = match_unique(members, ctx)
        for y in range(size):
            extended = ctx + (y,)
            target = match_unique(members, extended)
            key = (current, y)
            if key in table and table[key] != target:
                return False, key
            table[key] = target
    return True, table


def subtree_leafsets(size: int, depth_left: int) -> list[list[tuple[int, ...]]]:
    # leaf sets of one node, as reversed paths relative to it; () = leaf here
    options: list[list[tuple[int, ...]]] = [[()]]
    if depth_left >= 1:
        child_options = subtree_leafsets(size, depth_left - 1)
        for combo in itertools.product(range(len(child_options)), repeat=size):
            leaves = [(y,) + path
                      for y in range(size)
                      for path in child_options[combo[y]]]
            options.append(leaves)
    return options


def closed_suffix_maps_oracle(size: int, max_depth: int, padding: int):
    """Closed suffix maps from the recursive trie-shape generator, filtered
    by closure_oracle: (sorted suffixes, table, start state) per closed set,
    ordered by state count and then by the suffix lists."""
    found = []
    for combo in itertools.product(subtree_leafsets(size, max_depth - 1), repeat=size):
        members = sorted(tuple(reversed((y,) + path))
                         for y in range(size) for path in combo[y])
        closed, detail = closure_oracle(members, size)
        if closed:
            index = {s: i for i, s in enumerate(members)}
            table = [[index[detail[s, y]] for y in range(size)] for s in members]
            depth = max(len(s) for s in members)
            start = index[match_unique(members, (padding,) * depth)]
            found.append((tuple(members), table, start))
    return sorted(found, key=lambda entry: (len(entry[0]), entry[0]))


def walk(step_table, start, symbols) -> int:
    state = start
    for y in symbols:
        state = int(step_table[state, y])
    return state


def memory_oracle(step_table, alphabet_size: int, kappa_limit: int):
    """Smallest window such that every symbol string of that length drives all
    start states to one place; (bounded, kappa) by direct enumeration."""
    n_states = step_table.shape[0]
    for k in range(kappa_limit + 2):
        synchronized = all(
            len({walk(step_table, u, w) for u in range(n_states)}) == 1
            for w in itertools.product(range(alphabet_size), repeat=k))
        if synchronized:
            return True, max(k - 1, 0)
    return False, None


def hand_counts(step_table, start, drive, emit, n_states, n_emit):
    """Transition and emission counts by a literal dict walk."""
    trans = np.zeros((n_states, n_states), dtype=np.int64)
    emis = np.zeros((n_states, n_emit), dtype=np.int64)
    state = start
    for d, e in zip(drive, emit):
        nxt = int(step_table[state, d])
        trans[state, nxt] += 1
        emis[nxt, e] += 1
        state = nxt
    return trans, emis


def path_sum_likelihood(transition, emission, start, symbols) -> float:
    """Pr(symbols) summed over every hidden state path from a fixed start."""
    n_states = transition.shape[0]
    total = 0.0
    for path in itertools.product(range(n_states), repeat=len(symbols)):
        p = 1.0
        prev = start
        for state, y in zip(path, symbols):
            p *= transition[prev, state] * emission[state, y]
            prev = state
        total += p
    return total


def path_product_nll(transition, emission, step_table, start, symbols) -> float:
    """Code length along the unique realized path."""
    total = 0.0
    state = start
    for y in symbols:
        nxt = int(step_table[state, y])
        p = transition[state, nxt] * emission[nxt, y]
        if p <= 0:
            return math.inf
        total -= math.log(p)
        state = nxt
    return total


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def product_chain_flows(source_table, source_start, emit, model_table, model_start):
    """Stationary flows of a map driven by a finite-state source, by loops.

    Pair (u, v) steps to (source_table[u][y], model_table[v][y]) with
    probability emit[u][y]. A pair is recurrent when every pair it reaches
    reaches it back; the pairs reachable from the start must hold exactly one
    such class, or ValueError is raised. The stationary law of that class is
    a least-squares solve of pi (T - I) = 0 with sum(pi) = 1.

    Returns ({(u, v, y): pi(u, v) * emit[u][y]} over symbols the source can
    emit, the number of reachable pairs outside the class).
    """
    symbols = range(len(emit[0]))

    def successors(pair):
        u, v = pair
        return {(int(source_table[u][y]), int(model_table[v][y]))
                for y in symbols if emit[u][y] > 0}

    def reach(pair):
        seen, todo = {pair}, [pair]
        while todo:
            for nxt in successors(todo.pop()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    reachable = reach((source_start, model_start))
    ahead = {pair: reach(pair) for pair in reachable}
    classes = {frozenset(ahead[p]) for p in reachable
               if all(p in ahead[q] for q in ahead[p])}
    if len(classes) != 1:
        raise ValueError(f"{len(classes)} closed classes are reachable")
    states = sorted(classes.pop())
    index = {pair: i for i, pair in enumerate(states)}
    n = len(states)
    transition = np.zeros((n, n))
    for (u, v) in states:
        for y in symbols:
            if emit[u][y] > 0:
                nxt = (int(source_table[u][y]), int(model_table[v][y]))
                transition[index[(u, v)], index[nxt]] += emit[u][y]
    system = np.vstack([transition.T - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi = np.linalg.lstsq(system, rhs, rcond=None)[0]
    flows = {(u, v, y): pi[index[(u, v)]] * emit[u][y]
             for (u, v) in states for y in symbols if emit[u][y] > 0}
    return flows, len(reachable) - n


def limiting_parameters_from_flows(flows, model_table, n_states, n_symbols):
    """Row-normalized transition and emission flows; uniform rows where a
    model state gets no flow."""
    trans = np.zeros((n_states, n_states))
    emis = np.zeros((n_states, n_symbols))
    for (u, v, y), w in flows.items():
        nxt = int(model_table[v][y])
        trans[v, nxt] += w
        emis[nxt, y] += w
    for table in (trans, emis):
        for row in table:
            total = row.sum()
            if total > 0:
                row /= total
            else:
                row[:] = 1.0 / row.size
    return trans, emis


def cross_entropy_from_flows(flows, model_table, transition, emission) -> float:
    """Sum of -flow * ln(T[v, v'] E[v', y]); +inf where the model gives a
    flow probability zero."""
    total = 0.0
    for (u, v, y), w in flows.items():
        nxt = int(model_table[v][y])
        p = transition[v][nxt] * emission[nxt][y]
        if p <= 0:
            return math.inf
        total -= w * math.log(p)
    return total


def forward_nll_steps_loop(transition, emission, initial, symbols):
    """The per-symbol forward loop that ``_kernels.forward_nll_steps`` replaced."""
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


# The blocked forward kernel before its sweeps stepped k-grams, as it was
# apart from its names; where k = 1 the kernel must equal it bit for bit.


def _step_blocks_before(alpha, transition, columns, symbols, norms):
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


def forward_nll_steps_before(transition, emission, initial, symbols):
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
    max_blocks = max(1, _kernels._BLOCK_FLOATS // n_states)
    length = max(math.isqrt(n), -(-n // max_blocks), 1)
    full = max(-(-n // length) - 1, 0)  # blocks followed by another, each `length` steps
    grid = symbols[:full * length].reshape(full, length)
    norms = np.zeros(n)  # step normalizers; zero where never reached
    block_norms = norms[:full * length].reshape(full, length)
    columns = np.ascontiguousarray(emission.T, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        starts = np.full((full, n_states), 1.0 / n_states)
        starts[:1] = initial
        guesses = _step_blocks_before(starts, transition, columns, grid, block_norms)
        starts[1:] = guesses[:-1]
        ends = _step_blocks_before(starts, transition, columns, grid, block_norms)
        del starts  # B * S floats fewer at the check's peak
        _step_blocks_before(guesses[-1] if full else initial, transition, columns,
                            symbols[full * length:], norms[full * length:])
        # each block's end must match the guess the next block started from up
        # to rounding; from the first that does not, unless the loop died by
        # then, step the rest as one block
        differs = ~np.isclose(ends, guesses, rtol=1e-13, atol=0.0).all(axis=1)
        if differs.any():
            b = int(differs.argmax())
            cut = (b + 1) * length
            if (norms[:cut] > 0.0).all():
                _step_blocks_before(ends[b], transition, columns, symbols[cut:], norms[cut:])
        dead = ~(norms > 0.0)  # a zero normalizer, or NaN after one
        out = np.negative(np.log(norms, out=norms), out=norms)
    if dead.any():
        out[int(dead.argmax()):] = np.inf
    return out


def first_zero_probability_step(transition, emission, initial, symbols) -> int:
    """First step at which no hidden path has positive probability (n when
    none), from the zero patterns alone, so no rounding enters."""
    live = {i for i in range(len(initial)) if initial[i] > 0}
    for t, y in enumerate(symbols):
        live = {j for i in live for j in range(len(initial))
                if transition[i][j] > 0 and emission[j][y] > 0}
        if not live:
            return t
    return len(symbols)


def block_bootstrap_se_gather(losses, rng, replicates: int = 64) -> float:
    """Moving-block bootstrap standard error by gathering every replicate's n
    losses, the form ``sources._block_bootstrap_se`` replaced."""
    n = losses.size
    block = max(1, int(math.isqrt(n)))
    n_blocks = math.ceil(n / block)
    max_start = n - block
    means = np.empty(replicates)
    offsets = np.arange(block)
    for b in range(replicates):
        starts = rng.integers(0, max_start + 1, size=n_blocks)
        idx = (starts[:, None] + offsets[None, :]).ravel()[:n]
        means[b] = losses[idx].mean()
    return float(means.std(ddof=1))


# The per-symbol state walk that ``_kernels.walk_states``' block walk
# replaced, as it was apart from its name.


def walk_states_before(step_table, start, symbols):
    # states[t] = state after consuming symbols[:t]; length n+1
    rows = step_table.tolist()
    s = int(start)
    states = [s]
    append = states.append
    for y in symbols.tolist():
        s = rows[s][y]
        append(s)
    return np.array(states, dtype=np.int64)


# The per-symbol sampler loops that ``_kernels.sample_walk`` replaced, as
# they were: each draw is the first k with u < cdf[k], else the last index.


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


def policy_induced_chain_loop(env, policy):
    """The triple loop over (state, action, pair) that
    ``active.policy_induced_chain`` replaced."""
    n = env.state_count
    out = np.zeros((n, n))
    for s in range(n):
        for a in range(env.action_count):
            for pair in range(env.observation_count * env.reward_count):
                p = policy.probs[s, a] * env.emissions[s, a, pair]
                if p == 0.0:
                    continue
                o, r = divmod(pair, env.reward_count)
                event = (o * env.action_count + a) * env.reward_count + r
                out[s, env.event_map.step_table[s, event]] += p
    return out


# The countable-class search as a full scan: every candidate is visited, and
# one pruned candidate does not stop the loop. Kept as written apart from its
# name, so the early-stopping search can be compared with it exactly. Unlike
# the oracles above it scores candidates with the library's ``score_map``;
# what it checks is the search loop, its tie rule and its pruning log.

def countable_search_loop(alphabet: Alphabet, data, criterion: str, scheme: PenaltyScheme,
                          state_budget: int, depth_budget: int,
                          smoothing: float = 0.0,
                          include_baseline: bool = True) -> tuple[SelectionResult, list[PruningLogEntry]]:
    """Best-first scan of the suffix-map class in canonical order with
    penalty-based pruning.

    A candidate whose penalty alone exceeds the best total so far cannot win
    (its data cost is nonnegative), so it is logged and skipped; the outcome
    matches exhaustive selection over the same budget-limited class.
    """
    if state_budget < 1 or depth_budget < 1:
        raise InputError("state and depth budgets must be >= 1")
    candidates = enumerate_closed_suffix_maps(alphabet, depth_budget)
    candidates = [m for m in candidates if m.state_count <= state_budget]
    if include_baseline:
        candidates = with_baseline(candidates, alphabet.size)
    candidates.sort(key=lambda m: m.canonical_key)
    if not candidates:
        raise InputError("budgets exclude every candidate map")
    _check_class(candidates)

    n = len(data)
    if n < 1:
        raise InputError("data must be non-empty")
    best: CostBreakdown | None = None
    best_map: FeatureMap | None = None
    scored: list[CostBreakdown] = []
    pruned: list[PruningLogEntry] = []
    ties = 1
    for fmap in candidates:
        pen = 0.0 if criterion == "ml" else scheme.value(n, fmap.state_count)
        if best is not None and pen > best.total:
            pruned.append(PruningLogEntry(map_id=fmap.map_id,
                                          state_count=fmap.state_count,
                                          penalty=pen, best_total=best.total))
            continue
        breakdown = score_map(fmap, data, criterion, scheme, smoothing)
        scored.append(breakdown)
        if best is None or breakdown.total < best.total:
            best, best_map = breakdown, fmap
            ties = 1
        elif breakdown.total == best.total:
            ties += 1
    if best is None:
        raise InputError("no candidate map could be scored within the budgets")
    return SelectionResult(chosen_map_id=best.map_id, costs=scored,
                           tie_broken=ties > 1), pruned


# How ``phimp xent`` scored a finite-state model before it coded along the
# model's own state path: the model rebuilt as its induced HMM, then the
# (T, E) law on the stationary flows (exact) or the forward recursion over a
# sample (mc). Like the search loop above it calls the library; what it
# checks is that suffix-tree models, whose induced HMM is exact, score the
# same bit for bit.

def xent_via_induced_hmm(true_model, model, mode: str, n: int = 100_000, seed: int = 0):
    """``phimp xent`` on an fsmx model file as it was, for both modes: the
    Monte-Carlo mode ran the forward by symbol steps, as
    ``forward_nll_steps_before`` does."""
    if mode == "exact":
        params = induced_hmm(model)
        return cross_entropy_exact_markov(true_model, model.fmap,
                                          params.transition, params.emission)
    with mock.patch.object(_kernels, "forward_nll_steps", forward_nll_steps_before):
        return cross_entropy_mc(true_model, induced_hmm(model), n, seed)


# How a map was scored while two paths existed: ``score_map_before`` (once
# ``selection.score_map``) recoded pairs as a joint sequence under ``cost``
# and ``ml`` and passed the rest to ``score_before`` (once
# ``estimation._score``), which estimated through ``estimate_before`` (once
# ``estimation.estimate``). Kept as written apart from their names, so the
# one scoring path can be compared with them exactly. Like the search loop
# above they call the library, here for counting and normalizing; what they
# check is how the data is read, which criterion codes what, and the penalty.

def score_map_before(fmap: FeatureMap, data, criterion: str, scheme: PenaltyScheme,
                     smoothing: float = 0.0) -> CostBreakdown:
    """One candidate's cost under the requested criterion.

    Plain sequences admit ``cost`` and ``ml``; the side-information criteria
    accept them too by treating the side channel as degenerate, which makes
    all three coincide. On paired data ``cost`` and ``ml`` code the joint
    pair sequence.
    """
    if criterion not in CRITERIA:
        raise InputError(f"unknown criterion {criterion!r} (expected one of {CRITERIA})")
    if isinstance(data, PairedSequence) and criterion in ("cost", "ml"):
        data = data.joint_sequence()
    return score_before(criterion, fmap, data, scheme, smoothing)


def score_before(criterion: str, fmap: FeatureMap, data, scheme: PenaltyScheme | None,
                 smoothing: float) -> CostBreakdown:
    # one estimate, the data coded under it, plus the penalty (none for ml).
    # The estimate's own counts code the data, so no second walk is needed;
    # icost on pairs with |X| > 1 marginalizes the states with the forward
    # recursion instead, since x is not coded.
    emp = estimate_before(fmap, data, smoothing)
    if criterion == "icost" and isinstance(data, PairedSequence) and data.x_alphabet.size > 1:
        initial = np.zeros(fmap.state_count)
        initial[fmap.start_state] = 1.0
        total = float(_kernels.forward_nll_steps(emp.transition, emp.emission,
                                                 initial, data.ys).sum())
        data_cost = math.inf if math.isinf(total) or math.isnan(total) else total
    else:
        data_cost = (counts_nll(emp.transition_counts, emp.transition)
                     + counts_nll(emp.emission_counts, emp.emission))
    pen = 0.0 if criterion == "ml" else scheme.value(len(data), fmap.state_count)
    return CostBreakdown.build(criterion, fmap.map_id, len(data), data_cost, pen)


def estimate_before(fmap: FeatureMap, data: SymbolSequence | PairedSequence,
                    smoothing: float = 0.0) -> EmpiricalHmm:
    """Estimate transition and emission frequencies of the induced state path.

    A plain sequence drives the map and emits itself. Pairs drive it by the
    joint symbol x * |Y| + y and emit y.
    """
    if len(data) < 1:
        raise InputError("cannot estimate from an empty sequence")
    _check_smoothing(smoothing)
    paired = isinstance(data, PairedSequence)
    size = data.joint_size if paired else data.alphabet.size
    if size != fmap.alphabet_size:
        raise InputError(f"alphabet mismatch: map expects {fmap.alphabet_size} symbols, "
                         f"{'pairs span' if paired else 'sequence has'} {size}")
    if paired:
        # the joint symbols fit in int64, since a map's table has that many columns
        n_emit = data.y_alphabet.size
        drive, emit = data.xs * n_emit + data.ys, data.ys
    else:
        n_emit, drive, emit = size, data.items, data.items
    trans, emis = count_before(fmap, drive, emit, n_emit)
    return _estimate_from_counts(trans, emis, len(data), smoothing)


# How a map's steps were counted along its walked state path before they
# were counted from the block walk's cells: ``count_path`` (once
# ``_kernels.count_path``) walks every state, then takes two bincounts over n.
# Kept as written, so the cell count can be compared with it exactly.


def count_path(step_table, start, drive, emit, n_states, n_emit):
    # transition counts over consecutive states, emission counts over the
    # state entered at t paired with emit[t]; drive and emit have equal length
    states = walk_states(step_table, start, drive)
    trans = np.bincount(states[:-1] * n_states + states[1:],
                        minlength=n_states * n_states)
    emis = np.bincount(states[1:] * n_emit + emit, minlength=n_states * n_emit)
    return trans.reshape(n_states, n_states), emis.reshape(n_states, n_emit)


# How every candidate and every prefix was counted before one context-count
# table served a whole call: ``count_before`` (once ``estimation._count``)
# chose per call between the walk and a table of its own, which
# ``count_table_before`` (once ``_kernels.count_table``) built and folded.
# ``select_before`` scores each candidate on its own through
# ``score_map_before``, and ``consistency_run_before`` (once
# ``selection.consistency_run``) selects on each prefix. They are kept as
# written apart from their names, so the shared table can be compared with
# them exactly; a test points the name ``select`` here at ``select_before``.

# the most cells a context-count table may hold (512 kB of int64 counts)
_TABLE_CELLS = 1 << 16


def count_before(fmap: FeatureMap, drive: np.ndarray, emit: np.ndarray,
                 n_emit: int) -> tuple[np.ndarray, np.ndarray]:
    # transition and emission counts along the state path that drive induces
    bound = memory_bound(fmap)
    if bound.bounded:
        span = bound.kappa + 1
        if (drive.shape[0] > span
                and fmap.alphabet_size ** (span + 1) * n_emit <= _TABLE_CELLS):
            return count_table_before(fmap.step_table, fmap.start_state, drive,
                                      emit, fmap.state_count, n_emit, span)
    return count_path(fmap.step_table, fmap.start_state, drive, emit,
                      fmap.state_count, n_emit)


def count_table_before(step_table, start, drive, emit, n_states, n_emit, span):
    # count_path's counts for a map whose state after any `span` symbols
    # depends only on them, with len(drive) > span: the first `span` steps
    # are walked, every later step is a cell (span-gram before it, its drive
    # symbol, its emit symbol) of one bincount, folded through the map
    trans, emis = count_path(step_table, start, drive[:span], emit[:span],
                             n_states, n_emit)
    n_drive = step_table.shape[1]
    cells = _kernels.gram_codes(drive, span + 1, n_drive) * n_emit + emit[span:]
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


def select_before(maps: list[FeatureMap], data, criterion: str,
                  scheme: PenaltyScheme, smoothing: float = 0.0) -> SelectionResult:
    """Score every candidate and return the minimizer.

    Candidates with infinite data cost rank last rather than erroring. The
    chosen map is invariant under permutations of ``maps``.
    """
    _check_class(maps)
    if len(data) < 1:
        raise InputError("data must be non-empty")
    ordered = sorted(maps, key=lambda m: m.canonical_key)
    return _pick([(score_map_before(m, data, criterion, scheme, smoothing), m)
                  for m in ordered])


def consistency_run_before(source, maps: list[FeatureMap], criterion: str,
                           scheme: PenaltyScheme, n_grid, seeds,
                           include_baseline: bool = True,
                           smoothing: float = 0.0) -> list[SelectionTrajectory]:
    """Sample the source once per seed and re-select on each prefix length.

    Refuses sources whose state chain is not ergodic and candidate
    maps without bounded memory. Each trajectory records the chosen map and
    all candidate costs per grid point, plus the first grid index from which
    the choice never changes again.
    """
    candidates, n_grid, seeds = _check_run(source, maps, criterion, n_grid, seeds,
                                           include_baseline, smoothing)
    trajectories = []
    for seed in seeds:
        sample = sample_fsmx(source, int(n_grid[-1]), seed)
        chosen_ids = []
        costs_per_n = []
        for n in n_grid:
            result = select(candidates, sample.prefix(int(n)), criterion, scheme, smoothing)
            chosen_ids.append(result.chosen_map_id)
            costs_per_n.append(result.costs)
        trajectories.append(SelectionTrajectory(
            seed=seed,
            n_grid=n_grid.copy(),
            chosen_ids=chosen_ids,
            costs_per_n=costs_per_n,
            stabilization_index=_stabilization_index(chosen_ids),
        ))
    return trajectories


# How a suffix set answered "which member ends this string" before its trie
# was its index: ``SuffixSetBefore`` holds the member set and the member
# lengths, longest first, as ``SuffixSet`` did, and ``SuffixSetBefore.match``
# and ``closure_before`` (once ``fmaps._closure``) are kept as written apart
# from their names. Each lookup slices and hashes one tail per member length.

class SuffixSetBefore:
    """A suffix set's members behind the hash-and-slice index."""

    def __init__(self, suffix_set):
        self.alphabet = suffix_set.alphabet
        self.suffixes = suffix_set.suffixes
        self._members = frozenset(self.suffixes)
        self._lengths = sorted({len(s) for s in self.suffixes}, reverse=True)

    def match(self, history: tuple[int, ...]) -> tuple[int, ...] | None:
        """The member that is an ending substring of ``history``, if any.

        Unique for proper sets; the longest match is returned otherwise.
        """
        return next((history[-k:] for k in self._lengths
                     if k <= len(history) and history[-k:] in self._members), None)


def closure_before(suffix_set: SuffixSetBefore) -> ClosureReport:
    # the closure loop of is_fsm_closed, for a set known to be proper and complete
    members = suffix_set.suffixes
    index = {s: i for i, s in enumerate(members)}
    rows = []
    for s in members:
        targets = [suffix_set.match(s + (y,)) for y in range(suffix_set.alphabet.size)]
        if None in targets:
            return ClosureReport(closed=False, step_table=None,
                                 witness=(s, targets.index(None)))
        rows.append([index[t] for t in targets])
    return ClosureReport(closed=True, step_table=np.array(rows, dtype=np.int64),
                         witness=None)


# ``sequences.read_sequence`` as it was while paired tokens were parsed by
# one int() call each
def read_sequence_before(path) -> SymbolSequence | PairedSequence:
    path = Path(path)
    text = _read_text(path, "sequence")

    header = None
    tokens: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            if not line.startswith("alphabet="):
                raise InputError(f"{path}: first line must be 'alphabet=<size>'")
            header = line[len("alphabet="):]
        else:
            tokens.extend(line.split())

    if header is None:
        raise InputError(f"{path}: missing alphabet header")

    try:
        sizes = [int(part) for part in header.split(",")]
    except ValueError as exc:
        raise InputError(f"{path}: malformed alphabet header {header!r}") from exc

    if len(sizes) == 1:
        try:
            # numpy parses each token with int(), in one call
            items = np.array(tokens, dtype=np.int64)
        except ValueError as exc:
            raise InputError(f"{path}: malformed symbol token") from exc
        except OverflowError as exc:
            raise InputError(f"{path}: symbol token beyond the int64 range") from exc
        return SymbolSequence(Alphabet(sizes[0]), items)
    if len(sizes) == 2:
        xs, ys = [], []
        for tok in tokens:
            parts = tok.split(",")
            if len(parts) != 2:
                raise InputError(f"{path}: paired token {tok!r} must look like 'x,y'")
            try:
                xs.append(int(parts[0]))
                ys.append(int(parts[1]))
            except ValueError as exc:
                raise InputError(f"{path}: malformed paired token {tok!r}") from exc
        try:
            xs, ys = np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)
        except OverflowError as exc:
            raise InputError(f"{path}: paired token beyond the int64 range") from exc
        return PairedSequence(Alphabet(sizes[0]), Alphabet(sizes[1]), xs, ys)
    raise InputError(f"{path}: alphabet header must have one or two sizes")


# ``sequences.read_sequence`` as it was while every body was parsed as
# tokens; unlike read_sequence_before it checks the header before any token
def read_sequence_tokens_before(path) -> SymbolSequence | PairedSequence:
    """Read a plain or paired sequence file.

    The header is checked before any token. Both forms are parsed by one
    numpy call, which reads each token as ``int()`` does; a paired file's
    tokens must hold exactly one comma each and are split there first, so
    its xs and ys are the even and odd entries of that one parse.
    """
    path = Path(path)
    text = _read_text(path, "sequence")

    header = None
    tokens: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            if not line.startswith("alphabet="):
                raise InputError(f"{path}: first line must be 'alphabet=<size>'")
            header = line[len("alphabet="):]
        else:
            tokens.extend(line.split())

    if header is None:
        raise InputError(f"{path}: missing alphabet header")

    try:
        sizes = [int(part) for part in header.split(",")]
    except ValueError as exc:
        raise InputError(f"{path}: malformed alphabet header {header!r}") from exc
    if len(sizes) not in (1, 2):
        raise InputError(f"{path}: alphabet header must have one or two sizes")
    alphabets = [Alphabet(size) for size in sizes]

    kind = "paired" if len(sizes) == 2 else "symbol"
    if kind == "paired":
        bad = next((tok for tok in tokens if tok.count(",") != 1), None)
        if bad is not None:
            raise InputError(f"{path}: paired token {bad!r} must look like 'x,y'")
        tokens = ",".join(tokens).split(",") if tokens else []
    try:
        items = np.array(tokens, dtype=np.int64)
    except ValueError as exc:
        raise InputError(f"{path}: malformed {kind} token") from exc
    except OverflowError as exc:
        raise InputError(f"{path}: {kind} token beyond the int64 range") from exc
    if kind == "paired":
        return PairedSequence(*alphabets, items[0::2], items[1::2])
    return SymbolSequence(*alphabets, items)


# The sequence writer before it wrote blocks of bytes, as it was apart from
# its name.


def write_sequence_before(path, seq: SymbolSequence | PairedSequence, per_line: int = 40):
    _check_int(per_line, "per_line")
    if per_line < 1:
        raise InputError(f"per_line must be >= 1, got {per_line}")
    path = Path(path)
    lines = []
    if isinstance(seq, PairedSequence):
        lines.append(f"alphabet={seq.x_alphabet.size},{seq.y_alphabet.size}")
        tokens = [f"{x},{y}" for x, y in zip(seq.xs, seq.ys)]
    else:
        lines.append(f"alphabet={seq.alphabet.size}")
        tokens = [str(v) for v in seq.items]
    for i in range(0, len(tokens), per_line):
        lines.append(" ".join(tokens[i:i + per_line]))
    path.write_text("\n".join(lines) + "\n")


# How each (map, prefix) cell was coded before one code-length pass served
# every map of a prefix: ``score_cell_before`` (once
# ``estimation._ContextTable.score``) estimated the cell through
# ``estimate_from_counts_before`` and ``normalize_rows_before`` (once
# ``estimation._estimate_from_counts`` and ``estimation._normalize_rows``)
# and coded it with ``counts_nll_before`` (once ``estimation.counts_nll``),
# which sums in NumPy's pairwise order, so relabelling a map's states could
# move its total by an ulp. Kept as written apart from their names; like the
# search loop above they call the library, here for the table's counts, the
# forward recursion and the penalty.

def normalize_rows_before(counts: np.ndarray, smoothing: float) -> tuple[np.ndarray, np.ndarray]:
    counts = counts.astype(np.float64)
    visited = counts.sum(axis=1) > 0
    smoothed = counts + smoothing
    sums = smoothed.sum(axis=1)
    probs = np.zeros_like(smoothed)
    rows = sums > 0
    probs[rows] = smoothed[rows] / sums[rows, None]
    return probs, visited


def estimate_from_counts_before(trans_counts, emis_counts, n, smoothing) -> EmpiricalHmm:
    transition, trans_visited = normalize_rows_before(trans_counts, smoothing)
    emission, emis_visited = normalize_rows_before(emis_counts, smoothing)
    return EmpiricalHmm(
        state_count=trans_counts.shape[0],
        emission_size=emis_counts.shape[1],
        transition_counts=trans_counts,
        emission_counts=emis_counts,
        transition=transition,
        emission=emission,
        transition_row_visited=trans_visited,
        emission_row_visited=emis_visited,
        n=n,
        smoothing=smoothing,
    )


def counts_nll_before(counts: np.ndarray, probs: np.ndarray) -> float:
    """-sum over entries of count * ln(prob); +inf when a used entry has
    probability zero."""
    mask = counts > 0
    used = probs[mask]
    if np.any(used <= 0.0):
        return math.inf
    return float(-(counts[mask] * np.log(used)).sum())


def score_cell_before(table, fmap: FeatureMap, n: int, scheme: PenaltyScheme | None,
                      smoothing: float) -> CostBreakdown:
    """``score_map`` on the first n symbols."""
    emp = estimate_from_counts_before(*table.counts(fmap, n), n, smoothing)
    data, criterion = table.data, table.criterion
    if (criterion == "icost" and isinstance(data, PairedSequence) and data.x_alphabet.size > 1
            and ((emp.transition > 0).astype(np.int64) @ (emp.emission > 0)).max() > 1):
        initial = np.eye(1, fmap.state_count, fmap.start_state)[0]
        data_cost = float(_kernels.forward_nll_steps(emp.transition, emp.emission,
                                                     initial, data.ys[:n]).sum())
    else:
        data_cost = (counts_nll_before(emp.transition_counts, emp.transition)
                     + counts_nll_before(emp.emission_counts, emp.emission))
    return CostBreakdown.build(criterion, fmap.map_id, n, data_cost,
                               _penalty(criterion, scheme, n, fmap.state_count))
