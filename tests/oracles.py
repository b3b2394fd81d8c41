"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes results from first principles (explicit
enumeration, dict counting, path sums) without touching the production code
paths it is used to check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


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
