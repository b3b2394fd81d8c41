"""Generative models and their numerics.

Covers hidden-Markov parameter sets, finite-state sources with per-state
symbol distributions, stationary distributions, chain ergodicity, marginal
likelihoods (normalized forward recursion plus a brute-force path-sum
oracle), and cross-entropy between a source and a model, both exactly on the
product chain and by Monte Carlo.

Randomness comes from named counter-based streams: ``rng_stream(seed, k)``
yields the k-th independent stream of an experiment seed, so parallel runs
reproduce serial ones bit-exactly. Samplers pre-draw uniforms and feed them
to the kernels, so a seed fixes every draw.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InputError, ResourceError
from .estimation import EmpiricalHmm
from .fmaps import FeatureMap
from .sequences import Alphabet, SymbolSequence, _read_json, _write_json

ROW_SUM_TOL = 1e-12
DEFAULT_PATH_CAP = 10_000_000


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream index)."""
    if not (0 <= seed < 2**64 and 0 <= stream < 2**64):
        raise InputError(f"seed and stream must lie in 0..2**64-1, got {seed} and {stream}")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_stochastic(matrix: np.ndarray, what: str):
    if np.any(matrix < 0):
        raise InputError(f"{what} has negative entries")
    sums = matrix.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
        worst = float(np.abs(sums - 1.0).max())
        raise InputError(f"{what} rows must sum to 1 (off by {worst:.3e})")


@dataclass(eq=False)
class Hmm:
    """Transition and emission probabilities plus an initial distribution."""

    transition: np.ndarray
    emission: np.ndarray
    initial: np.ndarray

    def __post_init__(self):
        self.transition = np.asarray(self.transition, dtype=np.float64)
        self.emission = np.asarray(self.emission, dtype=np.float64)
        self.initial = np.asarray(self.initial, dtype=np.float64)
        s = self.transition.shape[0]
        if self.transition.shape != (s, s):
            raise InputError("transition matrix must be square")
        if self.emission.shape[0] != s or self.initial.shape != (s,):
            raise InputError("emission and initial shapes must match the state count")
        _check_stochastic(self.transition, "transition matrix")
        _check_stochastic(self.emission, "emission matrix")
        _check_stochastic(self.initial[None, :], "initial distribution")

    @property
    def state_count(self) -> int:
        return self.transition.shape[0]

    @property
    def emission_size(self) -> int:
        return self.emission.shape[1]


@dataclass(eq=False)
class FsmxSource:
    """A feature map plus per-state symbol distributions Pr(y | state)."""

    fmap: FeatureMap
    emit: np.ndarray

    def __post_init__(self):
        self.emit = np.asarray(self.emit, dtype=np.float64)
        if self.emit.shape != (self.fmap.state_count, self.fmap.alphabet_size):
            raise InputError("emit table must be states-by-alphabet")
        _check_stochastic(self.emit, "emit table")

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(self.fmap.alphabet_size)


@dataclass(eq=False)
class CrossEntropyEstimate:
    value: float
    mode: str  # "exact-markov" | "monte-carlo"
    n_used: int | None = None
    std_error: float | None = None


# ---------------------------------------------------------------------------
# sampling


def sample_fsmx(source: FsmxSource, n: int, seed: int, stream: int = 0) -> SymbolSequence:
    """Draw y_t from the current state's distribution, then step the map."""
    if n < 1:
        raise InputError("sample length must be >= 1")
    u = rng_stream(seed, stream).random(n)
    cdf = np.cumsum(source.emit, axis=1)
    items = _kernels.sample_symbols(source.fmap.step_table, source.fmap.start_state, cdf, u)
    return SymbolSequence(source.alphabet, items)


def sample_hmm(hmm: Hmm, n: int, seed: int, stream: int = 0) -> SymbolSequence:
    """Draw a state chain from the transition matrix and emit one symbol per state."""
    if n < 1:
        raise InputError("sample length must be >= 1")
    rng = rng_stream(seed, stream)
    start = int(np.searchsorted(np.cumsum(hmm.initial), rng.random(), side="right"))
    start = min(start, hmm.state_count - 1)
    u_state = rng.random(n)
    u_emit = rng.random(n)
    items = _kernels.sample_hmm_symbols(
        np.cumsum(hmm.transition, axis=1), np.cumsum(hmm.emission, axis=1),
        start, u_state, u_emit)
    return SymbolSequence(Alphabet(hmm.emission_size), items)


# ---------------------------------------------------------------------------
# induced chains and stationary distributions


def induced_hmm(source: FsmxSource) -> Hmm:
    """The hidden-Markov parameters realized by a finite-state source.

    Transitions aggregate the emit probabilities of symbols leading to each
    successor. For suffix-tree maps the entered state pins down the symbol
    just read, so emission rows are deterministic indicators; for general
    maps the emission of a state is the stationary share of each symbol among
    its incoming flow (uniform for states with no inflow).
    """
    fmap, emit = source.fmap, source.emit
    s_count, a_size = emit.shape
    transition = np.zeros((s_count, s_count))
    for s in range(s_count):
        for y in range(a_size):
            transition[s, fmap.step_table[s, y]] += emit[s, y]

    emission = np.zeros((s_count, a_size))
    if fmap.kind == "suffix-tree":
        for s, suffix in enumerate(fmap.suffixes):
            emission[s, suffix[-1]] = 1.0
    else:
        pi = stationary(transition)
        for s in range(s_count):
            for y in range(a_size):
                emission[fmap.step_table[s, y], y] += pi[s] * emit[s, y]
        inflow = emission.sum(axis=1)
        for s in range(s_count):
            if inflow[s] > 0:
                emission[s] /= inflow[s]
            else:
                emission[s] = 1.0 / a_size

    initial = np.zeros(s_count)
    initial[fmap.start_state] = 1.0
    return Hmm(transition=transition, emission=emission, initial=initial)


def is_ergodic_chain(transition: np.ndarray) -> bool:
    """Whether every state reaches every other along positive-probability edges.

    Periodic chains count as ergodic here; only reachability matters.
    """
    support = np.asarray(transition) > 0
    n = support.shape[0]

    def reachable(adj):
        seen = np.zeros(n, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            v = stack.pop()
            for w in np.nonzero(adj[v])[0]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(int(w))
        return seen

    return bool(reachable(support).all() and reachable(support.T).all())


def stationary(transition: np.ndarray, residual_tol: float = 1e-10,
               dense_limit: int = 500) -> np.ndarray:
    """The unique row vector pi with pi @ T = pi, summing to one.

    Solved densely for moderate state counts; above ``dense_limit`` a damped
    power iteration (which also handles periodic chains) takes over.
    """
    transition = np.asarray(transition, dtype=np.float64)
    if not is_ergodic_chain(transition):
        raise InputError(
            "transition matrix is not ergodic; run is_ergodic_chain to locate "
            "unreachable states")
    n = transition.shape[0]
    if n <= dense_limit:
        system = transition.T - np.eye(n)
        system[-1, :] = 1.0
        rhs = np.zeros(n)
        rhs[-1] = 1.0
        pi = np.linalg.solve(system, rhs)
    else:
        pi = np.full(n, 1.0 / n)
        half = 0.5 * (np.eye(n) + transition)
        for _ in range(1_000_000):
            nxt = pi @ half
            nxt /= nxt.sum()
            if np.abs(nxt - pi).max() < 1e-12:
                pi = nxt
                break
            pi = nxt
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    residual = float(np.abs(pi @ transition - pi).max())
    if residual > residual_tol:
        raise RuntimeError(f"stationary solve residual {residual:.3e} exceeds "
                           f"{residual_tol:.1e}")
    return pi


# ---------------------------------------------------------------------------
# likelihoods


def forward_loglik(hmm: Hmm, seq: SymbolSequence) -> float:
    """log Pr(sequence) by the per-step normalized forward recursion.

    Returns -inf when the model assigns the sequence probability zero.
    """
    if seq.alphabet.size != hmm.emission_size:
        raise InputError("alphabet mismatch between model and sequence")
    steps = _kernels.forward_nll_steps(hmm.transition, hmm.emission, hmm.initial, seq.items)
    total = float(steps.sum())
    return -math.inf if math.isinf(total) else -total


def forward_loglik_steps(hmm: Hmm, items: np.ndarray) -> np.ndarray:
    """Per-symbol code-length increments (nats); +inf past a zero-probability step."""
    return _kernels.forward_nll_steps(hmm.transition, hmm.emission, hmm.initial, items)


def brute_force_loglik(hmm: Hmm, seq: SymbolSequence,
                       path_cap: int = DEFAULT_PATH_CAP) -> float:
    """Testing oracle: sum the likelihood over every hidden state path."""
    if seq.alphabet.size != hmm.emission_size:
        raise InputError("alphabet mismatch between model and sequence")
    n = len(seq)
    s_count = hmm.state_count
    if s_count ** n > path_cap:
        raise ResourceError(f"{s_count}^{n} paths exceed the configured cap of {path_cap}")
    first = hmm.initial @ hmm.transition
    total = 0.0
    items = seq.items
    for path in itertools.product(range(s_count), repeat=n):
        p = first[path[0]] * hmm.emission[path[0], items[0]]
        for t in range(1, n):
            p *= hmm.transition[path[t - 1], path[t]] * hmm.emission[path[t], items[t]]
        total += p
    return math.log(total) if total > 0 else -math.inf


# ---------------------------------------------------------------------------
# the product chain of a source and an evaluation map


def _strongly_connected_components(adj: np.ndarray) -> list[list[int]]:
    # iterative Tarjan over a dense adjacency matrix
    n = adj.shape[0]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(np.nonzero(adj[root])[0]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, neighbors = work[-1]
            advanced = False
            for w in neighbors:
                w = int(w)
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(np.nonzero(adj[w])[0])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
    return components


def _product_chain(source: FsmxSource, model_map: FeatureMap):
    """Joint chain over (source state, model state) pairs under the source law.

    Returns the recurrent pair states reachable from the two start states and
    their stationary distribution. The model map must see the same alphabet
    as the source.
    """
    if model_map.alphabet_size != source.fmap.alphabet_size:
        raise InputError("model map alphabet does not match the source alphabet")
    s0_table, emit = source.fmap.step_table, source.emit
    s1_table = model_map.step_table
    n0, n1 = source.fmap.state_count, model_map.state_count
    total = n0 * n1

    transition = np.zeros((total, total))
    for u in range(n0):
        for v in range(n1):
            p = u * n1 + v
            for y in range(source.fmap.alphabet_size):
                if emit[u, y] == 0.0:
                    continue
                q = s0_table[u, y] * n1 + s1_table[v, y]
                transition[p, q] += emit[u, y]

    start = source.fmap.start_state * n1 + model_map.start_state
    reach = np.zeros(total, dtype=bool)
    stack = [start]
    reach[start] = True
    while stack:
        v = stack.pop()
        for w in np.nonzero(transition[v] > 0)[0]:
            if not reach[w]:
                reach[w] = True
                stack.append(int(w))

    nodes = np.nonzero(reach)[0]
    sub = transition[np.ix_(nodes, nodes)]
    components = _strongly_connected_components(sub > 0)
    closed = []
    for component in components:
        others = [i for i in range(len(nodes)) if i not in set(component)]
        if not others or not np.any(sub[np.ix_(component, others)] > 0):
            closed.append(component)
    if len(closed) != 1:
        raise InputError(
            "the source does not drive the model map into a single recurrent "
            "class; check is_ergodic_chain on the induced transition matrix")
    recurrent = nodes[sorted(closed[0])]
    pi = stationary(transition[np.ix_(recurrent, recurrent)])
    pairs = [(int(p // n1), int(p % n1)) for p in recurrent]
    return pairs, pi


def limiting_parameters(source: FsmxSource, model_map: FeatureMap):
    """Long-run transition and emission frequencies a map accumulates.

    These are the almost-sure limits of the estimated matrices when the map
    digests data drawn from the source. Model states with no stationary mass
    keep uniform rows so the result stays a valid parameter set.
    """
    pairs, pi = _product_chain(source, model_map)
    n1 = model_map.state_count
    a_size = source.fmap.alphabet_size
    emit = source.emit
    trans_flow = np.zeros((n1, n1))
    emis_flow = np.zeros((n1, a_size))
    for (u, v), mass in zip(pairs, pi):
        for y in range(a_size):
            w = mass * emit[u, y]
            if w == 0.0:
                continue
            nxt = model_map.step_table[v, y]
            trans_flow[v, nxt] += w
            emis_flow[nxt, y] += w

    def normalize(flow):
        out = np.empty_like(flow)
        for i, row in enumerate(flow):
            s = row.sum()
            out[i] = row / s if s > 0 else np.full(row.size, 1.0 / row.size)
        return out

    return normalize(trans_flow), normalize(emis_flow)


def cross_entropy_exact_markov(source: FsmxSource, model_map: FeatureMap,
                               transition: np.ndarray,
                               emission: np.ndarray) -> CrossEntropyEstimate:
    """Asymptotic per-symbol code length of source data under a map model.

    The model charges -ln(T[v, v'] * E[v', y]) for each symbol, where v' is
    its deterministic successor state; averaging over the stationary law of
    the (source state, model state) chain gives the exact limit. The value is
    +inf when the model assigns zero probability where the source has
    support.
    """
    transition = np.asarray(transition, dtype=np.float64)
    emission = np.asarray(emission, dtype=np.float64)
    pairs, pi = _product_chain(source, model_map)
    emit = source.emit
    value = 0.0
    for (u, v), mass in zip(pairs, pi):
        if mass == 0.0:
            continue
        for y in range(source.fmap.alphabet_size):
            p_true = emit[u, y]
            if p_true == 0.0:
                continue
            nxt = model_map.step_table[v, y]
            p_model = transition[v, nxt] * emission[nxt, y]
            if p_model <= 0.0:
                return CrossEntropyEstimate(value=math.inf, mode="exact-markov")
            value -= mass * p_true * math.log(p_model)
    return CrossEntropyEstimate(value=value, mode="exact-markov")


def cross_entropy_of_estimate(source: FsmxSource, model_map: FeatureMap,
                              emp: EmpiricalHmm) -> CrossEntropyEstimate:
    """Convenience overload evaluating an estimated parameter set."""
    return cross_entropy_exact_markov(source, model_map, emp.transition, emp.emission)


def _block_bootstrap_se(losses: np.ndarray, rng: np.random.Generator,
                        replicates: int = 64) -> float:
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


def cross_entropy_mc(true_model: FsmxSource | Hmm, model: Hmm, n: int,
                     seed: int) -> CrossEntropyEstimate:
    """Monte-Carlo cross-entropy: sample from the source, average the model's
    per-symbol code length, and attach a moving-block bootstrap standard
    error (block length ~ sqrt(n))."""
    if n < 1_000:
        raise InputError("Monte-Carlo cross-entropy needs n >= 1000")
    if isinstance(true_model, FsmxSource):
        sample = sample_fsmx(true_model, n, seed)
    else:
        sample = sample_hmm(true_model, n, seed)
    if sample.alphabet.size != model.emission_size:
        raise InputError("alphabet mismatch between source and model")
    steps = forward_loglik_steps(model, sample.items)
    if np.isinf(steps).any():
        return CrossEntropyEstimate(value=math.inf, mode="monte-carlo", n_used=n)
    se = _block_bootstrap_se(steps, rng_stream(seed, stream=1))
    return CrossEntropyEstimate(value=float(steps.mean()), mode="monte-carlo",
                                n_used=n, std_error=se)


def hmm_from_map_model(model_map: FeatureMap, transition: np.ndarray,
                       emission: np.ndarray) -> Hmm:
    """Wrap map-based parameters as an Hmm starting at the map's start state."""
    initial = np.zeros(model_map.state_count)
    initial[model_map.start_state] = 1.0
    return Hmm(transition=transition, emission=emission, initial=initial)


# ---------------------------------------------------------------------------
# model files (JSON): {"type": "hmm", "T", "E", "initial"} or
# {"type": "fsmx", "map": <map object>, "emit": <rows>}


def model_to_json(model: Hmm | FsmxSource) -> dict:
    if isinstance(model, Hmm):
        return {"type": "hmm", "T": model.transition.tolist(),
                "E": model.emission.tolist(), "initial": model.initial.tolist()}
    return {"type": "fsmx", "map": model.fmap.to_json(), "emit": model.emit.tolist()}


def model_from_json(data: dict) -> Hmm | FsmxSource:
    from .fmaps import load_fsm_map

    if not isinstance(data, dict):
        raise InputError("model file must hold a JSON object")
    kind = data.get("type")
    if kind == "hmm" or (kind is None and {"T", "E", "initial"} <= data.keys()):
        try:
            return Hmm(transition=np.array(data["T"], dtype=np.float64),
                       emission=np.array(data["E"], dtype=np.float64),
                       initial=np.array(data["initial"], dtype=np.float64))
        except KeyError as exc:
            raise InputError(f"hmm model missing field {exc}") from exc
    if kind == "fsmx" or (kind is None and {"map", "emit"} <= data.keys()):
        try:
            fmap = load_fsm_map(data["map"])
            return FsmxSource(fmap=fmap, emit=np.array(data["emit"], dtype=np.float64))
        except KeyError as exc:
            raise InputError(f"fsmx model missing field {exc}") from exc
    raise InputError("model type must be 'hmm' (T, E, initial) or 'fsmx' (map, emit)")


def read_model(path) -> Hmm | FsmxSource:
    return model_from_json(_read_json(path, "model"))


def write_model(path, model: Hmm | FsmxSource):
    _write_json(path, model_to_json(model))
