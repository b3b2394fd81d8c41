"""Generative models and their numerics.

Covers hidden-Markov parameter sets, finite-state sources with per-state
symbol distributions, stationary distributions, chain ergodicity, marginal
likelihoods (normalized forward recursion plus a brute-force path-sum
oracle), and cross-entropy between a source and a model, both exactly on the
product chain and by Monte Carlo.

Randomness comes from named counter-based streams: ``rng_stream(seed, k)``
yields the k-th independent stream of an experiment seed, so parallel runs
reproduce serial ones bit-exactly. Samplers pre-draw uniforms and feed them
to one walk kernel (``_kernels.sample_walk``), which inverts each uniform
through the current state's CDF row, so a seed fixes every draw.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InputError, ResourceError
from .fmaps import FeatureMap, load_fsm_map
from .sequences import (Alphabet, SymbolSequence, _as_symbols, _check_int,
                        _fields, _number_table, _read_json, _write_json)

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10
DEFAULT_PATH_CAP = 10_000_000
# the longest walk a sampler takes: its uniforms, up to two 8-byte draws a
# step, must fit in one array, whose size in bytes numpy holds in an intp
_MAX_STEPS = np.iinfo(np.intp).max // 16


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream index)."""
    _check_seed(seed, stream)
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_seed(seed: int, stream: int = 0):
    _check_int(seed, "seed")
    _check_int(stream, "stream")
    if not (0 <= seed < 2**64 and 0 <= stream < 2**64):
        raise InputError(f"seed and stream must lie in 0..2**64-1, got {seed} and {stream}")


def _check_length(n: int, what: str):
    _check_int(n, what)
    if n < 1:
        raise InputError(f"{what} must be >= 1")
    if n > _MAX_STEPS:
        raise ResourceError(f"{what} {n} exceeds {_MAX_STEPS}, the most steps "
                            f"whose uniforms fit in one array")


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
        self.transition = _number_table(self.transition, "transition matrix")
        self.emission = _number_table(self.emission, "emission matrix")
        self.initial = _number_table(self.initial, "initial distribution")
        if self.transition.ndim != 2 or self.transition.shape[0] != self.transition.shape[1]:
            raise InputError("transition matrix must be square")
        s = self.transition.shape[0]
        if self.emission.ndim != 2 or self.emission.shape[0] != s or self.initial.shape != (s,):
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
        self.emit = _number_table(self.emit, "emit table")
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
    _check_length(n, "sample length")
    u = rng_stream(seed, stream).random((1, n))
    [items] = _kernels.sample_walk([np.cumsum(source.emit, axis=1).tolist()],
                                   [source.fmap.step_table.tolist()], source.fmap.start_state, u)
    return SymbolSequence(source.alphabet, items)


def sample_hmm(hmm: Hmm, n: int, seed: int, stream: int = 0) -> SymbolSequence:
    """Draw a state chain from the transition matrix and emit one symbol per state.

    One walk steps the hidden states, one event a step in two phases: hidden
    state s draws the next hidden state k from the first row of uniforms,
    then k draws the symbol from the second.
    """
    _check_length(n, "sample length")
    rng = rng_stream(seed, stream)
    start = int(np.searchsorted(np.cumsum(hmm.initial), rng.random(), side="right"))
    start = min(start, hmm.state_count - 1)
    s_count = hmm.state_count
    cdf_rows = [np.cumsum(hmm.transition, axis=1).tolist(),
                np.cumsum(hmm.emission, axis=1).tolist()]
    step_rows = [[list(range(s_count))] * s_count,
                 [[k] * hmm.emission_size for k in range(s_count)]]
    _, items = _kernels.sample_walk(cdf_rows, step_rows, start, rng.random((2, n)))
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
    state, symbol = np.indices(emit.shape).reshape(2, -1)
    entered = fmap.step_table[state, symbol]
    transition = np.zeros((s_count, s_count))
    # unbuffered scatters in (state, symbol) order: every cell sums as a loop would
    np.add.at(transition, (state, entered), emit[state, symbol])

    emission = np.zeros((s_count, a_size))
    if fmap.kind == "suffix-tree":
        emission[np.arange(s_count), [suffix[-1] for suffix in fmap.suffixes]] = 1.0
    else:
        np.add.at(emission, (entered, symbol),
                  stationary(transition)[state] * emit[state, symbol])
        inflow = emission.sum(axis=1, keepdims=True)
        emission = np.divide(emission, inflow, where=inflow > 0,
                             out=np.full_like(emission, 1.0 / a_size))

    initial = np.zeros(s_count)
    initial[fmap.start_state] = 1.0
    return Hmm(transition=transition, emission=emission, initial=initial)


def _reachable(support: np.ndarray, seeds) -> np.ndarray:
    """Boolean mask of the states reachable from ``seeds`` (included) along
    the edges of a square boolean adjacency matrix, by breadth-first search."""
    seen = np.zeros(support.shape[0], dtype=bool)
    seen[seeds] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = support[frontier].any(axis=0) & ~seen
        seen |= frontier
    return seen


def is_ergodic_chain(transition: np.ndarray) -> bool:
    """Whether every state reaches every other along positive-probability edges.

    Periodic chains count as ergodic here; only reachability matters.
    """
    support = np.asarray(transition) > 0
    return bool(_reachable(support, 0).all() and _reachable(support.T, 0).all())


def stationary(transition: np.ndarray) -> np.ndarray:
    """The unique row vector pi with pi @ T = pi, summing to one.

    Solved densely, with the last balance equation replaced by the
    normalization. When that solve is singular, not finite or leaves a
    residual above ``STATIONARY_TOL`` (as transition probabilities many orders
    of magnitude apart can make it), the law is taken by state reduction
    instead. Raises InputError when the chain is not ergodic, or when neither
    result is finite with a residual within ``STATIONARY_TOL``.
    """
    transition = np.asarray(transition, dtype=np.float64)
    if not is_ergodic_chain(transition):
        raise InputError(
            "transition matrix is not ergodic; run is_ergodic_chain to locate "
            "unreachable states")
    n = transition.shape[0]
    system = transition.T - np.eye(n)
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        pi = _normalized(np.linalg.solve(system, rhs))
    except np.linalg.LinAlgError:
        pi = None
    if pi is None or not _residual(pi, transition) <= STATIONARY_TOL:
        pi = _normalized(_state_reduction(transition))
        if pi is None:
            raise InputError("stationary distribution cannot be solved: no finite solution")
        residual = _residual(pi, transition)
        if not residual <= STATIONARY_TOL:
            raise InputError(f"stationary solve residual {residual:.3e} exceeds "
                             f"{STATIONARY_TOL:.1e}")
    return pi


def _normalized(pi: np.ndarray) -> np.ndarray | None:
    # pi scaled to sum to one, negative rounding clipped; None when no finite
    # positive total exists
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if not (np.isfinite(total) and total > 0):
        return None
    pi /= total
    return pi


def _residual(pi: np.ndarray, transition: np.ndarray) -> float:
    return float(np.abs(pi @ transition - pi).max())


def _state_reduction(transition: np.ndarray) -> np.ndarray:
    # Grassmann, Taksar & Heyman (Oper. Res. 33(5), 1985): censor the chain
    # onto states 0..k-1 for k = n-1 down to 1, then build pi up from state 0.
    # Only off-diagonal entries enter and nothing is subtracted, so no
    # cancellation loses the small probabilities; an underflow to 0 or an
    # overflow leaves a non-finite pi, which the caller refuses
    reduced = transition.copy()
    n = reduced.shape[0]
    pi = np.ones(n)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(n - 1, 0, -1):
            reduced[:k, k] /= reduced[k, :k].sum()
            reduced[:k, :k] += np.outer(reduced[:k, k], reduced[k, :k])
        for k in range(1, n):
            pi[k] = pi[:k] @ reduced[:k, k]
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
    """Per-symbol code-length increments (nats); +inf past a zero-probability step.

    Raises InputError when ``items`` holds a symbol outside the model's alphabet.
    """
    symbols = _as_symbols(items, hmm.emission_size, "sequence")
    return _kernels.forward_nll_steps(hmm.transition, hmm.emission, hmm.initial, symbols)


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


def _product_chain(source: FsmxSource, model_map: FeatureMap):
    """Joint chain over (source state, model state) pairs under the source law.

    Pair (u, v) is state ``u * n1 + v``, with n1 the model's state count.
    The recurrent class is found by descent: from the start pair, move to any
    state ahead that cannot get back, until every state ahead returns; those
    states form a closed class. It must be the only one, so every state
    reachable from the start must be able to reach it.

    Returns the sorted recurrent pair states and their stationary
    distribution. The model map must see the same alphabet as the source.
    """
    if model_map.alphabet_size != source.fmap.alphabet_size:
        raise InputError("model map alphabet does not match the source alphabet")
    n0, n1 = source.fmap.state_count, model_map.state_count
    u, v, y = np.indices((n0, n1, source.fmap.alphabet_size)).reshape(3, -1)
    transition = np.zeros((n0 * n1, n0 * n1))
    # one unbuffered scatter in (u, v, y) order: every cell sums as a loop would
    np.add.at(transition,
              (u * n1 + v,
               source.fmap.step_table[u, y] * n1 + model_map.step_table[v, y]),
              source.emit[u, y])

    support = transition > 0
    start = source.fmap.start_state * n1 + model_map.start_state
    state = start
    while True:
        ahead = _reachable(support, state)
        escapes = np.flatnonzero(ahead & ~_reachable(support.T, state))
        if escapes.size == 0:
            break
        state = escapes[0]
    if np.any(_reachable(support, start) & ~_reachable(support.T, ahead)):
        raise InputError(
            "the source does not drive the model map into a single recurrent "
            "class; check is_ergodic_chain on the induced transition matrix")
    recurrent = np.flatnonzero(ahead)
    return recurrent, stationary(transition[np.ix_(recurrent, recurrent)])


def _stationary_flows(source: FsmxSource, model_map: FeatureMap):
    """Every (recurrent pair, symbol) the source can emit, in pair-then-symbol
    order: the model state v, the symbol y, the successor state
    ``step_table[v, y]`` and the stationary flow pi * emit.

    Pairs with no stationary mass and symbols the source never emits are
    left out.
    """
    recurrent, pi = _product_chain(source, model_map)
    u, v = np.divmod(recurrent, model_map.state_count)
    emit = source.emit[u]
    pair, y = np.nonzero((pi[:, None] > 0) & (emit > 0))
    v = v[pair]
    return v, y, model_map.step_table[v, y], pi[pair] * emit[pair, y]


def limiting_parameters(source: FsmxSource, model_map: FeatureMap):
    """Long-run transition and emission frequencies a map accumulates.

    These are the almost-sure limits of the estimated matrices when the map
    digests data drawn from the source. Model states with no stationary mass
    keep uniform rows so the result stays a valid parameter set.
    """
    v, y, nxt, flow = _stationary_flows(source, model_map)
    n1 = model_map.state_count
    trans_flow = np.zeros((n1, n1))
    emis_flow = np.zeros((n1, source.fmap.alphabet_size))
    np.add.at(trans_flow, (v, nxt), flow)
    np.add.at(emis_flow, (nxt, y), flow)

    def normalize(flow):
        sums = flow.sum(axis=1, keepdims=True)
        out = np.full_like(flow, 1.0 / flow.shape[1])
        return np.divide(flow, sums, out=out, where=sums > 0)

    return normalize(trans_flow), normalize(emis_flow)


def _flow_code_length(flow: np.ndarray, p_model: np.ndarray) -> CrossEntropyEstimate:
    # the stationary mean of -ln p_model; +inf where the model gives a flow
    # of the source probability zero
    if np.any(p_model <= 0.0):
        return CrossEntropyEstimate(value=math.inf, mode="exact-markov")
    return CrossEntropyEstimate(value=-float(flow @ np.log(p_model)), mode="exact-markov")


def cross_entropy_exact_markov(source: FsmxSource, model_map: FeatureMap,
                               transition: np.ndarray,
                               emission: np.ndarray) -> CrossEntropyEstimate:
    """Asymptotic per-symbol code length of source data under map parameters.

    The (T, E) law, for estimated or limiting parameters of a map: the model
    charges -ln(T[v, v'] * E[v', y]) for each symbol, where v' is its
    deterministic successor state; averaging over the stationary law of the
    (source state, model state) chain gives the exact limit. The value is
    +inf when the model assigns zero probability where the source has
    support.
    """
    transition = np.asarray(transition, dtype=np.float64)
    emission = np.asarray(emission, dtype=np.float64)
    v, y, nxt, flow = _stationary_flows(source, model_map)
    return _flow_code_length(flow, transition[v, nxt] * emission[nxt, y])


def cross_entropy_exact_fsmx(source: FsmxSource, model: FsmxSource) -> CrossEntropyEstimate:
    """Asymptotic per-symbol code length of source data under a finite-state model.

    The model's own path law: its state is fixed by the history, so it
    charges -ln emit[v, y] for symbol y read in model state v. Averaging over
    the stationary law of the (source state, model state) chain gives the
    exact limit; +inf when the model gives a symbol the source emits
    probability zero.
    """
    v, y, _, flow = _stationary_flows(source, model.fmap)
    return _flow_code_length(flow, model.emit[v, y])


def _block_bootstrap_se(losses: np.ndarray, rng: np.random.Generator,
                        replicates: int = 64) -> float:
    # each replicate's mean is the sum of its block sums, read off one prefix
    # sum; the last block is cut so that a replicate holds n losses
    n = losses.size
    block = max(1, int(math.isqrt(n)))
    n_blocks = math.ceil(n / block)
    max_start = n - block
    lengths = np.full(n_blocks, block)
    lengths[-1] = n - (n_blocks - 1) * block
    prefix = np.concatenate(([0.0], np.cumsum(losses)))
    means = np.empty(replicates)
    for b in range(replicates):
        starts = rng.integers(0, max_start + 1, size=n_blocks)
        means[b] = (prefix[starts + lengths] - prefix[starts]).sum() / n
    return float(means.std(ddof=1))


def cross_entropy_mc(true_model: FsmxSource | Hmm, model: FsmxSource | Hmm, n: int,
                     seed: int) -> CrossEntropyEstimate:
    """Monte-Carlo cross-entropy: sample from the source, average the model's
    per-symbol code length, and attach a moving-block bootstrap standard
    error (block length ~ sqrt(n)).

    A finite-state model codes by its own path law: one walk of its map over
    the sample fixes the state before each symbol, and symbol y_t costs
    -ln emit[s_{t-1}, y_t]. A hidden-Markov model codes by the normalized
    forward recursion.
    """
    if n < 1_000:
        raise InputError("Monte-Carlo cross-entropy needs n >= 1000")
    if isinstance(true_model, FsmxSource):
        sample = sample_fsmx(true_model, n, seed)
    else:
        sample = sample_hmm(true_model, n, seed)
    if isinstance(model, FsmxSource):
        # one walk fixes the state before each symbol; InputError on an
        # alphabet mismatch
        with np.errstate(divide="ignore"):
            steps = -np.log(model.emit[model.fmap.walk(sample)[:-1], sample.items])
    elif sample.alphabet.size != model.emission_size:
        raise InputError("alphabet mismatch between source and model")
    else:
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
    kind = _fields(data, "model file", ()).get("type")
    if kind == "hmm" or (kind is None and {"T", "E", "initial"} <= data.keys()):
        _fields(data, "hmm model", ("T", "E", "initial"))
        return Hmm(transition=data["T"], emission=data["E"], initial=data["initial"])
    if kind == "fsmx" or (kind is None and {"map", "emit"} <= data.keys()):
        _fields(data, "fsmx model", ("map", "emit"))
        return FsmxSource(fmap=load_fsm_map(data["map"]), emit=data["emit"])
    raise InputError("model type must be 'hmm' (T, E, initial) or 'fsmx' (map, emit)")


def read_model(path) -> Hmm | FsmxSource:
    return model_from_json(_read_json(path, "model"))


def write_model(path, model: Hmm | FsmxSource):
    _write_json(path, model_to_json(model))
