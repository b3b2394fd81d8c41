"""Maximum-likelihood state models, code lengths, and penalized cost criteria.

Counting convention: the state path s_0..s_n starts at the map's start state;
transitions are the n pairs (s_{t-1}, s_t) and emissions are the n pairs
(s_t, y_t), for t = 1..n. All code lengths are in nats. Likelihoods of the
driving sequence itself follow the unique realized state path; the
observations-only criterion marginalizes hidden states with the forward
recursion, starting from a point mass at the start state. Where the
estimate's forward law stays that point mass along the counted path (from
every state, each y has at most one successor that the estimate lets move
there and emit y), the forward's normalizers are the path's factors, so the
criterion codes from the counts, with the same result up to summation order.

One rule reads the data for ``estimate``, ``score_map`` and
``log_likelihood``, and the same rule (``_alphabets``) sizes the baseline
map and the penalty that the CLI and ``active_select`` build. A plain
sequence over A drives the map and emits itself, so a candidate reads |A|
symbols and every criterion codes |A|. Pairs drive it by the joint symbol
x * |Y| + y, so a candidate reads |X| * |Y| symbols; they emit that joint
symbol under ``cost`` and ``ml``, which code |X| * |Y| symbols, and y under
``icost`` and ``ocost``, which code |Y|. A penalty counts the alphabet the
criterion codes. ``score_map`` is the only function that scores a map, and
``cost``, ``icost``, ``ocost`` and ``ml_cost`` equal it under their own
criterion.

Counts come from one of two forms with identical integers, so every total is
the same either way. Both count how often the map steps from each state on
each drive symbol; such a step emits the drive symbol mod |emit|, which is
the symbol itself on plain data and under ``cost`` and ``ml``, and y on pairs
under ``icost`` and ``ocost``. A map with memory bound kappa
(``memory_bound``) is in a state after any L >= kappa + 1 symbols that those
symbols alone fix, so its steps after the first L are folded from the counts
of the data's (L + 1)-gram cells; the first L steps are counted from the start
state. One ``_ContextTable`` holds those cell counts for every candidate of a
call and every prefix length it scores: L is the largest kappa + 1 among the
maps with |drive|^(kappa+2) * |emit| <= ``_TABLE_CELLS``, so the shared table
has at most that many cells. Each of those maps is folded at L; maps without
bounded memory, larger ones and prefixes of n <= L are counted from the block
walk's cells (``_kernels.count_pairs``), which forms no state path. The
context-count table has the block walk's budget, 2^14 cells
(``_kernels._GRAM_CELLS``): past it a fold is no faster than counting from
the block walk's cells, so binary ``cost`` folds spans up to 12.

Every candidate of one prefix length is coded in one pass
(``_ContextTable.scores``). The maps' (S, S) transition and (S, |emit|)
emission counts are laid out flat, in a layout that depends only on the
state counts and is built once per table; one weighted bincount takes every
row's smoothed sum c + a, and one NumPy expression the terms c * ln p of
every entry with c > 0. Each map's transition terms and its emission terms
are summed exactly rounded (``math.fsum``) and the two sums added, the rule
that ``counts_nll`` follows too. So a total depends on the multiset of its
count cells and not on how the map labels its states: equal multisets give
equal totals wherever the row sums are exact, as they are at smoothing 0
(with smoothing a > 0 a row adds c + a in column order). No ``EmpiricalHmm``
is built to code from counts; only ``icost`` on pairs with |X| > 1 builds
one per map, to decide whether the forward recursion runs and to run it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InputError
from .fmaps import FeatureMap, memory_bound
from .sequences import PairedSequence, SymbolSequence, _check_int


@dataclass(eq=False)
class EmpiricalHmm:
    """Counts and row-normalized transition/emission estimates."""

    state_count: int
    emission_size: int
    transition_counts: np.ndarray
    emission_counts: np.ndarray
    transition: np.ndarray
    emission: np.ndarray
    transition_row_visited: np.ndarray
    emission_row_visited: np.ndarray
    n: int
    smoothing: float


@dataclass(frozen=True)
class CostBreakdown:
    """Data coding cost plus model complexity penalty, in nats."""

    criterion: str
    map_id: str
    n: int
    data_cost: float
    penalty: float
    total: float

    @classmethod
    def build(cls, criterion, map_id, n, data_cost, penalty):
        return cls(criterion=criterion, map_id=map_id, n=n,
                   data_cost=data_cost, penalty=penalty,
                   total=data_cost + penalty)


@dataclass(frozen=True)
class PenaltyScheme:
    """Model complexity penalty pen(n, S): positive, increasing in n and S,
    sublinear in n.

    specs:
      * ``bic:markov``: (d / 2) * ln n with dimension d = S*(Y-1), for
        deterministic-emission maps;
      * ``bic:full``: the same with d = S*(S-1) + S*(Y-1);
      * ``cubic``: S^3 * ln n.
    """

    spec: str
    alphabet_size: int

    def __post_init__(self):
        if self.spec not in ("bic:markov", "bic:full", "cubic"):
            raise InputError(f"unknown penalty spec {self.spec!r} "
                             "(expected bic:markov, bic:full, or cubic)")
        _check_int(self.alphabet_size, "penalty alphabet size")
        if self.alphabet_size < 1:
            raise InputError("penalties need the emission alphabet size")

    @classmethod
    def from_string(cls, text: str, alphabet_size: int) -> "PenaltyScheme":
        return cls(spec=text, alphabet_size=alphabet_size)

    def value(self, n: int, state_count: int) -> float:
        if n < 1 or state_count < 1:
            raise InputError("penalty needs n >= 1 and S >= 1")
        if self.spec == "cubic":
            return state_count ** 3 * math.log(n)
        dim = state_count * (self.alphabet_size - 1)
        if self.spec == "bic:full":
            dim += state_count * (state_count - 1)
        # a zero dimension (S=1 over a unary alphabet) would break
        # positivity; clamp to one parameter
        return max(dim, 1) / 2.0 * math.log(n)


def _normalize_rows(counts: np.ndarray, smoothing: float) -> tuple[np.ndarray, np.ndarray]:
    counts = counts.astype(np.float64)
    visited = counts.sum(axis=1) > 0
    smoothed = counts + smoothing
    sums = smoothed.sum(axis=1)
    probs = np.zeros_like(smoothed)
    rows = sums > 0
    probs[rows] = smoothed[rows] / sums[rows, None]
    return probs, visited


def _check_smoothing(smoothing: float):
    # nan fails the comparisons, and only a Python int can exceed the largest float
    if (isinstance(smoothing, bool)
            or not isinstance(smoothing, (int, float, np.integer, np.floating))
            or not 0 <= smoothing < math.inf
            or (isinstance(smoothing, int) and smoothing > sys.float_info.max)):
        raise InputError(f"smoothing must be a finite number >= 0, got {smoothing!r}")


# the most cells a context-count table may hold: the block walk's budget, since
# a fold at a wider span is no faster than counting from the block walk's cells
_TABLE_CELLS = _kernels._GRAM_CELLS


def _estimate_from_counts(trans_counts, emis_counts, n, smoothing) -> EmpiricalHmm:
    transition, trans_visited = _normalize_rows(trans_counts, smoothing)
    emission, emis_visited = _normalize_rows(emis_counts, smoothing)
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


def _alphabets(data: SymbolSequence | PairedSequence, criterion: str) -> tuple[int, int]:
    # the alphabet a candidate map reads and the one the criterion codes
    if not isinstance(data, PairedSequence):
        return data.alphabet.size, data.alphabet.size
    coded = data.joint_size if criterion in ("cost", "ml") else data.y_alphabet.size
    return data.joint_size, coded


def _check_reads(fmap: FeatureMap, read: int, paired: bool = False):
    # whether the map reads the data's alphabet, |read| symbols
    if read != fmap.alphabet_size:
        raise InputError(f"alphabet mismatch: map expects {fmap.alphabet_size} symbols, "
                         f"{'pairs span' if paired else 'sequence has'} {read}")


class _ContextTable:
    """The counts of each map's state path on prefixes of one data set, read
    as ``criterion`` reads it.

    The cell counts at span ``span`` are taken once, over the first n symbols
    for every n in ``ends`` (increasing; by default the whole data), and each
    map that fits is folded from them; ``counts`` counts every other map and
    prefix length from the block walk's cells. A map's head (its first
    ``span`` steps) and its cell index are worked out the first time it is
    folded.
    """

    def __init__(self, maps: list[FeatureMap], data, criterion: str, ends=None):
        read, self.n_emit = _alphabets(data, criterion)
        paired = isinstance(data, PairedSequence)
        for fmap in maps:
            _check_reads(fmap, read, paired)
        self.data = data
        self.criterion = criterion
        # the maps whose own table fits, each folded at the widest of their spans
        spans = {fmap: bound.kappa + 1 for fmap, bound in zip(maps, map(memory_bound, maps))
                 if bound.bounded and read ** (bound.kappa + 2) * self.n_emit <= _TABLE_CELLS}
        self.span = max(spans.values(), default=0)
        self._folds = dict.fromkeys(spans)
        ends = [n for n in (ends or [len(data)]) if n > self.span]
        # the cells that occur, and their counts at each end
        self._cells, self._counts, self._layouts = None, {}, {}
        if spans and ends:
            self._cells, counts = _kernels.cell_counts(self._drive(ends[-1]), read,
                                                       self.span, ends)
            self._counts = dict(zip(ends, counts))

    def counts(self, fmap: FeatureMap, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Transition and emission counts over the first n symbols."""
        if n in self._counts and fmap in self._folds:
            if self._folds[fmap] is None:
                head = self._walk(fmap, self.span)
                self._folds[fmap] = head, _kernels.cell_index(
                    fmap.step_table, self._cells, self.n_emit, self.span)
            return _kernels.count_table(*self._folds[fmap], self._counts[n])
        return self._walk(fmap, n)

    def _drive(self, n):
        # the first n drive symbols, formed per call so that no joint array
        # outlives its count
        data = self.data
        if not isinstance(data, PairedSequence):
            return data.items[:n]
        # the joint symbols fit in int64, since a map's table has that many
        # columns; with |X| = 1 the joint symbol is y itself
        return data.xs[:n] * data.y_alphabet.size + data.ys[:n]

    def _walk(self, fmap, n):
        pairs = _kernels.count_pairs(fmap.step_table, fmap.start_state, self._drive(n))
        return _kernels.step_counts(fmap.step_table, pairs, self.n_emit)

    def scores(self, maps: list[FeatureMap], n: int, scheme: PenaltyScheme | None,
               smoothing: float) -> list[CostBreakdown]:
        """``score_map`` of each map on the first n symbols, in one code-length
        pass over all their counts."""
        counts = [self.counts(fmap, n) for fmap in maps]
        data_costs = self._code_lengths(counts, smoothing)
        data, criterion = self.data, self.criterion
        if criterion == "icost" and isinstance(data, PairedSequence) and data.x_alphabet.size > 1:
            for i, (fmap, (trans, emis)) in enumerate(zip(maps, counts)):
                emp = _estimate_from_counts(trans, emis, n, smoothing)
                if ((emp.transition > 0).astype(np.int64) @ (emp.emission > 0)).max() > 1:
                    initial = np.eye(1, fmap.state_count, fmap.start_state)[0]
                    data_costs[i] = float(_kernels.forward_nll_steps(
                        emp.transition, emp.emission, initial, data.ys[:n]).sum())
        return [CostBreakdown.build(criterion, fmap.map_id, n, data_cost,
                                    _penalty(criterion, scheme, n, fmap.state_count))
                for fmap, data_cost in zip(maps, data_costs)]

    def _code_lengths(self, counts, smoothing) -> list[float]:
        # every map's counts coded under their own smoothed row frequencies:
        # the blocks laid out flat, one row sum a row, the terms c * ln p where
        # c > 0 in one pass, and each block's terms summed by ``math.fsum``
        rows, bounds = self._layout(tuple(trans.shape[0] for trans, _ in counts))
        flat = np.concatenate([block.ravel() for pair in counts for block in pair])
        smoothed = flat.astype(np.float64) + smoothing
        sums = np.bincount(rows, weights=smoothed)
        used = np.flatnonzero(flat)
        with np.errstate(divide="ignore"):
            terms = (flat[used] * np.log(smoothed[used] / sums[rows[used]])).tolist()
        cuts = np.searchsorted(used, bounds).tolist()
        block = [math.fsum(terms[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        return [-trans - emis for trans, emis in zip(block[::2], block[1::2])]

    def _layout(self, state_counts):
        # the row of each entry of the flat blocks, (S, S) transitions then
        # (S, |emit|) emissions a map, and where each block starts and ends;
        # it depends only on the maps' state counts
        if state_counts not in self._layouts:
            widths = [w for s in state_counts for w in (s,) * s + (self.n_emit,) * s]
            sizes = [size for s in state_counts for size in (s * s, s * self.n_emit)]
            self._layouts[state_counts] = (np.repeat(np.arange(len(widths)), widths),
                                           np.cumsum([0, *sizes]))
        return self._layouts[state_counts]


def _table(maps: list[FeatureMap], data, criterion: str, smoothing: float,
           ends=None) -> _ContextTable:
    # the checks every estimate makes, then the maps' table
    if len(data) < 1:
        raise InputError("cannot estimate from an empty sequence")
    _check_smoothing(smoothing)
    return _ContextTable(maps, data, criterion, ends)


def estimate(fmap: FeatureMap, data: SymbolSequence | PairedSequence,
             smoothing: float = 0.0) -> EmpiricalHmm:
    """Estimate transition and emission frequencies of the induced state path.

    A plain sequence drives the map and emits itself. Pairs drive it by the
    joint symbol x * |Y| + y and emit y.
    """
    table = _table([fmap], data, "ocost", smoothing)
    return _estimate_from_counts(*table.counts(fmap, len(data)), len(data), smoothing)


def estimate_paired(fmap: FeatureMap, paired: PairedSequence,
                    smoothing: float = 0.0) -> EmpiricalHmm:
    """Drive the state path with pair symbols but count emissions of y only."""
    return estimate(fmap, paired, smoothing)


def counts_nll(counts: np.ndarray, probs: np.ndarray) -> float:
    """-sum over entries of count * ln(prob); +inf when a used entry has
    probability zero.

    The terms are summed exactly rounded (``math.fsum``), so equal multisets
    of (count, prob) entries give equal sums in any order: maps whose count
    cells hold equal count multisets, such as a map and its states
    relabelled, tie exactly.
    """
    mask = counts > 0
    used = probs[mask]
    if np.any(used <= 0.0):
        return math.inf
    return -math.fsum((counts[mask] * np.log(used)).tolist())


def log_likelihood(fmap: FeatureMap, emp: EmpiricalHmm, seq: SymbolSequence) -> float:
    """Code length of ``seq`` under the estimated parameters, in nats.

    The data is read as ``estimate`` reads it. The update is deterministic,
    so the state path compatible with the sequence is unique and the
    likelihood is the product of transition and emission factors along it.
    Evaluating parameters estimated from a different sequence can hit a zero
    factor, reported as +inf.
    """
    if emp.state_count != fmap.state_count:
        raise InputError("state count mismatch between map and estimate")
    trans, emis = _ContextTable([fmap], seq, "ocost").counts(fmap, len(seq))
    return counts_nll(trans, emp.transition) + counts_nll(emis, emp.emission)


CRITERIA = ("cost", "icost", "ocost", "ml")


def _check_criterion(criterion: str):
    if criterion not in CRITERIA:
        raise InputError(f"unknown criterion {criterion!r} (expected one of {CRITERIA})")


def _penalty(criterion: str, scheme: PenaltyScheme | None, n: int, state_count: int) -> float:
    return 0.0 if criterion == "ml" else scheme.value(n, state_count)


def score_map(fmap: FeatureMap, data, criterion: str, scheme: PenaltyScheme | None,
              smoothing: float = 0.0) -> CostBreakdown:
    """One candidate's cost under the requested criterion.

    One estimate, the data coded under it, plus the penalty (none for
    ``ml``). The estimate's own counts code the data, so no second walk is
    needed. ``icost`` on pairs with |X| > 1 marginalizes the states with the
    forward recursion instead, since x is not coded, unless the estimate's
    forward law stays on one state: when from every state each y has at most
    one successor s' with T[s, s'] > 0 and E[s', y] > 0, the law is the point
    mass on the counted path, each normalizer is that path's T * E factor,
    and the counts give the same total up to summation order. Plain
    sequences admit every criterion: the side-information criteria treat the
    side channel as degenerate, which makes ``cost``, ``icost`` and ``ocost``
    coincide. On pairs ``cost`` and ``ml`` code the joint pair symbols.
    """
    _check_criterion(criterion)
    return _table([fmap], data, criterion, smoothing).scores([fmap], len(data), scheme,
                                                             smoothing)[0]


def cost(fmap: FeatureMap, seq: SymbolSequence, scheme: PenaltyScheme,
         smoothing: float = 0.0) -> CostBreakdown:
    """Self-estimated code length plus complexity penalty."""
    return score_map(fmap, seq, "cost", scheme, smoothing)


def icost(fmap: FeatureMap, paired: PairedSequence, scheme: PenaltyScheme,
          smoothing: float = 0.0) -> CostBreakdown:
    """Observations-only criterion: code y with hidden states marginalized.

    With degenerate side information (|X| = 1) the observation sequence
    determines the state path, the marginal collapses to the single
    compatible path, and y is coded along it, so icost, ocost and the cost
    of the y sequence agree exactly. With |X| > 1 the forward recursion
    marginalizes the states, unless the estimate's forward law stays on the
    counted path (see ``score_map``); then y is coded along that path from
    the counts, which equals the forward up to summation order.
    """
    return score_map(fmap, paired, "icost", scheme, smoothing)


def ocost(fmap: FeatureMap, paired: PairedSequence, scheme: PenaltyScheme,
          smoothing: float = 0.0) -> CostBreakdown:
    """State-path-plus-observations criterion: code the realized path and y."""
    return score_map(fmap, paired, "ocost", scheme, smoothing)


def ml_cost(fmap: FeatureMap, seq: SymbolSequence, smoothing: float = 0.0) -> CostBreakdown:
    """Pure maximum-likelihood criterion: the cost with a zero penalty."""
    return score_map(fmap, seq, "ml", None, smoothing)


def state_determines_pair(fmap: FeatureMap, paired: PairedSequence) -> bool:
    """Whether every state of the map is entered by a single pair symbol.

    True for suffix-tree maps over the joint alphabet (the state's suffix
    ends with the symbol that entered it); used as the testable surrogate
    for injectivity when comparing the path criterion with the joint cost.
    """
    if fmap.kind == "suffix-tree":
        return True
    entered_by: dict[int, set[int]] = {}
    for s in range(fmap.state_count):
        for e in range(fmap.alphabet_size):
            entered_by.setdefault(int(fmap.step_table[s, e]), set()).add(e)
    return all(len(v) == 1 for v in entered_by.values())
