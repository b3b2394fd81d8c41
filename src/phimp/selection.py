"""Model selection over classes of feature maps.

Candidates are scored with a chosen criterion by the one scoring path of
``estimation.score_map`` (re-exported here), and the minimum total wins. It
reads the data by one rule: a plain sequence drives the map and emits itself;
pairs drive it by x * |Y| + y and emit y, or the joint symbol under ``cost``
and ``ml``. The named criteria
``cost``, ``icost``, ``ocost`` and ``ml_cost`` equal it.

Ties break toward fewer states and then the canonical map order, so the
result does not depend on how the candidate list was arranged. Each total is
summed exactly rounded from its count cells, so candidates whose cells hold
equal count multisets, such as a map and its states relabelled, tie exactly
and this rule, not rounding, decides between them. One path goes from a
class and its data to a choice at each prefix length: it makes every check a
selection makes, sorts the class canonically, counts the data once for every
candidate and every requested prefix length (``estimation._ContextTable``),
codes every candidate of a length in one pass (``_ContextTable.scores``),
then picks the minimizer at each length.
``select`` is its one-point case on the whole data. Each seed of a
consistency run is its grid case on that seed's sample, and records when the
choice stops changing; the run itself is checked once, before any seed is
sampled. ``_sized`` sizes the injected baseline map from the alphabet the
data's maps read and the penalty from the alphabet the criterion codes, for
``phimp score``, ``select`` and ``active`` and for ``active_select``. The
countable-class search takes its checked, ordered class and table from the
same path, walks the maps in canonical order (ascending state count) and
skips any map whose penalty alone already exceeds the best total seen, which
is lossless because data costs are nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .estimation import (CostBreakdown, PenaltyScheme, _alphabets, _check_criterion,
                         _check_reads, _check_smoothing, _penalty, _table, score_map)
from .fmaps import FeatureMap, enumerate_closed_suffix_maps, memory_bound, trivial_map
from .sequences import Alphabet, _as_list, _check_grid, _check_int
from .sources import (FsmxSource, _check_length, _check_seed, is_ergodic_chain,
                      sample_fsmx)


@dataclass(eq=False)
class SelectionResult:
    chosen_map_id: str
    costs: list[CostBreakdown]
    tie_broken: bool

    def total_of(self, map_id: str) -> float:
        for breakdown in self.costs:
            if breakdown.map_id == map_id:
                return breakdown.total
        raise KeyError(map_id)


@dataclass(eq=False)
class SelectionTrajectory:
    seed: int
    n_grid: np.ndarray
    chosen_ids: list[str]
    costs_per_n: list[list[CostBreakdown]]
    stabilization_index: int

    @property
    def final_choice(self) -> str:
        return self.chosen_ids[-1]


def _check_class(maps):
    if not maps:
        raise InputError("candidate class must be non-empty")
    seen = set()
    for fmap in maps:
        if fmap.map_id in seen:
            raise InputError(f"duplicate map id {fmap.map_id!r} in candidate class")
        seen.add(fmap.map_id)


def _ordered_table(maps: list[FeatureMap], data, criterion: str, smoothing: float,
                   ends=None):
    # the checks every selection makes, then the class in canonical order and
    # its one table over the prefix lengths ``ends`` (by default the whole data)
    _check_class(maps)
    if len(data) < 1:
        raise InputError("data must be non-empty")
    _check_criterion(criterion)
    ordered = sorted(maps, key=lambda m: m.canonical_key)
    return ordered, _table(ordered, data, criterion, smoothing, ends)


def _picks(maps: list[FeatureMap], data, criterion: str, scheme: PenaltyScheme,
           smoothing: float, ends: list[int]) -> list[SelectionResult]:
    # the choice on the first n symbols, for each n in ``ends``
    ordered, table = _ordered_table(maps, data, criterion, smoothing, ends)
    return [_pick(list(zip(table.scores(ordered, n, scheme, smoothing), ordered)))
            for n in ends]


def select(maps: list[FeatureMap], data, criterion: str,
           scheme: PenaltyScheme, smoothing: float = 0.0) -> SelectionResult:
    """Score every candidate and return the minimizer.

    Candidates with infinite data cost rank last rather than erroring. The
    chosen map is invariant under permutations of ``maps``.
    """
    return _picks(maps, data, criterion, scheme, smoothing, [len(data)])[0]


def _pick(scored: list[tuple[CostBreakdown, FeatureMap]]) -> SelectionResult:
    # the lowest total wins, then fewer states, then the canonical order; the
    # tie flag says another candidate had the same total
    best, _ = min(scored, key=lambda pair: (pair[0].total, pair[1].state_count,
                                            pair[1].canonical_key))
    ties = sum(1 for breakdown, _ in scored if breakdown.total == best.total)
    return SelectionResult(chosen_map_id=best.map_id,
                           costs=[breakdown for breakdown, _ in scored],
                           tie_broken=ties > 1)


def with_baseline(maps: list[FeatureMap], alphabet_size: int,
                  include_baseline: bool = True) -> list[FeatureMap]:
    """Candidate class with the single-state map injected unless present."""
    result = list(maps)
    if include_baseline and not any(m.state_count == 1 for m in result):
        result.append(trivial_map(alphabet_size))
    return result


def _sized(maps: list[FeatureMap], data, criterion: str, include_baseline: bool,
           pen: str | None = None) -> tuple[list[FeatureMap], PenaltyScheme | None]:
    # the class with the baseline sized from the alphabet the data's maps
    # read, and the penalty ``pen`` sized from the alphabet the criterion codes
    read, coded = _alphabets(data, criterion)
    maps = with_baseline(maps, read, include_baseline)
    return maps, None if pen is None else PenaltyScheme.from_string(pen, coded)


def _stabilization_index(chosen_ids: list[str]) -> int:
    idx = len(chosen_ids) - 1
    while idx > 0 and chosen_ids[idx - 1] == chosen_ids[-1]:
        idx -= 1
    return idx


def _check_run(source: FsmxSource, maps: list[FeatureMap], criterion: str, n_grid,
               seeds, include_baseline: bool,
               smoothing: float) -> tuple[list[FeatureMap], np.ndarray, list]:
    """The candidates, the int64 grid and the seeds of a consistency run.

    Every check the run makes happens here, before any sampling, so a run
    that passes computes to the end.
    """
    _check_criterion(criterion)
    _check_smoothing(smoothing)
    n_grid = _check_grid(n_grid, "n_grid", math.inf)
    _check_length(n_grid[-1], "sample length")
    seeds = _as_list(seeds, "seeds")
    for seed in seeds:
        _check_seed(seed)
    if len(set(seeds)) != len(seeds):
        raise InputError("seeds must be distinct")

    # the source's own state chain: s -> step[s, y] wherever emit[s, y] > 0
    state, symbol = np.nonzero(source.emit > 0)
    support = np.zeros((source.fmap.state_count,) * 2, dtype=bool)
    support[state, source.fmap.step_table[state, symbol]] = True
    if not is_ergodic_chain(support):
        raise InputError(
            "source state chain is not ergodic (some state cannot reach some "
            "other); consistency experiments need an ergodic source")
    candidates = with_baseline(maps, source.fmap.alphabet_size, include_baseline)
    _check_class(candidates)
    for fmap in candidates:
        _check_reads(fmap, source.fmap.alphabet_size)
        if not memory_bound(fmap).bounded:
            raise InputError(f"candidate map {fmap.map_id!r} does not have bounded memory")
    return candidates, np.asarray(n_grid, dtype=np.int64), seeds


def _trajectory(source: FsmxSource, candidates: list[FeatureMap], criterion: str,
                scheme: PenaltyScheme, n_grid: np.ndarray, smoothing: float,
                seed: int) -> SelectionTrajectory:
    # one seed of a run that ``_check_run`` passed: one table over the sample
    # serves every prefix, as ``select`` on each prefix would
    grid = n_grid.tolist()
    results = _picks(candidates, sample_fsmx(source, grid[-1], seed), criterion, scheme,
                     smoothing, grid)
    chosen_ids = [result.chosen_map_id for result in results]
    return SelectionTrajectory(seed=seed, n_grid=n_grid.copy(), chosen_ids=chosen_ids,
                               costs_per_n=[result.costs for result in results],
                               stabilization_index=_stabilization_index(chosen_ids))


def consistency_run(source: FsmxSource, maps: list[FeatureMap], criterion: str,
                    scheme: PenaltyScheme, n_grid, seeds,
                    include_baseline: bool = True,
                    smoothing: float = 0.0) -> list[SelectionTrajectory]:
    """Sample the source once per seed and select on each prefix length.

    Refuses sources whose state chain is not ergodic and candidate
    maps without bounded memory. Each trajectory records the chosen map and
    all candidate costs per grid point, plus the first grid index from which
    the choice never changes again.
    """
    candidates, n_grid, seeds = _check_run(source, maps, criterion, n_grid, seeds,
                                           include_baseline, smoothing)
    return [_trajectory(source, candidates, criterion, scheme, n_grid, smoothing, seed)
            for seed in seeds]


@dataclass(eq=False)
class PruningLogEntry:
    map_id: str
    state_count: int
    penalty: float
    best_total: float


def countable_search(alphabet: Alphabet, data, criterion: str, scheme: PenaltyScheme,
                     state_budget: int, depth_budget: int,
                     smoothing: float = 0.0,
                     include_baseline: bool = True) -> tuple[SelectionResult, list[PruningLogEntry]]:
    """Best-first scan of the suffix-map class in canonical order with
    penalty-based pruning.

    A candidate whose penalty alone exceeds the best total so far cannot win
    (its data cost is nonnegative), so it is logged and skipped; the outcome
    matches exhaustive selection over the same budget-limited class.

    The scan stops at the first pruned candidate and logs every later one
    against the same best total. That loses nothing: the penalty never
    decreases as the state count grows, the canonical order sorts by state
    count first, and the best total changes only when a candidate is scored.
    """
    _check_int(state_budget, "state budget")
    _check_int(depth_budget, "depth budget")
    if state_budget < 1 or depth_budget < 1:
        raise InputError("state and depth budgets must be >= 1")
    candidates = enumerate_closed_suffix_maps(alphabet, depth_budget)
    candidates = with_baseline([m for m in candidates if m.state_count <= state_budget],
                               alphabet.size, include_baseline)
    if not candidates:
        raise InputError("budgets exclude every candidate map")
    candidates, table = _ordered_table(candidates, data, criterion, smoothing)
    n = len(data)
    best_total = math.inf
    scored: list[tuple[CostBreakdown, FeatureMap]] = []
    pruned: list[PruningLogEntry] = []
    for idx, fmap in enumerate(candidates):
        if _penalty(criterion, scheme, n, fmap.state_count) > best_total:
            pruned = [PruningLogEntry(map_id=m.map_id, state_count=m.state_count,
                                      penalty=_penalty(criterion, scheme, n, m.state_count),
                                      best_total=best_total)
                      for m in candidates[idx:]]
            break
        breakdown, = table.scores([fmap], n, scheme, smoothing)
        scored.append((breakdown, fmap))
        best_total = min(best_total, breakdown.total)
    return _pick(scored), pruned
