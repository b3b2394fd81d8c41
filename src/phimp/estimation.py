"""Maximum-likelihood state models, code lengths, and penalized cost criteria.

Counting convention: the state path s_0..s_n starts at the map's start state;
transitions are the n pairs (s_{t-1}, s_t) and emissions are the n pairs
(s_t, y_t), for t = 1..n. All code lengths are in nats. Likelihoods of the
driving sequence itself follow the unique realized state path; the
observations-only criterion marginalizes hidden states with the forward
recursion, starting from a point mass at the start state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .errors import InputError
from .fmaps import FeatureMap
from .sequences import PairedSequence, SymbolSequence


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

    kinds:
      * ``bic``: (d / 2) * ln n with dimension d = S*(Y-1) under the
        ``markov`` rule (deterministic-emission maps) or
        d = S*(S-1) + S*(Y-1) under the ``full`` rule.
      * ``linear-log``: beta(S) * ln n for a polynomial beta (default cubic).
      * ``custom-table``: exact lookup on a validated (n, S) grid.
    """

    kind: str
    dim_rule: str | None = None
    alphabet_size: int | None = None
    beta_coeffs: tuple[float, ...] | None = None
    table: tuple[tuple[int, int, float], ...] | None = None

    def __post_init__(self):
        if self.kind == "bic":
            if self.dim_rule not in ("markov", "full"):
                raise InputError(f"unknown BIC dimension rule {self.dim_rule!r}")
            if self.alphabet_size is None or self.alphabet_size < 1:
                raise InputError("BIC penalties need the emission alphabet size")
        elif self.kind == "linear-log":
            if not self.beta_coeffs:
                raise InputError("linear-log penalties need polynomial coefficients")
        elif self.kind == "custom-table":
            self._validate_table()
        else:
            raise InputError(f"unknown penalty kind {self.kind!r}")

    def _validate_table(self):
        if not self.table:
            raise InputError("custom penalty table is empty")
        entries = {}
        for n, s, pen in self.table:
            if pen <= 0:
                raise InputError(f"penalty table value pen({n},{s})={pen} is not positive")
            entries[(int(n), int(s))] = float(pen)
        ns = sorted({k[0] for k in entries})
        ss = sorted({k[1] for k in entries})
        for s in ss:
            values = [entries.get((n, s)) for n in ns]
            got = [v for v in values if v is not None]
            if any(b < a for a, b in zip(got, got[1:])):
                raise InputError(f"penalty table decreases in n at S={s}")
        for n in ns:
            values = [entries.get((n, s)) for s in ss]
            got = [v for v in values if v is not None]
            if any(b < a for a, b in zip(got, got[1:])):
                raise InputError(f"penalty table decreases in S at n={n}")
        object.__setattr__(self, "table", tuple(sorted((n, s, entries[(n, s)])
                                                       for (n, s) in entries)))

    @classmethod
    def from_string(cls, text: str, alphabet_size: int) -> "PenaltyScheme":
        if text == "bic:markov":
            return cls(kind="bic", dim_rule="markov", alphabet_size=alphabet_size)
        if text == "bic:full":
            return cls(kind="bic", dim_rule="full", alphabet_size=alphabet_size)
        if text == "cubic":
            return cls(kind="linear-log", beta_coeffs=(0.0, 0.0, 0.0, 1.0))
        raise InputError(f"unknown penalty spec {text!r} "
                         "(expected bic:markov, bic:full, or cubic)")

    def spec_string(self) -> str:
        if self.kind == "bic":
            return f"bic:{self.dim_rule}"
        if self.kind == "linear-log":
            return "cubic" if self.beta_coeffs == (0.0, 0.0, 0.0, 1.0) else "linear-log"
        return "custom-table"

    def value(self, n: int, state_count: int) -> float:
        if n < 1 or state_count < 1:
            raise InputError("penalty needs n >= 1 and S >= 1")
        if self.kind == "bic":
            y = self.alphabet_size
            if self.dim_rule == "markov":
                dim = state_count * (y - 1)
            else:
                dim = state_count * (state_count - 1) + state_count * (y - 1)
            # a zero dimension (S=1 over a unary alphabet) would break
            # positivity; clamp to one parameter
            dim = max(dim, 1)
            return dim / 2.0 * math.log(n)
        if self.kind == "linear-log":
            beta = sum(c * state_count ** k for k, c in enumerate(self.beta_coeffs))
            return beta * math.log(n)
        for tn, ts, pen in self.table:
            if tn == n and ts == state_count:
                return pen
        raise InputError(f"custom penalty table has no entry for n={n}, S={state_count}")


def penalty(scheme: PenaltyScheme, n: int, state_count: int) -> float:
    return scheme.value(n, state_count)


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
    if not (math.isfinite(smoothing) and smoothing >= 0):
        raise InputError(f"smoothing must be a finite number >= 0, got {smoothing}")


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


def estimate(fmap: FeatureMap, seq: SymbolSequence, smoothing: float = 0.0) -> EmpiricalHmm:
    """Estimate transition and emission frequencies of the induced state path."""
    if len(seq) < 1:
        raise InputError("cannot estimate from an empty sequence")
    _check_smoothing(smoothing)
    if seq.alphabet.size != fmap.alphabet_size:
        raise InputError(
            f"alphabet mismatch: map expects {fmap.alphabet_size} symbols, "
            f"sequence has {seq.alphabet.size}")
    trans, emis = _kernels.count_path(
        fmap.step_table, fmap.start_state, seq.items, seq.items,
        fmap.state_count, fmap.alphabet_size)
    return _estimate_from_counts(trans, emis, len(seq), smoothing)


def estimate_paired(fmap: FeatureMap, paired: PairedSequence,
                    smoothing: float = 0.0) -> EmpiricalHmm:
    """Drive the state path with pair symbols but count emissions of y only."""
    if len(paired) < 1:
        raise InputError("cannot estimate from an empty sequence")
    _check_smoothing(smoothing)
    if paired.joint_size != fmap.alphabet_size:
        raise InputError(
            f"alphabet mismatch: map expects {fmap.alphabet_size} symbols, "
            f"pairs span {paired.joint_size}")
    drive = paired.joint_sequence().items
    trans, emis = _kernels.count_path(
        fmap.step_table, fmap.start_state, drive, paired.ys,
        fmap.state_count, paired.y_alphabet.size)
    return _estimate_from_counts(trans, emis, len(paired), smoothing)


def counts_nll(counts: np.ndarray, probs: np.ndarray) -> float:
    """-sum over entries of count * ln(prob); +inf when a used entry has
    probability zero."""
    mask = counts > 0
    used = probs[mask]
    if np.any(used <= 0.0):
        return math.inf
    return float(-(counts[mask] * np.log(used)).sum())


def log_likelihood(fmap: FeatureMap, emp: EmpiricalHmm, seq: SymbolSequence) -> float:
    """Code length of ``seq`` under the estimated parameters, in nats.

    The update is deterministic, so the state path compatible with the
    sequence is unique and the likelihood is the product of transition and
    emission factors along it. Evaluating parameters estimated from a
    different sequence can hit a zero factor, reported as +inf.
    """
    if seq.alphabet.size != fmap.alphabet_size:
        raise InputError("alphabet mismatch between map and sequence")
    if emp.state_count != fmap.state_count:
        raise InputError("state count mismatch between map and estimate")
    trans, emis = _kernels.count_path(
        fmap.step_table, fmap.start_state, seq.items, seq.items,
        fmap.state_count, fmap.alphabet_size)
    return counts_nll(trans, emp.transition) + counts_nll(emis, emp.emission)


def _self_code_length(emp: EmpiricalHmm) -> float:
    # the data an estimate was counted on, coded under that estimate: the
    # counts are already at hand, so no second walk over the data
    return (counts_nll(emp.transition_counts, emp.transition)
            + counts_nll(emp.emission_counts, emp.emission))


def cost(fmap: FeatureMap, seq: SymbolSequence, scheme: PenaltyScheme,
         smoothing: float = 0.0) -> CostBreakdown:
    """Self-estimated code length plus complexity penalty."""
    data = _self_code_length(estimate(fmap, seq, smoothing))
    pen = scheme.value(len(seq), fmap.state_count)
    return CostBreakdown.build("cost", fmap.map_id, len(seq), data, pen)


def _forward_data_cost(emp: EmpiricalHmm, fmap: FeatureMap, ys: np.ndarray) -> float:
    initial = np.zeros(fmap.state_count)
    initial[fmap.start_state] = 1.0
    steps = _kernels.forward_nll_steps(emp.transition, emp.emission, initial, ys)
    total = float(steps.sum())
    return math.inf if math.isinf(total) or math.isnan(total) else total


def icost(fmap: FeatureMap, paired: PairedSequence, scheme: PenaltyScheme,
          smoothing: float = 0.0) -> CostBreakdown:
    """Observations-only criterion: code y with hidden states marginalized.

    With degenerate side information (|X| = 1) the observation sequence
    determines the state path, the marginal collapses to the single
    compatible path, and the computation is delegated to :func:`cost` so the
    two criteria agree exactly.
    """
    if paired.x_alphabet.size == 1:
        breakdown = cost(fmap, paired.y_sequence(), scheme, smoothing)
        return replace(breakdown, criterion="icost")
    emp = estimate_paired(fmap, paired, smoothing)
    data = _forward_data_cost(emp, fmap, paired.ys)
    pen = scheme.value(len(paired), fmap.state_count)
    return CostBreakdown.build("icost", fmap.map_id, len(paired), data, pen)


def ocost(fmap: FeatureMap, paired: PairedSequence, scheme: PenaltyScheme,
          smoothing: float = 0.0) -> CostBreakdown:
    """State-path-plus-observations criterion: code the realized path and y."""
    data = _self_code_length(estimate_paired(fmap, paired, smoothing))
    pen = scheme.value(len(paired), fmap.state_count)
    return CostBreakdown.build("ocost", fmap.map_id, len(paired), data, pen)


def ml_cost(fmap: FeatureMap, seq: SymbolSequence, smoothing: float = 0.0) -> CostBreakdown:
    """Pure maximum-likelihood criterion: the cost with a zero penalty."""
    data = _self_code_length(estimate(fmap, seq, smoothing))
    return CostBreakdown.build("ml", fmap.map_id, len(seq), data, 0.0)


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
