"""Alphabets, symbol sequences, substring frequencies, and convergence diagnostics.

Sequences are flat int64 arrays over an alphabet of indices 0..size-1 and are
frozen (read-only arrays) after construction, so values can be shared across
threads. Substring positions are counted with overlaps allowed and the
frequency denominator is the full prefix length.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import InputError, ResourceError


# the most substring patterns a diagnostic scores, and the most contexts a
# suffix-set check enumerates
DEFAULT_CONTEXT_CAP = 4096


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number_table(value, what: str, integer: bool = False) -> np.ndarray:
    """``value`` (nested lists or an array) as a float64 array, or an int64
    one when ``integer``; InputError unless the nesting is rectangular and
    every entry is a finite number (an integer when ``integer``)."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:
        raise InputError(f"{what} must be a rectangular table of numbers") from exc
    if arr.dtype.kind not in ("iu" if integer else "iuf"):
        raise InputError(f"{what} must hold only {'integers' if integer else 'numbers'}")
    arr = arr.astype(np.int64 if integer else np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise InputError(f"{what} must hold only finite numbers")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _as_symbols(items, size: int, what: str) -> np.ndarray:
    arr = np.asarray(items, dtype=np.int64)
    if arr.ndim != 1:
        raise InputError(f"{what} must be one-dimensional")
    if arr.size and (arr.min() < 0 or arr.max() >= size):
        raise InputError(f"{what} contains symbols outside 0..{size - 1}")
    return _freeze(arr.copy())


@dataclass(frozen=True)
class Alphabet:
    """Finite alphabet; symbols are the indices 0..size-1."""

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.size < 1:
            raise InputError(f"alphabet size must be >= 1, got {self.size}")
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != self.size or len(set(labels)) != self.size:
                raise InputError("labels must be distinct, one per symbol")
            object.__setattr__(self, "labels", labels)


@dataclass(eq=False)
class SymbolSequence:
    """A finite sequence over one alphabet."""

    alphabet: Alphabet
    items: np.ndarray

    def __post_init__(self):
        self.items = _as_symbols(self.items, self.alphabet.size, "sequence")

    def __len__(self) -> int:
        return int(self.items.size)

    def prefix(self, n: int) -> "SymbolSequence":
        if not 0 <= n <= len(self):
            raise InputError(f"prefix length {n} outside 0..{len(self)}")
        out = SymbolSequence.__new__(SymbolSequence)
        out.alphabet = self.alphabet
        out.items = self.items[:n]
        return out


@dataclass(eq=False)
class PairedSequence:
    """A sequence of (side-information, observation) pairs."""

    x_alphabet: Alphabet
    y_alphabet: Alphabet
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        self.xs = _as_symbols(self.xs, self.x_alphabet.size, "side-information sequence")
        self.ys = _as_symbols(self.ys, self.y_alphabet.size, "observation sequence")
        if self.xs.size != self.ys.size:
            raise InputError("paired components must have equal length")

    def __len__(self) -> int:
        return int(self.xs.size)

    @property
    def joint_size(self) -> int:
        return self.x_alphabet.size * self.y_alphabet.size

    def joint_sequence(self) -> SymbolSequence:
        """Pairs encoded as single symbols x * |Y| + y."""
        joint = self.xs * self.y_alphabet.size + self.ys
        return SymbolSequence(Alphabet(self.joint_size), joint)

    def y_sequence(self) -> SymbolSequence:
        return SymbolSequence(self.y_alphabet, self.ys)

    def prefix(self, n: int) -> "PairedSequence":
        if not 0 <= n <= len(self):
            raise InputError(f"prefix length {n} outside 0..{len(self)}")
        out = PairedSequence.__new__(PairedSequence)
        out.x_alphabet = self.x_alphabet
        out.y_alphabet = self.y_alphabet
        out.xs = self.xs[:n]
        out.ys = self.ys[:n]
        return out


@dataclass(eq=False)
class FrequencyReport:
    """Substring frequency along a grid of prefix lengths."""

    pattern: SymbolSequence
    grid: np.ndarray
    values: np.ndarray
    converged: bool
    final_spread: float


@dataclass(eq=False)
class ErgodicityReport:
    """One FrequencyReport per pattern up to a maximum length."""

    max_pattern_len: int
    tol: float
    reports: dict[tuple[int, ...], FrequencyReport]
    all_converged: bool


def _check_same_alphabet(seq: SymbolSequence, pattern: SymbolSequence):
    if seq.alphabet.size != pattern.alphabet.size:
        raise InputError(
            f"alphabet mismatch: sequence has {seq.alphabet.size} symbols, "
            f"pattern has {pattern.alphabet.size}"
        )


def _occurrence_flags(seq: SymbolSequence, pattern: SymbolSequence) -> np.ndarray:
    """1/0 flags for pattern occurrences at positions 0..n-m (overlaps allowed)."""
    if len(pattern) > len(seq):
        return np.zeros(0, dtype=np.int64)
    return _kernels.match_positions(seq.items, pattern.items)


def substring_frequency(seq: SymbolSequence, pattern: SymbolSequence) -> float:
    """Occurrences of ``pattern`` in ``seq`` divided by len(seq).

    Occurrences may overlap; a pattern longer than the sequence has
    frequency zero.
    """
    _check_same_alphabet(seq, pattern)
    if len(pattern) < 1:
        raise InputError("pattern must be non-empty")
    if len(seq) < 1:
        raise InputError("sequence must be non-empty")
    flags = _occurrence_flags(seq, pattern)
    return float(flags.sum()) / len(seq)


def frequency_trajectory(seq: SymbolSequence, pattern: SymbolSequence, grid,
                         tol: float = 0.01, tail_fraction: float = 0.2) -> FrequencyReport:
    """Frequency of ``pattern`` along prefixes of the lengths in ``grid``.

    The convergence verdict compares values over the trailing window of the
    grid (the last ``tail_fraction`` of points, at least two): converged means
    max - min of the window stays within ``tol``.
    """
    _check_same_alphabet(seq, pattern)
    if not (math.isfinite(tol) and tol >= 0):
        raise InputError(f"tol must be a finite number >= 0, got {tol}")
    if not 0 < tail_fraction <= 1:
        raise InputError(f"tail_fraction must lie in (0, 1], got {tail_fraction}")
    grid = np.asarray(grid, dtype=np.int64)
    if grid.size == 0:
        raise InputError("grid must be non-empty")
    if np.any(np.diff(grid) <= 0):
        raise InputError("grid must be strictly increasing")
    if grid[0] < 1 or grid[-1] > len(seq):
        raise InputError(f"grid points must lie in 1..{len(seq)}")

    m = len(pattern)
    flags = _occurrence_flags(seq.prefix(int(grid[-1])), pattern)
    counts_at = np.concatenate([[0], np.cumsum(flags)])
    values = np.empty(grid.size, dtype=np.float64)
    for i, n in enumerate(grid):
        # occurrences fully inside the prefix start at positions <= n - m
        values[i] = counts_at[n - m + 1] / n if n >= m else 0.0

    window = grid.size if grid.size == 1 else max(2, math.ceil(tail_fraction * grid.size))
    tail = values[-window:]
    spread = float(tail.max() - tail.min())
    return FrequencyReport(
        pattern=pattern,
        grid=_freeze(grid),
        values=_freeze(values),
        converged=spread <= tol,
        final_spread=spread,
    )


def default_grid(n: int, points: int = 16) -> np.ndarray:
    """Geometric grid of prefix lengths ending at ``n``."""
    if n < 1:
        raise InputError("sequence must be non-empty")
    lo = max(1, n // 100)
    raw = np.geomspace(lo, n, num=min(points, n)).round().astype(np.int64)
    return np.unique(raw)


def ergodicity_diagnostic(seq: SymbolSequence, max_pattern_len: int,
                          tol: float = 0.01, tail_fraction: float = 0.2,
                          grid=None) -> ErgodicityReport:
    """Frequency trajectories for every pattern of length <= max_pattern_len.

    A finite-sample heuristic: it reports tail-window spreads against ``tol``,
    not a guaranteed limit. The overall verdict is the conjunction over all
    patterns, of which there may be at most ``DEFAULT_CONTEXT_CAP``.
    """
    if max_pattern_len < 1:
        raise InputError("max_pattern_len must be >= 1")
    size = seq.alphabet.size
    patterns = 0
    # counted with an early exit, so a huge max_pattern_len costs nothing
    for m in range(1, max_pattern_len + 1):
        patterns += size ** m
        if patterns > DEFAULT_CONTEXT_CAP:
            raise ResourceError(
                f"patterns of length <= {max_pattern_len} over {size} symbols "
                f"exceed the cap of {DEFAULT_CONTEXT_CAP}")
    if grid is None:
        grid = default_grid(len(seq))
    reports: dict[tuple[int, ...], FrequencyReport] = {}
    for m in range(1, max_pattern_len + 1):
        for pat in itertools.product(range(size), repeat=m):
            pattern = SymbolSequence(seq.alphabet, np.array(pat, dtype=np.int64))
            reports[pat] = frequency_trajectory(seq, pattern, grid, tol, tail_fraction)
    return ErgodicityReport(
        max_pattern_len=max_pattern_len,
        tol=tol,
        reports=reports,
        all_converged=all(r.converged for r in reports.values()),
    )


# ---------------------------------------------------------------------------
# every input file is read through _read_text; JSON files (maps, models,
# environments, configs, policies) share one reader and one writer


def _read_text(path, what: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc


def _read_json(path, what: str):
    text = _read_text(path, what)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# file format: header line "alphabet=<Y>" (or "alphabet=<X>,<Y>" for paired
# data), then whitespace-separated symbol indices ("x,y" tokens when paired);
# lines starting with '#' are comments


def read_sequence(path) -> SymbolSequence | PairedSequence:
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
            items = np.array([int(tok) for tok in tokens], dtype=np.int64)
        except ValueError as exc:
            raise InputError(f"{path}: malformed symbol token") from exc
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
        return PairedSequence(Alphabet(sizes[0]), Alphabet(sizes[1]),
                              np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64))
    raise InputError(f"{path}: alphabet header must have one or two sizes")


def write_sequence(path, seq: SymbolSequence | PairedSequence, per_line: int = 40):
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
