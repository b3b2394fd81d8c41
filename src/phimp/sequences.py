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


# the most substring patterns a diagnostic scores, and the most candidate
# suffix sets (and alphabet symbols) a map-class enumeration admits
DEFAULT_CONTEXT_CAP = 4096


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(value, what: str, minimum: int | None = None):
    """InputError unless ``value`` is an int or a numpy integer, not a bool,
    and at least ``minimum`` when one is given."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InputError(f"{what} must be >= {minimum}")


def _as_list(value, what: str) -> list:
    """``value`` as a list; InputError unless it is iterable."""
    try:
        return list(value)
    except TypeError:
        raise InputError(f"{what} must be a list, got {value!r}") from None


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
    arr = np.array(items, dtype=np.int64)  # always a copy, never the caller's array
    if arr.ndim != 1:
        raise InputError(f"{what} must be one-dimensional")
    if arr.size and (arr.min() < 0 or arr.max() >= size):
        raise InputError(f"{what} contains symbols outside 0..{size - 1}")
    return _freeze(arr)


@dataclass(frozen=True)
class Alphabet:
    """Finite alphabet; symbols are the indices 0..size-1."""

    size: int

    def __post_init__(self):
        _check_int(self.size, "alphabet size")
        if self.size < 1:
            raise InputError(f"alphabet size must be >= 1, got {self.size}")


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
        if self.joint_size > np.iinfo(np.int64).max:
            raise ResourceError(f"a joint alphabet of {self.joint_size} pair symbols "
                                f"does not fit in int64")
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
    """1/0 flags for pattern occurrences at positions 0..n-m (overlaps allowed).

    Windows are compared by their base-Y codes. A code of w symbols fits in
    int64 while Y^w <= 2^63, so a longer pattern is compared as pieces of w
    symbols, the last piece overlapping the one before.
    """
    n, m, base = len(seq), len(pattern), seq.alphabet.size
    if m > n:
        return np.zeros(0, dtype=np.int64)
    width = 1
    while width < m and base ** (width + 1) <= 1 << 63:
        width += 1
    codes = _kernels.gram_codes(seq.items, width, base)
    piece_codes = _kernels.gram_codes(pattern.items, width, base)
    k = n - m + 1
    hits = np.ones(k, dtype=bool)
    for j in sorted({*range(0, m - width, width), m - width}):
        hits &= codes[j:j + k] == piece_codes[j]
    return hits.astype(np.int64)


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


def _check_grid(grid, what: str, bound: float) -> list:
    """``grid`` as a list; InputError unless it is iterable, non-empty and
    strictly increasing, with integer entries from 1 up to ``bound``. The
    entries are checked as Python numbers, so that none overflows int64 on
    the way."""
    grid = _as_list(grid, what)
    for n in grid:
        _check_int(n, f"{what} entry")
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise InputError(f"{what} must be non-empty and strictly increasing")
    if grid[0] < 1 or grid[-1] > bound:
        raise InputError(f"{what} points must lie in 1..{bound}")
    return grid


def _checked_grid(seq: SymbolSequence, grid, tol: float,
                  tail_fraction: float) -> np.ndarray:
    if not (math.isfinite(tol) and tol >= 0):
        raise InputError(f"tol must be a finite number >= 0, got {tol}")
    if not 0 < tail_fraction <= 1:
        raise InputError(f"tail_fraction must lie in (0, 1], got {tail_fraction}")
    return np.asarray(_check_grid(grid, "grid", len(seq)), dtype=np.int64)


def _trajectory_report(pattern: SymbolSequence, grid: np.ndarray, values: np.ndarray,
                       tol: float, tail_fraction: float) -> FrequencyReport:
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


def frequency_trajectory(seq: SymbolSequence, pattern: SymbolSequence, grid,
                         tol: float = 0.01, tail_fraction: float = 0.2) -> FrequencyReport:
    """Frequency of ``pattern`` along prefixes of the lengths in ``grid``.

    The convergence verdict compares values over the trailing window of the
    grid (the last ``tail_fraction`` of points, at least two): converged means
    max - min of the window stays within ``tol``.
    """
    _check_same_alphabet(seq, pattern)
    grid = _checked_grid(seq, grid, tol, tail_fraction)
    m = len(pattern)
    flags = _occurrence_flags(seq.prefix(int(grid[-1])), pattern)
    counts_at = np.concatenate([[0], np.cumsum(flags)])
    values = np.empty(grid.size, dtype=np.float64)
    for i, n in enumerate(grid):
        # occurrences fully inside the prefix start at positions <= n - m
        values[i] = counts_at[n - m + 1] / n if n >= m else 0.0
    return _trajectory_report(pattern, grid, values, tol, tail_fraction)


def default_grid(n: int, points: int = 16) -> np.ndarray:
    """Geometric grid of prefix lengths ending at ``n``."""
    _check_int(n, "grid length")
    _check_int(points, "grid points", 1)
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
    patterns, of which there may be at most ``DEFAULT_CONTEXT_CAP``. The values
    equal :func:`frequency_trajectory`'s for each pattern.
    """
    _check_int(max_pattern_len, "max_pattern_len", 1)
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
    grid = _checked_grid(seq, grid, tol, tail_fraction)
    items = seq.items[:grid[-1]]
    reports: dict[tuple[int, ...], FrequencyReport] = {}
    for m in range(1, max_pattern_len + 1):
        # one bincount of the m-gram codes per grid point counts every
        # pattern of length m starting at positions <= n - m; the codes run
        # in itertools.product order
        codes = _kernels.gram_codes(items, m, size)
        counts = np.stack([np.bincount(codes[:max(n - m + 1, 0)], minlength=size ** m)
                           for n in grid])
        values = counts / grid[:, None]
        for code, pat in enumerate(itertools.product(range(size), repeat=m)):
            pattern = SymbolSequence(seq.alphabet, np.array(pat, dtype=np.int64))
            reports[pat] = _trajectory_report(pattern, grid, values[:, code], tol,
                                              tail_fraction)
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


def _fields(data, what: str, required, integers=()) -> dict:
    """``data`` itself; InputError unless it is a JSON object holding every
    ``required`` field, with an integer in each of the ``integers``."""
    if not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object")
    missing = set(required) - data.keys()
    if missing:
        raise InputError(f"{what} missing fields: {sorted(missing)}")
    for field in integers:
        _check_int(data[field], f"{what} field {field!r}")
    return data


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# file format: header line "alphabet=<Y>" (or "alphabet=<X>,<Y>" for paired
# data), then whitespace-separated symbol indices ("x,y" tokens when paired);
# lines starting with '#' are comments


def read_sequence(path) -> SymbolSequence | PairedSequence:
    """Read a plain or paired sequence file.

    The header is checked before any token. A plain file whose text after
    the header holds only one-digit tokens between ASCII whitespace is read
    from its bytes; every other body is read token by token, each token as
    ``int()`` reads it. Both paths give the same symbols and messages.
    """
    path = Path(path)
    text = _read_text(path, "sequence")

    # every "\n" ends a line, so the text is split into lines a "\n" at a
    # time, only as far as the header
    header, start = None, 0
    while header is None and start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        for line in text[start:end].splitlines(keepends=True):
            start += len(line)
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not line.startswith("alphabet="):
                raise InputError(f"{path}: first line must be 'alphabet=<size>'")
            header = line[len("alphabet="):]
            break

    if header is None:
        raise InputError(f"{path}: missing alphabet header")

    try:
        sizes = [int(part) for part in header.split(",")]
    except ValueError as exc:
        raise InputError(f"{path}: malformed alphabet header {header!r}") from exc
    if len(sizes) not in (1, 2):
        raise InputError(f"{path}: alphabet header must have one or two sizes")
    alphabets = [Alphabet(size) for size in sizes]

    if len(sizes) == 1:
        items = _digit_items(text[start:])
        if items is not None:
            return SymbolSequence(alphabets[0], items)
    return _read_tokens(path, text[start:], alphabets)


_DIGITS = b"0123456789"
_SPACES = b" \t\n\r\x0b\x0c"


def _digit_items(body: str) -> np.ndarray | None:
    # the symbols of a body of one-digit tokens between ASCII whitespace, read
    # from its bytes; None for any other body (an ASCII body encodes as is)
    if not body.isascii():
        return None
    raw = body.encode()
    if raw.translate(None, _DIGITS + _SPACES):
        return None
    digit = np.frombuffer(raw, np.uint8) > ord(" ")
    if (digit[1:] & digit[:-1]).any():
        return None
    return np.frombuffer(raw.translate(None, _SPACES), np.uint8) - ord("0")


def _read_tokens(path, body: str, alphabets: list[Alphabet]):
    # the body parsed by one numpy call, which reads each token as int()
    # does; a paired file's tokens must hold exactly one comma each and are
    # split there first, so its xs and ys are the even and odd entries of
    # that one parse
    tokens: list[str] = []
    for line in body.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            tokens.extend(line.split())

    kind = "paired" if len(alphabets) == 2 else "symbol"
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


def _decimal_bytes(values, width):
    # (n, width) ASCII digits of non-negative values below 10**width, right
    # aligned, with a 0 byte in place of each leading zero
    places = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    digits = (values[:, None] // places % 10 + 48).astype(np.uint8)
    digits[(values[:, None] < places) & (places > 1)] = 0
    return digits


# write_sequence formats and writes this many tokens at a time
_WRITE_BLOCK = 1 << 16


def write_sequence(path, seq: SymbolSequence | PairedSequence, per_line: int = 40):
    """Write a header line, then per_line space-separated tokens a line: a
    symbol, or an ``x,y`` pair. Tokens are formatted as bytes a block at a
    time, by numpy, never one ``str`` each."""
    _check_int(per_line, "per_line")
    if per_line < 1:
        raise InputError(f"per_line must be >= 1, got {per_line}")
    if isinstance(seq, PairedSequence):
        header = f"alphabet={seq.x_alphabet.size},{seq.y_alphabet.size}"
        fields = [(seq.xs, seq.x_alphabet.size), (seq.ys, seq.y_alphabet.size)]
    else:
        header = f"alphabet={seq.alphabet.size}"
        fields = [(seq.items, seq.alphabet.size)]
    n = len(seq)
    with open(path, "w") as handle:
        handle.write(header + "\n")
        for lo in range(0, n, _WRITE_BLOCK):
            hi = min(lo + _WRITE_BLOCK, n)
            # each token's fields joined by ",", then " ", or "\n" after every
            # per_line-th token and the last
            count = np.arange(lo + 1, hi + 1)
            ends = np.where((count % per_line == 0) | (count == n),
                            ord("\n"), ord(" ")).astype(np.uint8)
            columns = []
            for values, size in fields:
                columns += [_decimal_bytes(values[lo:hi], len(str(size - 1))),
                            np.full((hi - lo, 1), ord(","), dtype=np.uint8)]
            columns[-1] = ends[:, None]
            block = np.concatenate(columns, axis=1)
            handle.write(block[block != 0].tobytes().decode("ascii"))
