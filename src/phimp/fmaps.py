"""Feature maps from histories to states.

Two kinds are supported: suffix-tree maps, whose states are a proper and
complete set of suffixes closed under single-symbol extension, and general
finite-state maps given by an explicit update table. Either way the state
after a history is reached by the deterministic update
``state' = step_table[state, symbol]`` from a fixed start state.

Histories shorter than the deepest suffix are handled by an implicit
pre-history of the padding symbol, so the map is defined for every length;
states from the suffix depth onward do not depend on the padding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InputError, ResourceError
from .sequences import (DEFAULT_CONTEXT_CAP, Alphabet, SymbolSequence,
                        _as_symbols, _is_int, _number_table, _read_json,
                        _write_json)


def _suffix_text(suffix: tuple[int, ...]) -> str:
    if max(suffix, default=0) < 10:
        return "".join(str(v) for v in suffix)
    return "-".join(str(v) for v in suffix)


def _ends_with(string: tuple[int, ...], tail: tuple[int, ...]) -> bool:
    return len(tail) <= len(string) and string[-len(tail):] == tail


@dataclass(frozen=True)
class SuffixSet:
    """A finite set of non-empty strings, kept in sorted (canonical) order."""

    alphabet: Alphabet
    suffixes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        cleaned = sorted({tuple(int(v) for v in s) for s in self.suffixes})
        if not cleaned:
            raise InputError("suffix set must be non-empty")
        for s in cleaned:
            if len(s) == 0:
                raise InputError("suffixes must be non-empty strings")
            if min(s) < 0 or max(s) >= self.alphabet.size:
                raise InputError(f"suffix {s} uses symbols outside the alphabet")
        object.__setattr__(self, "suffixes", tuple(cleaned))

    @property
    def depth(self) -> int:
        return max(len(s) for s in self.suffixes)

    def match(self, history: tuple[int, ...]) -> tuple[int, ...] | None:
        """The member that is an ending substring of ``history``, if any.

        Unique for proper sets; the longest match is returned otherwise.
        """
        best = None
        for s in self.suffixes:
            if _ends_with(history, s) and (best is None or len(s) > len(best)):
                best = s
        return best

    def describe(self) -> str:
        return "{" + ", ".join(_suffix_text(s) for s in self.suffixes) + "}"


@dataclass(eq=False)
class SuffixSetReport:
    proper: bool
    complete: bool
    violations: list[str]


@dataclass(eq=False)
class ClosureReport:
    closed: bool
    step_table: np.ndarray | None
    witness: tuple[tuple[int, ...], int] | None

    def describe(self) -> str:
        if self.closed:
            return "closed"
        suffix, symbol = self.witness
        return (f"not closed: extending state {_suffix_text(suffix)!r} by symbol "
                f"{symbol} leaves the next state depending on unseen history")


def _guard_context_count(size: int, depth: int, cap: int):
    if size ** depth > cap:
        raise ResourceError(
            f"{size}^{depth} contexts exceed the configured cap of {cap}")


def validate_suffix_set(suffix_set: SuffixSet,
                        context_cap: int = DEFAULT_CONTEXT_CAP) -> SuffixSetReport:
    """Check properness (no member ends another) and completeness.

    Completeness is checked exhaustively over all strings of the set's depth:
    a longer string ends with a member exactly when its depth-length tail
    does, so this is conclusive. Each violation carries a witness.
    """
    violations: list[str] = []
    members = suffix_set.suffixes
    proper = True
    for a, b in itertools.permutations(members, 2):
        if _ends_with(b, a):
            proper = False
            violations.append(
                f"{_suffix_text(a)!r} is an ending substring of {_suffix_text(b)!r}")

    size = suffix_set.alphabet.size
    depth = suffix_set.depth
    _guard_context_count(size, depth, context_cap)
    complete = True
    for ctx in itertools.product(range(size), repeat=depth):
        hits = [s for s in members if _ends_with(ctx, s)]
        if len(hits) != 1:
            complete = False
            if not hits:
                violations.append(f"{_suffix_text(ctx)!r} ends with no member")
            else:
                listed = ", ".join(_suffix_text(s) for s in hits)
                violations.append(f"{_suffix_text(ctx)!r} ends with {listed}")
    return SuffixSetReport(proper=proper, complete=complete, violations=violations)


def is_fsm_closed(suffix_set: SuffixSet,
                  context_cap: int = DEFAULT_CONTEXT_CAP) -> ClosureReport:
    """Decide whether (state, next symbol) determines the next state.

    For a proper and complete set this holds at (s, y) exactly when some
    member is an ending substring of s·y: properness makes that member
    unique, and if none matches, completeness forces matches that reach
    further back into the history, which varies. The returned table maps
    (state index, symbol) to the next state index in canonical state order.
    """
    report = validate_suffix_set(suffix_set, context_cap)
    if not (report.proper and report.complete):
        raise InputError(
            "suffix set must be proper and complete before the closure check: "
            + "; ".join(report.violations))

    members = suffix_set.suffixes
    index = {s: i for i, s in enumerate(members)}
    size = suffix_set.alphabet.size
    table = np.zeros((len(members), size), dtype=np.int64)
    for s in members:
        for y in range(size):
            target = suffix_set.match(s + (y,))
            if target is None:
                return ClosureReport(closed=False, step_table=None, witness=(s, y))
            table[index[s], y] = index[target]
    return ClosureReport(closed=True, step_table=table, witness=None)


@dataclass(eq=False)
class FeatureMap:
    """A deterministic history-to-state map driven by an update table."""

    kind: str  # "suffix-tree" | "general-fsm"
    alphabet_size: int
    state_count: int
    start_state: int
    step_table: np.ndarray
    suffixes: tuple[tuple[int, ...], ...] | None = None
    map_id: str | None = None

    def __post_init__(self):
        table = np.asarray(self.step_table, dtype=np.int64)
        if table.shape != (self.state_count, self.alphabet_size):
            raise InputError(
                f"update table must be {self.state_count}x{self.alphabet_size}, "
                f"got {table.shape}")
        if table.size and (table.min() < 0 or table.max() >= self.state_count):
            raise InputError("update table entries must be valid state indices")
        if not 0 <= self.start_state < self.state_count:
            raise InputError(f"start state {self.start_state} out of range")
        if self.kind not in ("suffix-tree", "general-fsm"):
            raise InputError(f"unknown map kind {self.kind!r}")
        if self.kind == "suffix-tree":
            if self.suffixes is None or len(self.suffixes) != self.state_count:
                raise InputError("suffix-tree maps need one suffix per state")
            self.suffixes = tuple(tuple(s) for s in self.suffixes)
        table = table.copy()
        table.setflags(write=False)
        self.step_table = table
        if self.map_id is None:
            self.map_id = self._default_id()

    def _default_id(self) -> str:
        if self.kind == "suffix-tree":
            return "st:" + "|".join(_suffix_text(s) for s in self.suffixes)
        flat = ",".join(str(v) for v in self.step_table.ravel())
        return f"fsm:{self.state_count}s:{self.start_state}:{flat}"

    @property
    def canonical_key(self) -> tuple:
        """Sort key: state count, suffix maps before general ones, then the
        sorted suffix list (or the raw table) lexicographically."""
        if self.kind == "suffix-tree":
            return (self.state_count, 0, self.suffixes)
        return (self.state_count, 1, (self.start_state, *self.step_table.ravel().tolist()))

    def step(self, state: int, symbol: int) -> int:
        if not 0 <= state < self.state_count:
            raise InputError(f"state {state} out of range")
        if not 0 <= symbol < self.alphabet_size:
            raise InputError(f"symbol {symbol} out of range")
        return int(self.step_table[state, symbol])

    def walk(self, seq) -> np.ndarray:
        """States s_0..s_n induced by a sequence (s_0 is the start state)."""
        if isinstance(seq, SymbolSequence):
            if seq.alphabet.size != self.alphabet_size:
                raise InputError(
                    f"alphabet mismatch: map expects {self.alphabet_size} symbols, "
                    f"sequence has {seq.alphabet.size}")
            symbols = seq.items
        else:
            symbols = _as_symbols(seq, self.alphabet_size, "sequence")
        return _kernels.walk_states(self.step_table, self.start_state, symbols)

    def state_label(self, state: int) -> str:
        if self.kind == "suffix-tree":
            return _suffix_text(self.suffixes[state])
        return str(state)

    def to_json(self) -> dict:
        data = {
            "id": self.map_id,
            "kind": self.kind,
            "alphabet_size": self.alphabet_size,
            "states": self.state_count,
            "start_state": self.start_state,
            "psi": self.step_table.tolist(),
        }
        if self.suffixes is not None:
            data["suffixes"] = [list(s) for s in self.suffixes]
        return data


def map_history(fmap: FeatureMap, seq: SymbolSequence) -> np.ndarray:
    """Module-level alias for :meth:`FeatureMap.walk`."""
    return fmap.walk(seq)


def compile_suffix_map(suffix_set: SuffixSet, padding_symbol: int = 0,
                       context_cap: int = DEFAULT_CONTEXT_CAP) -> FeatureMap:
    """Turn an FSM-closed suffix set into a FeatureMap.

    The start state is the member matched by the padding symbol repeated to
    the set's depth, realizing the implicit pre-history convention.
    """
    if not 0 <= padding_symbol < suffix_set.alphabet.size:
        raise InputError(f"padding symbol {padding_symbol} outside the alphabet")
    closure = is_fsm_closed(suffix_set, context_cap)
    if not closure.closed:
        raise InputError(f"suffix set {suffix_set.describe()} is {closure.describe()}")
    members = suffix_set.suffixes
    start = members.index(suffix_set.match((padding_symbol,) * suffix_set.depth))
    return FeatureMap(
        kind="suffix-tree",
        alphabet_size=suffix_set.alphabet.size,
        state_count=len(members),
        start_state=start,
        step_table=closure.step_table,
        suffixes=members,
    )


def trivial_map(alphabet_size: int) -> FeatureMap:
    """The single-state map that forgets the whole history."""
    return FeatureMap(
        kind="general-fsm",
        alphabet_size=alphabet_size,
        state_count=1,
        start_state=0,
        step_table=np.zeros((1, alphabet_size), dtype=np.int64),
        map_id="trivial",
    )


@dataclass(eq=False)
class MemoryBoundReport:
    bounded: bool
    kappa: int | None


def memory_bound(fmap: FeatureMap, kappa_max: int | None = None) -> MemoryBoundReport:
    """Smallest window length such that recent symbols pin down the state.

    Iterates the set of still-confusable state pairs: P_0 holds all pairs and
    P_k holds the images of P_{k-1} under every symbol. The sequence is
    decreasing, so it either reaches the diagonal (bounded, with kappa one
    less than the number of symbols needed) or stabilizes off it (unbounded).
    With the default cutoff of S^2 iterations the verdict is exact; a smaller
    ``kappa_max`` can only truncate the search.
    """
    n = fmap.state_count
    limit = n * n if kappa_max is None else min(kappa_max + 1, n * n)
    table = fmap.step_table
    diagonal = np.eye(n, dtype=bool)
    pairs = np.ones((n, n), dtype=bool)
    k = 0
    while True:
        if not np.any(pairs & ~diagonal):
            return MemoryBoundReport(bounded=True, kappa=max(k - 1, 0))
        if k >= limit:
            return MemoryBoundReport(bounded=False, kappa=None)
        nxt = np.zeros((n, n), dtype=bool)
        us, vs = np.nonzero(pairs)
        for y in range(fmap.alphabet_size):
            nxt[table[us, y], table[vs, y]] = True
        if np.array_equal(nxt, pairs):
            return MemoryBoundReport(bounded=False, kappa=None)
        pairs = nxt
        k += 1


def _subtree_leafsets(size: int, depth_left: int) -> list[list[tuple[int, ...]]]:
    # leaf sets of one node, as reversed paths relative to it; () = leaf here
    options: list[list[tuple[int, ...]]] = [[()]]
    if depth_left >= 1:
        child_options = _subtree_leafsets(size, depth_left - 1)
        for combo in itertools.product(range(len(child_options)), repeat=size):
            leaves = [(y,) + path
                      for y in range(size)
                      for path in child_options[combo[y]]]
            options.append(leaves)
    return options


def enumerate_closed_suffix_maps(alphabet: Alphabet, max_depth: int,
                                 padding_symbol: int = 0,
                                 context_cap: int = DEFAULT_CONTEXT_CAP) -> list[FeatureMap]:
    """All FSM-closed proper, complete suffix sets of depth <= max_depth.

    Proper and complete sets are exactly the leaf sets of fully branching
    tries read from the newest symbol backwards (the root, i.e. the empty
    suffix, is always expanded), so candidates are generated from trie shapes
    and filtered by the closure check. Results come back compiled, ordered by
    state count and then lexicographically on the sorted suffix lists.
    """
    if max_depth < 1:
        raise InputError("max_depth must be >= 1")
    size = alphabet.size
    _guard_context_count(size, max_depth, context_cap)

    child_options = _subtree_leafsets(size, max_depth - 1)
    candidates: list[SuffixSet] = []
    for combo in itertools.product(range(len(child_options)), repeat=size):
        reversed_leaves = [(y,) + path
                           for y in range(size)
                           for path in child_options[combo[y]]]
        if len(candidates) >= context_cap:
            raise ResourceError(
                f"suffix-set enumeration exceeds the configured cap of {context_cap}")
        suffixes = tuple(tuple(reversed(path)) for path in reversed_leaves)
        candidates.append(SuffixSet(alphabet, suffixes))

    compiled = []
    for suffix_set in candidates:
        closure = is_fsm_closed(suffix_set, context_cap)
        if closure.closed:
            compiled.append(compile_suffix_map(suffix_set, padding_symbol, context_cap))
    compiled.sort(key=lambda m: m.canonical_key)
    return compiled


def load_fsm_map(description: dict) -> FeatureMap:
    """Build a FeatureMap from its JSON description.

    Suffix-tree descriptions are recompiled from their suffixes and must
    agree with the stored table; general-FSM descriptions are validated for
    a full table with in-range entries.
    """
    if not isinstance(description, dict):
        raise InputError("map description must be a JSON object")
    required = {"kind", "alphabet_size", "states", "start_state", "psi"}
    missing = required - description.keys()
    if missing:
        raise InputError(f"map description missing fields: {sorted(missing)}")

    for field in ("alphabet_size", "states", "start_state"):
        if not _is_int(description[field]):
            raise InputError(f"map field {field!r} must be an integer")
    kind = description["kind"]
    alphabet_size = description["alphabet_size"]
    state_count = description["states"]
    table = description["psi"]
    if (not isinstance(table, list) or len(table) != state_count
            or any(not isinstance(row, list) or len(row) != alphabet_size for row in table)):
        raise InputError("psi must be a full states-by-alphabet table")

    suffixes = description.get("suffixes")
    if suffixes is not None and not (
            isinstance(suffixes, list)
            and all(isinstance(s, list) and all(map(_is_int, s)) for s in suffixes)):
        raise InputError("suffixes must be a list of integer lists")
    fmap = FeatureMap(
        kind=kind,
        alphabet_size=alphabet_size,
        state_count=state_count,
        start_state=description["start_state"],
        step_table=_number_table(table, "psi", integer=True),
        suffixes=tuple(tuple(s) for s in suffixes) if suffixes is not None else None,
        map_id=description.get("id"),
    )
    if kind == "suffix-tree":
        reference = compile_suffix_map(SuffixSet(Alphabet(alphabet_size), fmap.suffixes))
        if not np.array_equal(reference.step_table, fmap.step_table):
            raise InputError("psi disagrees with the suffix semantics of the stored set")
    return fmap


def maps_to_json(maps: list[FeatureMap]) -> dict:
    return {"maps": [m.to_json() for m in maps]}


def maps_from_json(data: dict) -> list[FeatureMap]:
    if not isinstance(data, dict) or "maps" not in data or not isinstance(data["maps"], list):
        raise InputError("map file must be a JSON object with a 'maps' list")
    return [load_fsm_map(entry) for entry in data["maps"]]


def read_maps(path) -> list[FeatureMap]:
    return maps_from_json(_read_json(path, "map"))


def write_maps(path, maps: list[FeatureMap]):
    _write_json(path, maps_to_json(maps))
