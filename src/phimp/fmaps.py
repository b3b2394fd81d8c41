"""Feature maps from histories to states.

Two kinds are supported: suffix-tree maps, whose states are a proper and
complete set of suffixes closed under single-symbol extension, and general
finite-state maps given by an explicit update table. Either way the state
after a history is reached by the deterministic update
``state' = step_table[state, symbol]`` from a fixed start state.

A suffix set is indexed by one trie of its members, read from the newest
symbol back, and nothing else: member lookups, the properness and
completeness check, the closure check and the start state all walk it, so
none of them enumerates the |A|^depth contexts.

Histories shorter than the deepest suffix are handled by an implicit
pre-history of the padding symbol, so the map is defined for every length;
states from the suffix depth onward do not depend on the padding.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InputError, ResourceError
from .sequences import (DEFAULT_CONTEXT_CAP, Alphabet, SymbolSequence,
                        _as_symbols, _check_int, _fields, _is_int, _number_table,
                        _read_json, _write_json)


def _suffix_text(suffix: tuple[int, ...], alphabet_size: int) -> str:
    # a digit per symbol is unambiguous up to 10 symbols; above, (1, 0) and
    # (10,) would both read "10", so symbols are joined with "-"
    return ("" if alphabet_size <= 10 else "-").join(str(v) for v in suffix)


class _Node(dict):
    """A node of a suffix set's trie: its children by the symbol before it,
    and the index of the member that ends here, if one does."""

    __slots__ = ("member",)

    def __init__(self):
        self.member = None

    def __missing__(self, symbol):  # indexing adds a missing child; get() does not
        self[symbol] = child = _Node()
        return child


@dataclass(frozen=True)
class SuffixSet:
    """A finite set of non-empty strings, kept in sorted (canonical) order.

    Its only index is the trie of its members read from the newest symbol
    back, built once here.
    """

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
        trie = _Node()
        for i, s in enumerate(cleaned):
            node = trie
            for y in reversed(s):
                node = node[y]
            node.member = i
        object.__setattr__(self, "_trie", trie)

    @property
    def depth(self) -> int:
        return max(map(len, self.suffixes))

    def _longest(self, newest_first) -> int | None:
        # the index of the longest member ending a string given newest symbol
        # first: the deepest member node on the string's path down the trie
        found, node = None, self._trie
        for y in newest_first:
            node = node.get(y)
            if node is None:
                break
            if node.member is not None:
                found = node.member
        return found

    def match(self, history: tuple[int, ...]) -> tuple[int, ...] | None:
        """The member that is an ending substring of ``history``, if any.

        Unique for proper sets; the longest match is returned otherwise.
        """
        found = self._longest(reversed(history))
        return None if found is None else self.suffixes[found]

    def describe(self) -> str:
        size = self.alphabet.size
        return "{" + ", ".join(_suffix_text(s, size) for s in self.suffixes) + "}"


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

    def describe(self, alphabet_size: int) -> str:
        if self.closed:
            return "closed"
        suffix, symbol = self.witness
        state = _suffix_text(suffix, alphabet_size)
        return (f"not closed: extending state {state!r} by symbol {symbol} leaves "
                f"the next state depending on unseen history")


def _unlink(path) -> tuple:
    # a linked path (a, (b, ... ())) as the tuple (a, b, ...)
    items = []
    while path:
        item, path = path
        items.append(item)
    return tuple(items)


_REPORTED = 10  # witnesses a report spells out; the rest are counted


def validate_suffix_set(suffix_set: SuffixSet) -> SuffixSetReport:
    """Check properness (no member ends another) and completeness.

    Both are read off the trie the members form from the newest symbol back.
    The set is proper when no member is an inner node, and complete when it
    is proper and every inner node has a child for each symbol: then every
    history of the set's depth ends with exactly one member. The work grows
    with the members' total length, not with the number of contexts. Each
    violation has a witness: a member that ends with others, listed with
    every member ending it, or the first missing child of an incomplete
    node, which ends with no member. The ten shallowest witnesses are spelled
    out, sorted; any further ones are only counted, so a report stays short.
    """
    size = suffix_set.alphabet.size
    members = suffix_set.suffixes
    # breadth first, each node with its string as a linked path (oldest
    # symbol, rest) and the indices of the members ending it as a linked list
    witnesses, queue = [], [((), suffix_set._trie, ())]
    for path, node, hits in queue:
        if node.member is not None:
            if hits:
                witnesses.append((path, (node.member, hits)))
            hits = (node.member, hits)
        elif not hits and len(node) < size:
            # below a member every string ends with it, so gaps are sought above
            witnesses.append(((next(y for y in range(size) if y not in node), path), ()))
        queue += [((y, path), child, hits) for y, child in node.items()]
    shown = sorted((_unlink(w), sorted(members[i] for i in _unlink(hits)))
                   for w, hits in witnesses[:_REPORTED])
    text = functools.partial(_suffix_text, alphabet_size=size)
    violations = [f"{text(a)!r} is an ending substring of {text(w)!r}"
                  for a, w in sorted((a, w) for w, hits in shown for a in hits if a != w)]
    violations += [f"{text(w)!r} ends with {', '.join(map(text, hits)) or 'no member'}"
                   for w, hits in shown]
    if len(witnesses) > _REPORTED:
        violations.append(f"and {len(witnesses) - _REPORTED} more witnesses")
    return SuffixSetReport(proper=not any(hits for _, hits in witnesses),
                           complete=not witnesses, violations=violations)


def is_fsm_closed(suffix_set: SuffixSet) -> ClosureReport:
    """Decide whether (state, next symbol) determines the next state.

    For a proper and complete set this holds at (s, y) exactly when some
    member is an ending substring of s·y: properness makes that member
    unique, and if none matches, completeness forces matches that reach
    further back into the history, which varies. Each (s, y) is settled by
    one walk of the set's trie, along y and then s backwards. The returned
    table maps (state index, symbol) to the next state index in canonical
    state order.
    """
    report = validate_suffix_set(suffix_set)
    if not report.complete:  # a complete set is proper too
        raise InputError("suffix set must be proper and complete before the closure "
                         "check: " + "; ".join(report.violations))
    return _closure(suffix_set)


def _closure(suffix_set: SuffixSet) -> ClosureReport:
    # the closure loop of is_fsm_closed, for a set known to be proper and
    # complete: the member ending s·y is found by walking y, then s backwards
    rows = []
    for s in suffix_set.suffixes:
        row = [suffix_set._longest(itertools.chain((y,), reversed(s)))
               for y in range(suffix_set.alphabet.size)]
        if None in row:
            return ClosureReport(closed=False, step_table=None,
                                 witness=(s, row.index(None)))
        rows.append(row)
    return ClosureReport(closed=True, step_table=np.array(rows, dtype=np.int64),
                         witness=None)


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
            return "st:" + "|".join(_suffix_text(s, self.alphabet_size)
                                    for s in self.suffixes)
        flat = ",".join(str(v) for v in self.step_table.ravel())
        return f"fsm:{self.state_count}s:{self.start_state}:{flat}"

    @property
    def canonical_key(self) -> tuple:
        """Sort key: state count, suffix maps before general ones, then the
        sorted suffix list (or the raw table) lexicographically."""
        if self.kind == "suffix-tree":
            return (self.state_count, 0, self.suffixes)
        return (self.state_count, 1, (self.start_state, *self.step_table.ravel().tolist()))

    @functools.cached_property
    def _memory_bound(self) -> "MemoryBoundReport":
        return _synchronizing_window(self)

    def walk(self, seq) -> np.ndarray:
        """States s_0..s_n induced by a sequence (s_0 is the start state).

        Where every string of w = kappa + 1 symbols leads every state to one
        state (``memory_bound``) and the w-gram table fits the walk's
        2^14-entry budget, the first w - 1 states are stepped and each later
        state is gathered from the w symbols before it. Any other map is
        block-walked, and a block whose symbols lead every state to one state
        skips the Python step.
        """
        if isinstance(seq, SymbolSequence):
            if seq.alphabet.size != self.alphabet_size:
                raise InputError(
                    f"alphabet mismatch: map expects {self.alphabet_size} symbols, "
                    f"sequence has {seq.alphabet.size}")
            symbols = seq.items
        else:
            symbols = _as_symbols(seq, self.alphabet_size, "sequence")
        bound = memory_bound(self)
        return _kernels.walk_states(self.step_table, self.start_state, symbols,
                                    bound.kappa + 1 if bound.bounded else None)

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


def compile_suffix_map(suffix_set: SuffixSet, padding_symbol: int = 0) -> FeatureMap:
    """Turn an FSM-closed suffix set into a FeatureMap.

    The start state is the member matched by the padding symbol repeated to
    the set's depth, realizing the implicit pre-history convention. No check
    enumerates contexts, so sets of any depth compile.
    """
    _check_int(padding_symbol, "padding symbol")
    closure = is_fsm_closed(suffix_set)
    if not closure.closed:
        raise InputError(f"suffix set {suffix_set.describe()} is "
                         f"{closure.describe(suffix_set.alphabet.size)}")
    return _suffix_map(suffix_set, closure.step_table, padding_symbol)


def _suffix_map(suffix_set: SuffixSet, step_table: np.ndarray,
                padding_symbol: int) -> FeatureMap:
    # a closed set and its closure table as a map started from the padding.
    # Its memory bound is read off the members: any `depth` symbols lead every
    # state to the member they end with, while the last depth - 1 symbols u of
    # a deepest member a·u lead the states ending with a to it and those
    # ending with another symbol b to its sibling b·u; one state keeps
    # nothing, so 0
    if not 0 <= padding_symbol < suffix_set.alphabet.size:
        raise InputError(f"padding symbol {padding_symbol} outside the alphabet")
    depth = suffix_set.depth
    fmap = FeatureMap(
        kind="suffix-tree",
        alphabet_size=suffix_set.alphabet.size,
        state_count=len(suffix_set.suffixes),
        start_state=suffix_set._longest(itertools.repeat(padding_symbol, depth)),
        step_table=step_table,
        suffixes=suffix_set.suffixes,
    )
    fmap._memory_bound = MemoryBoundReport(
        bounded=True, kappa=depth - 1 if fmap.state_count > 1 else 0)
    return fmap


# the most int64 entries one array can hold, and so the widest table row
_MAX_ROW = np.iinfo(np.intp).max // 8


def trivial_map(alphabet_size: int) -> FeatureMap:
    """The single-state map that forgets the whole history."""
    _check_int(alphabet_size, "alphabet size")
    if alphabet_size > _MAX_ROW:
        raise ResourceError(f"a map over {alphabet_size} symbols needs a table row "
                            f"wider than {_MAX_ROW}, the most entries one array can hold")
    return FeatureMap(
        kind="general-fsm",
        alphabet_size=alphabet_size,
        state_count=1,
        start_state=0,
        step_table=np.zeros((1, alphabet_size), dtype=np.int64),
        map_id="trivial",
    )


@dataclass(frozen=True)
class MemoryBoundReport:
    bounded: bool
    kappa: int | None


def memory_bound(fmap: FeatureMap) -> MemoryBoundReport:
    """Smallest window length such that recent symbols pin down the state.

    A suffix map whose table the closure check built (``compile_suffix_map``,
    ``enumerate_closed_suffix_maps`` and ``load_fsm_map`` once the stored
    table matched) reads kappa off its members: its depth minus 1, or 0 for
    a single state. Every other map, suffix maps built by hand included,
    iterates the set of still-confusable state pairs: P_0 holds all pairs and
    P_k holds the images of P_{k-1} under every symbol. The sequence is
    decreasing, so it either reaches the diagonal (bounded, with kappa one
    less than the number of symbols needed) or stabilizes off it (unbounded)
    within S^2 iterations of up to S^2 pairs each, so the verdict is exact.
    Either way the report is worked out once per map object and kept on it.
    """
    return fmap._memory_bound


def _synchronizing_window(fmap: FeatureMap) -> MemoryBoundReport:
    n = fmap.state_count
    table = fmap.step_table
    diagonal = np.eye(n, dtype=bool)
    pairs = np.ones((n, n), dtype=bool)
    k = 0
    while True:
        if not np.any(pairs & ~diagonal):
            return MemoryBoundReport(bounded=True, kappa=max(k - 1, 0))
        if k >= n * n:
            return MemoryBoundReport(bounded=False, kappa=None)
        nxt = np.zeros((n, n), dtype=bool)
        us, vs = np.nonzero(pairs)
        for y in range(fmap.alphabet_size):
            nxt[table[us, y], table[vs, y]] = True
        if np.array_equal(nxt, pairs):
            return MemoryBoundReport(bounded=False, kappa=None)
        pairs = nxt
        k += 1


def enumerate_closed_suffix_maps(alphabet: Alphabet, max_depth: int,
                                 padding_symbol: int = 0,
                                 context_cap: int = DEFAULT_CONTEXT_CAP) -> list[FeatureMap]:
    """All FSM-closed proper, complete suffix sets of depth <= max_depth.

    Proper and complete sets are exactly the leaf sets of fully branching
    tries read from the newest symbol backwards (the root, i.e. the empty
    suffix, is always expanded), so candidates are generated from trie shapes
    and filtered by the closure check. A node with d levels left has
    1 + shapes(d - 1)^Y leaf sets, and the candidates are the root's expanded
    ones. The cap bounds their count, and the alphabet size, since the one
    candidate of depth 1 has a state per symbol; both are checked before any
    candidate is built. Results come back compiled, ordered by state count
    and then lexicographically on the sorted suffix lists.
    """
    _check_int(max_depth, "max_depth", 1)
    _check_int(padding_symbol, "padding symbol")
    _check_int(context_cap, "context cap", 1)
    size = alphabet.size
    too_many = f"suffix-set enumeration exceeds the configured cap of {context_cap}"
    if size > context_cap:  # the depth-1 candidate has a state per symbol
        raise ResourceError(too_many)
    # the count grows by one a level at least, so it passes the cap within
    # cap + 1 levels. Counts are held to cap + 1 without a huge power: from
    # base 2 up, a power passes the cap once its exponent reaches the cap's
    # bit length
    shapes = 1  # a node with no levels left is a leaf
    for _ in range(max_depth):
        shapes = 1 + min(shapes ** min(size, context_cap.bit_length()), context_cap + 1)
        if shapes - 1 > context_cap:
            raise ResourceError(too_many)

    # the leaf sets of a node, as linked paths (y, rest) read from it, so a
    # level costs a pair per leaf; () is the node itself
    options = [[()]]
    for _ in range(max_depth):
        options = [[()]] + [[(y, path) for y, child in enumerate(combo) for path in child]
                            for combo in itertools.product(options, repeat=size)]
    maps = []
    for paths in options[1:]:
        suffix_set = SuffixSet(alphabet, tuple(_unlink(p)[::-1] for p in paths))
        closure = _closure(suffix_set)
        if closure.closed:
            maps.append(_suffix_map(suffix_set, closure.step_table, padding_symbol))
    maps.sort(key=lambda m: m.canonical_key)
    return maps


def load_fsm_map(description: dict) -> FeatureMap:
    """Build a FeatureMap from its JSON description.

    Suffix-tree descriptions are recompiled from their suffixes, at any
    depth, and must agree with the stored table and start at a member made of
    one repeated symbol, the one some constant padding reaches; general-FSM
    descriptions are validated for a full table with in-range entries.
    """
    _fields(description, "map description",
            ("kind", "alphabet_size", "states", "start_state", "psi"),
            integers=("alphabet_size", "states", "start_state"))
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
        fmap._memory_bound = memory_bound(reference)
        # a constant padding p starts the map at the one member made only of p
        start = reference.suffixes[fmap.start_state]
        if len(set(start)) != 1:
            raise InputError(f"start state {fmap.start_state} is the suffix "
                             f"{_suffix_text(start, alphabet_size)!r}, which no "
                             "constant padding reaches")
    return fmap


def maps_to_json(maps: list[FeatureMap]) -> dict:
    return {"maps": [m.to_json() for m in maps]}


def maps_from_json(data: dict) -> list[FeatureMap]:
    if not isinstance(_fields(data, "map file", ("maps",))["maps"], list):
        raise InputError("map file's 'maps' must be a list")
    return [load_fsm_map(entry) for entry in data["maps"]]


def read_maps(path) -> list[FeatureMap]:
    return maps_from_json(_read_json(path, "map"))


def write_maps(path, maps: list[FeatureMap]):
    _write_json(path, maps_to_json(maps))
