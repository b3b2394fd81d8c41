"""One scoring path: every criterion, ``select`` and ``countable_search``
score through ``estimation.score_map``.

The harness compares the library with ``oracles.score_map_before``, the
scoring as it was while the named criteria had a path of their own, on plain
and paired data, i.i.d. and sampled from finite-state sources, with every
criterion, penalty spec and map kind.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

import oracles
import phimp
from phimp import (Alphabet, Environment, FeatureMap, FsmxSource, InputError,
                   PairedSequence, PenaltyScheme, Policy, SuffixSet, SymbolSequence,
                   active_select, compile_suffix_map, cost, countable_search,
                   embed_reward_map, enumerate_closed_suffix_maps, icost, ml_cost,
                   ocost, rollout, sample_fsmx, select, trivial_map, with_baseline)
from phimp import _kernels, estimation, selection
from phimp.estimation import CRITERIA
from phimp.fmaps import memory_bound
from phimp.sources import rng_stream

SPECS = ("bic:markov", "bic:full", "cubic")
SMOOTHINGS = (0.0, 0.5, 1e-3)


def general_map(table, start=0):
    table = np.asarray(table, dtype=np.int64)
    return FeatureMap(kind="general-fsm", alphabet_size=table.shape[1],
                      state_count=table.shape[0], start_state=start, step_table=table)


def depth_one_map(size):
    return compile_suffix_map(SuffixSet(Alphabet(size), tuple((y,) for y in range(size))))


def depth_one_source(size, rng):
    return FsmxSource(depth_one_map(size), rng.dirichlet(np.ones(size), size))


def paired(x_size, y_size, joint):
    xs, ys = np.divmod(np.asarray(joint, dtype=np.int64), y_size)
    return PairedSequence(Alphabet(x_size), Alphabet(y_size), xs, ys)


def drive_size(data):
    return data.joint_size if isinstance(data, PairedSequence) else data.alphabet.size


def emit_size(data):
    return data.y_alphabet.size if isinstance(data, PairedSequence) else data.alphabet.size


def candidate_maps(size, rng):
    """Suffix, general, unbounded-memory and trivial maps over ``size`` symbols."""
    suffix = enumerate_closed_suffix_maps(Alphabet(size), 2 if size <= 3 else 1)[:4]
    general = general_map(rng.integers(0, 3, (3, size)), start=1)
    # the parity of the odd symbols seen: no window of recent symbols fixes it
    parity = general_map([[y % 2 for y in range(size)],
                          [1 - y % 2 for y in range(size)]])
    assert not memory_bound(parity).bounded
    return [*suffix, general, parity, trivial_map(size)]


def datasets():
    """(id, data) pairs: plain and paired, i.i.d. and finite-state samples."""
    rng = rng_stream(1201)
    cases = []
    for n in (1, 2, 7, 60, 2000):
        cases.append((f"iid-binary-{n}",
                      SymbolSequence(Alphabet(2), rng.integers(0, 2, n))))
    for n in (5, 300):
        cases.append((f"iid-ternary-{n}",
                      SymbolSequence(Alphabet(3), rng.integers(0, 3, n))))
    reference = FsmxSource(compile_suffix_map(SuffixSet(Alphabet(2), ((0,), (0, 1), (1, 1)))),
                           np.array([[0.8, 0.2], [0.5, 0.5], [0.2, 0.8]]))
    for seed, n in enumerate((1, 3, 400, 2000)):
        cases.append((f"fsm-binary-{n}", sample_fsmx(reference, n, seed)))
    for x_size, y_size in ((1, 2), (2, 2), (3, 2), (2, 3)):
        size = x_size * y_size
        for n in (1, 50, 2000):
            cases.append((f"iid-pairs-{x_size}x{y_size}-{n}",
                          paired(x_size, y_size, rng.integers(0, size, n))))
        for seed, n in enumerate((4, 1500)):
            sample = sample_fsmx(depth_one_source(size, rng), n, seed)
            cases.append((f"fsm-pairs-{x_size}x{y_size}-{n}",
                          paired(x_size, y_size, sample.items)))
    return cases


DATASETS = datasets()
PAIRED = [(name, data) for name, data in DATASETS if isinstance(data, PairedSequence)]

# icost coded from the counts sums the path's log factors in another order
# than the forward recursion, so those cells agree to this relative tolerance
REL_TOL = 1e-12


def one_state_law(fmap, data, smoothing):
    """Whether the estimate's forward law stays a point mass on the counted
    path: from every state, each y has at most one successor s' with
    T[s, s'] > 0 and E[s', y] > 0."""
    emp = estimation.estimate(fmap, data, smoothing)
    return bool(((emp.transition > 0).astype(np.int64) @ (emp.emission > 0)).max() <= 1)


def from_counts(fmap, data, criterion, smoothing):
    """Whether ``score_map`` codes this cell from the counts where the oracle
    runs the forward recursion: ``icost`` on pairs with |X| > 1 whose forward
    law stays on one state."""
    return (criterion == "icost" and isinstance(data, PairedSequence)
            and data.x_alphabet.size > 1 and one_state_law(fmap, data, smoothing))


def assert_costs_match(got, want, counted_ids):
    """``==`` on every field of every cost, except the data cost and total of
    the maps in ``counted_ids``, which agree to ``REL_TOL``."""
    assert [c.map_id for c in got] == [c.map_id for c in want]
    for g, w in zip(got, want):
        if g.map_id in counted_ids:
            assert g.data_cost == pytest.approx(w.data_cost, rel=REL_TOL, abs=0)
            assert g.total == pytest.approx(w.total, rel=REL_TOL, abs=0)
            g = dataclasses.replace(g, data_cost=w.data_cost, total=w.total)
        assert g == w


def assert_log_match(got, want, best_from_counts):
    """``==`` on every field of every pruning log entry, except the best
    total when ``best_from_counts`` (the total of a map coded from the
    counts), which agrees to ``REL_TOL``."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g = dict(vars(g))
        if best_from_counts:
            assert g["best_total"] == pytest.approx(w.best_total, rel=REL_TOL, abs=0)
            g["best_total"] = w.best_total
        assert g == vars(w)


@pytest.fixture
def old_scoring(monkeypatch):
    # the full-scan search oracle, scoring the way the library used to
    monkeypatch.setattr(oracles, "score_map", oracles.score_map_before)


class TestNamedCriteriaEqualScoreMap:
    @pytest.mark.parametrize("x_size", [1, 2, 3])
    @pytest.mark.parametrize("y_size", [1, 2, 3])
    def test_on_pairs(self, x_size, y_size):
        rng = rng_stream(1)
        size = x_size * y_size
        data = paired(x_size, y_size, rng.integers(0, size, 500))
        scheme = PenaltyScheme("bic:markov", y_size)
        maps = [trivial_map(size), general_map(rng.integers(0, 2, (2, size))),
                depth_one_map(size)]
        for fmap in maps:
            assert cost(fmap, data, scheme) == estimation.score_map(fmap, data, "cost", scheme)
            assert ml_cost(fmap, data) == estimation.score_map(fmap, data, "ml", scheme)
            assert ocost(fmap, data, scheme) == estimation.score_map(fmap, data, "ocost", scheme)
            assert icost(fmap, data, scheme) == estimation.score_map(fmap, data, "icost", scheme)
            # cost and ml code the pairs as their joint symbols
            joint = data.joint_sequence()
            assert cost(fmap, data, scheme) == cost(fmap, joint, scheme)
            assert ml_cost(fmap, data) == ml_cost(fmap, joint)

    def test_cost_on_pairs_codes_the_joint_symbols(self):
        # cost codes the joint pair symbols; ocost codes the path and y only
        rng = rng_stream(1)
        data = PairedSequence(Alphabet(2), Alphabet(2), rng.integers(0, 2, 500),
                              rng.integers(0, 2, 500))
        scheme = PenaltyScheme("bic:markov", 2)
        fmap = trivial_map(4)
        assert cost(fmap, data, scheme).total == pytest.approx(696.1504763300901, abs=1e-9)
        assert ml_cost(fmap, data).total == pytest.approx(693.043172280879, abs=1e-9)
        assert ocost(fmap, data, scheme).total == pytest.approx(349.5808876614502, abs=1e-9)

    def test_both_import_paths_are_one_function(self):
        assert selection.score_map is estimation.score_map is phimp.score_map


class TestOneScoringPathMatchesOracle:
    @pytest.mark.parametrize("name,data", DATASETS, ids=[name for name, _ in DATASETS])
    def test_select_and_every_cost(self, name, data):
        maps = candidate_maps(drive_size(data), rng_stream(1202))
        ordered = sorted(maps, key=lambda m: m.canonical_key)
        for spec in SPECS:
            scheme = PenaltyScheme(spec, emit_size(data))
            for criterion in CRITERIA:
                for smoothing in SMOOTHINGS:
                    result = select(maps, data, criterion, scheme, smoothing)
                    expected = selection._pick([
                        (oracles.score_map_before(m, data, criterion, scheme, smoothing), m)
                        for m in ordered])
                    counted = {m.map_id for m in maps
                               if from_counts(m, data, criterion, smoothing)}
                    assert_costs_match(result.costs, expected.costs, counted)
                    assert result.chosen_map_id == expected.chosen_map_id
                    assert result.tie_broken == expected.tie_broken

    @pytest.mark.parametrize("name,data", DATASETS, ids=[name for name, _ in DATASETS])
    def test_countable_search(self, name, data, old_scoring):
        size = drive_size(data)
        depth = 2 if size <= 2 else 1
        maps = with_baseline(enumerate_closed_suffix_maps(Alphabet(size), depth), size)
        for spec in SPECS:
            scheme = PenaltyScheme(spec, emit_size(data))
            for criterion in CRITERIA:
                for smoothing in SMOOTHINGS:
                    counted = {m.map_id for m in maps
                               if from_counts(m, data, criterion, smoothing)}
                    for budget in (1, 3, 8):
                        args = (Alphabet(size), data, criterion, scheme, budget,
                                depth, smoothing)
                        result, pruned = countable_search(*args)
                        expected, expected_pruned = oracles.countable_search_loop(*args)
                        assert result.chosen_map_id == expected.chosen_map_id
                        assert result.tie_broken == expected.tie_broken
                        assert_costs_match(result.costs, expected.costs, counted)
                        # the log's best total is the chosen map's total
                        assert_log_match(pruned, expected_pruned,
                                         result.chosen_map_id in counted)


def reward_environment():
    """Two actions, two observations, two rewards. The reward law is set by
    the last two rewards (suffix states 0, 01, 11) and the action, and the
    observation repeats the reward with probability 0.75."""
    reward_states = compile_suffix_map(SuffixSet(Alphabet(2), ((0,), (0, 1), (1, 1))))
    p_one = np.array([[0.2, 0.3], [0.5, 0.6], [0.8, 0.7]])  # (state, action)
    emissions = np.zeros((3, 2, 4))
    for o in range(2):
        for r in range(2):
            emissions[:, :, o * 2 + r] = (p_one if r else 1 - p_one) * (0.75 if o == r else 0.25)
    return Environment(2, 2, 2, embed_reward_map(reward_states, 2, 2), emissions)


def active_icost_class():
    """The reward suffix maps of depth <= 2 embedded in the event alphabet,
    the 8-state depth-1 event suffix map, which reads x, and the baseline."""
    embedded = [embed_reward_map(m, 2, 2)
                for m in enumerate_closed_suffix_maps(Alphabet(2), 2)]
    events = compile_suffix_map(SuffixSet(Alphabet(8), tuple((e,) for e in range(8))))
    return with_baseline(embedded + [events], 8)


def x_free_maps(y_size, x_size, rng):
    """Random maps over y lifted to the pairs; in the first, each state is
    entered by one y, so its forward law stays on one state at smoothing 0."""
    states = 2 * y_size
    labelled = [[y + y_size * rng.integers(0, 2) for y in range(y_size)]
                for _ in range(states)]
    maps = [general_map(labelled, start=1), general_map(rng.integers(0, 3, (3, y_size)))]
    return [embed_reward_map(m, x_size, 1) for m in maps]


def assert_matches_oracle(fmap, data, smoothing, scheme):
    """``score_map`` under icost against the forward oracle: ``==`` where the
    forward runs, ``REL_TOL`` on the data cost and total where the counts code
    the data. Returns whether the counts coded it."""
    got = estimation.score_map(fmap, data, "icost", scheme, smoothing)
    want = oracles.score_map_before(fmap, data, "icost", scheme, smoothing)
    counted = from_counts(fmap, data, "icost", smoothing)
    assert_costs_match([got], [want], {fmap.map_id} if counted else set())
    return counted


class TestIcostFromCounts:
    """``icost`` on pairs with |X| > 1 skips the forward recursion where the
    estimate's forward law stays on one state, with the forward's result."""

    @pytest.fixture(scope="class")
    def events(self):
        env = reward_environment()
        return rollout(env, Policy.uniform(env.state_count, env.action_count), 20_000, 7)

    def test_active_class(self, events):
        data = events.to_paired()
        scheme = PenaltyScheme("bic:markov", 2)
        maps = active_icost_class()
        counted = {m.map_id for m in maps if assert_matches_oracle(m, data, 0.0, scheme)}
        # the four embedded reward maps and the baseline; the event map's state
        # is the last event, so each y has one successor per x, and it keeps
        # the forward, bit for bit
        assert counted == {m.map_id for m in maps} - {"st:0|1|2|3|4|5|6|7"}
        result = active_select(events, maps[:-1], scheme)
        expected = selection._pick([
            (oracles.score_map_before(m, data, "icost", scheme), m)
            for m in sorted(maps, key=lambda m: m.canonical_key)])
        assert (result.chosen_map_id, result.tie_broken) == \
            (expected.chosen_map_id, expected.tie_broken)
        assert_costs_match(result.costs, expected.costs, counted)

    @pytest.mark.parametrize("x_size,y_size", [(2, 2), (3, 2), (2, 3)])
    def test_x_free_maps(self, x_size, y_size):
        rng = rng_stream(1204)
        scheme = PenaltyScheme("bic:markov", y_size)
        for n in (1, 50, 2000):
            data = paired(x_size, y_size, rng.integers(0, x_size * y_size, n))
            maps = x_free_maps(y_size, x_size, rng)
            assert assert_matches_oracle(maps[0], data, 0.0, scheme)
            for fmap in maps[1:]:
                assert_matches_oracle(fmap, data, 0.0, scheme)

    @pytest.mark.parametrize("name,data", PAIRED, ids=[name for name, _ in PAIRED])
    def test_paired_datasets(self, name, data):
        maps = candidate_maps(drive_size(data), rng_stream(1202))
        for spec in SPECS:
            scheme = PenaltyScheme(spec, emit_size(data))
            for smoothing in SMOOTHINGS:
                for fmap in maps:
                    assert_matches_oracle(fmap, data, smoothing, scheme)

    @pytest.mark.parametrize("smoothing", [0.5, 1e-3])
    def test_smoothing_keeps_the_forward(self, events, smoothing):
        # every estimated entry is positive, so with S > 1 each y has S successors
        data = events.to_paired()
        scheme = PenaltyScheme("bic:markov", 2)
        for fmap in active_icost_class() + x_free_maps(2, 4, rng_stream(1205)):
            counted = assert_matches_oracle(fmap, data, smoothing, scheme)
            assert counted == (fmap.state_count == 1)

    def test_one_forward_call_for_the_active_class(self, events, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(len(args[3]))
            return forward(*args)

        forward = _kernels.forward_nll_steps
        monkeypatch.setattr(_kernels, "forward_nll_steps", counting)
        result = active_select(events, active_icost_class()[:-1],
                               PenaltyScheme("bic:markov", 2))
        assert len(result.costs) == 6
        assert calls == [len(events)]


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def error_cases():
    rng = rng_stream(1203)
    plain = SymbolSequence(Alphabet(2), rng.integers(0, 2, 30))
    pairs = paired(2, 2, rng.integers(0, 4, 30))
    cases = []
    for criterion in CRITERIA:
        cases += [
            (f"empty-plain-{criterion}", trivial_map(2), plain.prefix(0), criterion, 0.0),
            (f"empty-pairs-{criterion}", trivial_map(4), pairs.prefix(0), criterion, 0.0),
            (f"mismatch-plain-{criterion}", trivial_map(3), plain, criterion, 0.0),
        ]
        for smoothing in (-1.0, math.nan, math.inf):
            cases.append((f"smoothing-{smoothing}-{criterion}", trivial_map(2), plain,
                          criterion, smoothing))
    for criterion in ("icost", "ocost"):
        cases.append((f"mismatch-pairs-{criterion}", trivial_map(3), pairs, criterion, 0.0))
    cases.append(("unknown-criterion", trivial_map(2), plain, "aic", 0.0))
    cases.append(("unknown-criterion-empty", trivial_map(2), plain.prefix(0), "bic", -1.0))
    return cases


ERROR_CASES = error_cases()


class TestErrorsMatchOracle:
    @pytest.mark.parametrize("name,fmap,data,criterion,smoothing", ERROR_CASES,
                             ids=[case[0] for case in ERROR_CASES])
    def test_same_type_and_message(self, name, fmap, data, criterion, smoothing):
        scheme = PenaltyScheme("bic:markov", 2)
        got = _raised(lambda: estimation.score_map(fmap, data, criterion, scheme, smoothing))
        want = _raised(lambda: oracles.score_map_before(fmap, data, criterion, scheme,
                                                        smoothing))
        assert got == want
        assert got[0] is InputError

    @pytest.mark.parametrize("criterion", ["cost", "ml"])
    def test_joint_reading_names_the_pairs(self, criterion):
        # the oracle recodes the pairs as a sequence before reading them; the
        # library reads the pairs, so a mismatch names them as under icost
        pairs = paired(2, 2, [0, 3, 1])
        scheme = PenaltyScheme("bic:markov", 2)
        with pytest.raises(InputError) as old:
            oracles.score_map_before(trivial_map(3), pairs, criterion, scheme)
        with pytest.raises(InputError) as new:
            estimation.score_map(trivial_map(3), pairs, criterion, scheme)
        assert str(old.value) == "alphabet mismatch: map expects 3 symbols, sequence has 4"
        assert str(new.value) == "alphabet mismatch: map expects 3 symbols, pairs span 4"


def run_length_map(size, longest):
    """State = the number of trailing top symbols, capped at ``longest``: its
    memory bound is longest - 1."""
    return general_map([[min(s + 1, longest) if y == size - 1 else 0 for y in range(size)]
                        for s in range(longest + 1)])


def over_cap_map(size, n_emit):
    """A bounded map whose own context-count table is over ``_TABLE_CELLS``."""
    longest = 1
    while size ** (longest + 1) * n_emit <= estimation._TABLE_CELLS:
        longest += 1
    fmap = run_length_map(size, longest)
    assert memory_bound(fmap).kappa == longest - 1
    return fmap


def bounded_general_maps(size, rng, count):
    """Random general maps with bounded memory, kappa >= 1: each symbol sends
    every state into a random smaller set."""
    maps = []
    while len(maps) < count:
        n_states = int(rng.integers(2, 7))
        table = np.stack([rng.choice(rng.choice(n_states, int(rng.integers(1, n_states)),
                                                replace=False), n_states)
                          for _ in range(size)], axis=1)
        fmap = general_map(table, int(rng.integers(n_states)))
        bound = memory_bound(fmap)
        if bound.bounded and bound.kappa >= 1:
            maps.append(fmap)
    return maps


def assert_trajectories_match(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.seed == w.seed
        assert np.array_equal(g.n_grid, w.n_grid)
        assert g.chosen_ids == w.chosen_ids
        assert g.stabilization_index == w.stabilization_index
        assert g.costs_per_n == w.costs_per_n


@pytest.fixture
def old_selection(monkeypatch):
    # the per-prefix consistency oracle, selecting the way the library used to
    monkeypatch.setattr(oracles, "select", oracles.select_before)


class TestSharedTableMatchesOracle:
    """One context-count table serves every candidate of a call and every
    prefix of a consistency run, with the counts of a table or a walk per
    candidate and prefix (``oracles.count_before``)."""

    GRID = [1, 2, 3, 4, 5, 60, 1500]

    def classes(self, size):
        """(name, source, class): depth-3 binary or depth-2 ternary suffix
        classes, random bounded general maps, and a map over the table cap."""
        rng = rng_stream(1206)
        depth = 3 if size == 2 else 2
        suffix = enumerate_closed_suffix_maps(Alphabet(size), depth)
        source = FsmxSource(suffix[len(suffix) // 2],
                            rng.dirichlet(np.ones(size), suffix[len(suffix) // 2].state_count))
        general = bounded_general_maps(size, rng, 6)
        return [("suffix", source, suffix),
                ("general", source, general),
                ("mixed", source, [*suffix[:5], *general[:3], over_cap_map(size, size)])]

    @pytest.mark.parametrize("size", [2, 3])
    def test_consistency_run(self, size, old_selection):
        for name, source, maps in self.classes(size):
            for criterion in CRITERIA:
                for smoothing in (0.0, 0.5):
                    for spec in ("bic:markov", "cubic"):
                        args = (source, maps, criterion, PenaltyScheme(spec, size),
                                self.GRID, [0, 1], True, smoothing)
                        assert_trajectories_match(phimp.consistency_run(*args),
                                                  oracles.consistency_run_before(*args))

    def test_reference_experiment(self, old_selection):
        source = FsmxSource(compile_suffix_map(SuffixSet(Alphabet(2), ((0,), (0, 1), (1, 1)))),
                            np.array([[0.8, 0.2], [0.5, 0.5], [0.2, 0.8]]))
        args = (source, enumerate_closed_suffix_maps(Alphabet(2), 3), "cost",
                PenaltyScheme("bic:markov", 2), [100, 1000, 10_000, 100_000], [7])
        assert_trajectories_match(phimp.consistency_run(*args),
                                  oracles.consistency_run_before(*args))

    @pytest.mark.parametrize("x_size,y_size", [(1, 2), (1, 3), (2, 2), (3, 2)])
    def test_select_and_countable_search(self, x_size, y_size, old_scoring):
        size = x_size * y_size
        rng = rng_stream(1207)
        depth = 2 if size <= 3 else 1
        suffix = enumerate_closed_suffix_maps(Alphabet(size), depth)
        maps = [*suffix[:6], *bounded_general_maps(size, rng, 3),
                *candidate_maps(size, rng)[-3:], over_cap_map(size, size)]
        for n in (1, 2, 3, 4, 400):
            joint = rng.integers(0, size, n)
            datasets = [paired(x_size, y_size, joint)]
            if x_size == 1:
                datasets.append(SymbolSequence(Alphabet(size), joint))
            for data in datasets:
                for criterion in CRITERIA:
                    for smoothing in (0.0, 0.5):
                        scheme = PenaltyScheme("bic:markov", emit_size(data))
                        counted = {m.map_id for m in maps
                                   if from_counts(m, data, criterion, smoothing)}
                        result = select(maps, data, criterion, scheme, smoothing)
                        expected = oracles.select_before(maps, data, criterion, scheme,
                                                         smoothing)
                        assert_costs_match(result.costs, expected.costs, counted)
                        assert result.chosen_map_id == expected.chosen_map_id
                        assert result.tie_broken == expected.tie_broken
                        args = (Alphabet(size), data, criterion, scheme, 8, depth, smoothing)
                        result, pruned = countable_search(*args)
                        expected, expected_pruned = oracles.countable_search_loop(*args)
                        assert result.chosen_map_id == expected.chosen_map_id
                        assert result.tie_broken == expected.tie_broken
                        assert_costs_match(result.costs, expected.costs, counted)
                        assert_log_match(pruned, expected_pruned,
                                         result.chosen_map_id in counted)

    def test_consistency_run_codes_each_sample_once(self, monkeypatch):
        # 22 candidates on 4 prefixes were 88 tables of their own; the shared
        # table codes each seed's sample once, over all of its symbols
        calls = []

        def counting(symbols, m, base):
            calls.append(symbols.shape[0])
            return gram_codes(symbols, m, base)

        gram_codes = _kernels.gram_codes
        monkeypatch.setattr(_kernels, "gram_codes", counting)
        source = FsmxSource(compile_suffix_map(SuffixSet(Alphabet(2), ((0,), (0, 1), (1, 1)))),
                            np.array([[0.8, 0.2], [0.5, 0.5], [0.2, 0.8]]))
        trajectories = phimp.consistency_run(
            source, enumerate_closed_suffix_maps(Alphabet(2), 3), "cost",
            PenaltyScheme("bic:markov", 2), [100, 1000, 10_000, 100_000], [0, 1])
        assert len(trajectories[0].costs_per_n[-1]) == 22
        assert calls == [100_000, 100_000]


class TestCodeLengthPassMatchesOracle:
    """``_ContextTable.scores`` codes every map of a prefix in one pass and
    sums each block's terms exactly rounded; ``oracles.score_cell_before``
    coded each (map, prefix) cell on its own and summed in NumPy's pairwise
    order."""

    ENDS = [1, 2, 3, 200, 1500]

    @staticmethod
    def maps(size, rng):
        """Random closed suffix maps, random general maps of 2, 5 and 9
        states, the parity of the odd symbols seen (no bounded memory) and
        the trivial map."""
        suffix = enumerate_closed_suffix_maps(Alphabet(size), 2 if size <= 3 else 1)
        picked = rng.choice(len(suffix), min(4, len(suffix)), replace=False)
        general = [general_map(rng.integers(0, s, (s, size)), int(rng.integers(s)))
                   for s in (2, 5, 9)]
        return [*(suffix[i] for i in picked), *general, *candidate_maps(size, rng)[-2:]]

    @pytest.mark.parametrize("x_size,y_size", [(0, 2), (0, 3), (1, 2), (2, 2), (3, 3)])
    def test_scores(self, x_size, y_size):
        # x_size 0 is plain data; 3 x 3 pairs drive 9 symbols, so rows of 9
        # entries sum in NumPy's pairwise order there
        rng = rng_stream(1208)
        size = max(x_size, 1) * y_size
        joint = rng.integers(0, size, self.ENDS[-1])
        data = (paired(x_size, y_size, joint) if x_size
                else SymbolSequence(Alphabet(size), joint))
        maps = self.maps(size, rng)
        for criterion in CRITERIA:
            scheme = PenaltyScheme("bic:markov", emit_size(data))
            for smoothing in (0.0, 0.5, 1e-3, 1e308):
                # the largest smoothing overflows the row sums, so every
                # row of two or more entries codes at +inf
                with np.errstate(over="ignore"):
                    table = estimation._table(maps, data, criterion, smoothing, self.ENDS)
                    assert table._folds and set(maps) - set(table._folds)
                    for n in self.ENDS:
                        got = table.scores(maps, n, scheme, smoothing)
                        for fmap, g in zip(maps, got):
                            self.check(table, fmap, n, scheme, smoothing, g)

    @staticmethod
    def check(table, fmap, n, scheme, smoothing, got):
        want = oracles.score_cell_before(table, fmap, n, scheme, smoothing)
        assert (got.criterion, got.map_id, got.n, got.penalty) == \
            (want.criterion, want.map_id, want.n, want.penalty)
        for g, w in ((got.data_cost, want.data_cost), (got.total, want.total)):
            if math.isinf(w):
                assert g == w
            else:
                assert abs(g - w) <= 1e-14 * max(1.0, abs(w))
        # rows of fewer than 8 entries, or of integer sums, have the same
        # row sums as the oracle's, so its terms summed by the one rule give
        # the same floats
        if smoothing == 0 or max(fmap.state_count, table.n_emit) < 8:
            with mock.patch.object(oracles, "counts_nll_before", estimation.counts_nll):
                exact = oracles.score_cell_before(table, fmap, n, scheme, smoothing)
            assert (got.data_cost, got.total) == (exact.data_cost, exact.total)
