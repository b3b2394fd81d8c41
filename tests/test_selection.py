import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from phimp import (Alphabet, FeatureMap, FsmxSource, InputError, PenaltyScheme,
                   SuffixSet, SymbolSequence, compile_suffix_map, consistency_run,
                   cost, countable_search, cross_entropy_exact_markov,
                   enumerate_closed_suffix_maps, limiting_parameters, sample_fsmx,
                   select, trivial_map, with_baseline)
from phimp.selection import score_map
from phimp.sources import rng_stream

BINARY = Alphabet(2)
BIC_MARKOV = PenaltyScheme.from_string("bic:markov", 2)


def seq(items, size=2):
    return SymbolSequence(Alphabet(size), np.array(items, dtype=np.int64))


def depth_one_map():
    return compile_suffix_map(SuffixSet(BINARY, ((0,), (1,))))


class TestSelect:
    def test_periodic_data_prefers_depth_one(self):
        data = seq([0, 1] * 500)
        result = select([trivial_map(2), depth_one_map()], data, "cost", BIC_MARKOV)
        assert result.chosen_map_id == depth_one_map().map_id
        totals = {b.map_id: b.total for b in result.costs}
        # the one-state model pays about n ln 2 in data cost
        assert totals["trivial"] - totals[depth_one_map().map_id] > 600

    def test_iid_data_prefers_single_state(self):
        rng = rng_stream(44)
        data = seq(rng.integers(0, 2, 10_000))
        result = select([trivial_map(2), depth_one_map()], data, "cost", BIC_MARKOV)
        assert result.chosen_map_id == "trivial"

    def test_singleton_class(self):
        data = seq([0, 1, 1])
        result = select([depth_one_map()], data, "cost", BIC_MARKOV)
        assert result.chosen_map_id == depth_one_map().map_id
        assert not result.tie_broken

    def test_empty_class_rejected(self):
        with pytest.raises(InputError):
            select([], seq([0]), "cost", BIC_MARKOV)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InputError):
            select([trivial_map(2), trivial_map(2)], seq([0]), "cost", BIC_MARKOV)

    def test_unknown_criterion_rejected(self):
        with pytest.raises(InputError):
            select([trivial_map(2)], seq([0, 1]), "aic", BIC_MARKOV)

    @pytest.mark.parametrize("smoothing", ["x", None, True, np.bool_(True), 10j, 10 ** 400])
    def test_smoothing_must_be_a_number(self, smoothing):
        # "x" and None once ended in math.isfinite's TypeError, True scored
        # as 1.0, and 10 ** 400 overflowed the conversion to float
        with pytest.raises(InputError, match="smoothing must be a finite number >= 0"):
            select([trivial_map(2)], seq([0, 1]), "cost", BIC_MARKOV, smoothing)

    @pytest.mark.parametrize("smoothing", [0, 0.5, np.float32(0.5), np.int64(2)])
    def test_numeric_smoothing_accepted(self, smoothing):
        got = select([trivial_map(2)], seq([0, 1, 1]), "cost", BIC_MARKOV, smoothing)
        want = select([trivial_map(2)], seq([0, 1, 1]), "cost", BIC_MARKOV,
                      float(smoothing))
        assert got.costs == want.costs

    @settings(max_examples=25, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_permutation_invariance(self, shuffler):
        maps = enumerate_closed_suffix_maps(BINARY, 2) + [trivial_map(2)]
        rng = rng_stream(55)
        data = seq(rng.integers(0, 2, 300))
        baseline = select(list(maps), data, "cost", BIC_MARKOV)
        shuffled = list(maps)
        shuffler.shuffle(shuffled)
        permuted = select(shuffled, data, "cost", BIC_MARKOV)
        assert permuted.chosen_map_id == baseline.chosen_map_id
        assert [b.map_id for b in permuted.costs] == [b.map_id for b in baseline.costs]

    def test_totals_match_independent_recomputation(self, reference_source):
        data = sample_fsmx(reference_source, 2000, seed=3)
        maps = enumerate_closed_suffix_maps(BINARY, 2)
        result = select(maps, data, "cost", BIC_MARKOV)
        for breakdown in result.costs:
            fmap = next(m for m in maps if m.map_id == breakdown.map_id)
            again = cost(fmap, data, BIC_MARKOV)
            assert again.total == breakdown.total
            assert again.data_cost == breakdown.data_cost

    def test_enlarging_class_never_increases_chosen_total(self, reference_source):
        data = sample_fsmx(reference_source, 3000, seed=4)
        small = enumerate_closed_suffix_maps(BINARY, 1)
        large = enumerate_closed_suffix_maps(BINARY, 3)
        t_small = select(small, data, "cost", BIC_MARKOV)
        t_large = select(large, data, "cost", BIC_MARKOV)
        chosen_small = t_small.total_of(t_small.chosen_map_id)
        chosen_large = t_large.total_of(t_large.chosen_map_id)
        assert chosen_large <= chosen_small

    def test_infinite_totals_rank_last(self, monkeypatch):
        import phimp.selection as selection_module
        from phimp.estimation import _ContextTable

        maps = [trivial_map(2), depth_one_map()]
        real = _ContextTable.scores

        def poisoned(table, fmaps, n, scheme, smoothing):
            return [breakdown.__class__(
                        criterion=breakdown.criterion, map_id=breakdown.map_id,
                        n=breakdown.n, data_cost=math.inf, penalty=breakdown.penalty,
                        total=math.inf)
                    if breakdown.map_id == "trivial" else breakdown
                    for breakdown in real(table, fmaps, n, scheme, smoothing)]

        monkeypatch.setattr(_ContextTable, "scores", poisoned)
        rng = rng_stream(45)
        data = seq(rng.integers(0, 2, 100))
        result = selection_module.select(maps, data, "cost", BIC_MARKOV)
        assert result.chosen_map_id == depth_one_map().map_id

    def test_tie_breaking_prefers_fewer_states(self):
        # two maps with identical totals: constant data makes every suffix map
        # code for free, so only penalties differ unless states tie
        data = seq([0] * 50)
        a = compile_suffix_map(SuffixSet(BINARY, ((0,), (0, 1), (1, 1))))
        b = compile_suffix_map(SuffixSet(BINARY, ((0, 0), (1,), (1, 0))))
        result = select([b, a], data, "cost", BIC_MARKOV)
        assert result.tie_broken
        assert result.chosen_map_id == a.map_id  # canonical order breaks the tie

    @pytest.mark.parametrize("criterion", ["cost", "ml"])
    def test_relabelled_maps_tie_exactly(self, reference_source, criterion):
        # a class map with its states relabelled counts the same multiset of
        # cells, so the two totals are the same float and the tie rule, not
        # the order the terms were summed in, puts the suffix map first
        rng = rng_stream(46)
        maps = [m for m in enumerate_closed_suffix_maps(BINARY, 3) if m.state_count >= 6]
        for seed in range(3):
            data = sample_fsmx(reference_source, 5000, seed)
            for fmap in maps:
                perm = rng.permutation(fmap.state_count)
                table = np.empty_like(fmap.step_table)
                table[perm] = perm[fmap.step_table]
                twin = FeatureMap(kind="general-fsm", alphabet_size=2,
                                  state_count=fmap.state_count,
                                  start_state=int(perm[fmap.start_state]), step_table=table)
                result = select([twin, fmap], data, criterion, BIC_MARKOV)
                assert result.total_of(twin.map_id) == result.total_of(fmap.map_id)
                assert result.tie_broken
                assert result.chosen_map_id == fmap.map_id


class TestWithBaseline:
    def test_injects_single_state_map(self):
        maps = enumerate_closed_suffix_maps(BINARY, 1)
        enlarged = with_baseline(maps, 2)
        assert any(m.state_count == 1 for m in enlarged)

    def test_respects_existing_single_state_map(self):
        maps = [trivial_map(2)]
        assert len(with_baseline(maps, 2)) == 1

    def test_disabled(self):
        maps = enumerate_closed_suffix_maps(BINARY, 1)
        assert len(with_baseline(maps, 2, include_baseline=False)) == len(maps)


class TestConsistencyRun:
    def test_reference_experiment_recovers_true_map(self, reference_source):
        maps = enumerate_closed_suffix_maps(BINARY, 3)
        trajectories = consistency_run(reference_source, maps, "cost", BIC_MARKOV,
                                       n_grid=[100, 1000, 10_000], seeds=[0, 1, 2])
        for trajectory in trajectories:
            assert trajectory.chosen_ids[-1] == reference_source.fmap.map_id
            assert trajectory.stabilization_index <= 2
            # the stabilization index is consistent with the recorded choices
            idx = trajectory.stabilization_index
            assert all(c == trajectory.chosen_ids[-1]
                       for c in trajectory.chosen_ids[idx:])
            if idx > 0:
                assert trajectory.chosen_ids[idx - 1] != trajectory.chosen_ids[-1]

    def test_iid_source_selects_single_state_map(self):
        fmap = compile_suffix_map(SuffixSet(BINARY, ((0,), (1,))))
        source = FsmxSource(fmap, np.array([[0.5, 0.5], [0.5, 0.5]]))
        maps = enumerate_closed_suffix_maps(BINARY, 2)
        trajectories = consistency_run(source, maps, "cost", BIC_MARKOV,
                                       n_grid=[1000, 10_000], seeds=list(range(5)))
        assert all(t.final_choice == "trivial" for t in trajectories)

    def test_ml_criterion_reaches_minimal_cross_entropy(self, reference_source):
        maps = with_baseline(enumerate_closed_suffix_maps(BINARY, 2), 2)
        trajectories = consistency_run(reference_source, maps, "ml", BIC_MARKOV,
                                       n_grid=[30_000], seeds=[6])
        entropies = {}
        for fmap in maps:
            transition, emission = limiting_parameters(reference_source, fmap)
            entropies[fmap.map_id] = cross_entropy_exact_markov(
                reference_source, fmap, transition, emission).value
        chosen = trajectories[0].final_choice
        assert entropies[chosen] <= min(entropies.values()) + 1e-9

    def test_chosen_data_cost_approaches_cross_entropy(self, reference_source):
        maps = enumerate_closed_suffix_maps(BINARY, 3)
        trajectories = consistency_run(reference_source, maps, "cost", BIC_MARKOV,
                                       n_grid=[100, 100_000], seeds=[13])
        trajectory = trajectories[0]
        chosen = trajectory.final_choice
        breakdown = next(b for b in trajectory.costs_per_n[-1] if b.map_id == chosen)
        fmap = next(m for m in maps if m.map_id == chosen)
        transition, emission = limiting_parameters(reference_source, fmap)
        entropy = cross_entropy_exact_markov(reference_source, fmap,
                                             transition, emission).value
        assert abs(breakdown.data_cost / breakdown.n - entropy) <= 0.02

    def test_non_ergodic_source_refused(self):
        frozen = FeatureMap(kind="general-fsm", alphabet_size=2, state_count=2,
                            start_state=0, step_table=np.array([[0, 0], [1, 1]]))
        source = FsmxSource(frozen, np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(InputError, match="ergodic"):
            consistency_run(source, [trivial_map(2)], "cost", BIC_MARKOV,
                            n_grid=[100], seeds=[0])

    def test_unbounded_candidate_refused(self, reference_source):
        parity = FeatureMap(kind="general-fsm", alphabet_size=2, state_count=2,
                            start_state=0, step_table=np.array([[0, 1], [1, 0]]),
                            map_id="parity")
        with pytest.raises(InputError, match="bounded memory"):
            consistency_run(reference_source, [parity], "cost", BIC_MARKOV,
                            n_grid=[100], seeds=[0])

    def test_duplicate_seeds_refused(self, reference_source):
        with pytest.raises(InputError):
            consistency_run(reference_source, [trivial_map(2)], "cost", BIC_MARKOV,
                            n_grid=[100], seeds=[1, 1])

    def test_non_integer_grid_point_refused(self, reference_source):
        with pytest.raises(InputError, match="n_grid entry must be an integer"):
            consistency_run(reference_source, [trivial_map(2)], "cost", BIC_MARKOV,
                            n_grid=[100.5, 1000], seeds=[0])

    def test_non_integer_seed_refused(self, reference_source):
        with pytest.raises(InputError, match="seed must be an integer"):
            consistency_run(reference_source, [trivial_map(2)], "cost", BIC_MARKOV,
                            n_grid=[100], seeds=[1.5])

    @pytest.mark.parametrize("n_grid,seeds,what", [(100, [0], "n_grid"),
                                                   (None, [0], "n_grid"),
                                                   ([100], 3, "seeds"),
                                                   ([100], 2.5, "seeds")])
    def test_non_iterable_grid_or_seeds_refused(self, reference_source, n_grid, seeds, what):
        with pytest.raises(InputError, match=f"{what} must be a list"):
            consistency_run(reference_source, [trivial_map(2)], "cost", BIC_MARKOV,
                            n_grid=n_grid, seeds=seeds)

    @pytest.mark.parametrize("smoothing", [-1.0, math.nan, math.inf, "x", None, True])
    def test_bad_smoothing_refused_before_sampling(self, reference_source, monkeypatch,
                                                   smoothing):
        def refuse(*args, **kwargs):
            raise AssertionError("a refused run sampled the source")

        monkeypatch.setattr("phimp.selection.sample_fsmx", refuse)
        with pytest.raises(InputError, match="smoothing must be a finite number >= 0"):
            consistency_run(reference_source, [trivial_map(2)], "cost", BIC_MARKOV,
                            n_grid=[100], seeds=[0], smoothing=smoothing)

    def test_numpy_integer_grid_and_seed_accepted(self, reference_source):
        [got] = consistency_run(reference_source, [trivial_map(2)], "cost", BIC_MARKOV,
                                n_grid=[np.int64(100)], seeds=[np.int64(7)])
        [want] = consistency_run(reference_source, [trivial_map(2)], "cost", BIC_MARKOV,
                                 n_grid=[100], seeds=[7])
        assert got.costs_per_n[0][0].total == want.costs_per_n[0][0].total
        assert list(got.n_grid) == [100]


class TestCountableSearch:
    def test_matches_exhaustive_selection(self):
        maps = with_baseline(enumerate_closed_suffix_maps(BINARY, 3), 2)
        for seed in range(5):
            rng = rng_stream(300 + seed)
            data = seq(rng.integers(0, 2, 500))
            searched, _ = countable_search(BINARY, data, "cost", BIC_MARKOV,
                                           state_budget=8, depth_budget=3)
            exhaustive = select(maps, data, "cost", BIC_MARKOV)
            assert searched.chosen_map_id == exhaustive.chosen_map_id

    def test_constant_data_prunes_everything_else(self):
        data = seq([0] * 1000)
        result, pruned = countable_search(BINARY, data, "cost", BIC_MARKOV,
                                          state_budget=8, depth_budget=3)
        assert result.chosen_map_id == "trivial"
        assert result.total_of("trivial") == pytest.approx(0.5 * math.log(1000))
        assert len(pruned) > 0
        assert all(entry.penalty > result.total_of("trivial") for entry in pruned)
        # every candidate beyond the one-state map was pruned without scoring
        assert len(result.costs) == 1

    def test_state_budget_one_returns_single_state_map(self):
        rng = rng_stream(301)
        data = seq(rng.integers(0, 2, 200))
        result, _ = countable_search(BINARY, data, "cost", BIC_MARKOV,
                                     state_budget=1, depth_budget=3)
        assert result.chosen_map_id == "trivial"
        assert len(result.costs) == 1

    def test_bad_budgets_rejected(self):
        with pytest.raises(InputError):
            countable_search(BINARY, seq([0, 1]), "cost", BIC_MARKOV,
                             state_budget=0, depth_budget=3)

    def test_matches_full_scan_oracle_exactly(self):
        # the early stop must leave the choice, the tie flag, every scored
        # cost and every pruning-log field as the full scan has them
        rng = rng_stream(302)
        datasets = [seq(rng.integers(0, 2, n)) for n in (12, 400)] + \
            [seq([0] * 12), seq([1] * 400)]
        pruned_runs = tied_runs = 0
        for data in datasets:
            for spec in ("bic:markov", "bic:full", "cubic"):
                scheme = PenaltyScheme.from_string(spec, 2)
                for criterion in ("cost", "ml"):
                    for budget in (1, 3, 8):
                        args = (BINARY, data, criterion, scheme, budget, 3)
                        result, pruned = countable_search(*args)
                        expected, expected_pruned = oracles.countable_search_loop(*args)
                        assert result.chosen_map_id == expected.chosen_map_id
                        assert result.tie_broken == expected.tie_broken
                        assert result.costs == expected.costs
                        assert [vars(e) for e in pruned] == \
                            [vars(e) for e in expected_pruned]
                        pruned_runs += bool(pruned)
                        tied_runs += result.tie_broken
        assert pruned_runs > 0 and tied_runs > 0


class TestScoreMapDispatch:
    def test_plain_sequence_icost_equals_cost(self):
        rng = rng_stream(66)
        data = seq(rng.integers(0, 2, 200))
        fmap = depth_one_map()
        assert score_map(fmap, data, "icost", BIC_MARKOV).total == \
            score_map(fmap, data, "cost", BIC_MARKOV).total
        assert score_map(fmap, data, "ocost", BIC_MARKOV).total == \
            score_map(fmap, data, "cost", BIC_MARKOV).total
