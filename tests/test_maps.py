import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_proper_complete_sets, closure_oracle, memory_oracle
from phimp import (Alphabet, FeatureMap, InputError, ResourceError, SuffixSet,
                   SymbolSequence, compile_suffix_map,
                   enumerate_closed_suffix_maps, is_fsm_closed, load_fsm_map,
                   map_history, maps_from_json, maps_to_json, memory_bound,
                   trivial_map, validate_suffix_set)

BINARY = Alphabet(2)


def sset(*suffixes):
    return SuffixSet(BINARY, tuple(tuple(s) for s in suffixes))


REFERENCE = sset((0,), (0, 1), (1, 1))


class TestValidateSuffixSet:
    def test_reference_set_is_proper_and_complete(self):
        report = validate_suffix_set(REFERENCE)
        assert report.proper and report.complete
        assert report.violations == []

    def test_ending_substring_violation(self):
        report = validate_suffix_set(sset((0,), (1,), (0, 1)))
        assert not report.proper
        assert any("'1'" in v and "'01'" in v for v in report.violations)

    def test_incomplete_set(self):
        report = validate_suffix_set(sset((0, 0), (1, 1)))
        assert not report.complete
        assert any("'01'" in v or "'10'" in v for v in report.violations)

    def test_empty_set_rejected(self):
        with pytest.raises(InputError):
            SuffixSet(BINARY, ())

    def test_empty_string_rejected(self):
        with pytest.raises(InputError):
            SuffixSet(BINARY, ((),))


class TestClosure:
    def test_reference_set_closed_with_expected_updates(self):
        closure = is_fsm_closed(REFERENCE)
        assert closure.closed
        # canonical state order: 0 -> (0,), 1 -> (0,1), 2 -> (1,1)
        expected = np.array([[0, 1], [0, 2], [0, 2]])
        assert np.array_equal(closure.step_table, expected)

    def test_non_closed_set_with_witness(self):
        closure = is_fsm_closed(sset((1,), (0, 0), (0, 1, 0), (1, 1, 0)))
        assert not closure.closed
        assert closure.witness == ((1,), 0)

    def test_full_depth_two_tree_closed(self):
        closure = is_fsm_closed(sset((0, 0), (0, 1), (1, 0), (1, 1)))
        assert closure.closed

    def test_invalid_set_rejected(self):
        with pytest.raises(InputError):
            is_fsm_closed(sset((0, 0), (1, 1)))

    def test_agrees_with_context_extension_oracle_depth3(self):
        # every proper, complete binary set of depth <= 3
        candidates = all_proper_complete_sets(2, 3)
        assert len(candidates) == 25
        closed_by_oracle = 0
        for members in candidates:
            closure = is_fsm_closed(SuffixSet(BINARY, tuple(members)))
            oracle_closed, detail = closure_oracle(members, 2)
            assert closure.closed == oracle_closed, f"disagree on {sorted(members)}"
            if oracle_closed:
                closed_by_oracle += 1
                # tables agree entry by entry
                suffixes = sorted(members)
                index = {s: i for i, s in enumerate(suffixes)}
                for (state, symbol), target in detail.items():
                    assert closure.step_table[index[state], symbol] == index[target]
        assert closed_by_oracle == 21


class TestCompileAndStep:
    def test_start_state_from_padding(self):
        fmap = compile_suffix_map(REFERENCE, padding_symbol=0)
        assert fmap.state_count == 3
        assert fmap.suffixes[fmap.start_state] == (0,)

    def test_depth_one_map(self):
        fmap = compile_suffix_map(sset((0,), (1,)), padding_symbol=0)
        assert fmap.state_count == 2
        assert fmap.suffixes[fmap.start_state] == (0,)

    def test_full_tree_padding_one(self):
        fmap = compile_suffix_map(sset((0, 0), (0, 1), (1, 0), (1, 1)),
                                  padding_symbol=1)
        assert fmap.suffixes[fmap.start_state] == (1, 1)

    def test_non_closed_set_rejected(self):
        with pytest.raises(InputError):
            compile_suffix_map(sset((1,), (0, 0), (0, 1, 0), (1, 1, 0)))

    def test_step_follows_suffix_semantics(self, reference_map):
        by_suffix = {s: i for i, s in enumerate(reference_map.suffixes)}
        assert reference_map.step(by_suffix[(0, 1)], 1) == by_suffix[(1, 1)]
        assert reference_map.step(by_suffix[(1, 1)], 0) == by_suffix[(0,)]

    def test_step_out_of_range(self, reference_map):
        with pytest.raises(InputError):
            reference_map.step(5, 0)
        with pytest.raises(InputError):
            reference_map.step(0, 2)

    def test_depth_one_step_is_identity_on_symbol(self):
        fmap = compile_suffix_map(sset((0,), (1,)))
        for state in range(2):
            for symbol in range(2):
                assert fmap.step(state, symbol) == symbol


class TestMapHistory:
    def test_depth_one_states_follow_symbols(self):
        fmap = compile_suffix_map(sset((0,), (1,)))
        states = map_history(fmap, SymbolSequence(BINARY, [0, 1, 1, 0]))
        assert list(states) == [0, 0, 1, 1, 0]

    def test_reference_walk(self, reference_map):
        by_suffix = {s: i for i, s in enumerate(reference_map.suffixes)}
        states = reference_map.walk(SymbolSequence(BINARY, [1, 1]))
        assert list(states) == [by_suffix[(0,)], by_suffix[(0, 1)], by_suffix[(1, 1)]]

    def test_empty_sequence(self, reference_map):
        states = reference_map.walk(SymbolSequence(BINARY, []))
        assert list(states) == [reference_map.start_state]

    def test_alphabet_mismatch(self, reference_map):
        with pytest.raises(InputError):
            reference_map.walk(SymbolSequence(Alphabet(3), [0]))
        for raw in ([0, 5], [-1, 0]):
            with pytest.raises(InputError):
                reference_map.walk(raw)

    def test_padding_independence_after_depth(self):
        rng = np.random.default_rng(3)
        symbols = rng.integers(0, 2, 50)
        for fmap0 in enumerate_closed_suffix_maps(BINARY, 3):
            depth = max(len(s) for s in fmap0.suffixes)
            fmap1 = compile_suffix_map(SuffixSet(BINARY, fmap0.suffixes),
                                       padding_symbol=1)
            states0 = fmap0.walk(symbols)
            states1 = fmap1.walk(symbols)
            # states are indexed by the same canonical suffix order
            assert np.array_equal(states0[depth:], states1[depth:])


class TestMemoryBound:
    def test_suffix_maps_have_kappa_depth_minus_one(self):
        for fmap in enumerate_closed_suffix_maps(BINARY, 3):
            depth = max(len(s) for s in fmap.suffixes)
            report = memory_bound(fmap)
            assert report.bounded and report.kappa == depth - 1

    def test_single_state_map(self):
        report = memory_bound(trivial_map(2))
        assert report.bounded and report.kappa == 0

    def test_parity_automaton_unbounded(self):
        parity = FeatureMap(kind="general-fsm", alphabet_size=2, state_count=2,
                            start_state=0, step_table=np.array([[0, 1], [1, 0]]))
        report = memory_bound(parity)
        assert not report.bounded and report.kappa is None

    def test_matches_window_oracle(self, reference_map):
        parity = FeatureMap(kind="general-fsm", alphabet_size=2, state_count=2,
                            start_state=0, step_table=np.array([[0, 1], [1, 0]]))
        for fmap in (reference_map, trivial_map(2), parity):
            bounded, kappa = memory_oracle(fmap.step_table, 2, kappa_limit=6)
            report = memory_bound(fmap)
            assert report.bounded == bounded
            assert report.kappa == kappa

    def test_merged_full_tree_states(self):
        # depth-2 full tree with the two "last symbol 1" states merged:
        # states 0="00", 1="10", 2="*1"
        table = np.array([[0, 2], [0, 2], [1, 2]])
        merged = FeatureMap(kind="general-fsm", alphabet_size=2, state_count=3,
                            start_state=0, step_table=table)
        report = memory_bound(merged)
        assert report.bounded and report.kappa == 1


class TestEnumeration:
    def test_depth_one_binary_single_map(self):
        maps = enumerate_closed_suffix_maps(BINARY, 1)
        assert len(maps) == 1
        assert maps[0].suffixes == ((0,), (1,))

    def test_depth_one_ternary_single_map(self):
        maps = enumerate_closed_suffix_maps(Alphabet(3), 1)
        assert len(maps) == 1
        assert maps[0].state_count == 3

    def test_depth_two_binary_exact_class(self):
        maps = enumerate_closed_suffix_maps(BINARY, 2)
        got = {m.suffixes for m in maps}
        assert got == {
            ((0,), (1,)),
            ((0,), (0, 1), (1, 1)),
            ((0, 0), (1,), (1, 0)),
            ((0, 0), (0, 1), (1, 0), (1, 1)),
        }

    def test_matches_bruteforce_generation_depth3(self):
        # generation oracle: filter all subsets, then filter by closure oracle
        candidates = all_proper_complete_sets(2, 3)
        expected = {frozenset(members) for members in candidates
                    if closure_oracle(members, 2)[0]}
        maps = enumerate_closed_suffix_maps(BINARY, 3)
        got = {frozenset(m.suffixes) for m in maps}
        assert got == expected
        assert len(maps) == len(got)  # no duplicates

    def test_every_enumerated_map_validates(self):
        for fmap in enumerate_closed_suffix_maps(BINARY, 3):
            suffix_set = SuffixSet(BINARY, fmap.suffixes)
            report = validate_suffix_set(suffix_set)
            assert report.proper and report.complete
            assert is_fsm_closed(suffix_set).closed

    def test_canonical_order(self):
        maps = enumerate_closed_suffix_maps(BINARY, 2)
        counts = [m.state_count for m in maps]
        assert counts == sorted(counts)
        assert maps[1].suffixes == ((0,), (0, 1), (1, 1))  # tuple-lex before 1|00|10

    def test_cap_enforced(self):
        with pytest.raises(ResourceError, match="cap"):
            enumerate_closed_suffix_maps(BINARY, 5, context_cap=16)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_closure_property_on_extensions(self, data):
        maps = enumerate_closed_suffix_maps(BINARY, 3)
        fmap = maps[data.draw(st.integers(0, len(maps) - 1))]
        depth = max(len(s) for s in fmap.suffixes)
        suffix_set = SuffixSet(BINARY, fmap.suffixes)
        index = {s: i for i, s in enumerate(fmap.suffixes)}
        for history in itertools.product(range(2), repeat=depth + 1):
            matched = index[suffix_set.match(history)]
            for symbol in range(2):
                extended = suffix_set.match((history + (symbol,))[-depth:])
                assert fmap.step_table[matched, symbol] == index[extended]


class TestSerialization:
    def test_round_trip(self, reference_map):
        data = maps_to_json([reference_map])
        back = maps_from_json(data)
        assert len(back) == 1
        assert back[0].map_id == reference_map.map_id
        assert np.array_equal(back[0].step_table, reference_map.step_table)
        assert back[0].suffixes == reference_map.suffixes

    def test_general_fsm_round_trip(self):
        table = np.array([[0, 2], [0, 2], [1, 2]])
        merged = FeatureMap(kind="general-fsm", alphabet_size=2, state_count=3,
                            start_state=0, step_table=table, map_id="merged")
        back = load_fsm_map(merged.to_json())
        assert back.map_id == "merged"
        assert np.array_equal(back.step_table, table)
        assert memory_bound(back).kappa == 1

    def test_missing_table_entry_rejected(self):
        with pytest.raises(InputError):
            load_fsm_map({"kind": "general-fsm", "alphabet_size": 2, "states": 2,
                          "start_state": 0, "psi": [[0, 1]]})

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(InputError):
            load_fsm_map({"kind": "general-fsm", "alphabet_size": 2, "states": 2,
                          "start_state": 0, "psi": [[0, 1], [2, 0]]})

    def test_suffix_table_mismatch_rejected(self, reference_map):
        data = reference_map.to_json()
        data["psi"] = [[1, 1], [0, 2], [0, 2]]
        with pytest.raises(InputError):
            load_fsm_map(data)

    def test_missing_fields_rejected(self):
        with pytest.raises(InputError):
            load_fsm_map({"kind": "general-fsm"})
