import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (SuffixSetBefore, _is_complete, _is_proper,
                     all_proper_complete_sets, closed_suffix_maps_oracle,
                     closure_before, closure_oracle, ends_with, memory_oracle,
                     subtree_leafsets)
from phimp import (Alphabet, FeatureMap, InputError, ResourceError, SuffixSet,
                   SymbolSequence, compile_suffix_map,
                   enumerate_closed_suffix_maps, is_fsm_closed, load_fsm_map,
                   maps_from_json, maps_to_json, memory_bound, read_maps,
                   trivial_map, validate_suffix_set, write_maps)
from phimp import fmaps
from phimp.cli import main
from phimp.fmaps import MemoryBoundReport, _closure, _suffix_map, _suffix_text

BINARY = Alphabet(2)


def sset(*suffixes):
    return SuffixSet(BINARY, tuple(tuple(s) for s in suffixes))


REFERENCE = sset((0,), (0, 1), (1, 1))


def run_length(depth):
    """The closed set {1, 10, ..., 10^(depth-1), 0^depth}: the 0s since the last 1."""
    return sset(*[(1,) + (0,) * k for k in range(depth)], (0,) * depth)


class TestValidateSuffixSet:
    def test_reference_set_is_proper_and_complete(self):
        report = validate_suffix_set(REFERENCE)
        assert report.proper and report.complete
        assert report.violations == []

    def test_ending_substring_violation(self):
        report = validate_suffix_set(sset((0,), (1,), (0, 1)))
        assert not report.proper
        assert any("'1'" in v and "'01'" in v for v in report.violations)

    def test_violation_texts_list_members_in_order(self):
        report = validate_suffix_set(sset((0,), (1,), (1, 0)))
        assert report.violations == ["'0' is an ending substring of '10'",
                                     "'10' ends with 0, 10"]

    def test_depth_three_set_is_proper_and_complete(self):
        report = validate_suffix_set(sset((1,), (0, 0), (0, 1, 0), (1, 1, 0)))
        assert report.proper and report.complete and report.violations == []

    def test_one_witness_per_incomplete_node(self):
        # the root is full; node '1' lacks its child '01', node '11' its '011'
        report = validate_suffix_set(sset((0,), (1, 1, 1)))
        assert report.proper and not report.complete
        assert report.violations == ["'01' ends with no member",
                                     "'011' ends with no member"]

    def test_no_gap_is_sought_below_a_member(self):
        # '01' lacks '101', which ends with the member '1'; only the nesting shows
        report = validate_suffix_set(sset((0,), (1,), (0, 0, 1)))
        assert report.violations == ["'1' is an ending substring of '001'",
                                     "'001' ends with 001, 1"]

    def test_wide_alphabet_is_checked_without_its_contexts(self):
        report = validate_suffix_set(SuffixSet(Alphabet(10 ** 9), ((0,),)))
        assert report.proper and not report.complete
        assert report.violations == ["'1' ends with no member"]

    def test_report_spells_out_the_ten_shallowest_witnesses(self):
        # every node on the chain above 0^50 lacks its child with a leading 1
        report = validate_suffix_set(sset((0,) * 50))
        assert report.proper and not report.complete
        assert report.violations == [f"'1{'0' * k}' ends with no member" for k in range(10)] + [
            "and 40 more witnesses"]

    def test_nested_chain_lists_each_member_once_per_witness(self):
        report = validate_suffix_set(sset(*[(0,) * k for k in range(1, 31)], (1,)))
        assert not report.proper and not report.complete
        assert report.violations[-2:] == ["'00000000000' ends with " + ", ".join(
            "0" * k for k in range(1, 12)), "and 19 more witnesses"]

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

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_lookups_agree_with_a_scan_of_the_members(self, data):
        size = data.draw(st.integers(1, 3))
        symbols = st.integers(0, size - 1)
        strings = data.draw(st.lists(st.lists(symbols, min_size=1, max_size=4),
                                     min_size=1, max_size=8))
        suffix_set = SuffixSet(Alphabet(size), tuple(map(tuple, strings)))
        members = suffix_set.suffixes
        report = validate_suffix_set(suffix_set)
        assert report.proper == _is_proper(members)
        assert report.complete == _is_complete(members, size, suffix_set.depth)
        for violation in report.violations:
            witness, _, listed = violation.partition(" ends with ")
            if not listed:
                continue  # an "is an ending substring of" pair
            string = tuple(map(int, witness.strip("'")))
            hits = [] if listed == "no member" else listed.split(", ")
            assert hits == ["".join(map(str, s)) for s in members if ends_with(string, s)]
        for history in data.draw(st.lists(st.lists(symbols, max_size=6), max_size=5)):
            hits = [s for s in members if ends_with(history, s)]
            assert suffix_set.match(tuple(history)) == max(hits, key=len, default=None)


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


def _small_sets():
    # every set of at most 5 binary strings of length <= 3 or ternary strings
    # of length <= 2
    for size, length in ((2, 3), (3, 2)):
        strings = [s for k in range(1, length + 1)
                   for s in itertools.product(range(size), repeat=k)]
        for count in range(1, 6):
            for members in itertools.combinations(strings, count):
                yield SuffixSet(Alphabet(size), members)


def _class_candidates(size, max_depth):
    # every candidate of the enumerated class: the root expanded, each child
    # any leaf set of a node with max_depth - 1 levels left
    for combo in itertools.product(subtree_leafsets(size, max_depth - 1), repeat=size):
        yield SuffixSet(Alphabet(size), tuple(tuple(reversed((y,) + path))
                                              for y in range(size) for path in combo[y]))


# each family with its number of sets
TRIE_FAMILIES = {
    "small sets": (5057, _small_sets),
    "binary depth 4": (676, lambda: _class_candidates(2, 4)),
    "ternary depth 3": (729, lambda: _class_candidates(3, 3)),
    "unary depth 30": (30, lambda: _class_candidates(1, 30)),
    "run length": (3, lambda: (run_length(depth) for depth in (13, 64, 200))),
}


class TestTrieAgreesWithHashIndex:
    """The trie gives what the member set and length list gave before."""

    @pytest.mark.parametrize("family", sorted(TRIE_FAMILIES))
    def test_lookups_closure_and_start_states(self, family):
        count, sets = TRIE_FAMILIES[family]
        sets = list(sets())
        assert len(sets) == count
        for suffix_set in sets:
            size, members = suffix_set.alphabet.size, suffix_set.suffixes
            before = SuffixSetBefore(suffix_set)
            report = validate_suffix_set(suffix_set)
            assert report.proper == _is_proper(members)
            if family != "run length":  # their contexts are too many to list
                assert report.complete == _is_complete(members, size, suffix_set.depth)
            histories = [*itertools.product(range(size), repeat=4),
                         *((y,) + s for s in members for y in range(size))]
            for history in histories:
                assert suffix_set.match(history) == before.match(history)
            closure, expected = _closure(suffix_set), closure_before(before)
            assert (closure.closed, closure.witness) == (expected.closed, expected.witness)
            if not closure.closed:
                continue
            assert closure.step_table.tolist() == expected.step_table.tolist()
            for padding in range(size):
                start = before.match((padding,) * suffix_set.depth)
                fmap = _suffix_map(suffix_set, closure.step_table, padding)
                assert fmap.start_state == members.index(start)


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

    def test_labels_and_ids_unambiguous_above_ten_symbols(self):
        # expanding only symbol 0 over 11 symbols gives the states a0 and
        # 1..10; with a digit per symbol, (1, 0) and (10,) would both read "10"
        members = [(a, 0) for a in range(11)] + [(k,) for k in range(1, 11)]
        fmap = compile_suffix_map(SuffixSet(Alphabet(11), tuple(members)))
        labels = [_suffix_text(s, 11) for s in fmap.suffixes]
        assert len(set(labels)) == fmap.state_count == 21
        assert labels[fmap.suffixes.index((1, 0))] == "1-0"
        assert labels[fmap.suffixes.index((10,))] == "10"
        assert fmap.map_id == "st:" + "|".join(labels)

    def test_step_follows_suffix_semantics(self, reference_map):
        by_suffix = {s: i for i, s in enumerate(reference_map.suffixes)}
        assert reference_map.step_table[by_suffix[(0, 1)], 1] == by_suffix[(1, 1)]
        assert reference_map.step_table[by_suffix[(1, 1)], 0] == by_suffix[(0,)]

    def test_depth_one_step_is_identity_on_symbol(self):
        fmap = compile_suffix_map(sset((0,), (1,)))
        for state in range(2):
            for symbol in range(2):
                assert fmap.step_table[state, symbol] == symbol


class TestMapHistory:
    def test_depth_one_states_follow_symbols(self):
        fmap = compile_suffix_map(sset((0,), (1,)))
        states = fmap.walk(SymbolSequence(BINARY, [0, 1, 1, 0]))
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

    @pytest.mark.parametrize("size, max_depth", [(1, 6), (2, 4), (3, 3), (4, 2), (5, 2)])
    def test_closed_classes_have_kappa_depth_minus_one(self, size, max_depth):
        # every map of depth <= max_depth; one state keeps nothing, so 0
        for fmap in enumerate_closed_suffix_maps(Alphabet(size), max_depth):
            depth = max(len(s) for s in fmap.suffixes)
            expected = 0 if fmap.state_count == 1 else depth - 1
            assert memory_bound(fmap) == MemoryBoundReport(bounded=True, kappa=expected)

    def test_closed_maps_read_kappa_off_their_members(self):
        # compiled, enumerated under every padding and loaded back from JSON,
        # no closed suffix map runs the pair-set search
        oracle = {}
        with mock.patch.object(fmaps, "_synchronizing_window", side_effect=AssertionError):
            for size, max_depth in ((2, 4), (3, 3), (4, 2)):
                for padding in range(size):
                    maps = enumerate_closed_suffix_maps(Alphabet(size), max_depth, padding)
                    for fmap in maps + maps_from_json(maps_to_json(maps)):
                        key = (size, fmap.step_table.tobytes())
                        if key not in oracle:
                            oracle[key] = memory_oracle(fmap.step_table, size, max_depth)
                        assert memory_bound(fmap) == MemoryBoundReport(*oracle[key])
            fmap = compile_suffix_map(run_length(400))
            assert memory_bound(fmap) == MemoryBoundReport(bounded=True, kappa=399)
        assert len(oracle) == 390 + 567 + 16

    def test_hand_built_suffix_map_gets_the_pair_set_verdict(self):
        # the parity table under the suffixes of the depth-1 map: nothing
        # checks a hand-built table against its suffixes, so the members
        # must not decide its bound
        parity = FeatureMap(kind="suffix-tree", alphabet_size=2, state_count=2,
                            start_state=0, step_table=np.array([[0, 1], [1, 0]]),
                            suffixes=((0,), (1,)))
        assert memory_bound(parity) == MemoryBoundReport(bounded=False, kappa=None)
        assert memory_oracle(parity.step_table, 2, kappa_limit=6) == (False, None)

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
        for size, max_depth in ((2, 3), (3, 2)):
            candidates = all_proper_complete_sets(size, max_depth)
            expected = {frozenset(members) for members in candidates
                        if closure_oracle(members, size)[0]}
            maps = enumerate_closed_suffix_maps(Alphabet(size), max_depth)
            got = {frozenset(m.suffixes) for m in maps}
            assert got == expected
            assert len(maps) == len(got)  # no duplicates

    @pytest.mark.parametrize("size, max_depth",
                             [(2, 4), (3, 3)] + [(1, d) for d in range(1, 7)])
    def test_matches_recursive_generator(self, size, max_depth):
        for padding in sorted({0, size - 1}):
            maps = enumerate_closed_suffix_maps(Alphabet(size), max_depth, padding)
            got = [(m.suffixes, m.step_table.tolist(), m.start_state) for m in maps]
            assert got == closed_suffix_maps_oracle(size, max_depth, padding)

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
        for cap in (0, -1):
            with pytest.raises(InputError, match="context cap"):
                enumerate_closed_suffix_maps(BINARY, 2, context_cap=cap)

    def test_cap_admits_exactly_its_count(self):
        # 2, 5 and 26 leaf sets below a node with 1, 2 and 3 levels left, so
        # binary depth 3 has 5^2 = 25 candidates and depth 4 has 26^2 = 676
        assert len(enumerate_closed_suffix_maps(BINARY, 3, context_cap=25)) == 21
        with pytest.raises(ResourceError, match="enumeration exceeds"):
            enumerate_closed_suffix_maps(BINARY, 3, context_cap=24)
        assert len(enumerate_closed_suffix_maps(BINARY, 4, context_cap=676)) == 390
        with pytest.raises(ResourceError, match="enumeration exceeds"):
            enumerate_closed_suffix_maps(BINARY, 4, context_cap=675)
        # one symbol: one candidate per depth
        assert len(enumerate_closed_suffix_maps(Alphabet(1), 40, context_cap=40)) == 40
        with pytest.raises(ResourceError, match="enumeration exceeds"):
            enumerate_closed_suffix_maps(Alphabet(1), 41, context_cap=40)

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


class TestDeepMaps:
    # 2^13 and 2^64 contexts: a check that enumerated them could not run
    @pytest.mark.parametrize("depth", [13, 64])
    def test_run_length_map_compiles_loads_and_checks(self, tmp_path, capsys, depth):
        fmap = compile_suffix_map(run_length(depth))
        assert fmap.state_count == depth + 1
        assert memory_bound(fmap) == MemoryBoundReport(bounded=True, kappa=depth - 1)
        assert fmap.suffixes[fmap.start_state] == (0,) * depth
        states = fmap.walk([1] + [0] * (depth + 1))
        assert [fmap.suffixes[s] for s in states[1:]] == (
            [(1,) + (0,) * k for k in range(depth)] + [(0,) * depth] * 2)
        path = tmp_path / "maps.json"
        write_maps(path, [fmap])
        back, = read_maps(path)
        assert back.map_id == fmap.map_id and back.suffixes == fmap.suffixes
        assert np.array_equal(back.step_table, fmap.step_table)
        assert main(["maps", "check", str(path)]) == 0
        assert "1 valid maps" in capsys.readouterr().out

    def test_one_deep_member_is_refused_with_a_short_message(self, tmp_path, capsys):
        # the chain above 0^(10^5) has 10^5 incomplete nodes; ten are named
        path = tmp_path / "maps.json"
        path.write_text(json.dumps({"maps": [{
            "kind": "suffix-tree", "alphabet_size": 2, "states": 1, "start_state": 0,
            "psi": [[0, 0]], "suffixes": [[0] * 10 ** 5]}]}))
        assert main(["maps", "check", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and len(err) < 500
        assert err.rstrip().endswith("'1000000000' ends with no member; and 99990 more witnesses")


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

    def test_start_no_constant_padding_reaches_is_refused(self, reference_map,
                                                         tmp_path, capsys):
        # state 1 is the suffix '01': it would keep the id st:0|01|11 and
        # score differently from the padding-0 map
        data = reference_map.to_json()
        data["start_state"] = 1
        path = tmp_path / "maps.json"
        path.write_text(json.dumps({"maps": [data]}))
        assert main(["maps", "check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: start state 1 is the suffix '01', "
                       "which no constant padding reaches\n")

    @pytest.mark.parametrize("size,max_depth", [(1, 6), (2, 4), (3, 3), (4, 2)])
    def test_enumerated_maps_load_for_every_padding(self, tmp_path, capsys,
                                                    size, max_depth):
        for padding in range(size):
            path = tmp_path / f"maps{padding}.json"
            assert main(["maps", "enumerate", "--alphabet", str(size),
                         "--max-depth", str(max_depth), "--padding", str(padding),
                         "--out", str(path)]) == 0
            assert main(["maps", "check", str(path)]) == 0
            starts = {fmap.suffixes[fmap.start_state] for fmap in read_maps(path)}
            assert all(set(start) == {padding} for start in starts)
