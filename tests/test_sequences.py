import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (count_substring_naive, read_sequence_before, read_sequence_tokens_before,
                     write_sequence_before)
from phimp import (Alphabet, InputError, PairedSequence, PenaltyScheme,
                   SuffixSet, SymbolSequence, compile_suffix_map, countable_search,
                   default_grid, enumerate_closed_suffix_maps,
                   ergodicity_diagnostic, frequency_trajectory, read_sequence,
                   sample_fsmx, substring_frequency, trivial_map, write_sequence)
from phimp import sequences
from phimp.sources import rng_stream


def seq(items, size=2):
    return SymbolSequence(Alphabet(size), np.array(items, dtype=np.int64))


class TestSubstringFrequency:
    def test_pattern_01_in_0101(self):
        assert substring_frequency(seq([0, 1, 0, 1]), seq([0, 1])) == 0.5

    def test_single_symbol(self):
        assert substring_frequency(seq([0, 1, 0, 1]), seq([0])) == 0.5

    def test_pattern_longer_than_sequence(self):
        assert substring_frequency(seq([0, 1]), seq([0, 1, 0])) == 0.0

    def test_alphabet_mismatch(self):
        with pytest.raises(InputError):
            substring_frequency(seq([0, 1]), seq([2], size=3))

    def test_empty_pattern_rejected(self):
        with pytest.raises(InputError):
            substring_frequency(seq([0, 1]), seq([]))

    @settings(max_examples=150, deadline=None)
    @given(size=st.sampled_from([1, 2, 3, 1000]), draw=st.data())
    def test_matches_naive_count(self, size, draw):
        # random patterns, slices of the data (so overlapping hits occur),
        # slices with the first symbol changed, patterns longer than the data,
        # and patterns whose base-size code outgrows int64 (above 63 binary or
        # 6 base-1000 symbols)
        symbols = st.integers(0, size - 1)
        data = draw.draw(st.one_of(
            st.lists(symbols, min_size=1, max_size=40),
            st.lists(symbols, min_size=1, max_size=3).flatmap(
                lambda unit: st.integers(1, 100).map(lambda k: unit * k))))
        start = draw.draw(st.integers(0, len(data) - 1))
        pattern = draw.draw(st.one_of(
            st.lists(symbols, min_size=1, max_size=80),
            st.integers(1, 80).map(lambda m: data[start:start + m]),
            st.integers(1, 80).map(lambda m: [(data[start] + 1) % size,
                                              *data[start + 1:start + m]])))
        got = substring_frequency(seq(data, size), seq(pattern, size))
        assert got == count_substring_naive(data, pattern) / len(data)
        assert 0.0 <= got <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(data=st.lists(st.integers(0, 1), min_size=4, max_size=60),
           m=st.integers(1, 3))
    def test_counts_over_all_patterns_sum(self, data, m):
        # every window of length m matches exactly one pattern
        import itertools
        s = seq(data)
        total = sum(substring_frequency(s, seq(list(p)))
                    for p in itertools.product(range(2), repeat=m))
        expected = max(len(data) - m + 1, 0) / len(data)
        assert total == pytest.approx(expected, abs=1e-12)


class TestFrequencyTrajectory:
    def test_periodic_sequence_converges(self):
        data = seq([0, 1] * 500)
        report = frequency_trajectory(data, seq([0, 1]), [100, 500, 1000])
        assert np.allclose(report.values, 0.5)
        assert report.converged
        assert report.final_spread == 0.0

    def test_constant_sequence(self):
        data = seq([0] * 1000)
        report = frequency_trajectory(data, seq([1]), [10, 1000])
        assert np.allclose(report.values, 0.0)
        assert report.converged

    def test_bernoulli_law_of_large_numbers(self):
        rng = rng_stream(42)
        data = seq((rng.random(100_000) < 0.3).astype(np.int64))
        report = frequency_trajectory(data, seq([1]), [1000, 10_000, 100_000])
        assert abs(report.values[-1] - 0.3) <= 0.02

    def test_full_grid_point_equals_direct_frequency(self):
        rng = rng_stream(1)
        data = seq(rng.integers(0, 2, 512))
        pattern = seq([1, 0])
        report = frequency_trajectory(data, pattern, [64, 256, 512])
        assert report.values[-1] == substring_frequency(data, pattern)

    def test_empty_grid_rejected(self):
        with pytest.raises(InputError):
            frequency_trajectory(seq([0, 1]), seq([0]), [])

    def test_grid_must_increase(self):
        with pytest.raises(InputError):
            frequency_trajectory(seq([0, 1, 0]), seq([0]), [2, 2])

    @pytest.mark.parametrize("grid", [[10.7, 50.2], [True, 50], [10, 50.0]])
    def test_grid_entries_must_be_integers(self, grid):
        # an int64 cast once read [10.7, 50.2] as [10, 50] and True as 1
        data = seq([0, 1] * 50)
        with pytest.raises(InputError, match="grid entry must be an integer"):
            frequency_trajectory(data, seq([0]), grid)
        with pytest.raises(InputError, match="grid entry must be an integer"):
            ergodicity_diagnostic(data, max_pattern_len=1, grid=grid)

    @pytest.mark.parametrize("grid", [5, 2.5, np.int64(5), np.asarray(5)])
    def test_non_iterable_grid_refused(self, grid):
        # a number in place of a grid is an input error, not a TypeError
        data = seq([0, 1] * 50)
        with pytest.raises(InputError, match="grid must be a list"):
            frequency_trajectory(data, seq([0]), grid)
        with pytest.raises(InputError, match="grid must be a list"):
            ergodicity_diagnostic(data, max_pattern_len=1, grid=grid)

    def test_no_grid_refused(self):
        # ergodicity_diagnostic reads None as its default grid; this one has none
        with pytest.raises(InputError, match="grid must be a list"):
            frequency_trajectory(seq([0, 1] * 50), seq([0]), None)


class TestErgodicityDiagnostic:
    def test_periodic_sequence_all_converged(self):
        data = seq([0, 1] * 10_000)
        report = ergodicity_diagnostic(data, max_pattern_len=2, tol=0.01)
        assert report.all_converged
        assert len(report.reports) == 2 + 4

    def test_growing_blocks_do_not_converge(self):
        # ever larger runs of 0s then 1s keep the frequency of "1" swinging
        blocks = []
        for k in range(7):
            blocks += [0] * (2 * 4 ** k) + [1] * (2 * 4 ** k)
        data = seq(blocks)
        report = ergodicity_diagnostic(data, max_pattern_len=1, tol=0.01)
        assert not report.reports[(1,)].converged
        assert not report.all_converged

    def test_fsmx_sample_converges(self, reference_source):
        data = sample_fsmx(reference_source, 100_000, seed=5)
        report = ergodicity_diagnostic(data, max_pattern_len=3, tol=0.01)
        assert report.all_converged

    def test_values_equal_frequency_trajectory(self):
        # the per-length bincount gives each pattern frequency_trajectory's
        # values to the bit, at grid points shorter than the pattern too
        data = seq(rng_stream(3).integers(0, 3, 2000), 3)
        grid = [1, 2, 3, 40, 700, 2000]
        report = ergodicity_diagnostic(data, max_pattern_len=3, grid=grid)
        assert len(report.reports) == 3 + 9 + 27
        for pattern, rep in report.reports.items():
            direct = frequency_trajectory(data, seq(list(pattern), 3), grid)
            assert np.array_equal(rep.values, direct.values)
            assert rep.final_spread == direct.final_spread

    def test_relabeling_invariance(self, reference_source):
        data = sample_fsmx(reference_source, 20_000, seed=9)
        flipped = seq(1 - data.items)
        original = ergodicity_diagnostic(data, max_pattern_len=2)
        relabeled = ergodicity_diagnostic(flipped, max_pattern_len=2)
        assert original.all_converged == relabeled.all_converged
        for pattern, report in original.reports.items():
            mirror = tuple(1 - v for v in pattern)
            assert relabeled.reports[mirror].converged == report.converged
            assert relabeled.reports[mirror].final_spread == pytest.approx(
                report.final_spread, abs=1e-15)


class TestValidation:
    def test_symbol_out_of_range(self):
        with pytest.raises(InputError):
            seq([0, 2])

    @pytest.mark.parametrize("size", [2.5, True, 3.0])
    def test_alphabet_size_must_be_an_integer(self, size):
        with pytest.raises(InputError, match="alphabet size must be an integer"):
            SymbolSequence(Alphabet(size), np.array([0, 1, 2]))
        assert Alphabet(np.int64(3)).size == 3

    def test_paired_length_mismatch(self):
        with pytest.raises(InputError):
            PairedSequence(Alphabet(2), Alphabet(2),
                           np.array([0, 1]), np.array([0]))

    def test_items_are_read_only(self):
        data = seq([0, 1])
        with pytest.raises(ValueError):
            data.items[0] = 1

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.int32])
    def test_items_never_alias_the_callers_array(self, dtype):
        items = np.array([0, 1, 1], dtype=dtype)
        data = SymbolSequence(Alphabet(2), items)
        pairs = PairedSequence(Alphabet(2), Alphabet(2), items, items)
        items[0] = 1
        for got in (data.items, pairs.xs, pairs.ys):
            assert got.dtype == np.int64 and got.tolist() == [0, 1, 1]
            assert not np.shares_memory(got, items)


def _integer_argument_calls(tmp_path):
    data = seq([0, 1, 1, 0, 1, 0])
    scheme = PenaltyScheme("bic:markov", 2)
    depth_one = SuffixSet(Alphabet(2), ((0,), (1,)))
    search = lambda state, depth: countable_search(  # noqa: E731
        Alphabet(2), data, "cost", scheme, state, depth)
    return {
        "state_budget=2.5": lambda: search(2.5, 2),
        "state_budget=True": lambda: search(True, 2),
        "depth_budget=1.5": lambda: search(2, 1.5),
        "max_depth=2.5": lambda: enumerate_closed_suffix_maps(Alphabet(2), 2.5),
        "enumerate padding_symbol=1.0":
            lambda: enumerate_closed_suffix_maps(Alphabet(2), 2, padding_symbol=1.0),
        "context_cap=64.0":
            lambda: enumerate_closed_suffix_maps(Alphabet(2), 2, context_cap=64.0),
        "compile padding_symbol=1.0": lambda: compile_suffix_map(depth_one, 1.0),
        "max_pattern_len=1.5": lambda: ergodicity_diagnostic(data, 1.5),
        "default_grid n=10.5": lambda: default_grid(10.5),
        "default_grid points=4.0": lambda: default_grid(10, 4.0),
        "default_grid points=0": lambda: default_grid(10, 0),
        "default_grid points=-1": lambda: default_grid(10, -1),
        "trivial_map(2.5)": lambda: trivial_map(2.5),
        "trivial_map(True)": lambda: trivial_map(True),
        "per_line=0": lambda: write_sequence(tmp_path / "out.txt", data, per_line=0),
        "per_line=-1": lambda: write_sequence(tmp_path / "out.txt", data, per_line=-1),
        "per_line=2.0": lambda: write_sequence(tmp_path / "out.txt", data, per_line=2.0),
    }


@pytest.mark.parametrize("case", list(_integer_argument_calls(None)))
def test_integer_arguments_are_checked(case, tmp_path):
    with pytest.raises(InputError):
        _integer_argument_calls(tmp_path)[case]()


def test_numpy_integer_arguments_are_accepted(tmp_path):
    data = seq([0, 1, 1, 0, 1, 0])
    result, _ = countable_search(Alphabet(2), data, "cost",
                                 PenaltyScheme("bic:markov", 2), np.int64(2), np.int64(1))
    assert result.chosen_map_id
    assert len(enumerate_closed_suffix_maps(Alphabet(2), np.int64(2),
                                            padding_symbol=np.int64(1))) == 4
    assert trivial_map(np.int64(3)).alphabet_size == 3
    assert default_grid(np.int64(50), np.int64(4)).tolist() == default_grid(50, 4).tolist()
    write_sequence(tmp_path / "out.txt", data, per_line=np.int64(4))
    assert (tmp_path / "out.txt").read_text() == "alphabet=2\n0 1 1 0\n1 0\n"


# the parts of a paired token: symbols, signs and underscores int() reads,
# strings it refuses, and integers at and beyond the int64 range
PAIRED_PARTS = st.sampled_from([
    "0", "1", "2", "+1", "-0", "-1", "1_0", "0_1", "_1", "1_", "1__0", "", "x",
    "9223372036854775807", "9223372036854775808", "-9223372036854775809",
    "99999999999999999999"])
PAIRED_TOKENS = st.one_of(
    st.tuples(PAIRED_PARTS, PAIRED_PARTS).map(",".join),
    st.sampled_from(["1,", ",", "1,,2", "x,1", "1", ",1", "1,2,3"]))
# a third of the files hold only pairs of symbols that int() reads, most in
# range, and a third add tokens of such symbols with too few or many commas
VALID_PARTS = st.sampled_from(["0", "1", "2", "+1", "-0", "0_1", "+0_2"])
VALID_TOKENS = st.tuples(VALID_PARTS, VALID_PARTS).map(",".join)
PAIRED_FILES = st.one_of(
    st.lists(VALID_TOKENS, max_size=8),
    st.lists(st.one_of(VALID_TOKENS, st.lists(VALID_PARTS, min_size=1, max_size=3)
                       .map(",".join)), max_size=8),
    st.lists(PAIRED_TOKENS, max_size=8))


# plain files for the byte path and around it: headers after blank and '#'
# lines, one-digit tokens between ASCII whitespace, and the tokens and
# separators that must keep the token path (multi-digit runs, signs,
# underscores, a non-ASCII digit, 19- and 20-digit runs, digits with no
# separator between them, the separators str.split knows and bytes.split
# does not, and comment lines)
LEADS = st.sampled_from(["", "\n", "# c\n", " \n# c\n\n"])
HEADERS = st.sampled_from(["alphabet=2", "alphabet=10", "alphabet=0", "alphabet=2\x0c1",
                           "alphabet=2\r"])
DIGITS = st.sampled_from(list("0123456789"))
ODD_TOKENS = st.sampled_from(["07", "10", "+1", "1_0", "-0", "-", "\u0663", "x",
                              "1" * 19, "9" * 20])
ASCII_SPACES = st.sampled_from([" ", "\t", "\n", "\r\n", "\r", "\v", "\f"])
ODD_SPACES = st.sampled_from(["", "\x1c", "\x1f", "\xa0", "\u3000", "\n# c\n"])
SEQUENCE_BODIES = st.one_of(
    st.lists(st.tuples(DIGITS, ASCII_SPACES), max_size=12),
    st.lists(st.tuples(st.one_of(DIGITS, ODD_TOKENS), st.one_of(ASCII_SPACES, ODD_SPACES)),
             max_size=12))


def _outcome(reader, path):
    # what a reader returns, or the text of its refusal
    try:
        data = reader(path)
    except InputError as exc:
        return str(exc)
    return data.alphabet.size, data.items.dtype, data.items.flags.writeable, data.items.tolist()


def _paired_outcome(reader, path):
    # the pairs a reader returns, or None when it refuses the file
    try:
        data = reader(path)
    except InputError:
        return None
    return (data.x_alphabet.size, data.y_alphabet.size,
            data.xs.tolist(), data.ys.tolist())


class TestSequenceFiles:
    def test_round_trip_plain(self, tmp_path):
        data = seq([0, 1, 1, 0, 1])
        path = tmp_path / "data.txt"
        write_sequence(path, data)
        back = read_sequence(path)
        assert isinstance(back, SymbolSequence)
        assert back.alphabet.size == 2
        assert np.array_equal(back.items, data.items)

    def test_round_trip_paired(self, tmp_path):
        data = PairedSequence(Alphabet(3), Alphabet(2),
                              np.array([0, 2, 1]), np.array([1, 0, 1]))
        path = tmp_path / "pairs.txt"
        write_sequence(path, data)
        back = read_sequence(path)
        assert isinstance(back, PairedSequence)
        assert np.array_equal(back.xs, data.xs)
        assert np.array_equal(back.ys, data.ys)

    @pytest.mark.parametrize("sizes", [(1,), (2,), (10,), (11,), (1001,), (3, 2), (12, 10), (1, 101)],
                             ids=str)
    def test_files_are_written_as_the_token_writer_wrote_them(self, tmp_path, monkeypatch, sizes):
        # plain and paired data, one- to four-digit symbols, every line width
        # from 1 past the length, and lengths around the block of tokens the
        # writer formats at a time, here 64
        monkeypatch.setattr(sequences, "_WRITE_BLOCK", 64)
        rng = rng_stream(sum(sizes))
        for n in (0, 1, 63, 64, 65, 300):
            columns = [rng.integers(0, size, n) for size in sizes]
            columns[0][:1] = sizes[0] - 1
            data = (SymbolSequence(Alphabet(sizes[0]), columns[0]) if len(sizes) == 1 else
                    PairedSequence(Alphabet(sizes[0]), Alphabet(sizes[1]), *columns))
            for per_line in (*range(1, 12), 40, 63, 64, 65, n + 1):
                write_sequence(tmp_path / "got.txt", data, per_line)
                write_sequence_before(tmp_path / "want.txt", data, per_line)
                assert ((tmp_path / "got.txt").read_bytes()
                        == (tmp_path / "want.txt").read_bytes()), (n, per_line)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("# comment\nalphabet=2\n\n0 1 1\n# more\n0\n")
        back = read_sequence(path)
        assert np.array_equal(back.items, [0, 1, 1, 0])

    def test_missing_header(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("0 1 1\n")
        with pytest.raises(InputError):
            read_sequence(path)

    @pytest.mark.parametrize("text,items", [
        ("+1 0 1", [1, 0, 1]),
        ("1_0 0", [10, 0]),
        ("0\t1\n\n 1", [0, 1, 1]),
        ("", []),
    ])
    def test_tokens_read_as_int_reads_them(self, tmp_path, text, items):
        path = tmp_path / "data.txt"
        path.write_text(f"alphabet=11\n{text}\n")
        assert read_sequence(path).items.tolist() == items

    @pytest.mark.parametrize("token,message", [
        ("1.5", "malformed symbol token"),
        ("0x10", "malformed symbol token"),
        ("1e1", "malformed symbol token"),
        ("one", "malformed symbol token"),
        ("99999999999999999999", "beyond the int64 range"),
        ("-99999999999999999999", "beyond the int64 range"),
    ])
    def test_tokens_int_refuses_are_refused(self, tmp_path, token, message):
        path = tmp_path / "data.txt"
        path.write_text(f"alphabet=2\n0 {token} 1\n")
        with pytest.raises(InputError, match=message):
            read_sequence(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            read_sequence(tmp_path / "nope.txt")

    @settings(max_examples=300, deadline=None)
    @example(sizes=(2, 2), tokens=["0,1,0", "1,0,1"], breaks=[" "] * 8)
    @example(sizes=(2, 2), tokens=["0", "1", "1,0"], breaks=[" "] * 8)
    @given(sizes=st.tuples(st.integers(1, 3), st.integers(1, 3)),
           tokens=PAIRED_FILES,
           breaks=st.lists(st.sampled_from([" ", "\n", "\t"]), min_size=8, max_size=8))
    def test_paired_tokens_read_as_the_per_token_parser_reads_them(
            self, tmp_path_factory, sizes, tokens, breaks):
        path = tmp_path_factory.getbasetemp() / "paired_oracle.txt"
        body = "".join(tok + sep for tok, sep in zip(tokens, breaks))
        path.write_text(f"alphabet={sizes[0]},{sizes[1]}\n{body}\n")
        assert _paired_outcome(read_sequence, path) == _paired_outcome(read_sequence_before,
                                                                       path)

    @settings(max_examples=300, deadline=None)
    @example(lead="", header="alphabet=0", body=[("x", " "), ("1", "\n")])
    @example(lead="", header="alphabet=2", body=[("0", " "), ("7", " "), ("1", "\n")])
    @example(lead="", header="alphabet=2\x0c1", body=[("0", "\n")])
    @example(lead="", header="alphabet=10", body=[("1", ""), ("2", "\n")])
    @example(lead="", header="alphabet=2", body=[("0", " "), ("-", " "), ("1", "\n")])
    @given(lead=LEADS, header=HEADERS, body=SEQUENCE_BODIES)
    def test_plain_files_read_as_the_token_parser_reads_them(self, tmp_path_factory, lead,
                                                             header, body):
        path = tmp_path_factory.getbasetemp() / "plain_oracle.txt"
        text = lead + header + "\n" + "".join(tok + sep for tok, sep in body)
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(read_sequence, path) == _outcome(read_sequence_tokens_before, path)

    def test_one_digit_bodies_skip_the_token_path(self, tmp_path, monkeypatch):
        calls = []
        token_path = sequences._read_tokens

        def recorded(path, *args):
            calls.append(path)
            return token_path(path, *args)

        monkeypatch.setattr(sequences, "_read_tokens", recorded)
        data = SymbolSequence(Alphabet(2), np.random.default_rng(0).integers(0, 2, 100_000))
        path = tmp_path / "data.txt"
        write_sequence(path, data)
        assert read_sequence(path).items.tolist() == data.items.tolist()
        assert calls == []
        # a '#' line after the header sends the same symbols down the token path
        header, rest = path.read_text().split("\n", 1)
        commented = tmp_path / "commented.txt"
        commented.write_text(f"{header}\n# a comment\n{rest}")
        assert read_sequence(commented).items.tolist() == data.items.tolist()
        assert calls == [commented]

    @pytest.mark.parametrize("header,message", [
        ("2,x", "malformed alphabet header"),
        ("1,2,3", "one or two sizes"),
        ("0,2", "alphabet size must be >= 1"),
        ("2,-1", "alphabet size must be >= 1"),
        ("0", "alphabet size must be >= 1"),
    ])
    def test_bad_header_is_reported_before_bad_tokens(self, tmp_path, header, message):
        path = tmp_path / "data.txt"
        path.write_text(f"alphabet={header}\n1,,2 x,1 99999999999999999999\n")
        with pytest.raises(InputError, match=message):
            read_sequence(path)

    def test_joint_sequence_encoding(self):
        data = PairedSequence(Alphabet(2), Alphabet(3),
                              np.array([1, 0]), np.array([2, 1]))
        joint = data.joint_sequence()
        assert joint.alphabet.size == 6
        assert list(joint.items) == [1 * 3 + 2, 0 * 3 + 1]
