import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phimp import (Alphabet, Environment, SuffixSet, compile_suffix_map,
                   embed_reward_map, write_environment, write_maps, write_model)
from phimp.cli import main


@pytest.fixture()
def workdir(tmp_path, reference_source):
    write_model(tmp_path / "source.json", reference_source)
    return tmp_path


def run(*argv) -> int:
    return main([str(a) for a in argv])


def nontimestamp_bytes(path):
    return "\n".join(line for line in path.read_text().splitlines()
                     if not line.startswith("#"))


class TestSampleAndMaps:
    def test_sample_then_enumerate_then_score_and_select(self, workdir, capsys):
        assert run("sample", "--source", workdir / "source.json", "--n", 2000,
                   "--seed", 7, "--out", workdir / "data.txt") == 0
        assert run("maps", "enumerate", "--alphabet", 2, "--max-depth", 2,
                   "--out", workdir / "maps.json") == 0
        maps_payload = json.loads((workdir / "maps.json").read_text())
        ids = [m["id"] for m in maps_payload["maps"]]
        assert "st:0|01|11" in ids and len(ids) == 4

        assert run("score", "--maps", workdir / "maps.json", "--seq",
                   workdir / "data.txt", "--criterion", "cost", "--pen",
                   "bic:markov", "--out", workdir / "scores.jsonl") == 0
        rows = [json.loads(line) for line in
                (workdir / "scores.jsonl").read_text().splitlines()
                if not line.startswith("#")]
        assert len(rows) == 4
        for row in rows:
            assert row["total"] == pytest.approx(row["data_cost"] + row["penalty"])

        assert run("select", "--maps", workdir / "maps.json", "--seq",
                   workdir / "data.txt", "--out", workdir / "select.json") == 0
        out = capsys.readouterr().out
        assert "select: chose st:0|01|11" in out

    def test_maps_check(self, workdir, capsys):
        run("maps", "enumerate", "--alphabet", 2, "--max-depth", 2,
            "--out", workdir / "maps.json")
        assert run("maps", "check", workdir / "maps.json") == 0
        assert "4 valid maps" in capsys.readouterr().out

    def test_enumeration_cap_exit_code(self, workdir):
        assert run("maps", "enumerate", "--alphabet", 2, "--max-depth", 9,
                   "--cap", 64, "--out", workdir / "maps.json") == 3
        assert not (workdir / "maps.json").exists()

    def test_missing_sequence_file_exit_code(self, workdir):
        run("maps", "enumerate", "--alphabet", 2, "--max-depth", 1,
            "--out", workdir / "maps.json")
        assert run("score", "--maps", workdir / "maps.json", "--seq",
                   workdir / "missing.txt", "--out", workdir / "scores.jsonl") == 2
        assert not (workdir / "scores.jsonl").exists()

    def test_unknown_flag_exits_two(self, workdir):
        with pytest.raises(SystemExit) as err:
            run("select", "--bogus")
        assert err.value.code == 2


class TestXent:
    def test_exact_self_entropy(self, workdir, capsys):
        assert run("xent", "--true", workdir / "source.json", "--model",
                   workdir / "source.json", "--mode", "exact",
                   "--out", workdir / "xent.json") == 0
        payload = json.loads((workdir / "xent.json").read_text())
        assert payload["mode"] == "exact-markov"
        assert payload["value"] == pytest.approx(0.5230782773054534, abs=1e-12)

    def test_mc_close_to_exact(self, workdir):
        assert run("xent", "--true", workdir / "source.json", "--model",
                   workdir / "source.json", "--mode", "mc", "--n", 50_000,
                   "--seed", 4, "--out", workdir / "mc.json") == 0
        payload = json.loads((workdir / "mc.json").read_text())
        assert abs(payload["value"] - 0.5230782773054534) <= 0.01
        assert payload["std_error"] > 0

    def test_exact_needs_fsmx(self, workdir, reference_source):
        from phimp import induced_hmm
        write_model(workdir / "hmm.json", induced_hmm(reference_source))
        assert run("xent", "--true", workdir / "hmm.json", "--model",
                   workdir / "hmm.json", "--mode", "exact") == 2


class TestExperiment:
    def make_config(self, workdir, **overrides):
        config = {
            "source": "source.json",
            "class": {"alphabet": 2, "max_depth": 2},
            "criterion": "cost",
            "pen": "bic:markov",
            "n_grid": [100, 1000, 5000],
            "seeds": [0, 1],
        }
        config.update(overrides)
        (workdir / "exp.json").write_text(json.dumps(config))
        return workdir / "exp.json"

    def test_reference_experiment_trajectory(self, workdir):
        config = self.make_config(workdir)
        assert run("experiment", "--config", config, "--out",
                   workdir / "traj.csv") == 0
        lines = [ln for ln in (workdir / "traj.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "seed,n,chosen_map_id,total,data_cost,penalty,stabilized"
        assert len(lines) == 1 + 2 * 3
        final_rows = [ln.split(",") for ln in lines[1:] if ln.split(",")[1] == "5000"]
        assert all(row[2] == "st:0|01|11" for row in final_rows)

    def test_invalid_grid_rejected(self, workdir):
        config = self.make_config(workdir, n_grid=[100, 100])
        assert run("experiment", "--config", config, "--out",
                   workdir / "traj.csv") == 2

    def test_parallel_jobs_identical_output(self, workdir):
        config = self.make_config(workdir)
        assert run("experiment", "--config", config, "--out",
                   workdir / "serial.csv") == 0
        assert run("experiment", "--config", config, "--out",
                   workdir / "parallel.csv", "--jobs", 2) == 0
        assert nontimestamp_bytes(workdir / "serial.csv") == \
            nontimestamp_bytes(workdir / "parallel.csv")


class TestDeterminism:
    def test_rerun_outputs_byte_identical(self, workdir):
        for suffix in ("a", "b"):
            run("sample", "--source", workdir / "source.json", "--n", 3000,
                "--seed", 5, "--out", workdir / f"data_{suffix}.txt")
        assert (workdir / "data_a.txt").read_bytes() == \
            (workdir / "data_b.txt").read_bytes()

        run("maps", "enumerate", "--alphabet", 2, "--max-depth", 2,
            "--out", workdir / "maps.json")
        for suffix in ("a", "b"):
            run("score", "--maps", workdir / "maps.json", "--seq",
                workdir / "data_a.txt", "--out", workdir / f"scores_{suffix}.jsonl")
        assert nontimestamp_bytes(workdir / "scores_a.jsonl") == \
            nontimestamp_bytes(workdir / "scores_b.jsonl")


class TestDiagnose:
    def test_sequence_report(self, workdir, capsys):
        run("sample", "--source", workdir / "source.json", "--n", 50_000,
            "--seed", 2, "--out", workdir / "data.txt")
        assert run("diagnose", "--seq", workdir / "data.txt",
                   "--max-pattern-len", 2, "--out", workdir / "report.json") == 0
        payload = json.loads((workdir / "report.json").read_text())
        assert payload["all_converged"] is True
        assert set(payload["patterns"]) == {"0", "1", "00", "01", "10", "11"}

    def test_check_artifacts(self, workdir):
        run("maps", "enumerate", "--alphabet", 2, "--max-depth", 2,
            "--out", workdir / "maps.json")
        run("sample", "--source", workdir / "source.json", "--n", 500,
            "--seed", 1, "--out", workdir / "data.txt")
        run("score", "--maps", workdir / "maps.json", "--seq",
            workdir / "data.txt", "--out", workdir / "scores.jsonl")
        for artifact in ("maps.json", "source.json", "data.txt", "scores.jsonl"):
            assert run("diagnose", "--check-file", workdir / artifact) == 0

    def test_pattern_count_cap_exit_code(self, workdir):
        # 2 + 4 + ... + 2^20 patterns, far above the 4096 cap
        data = _written(workdir / "data.txt", "alphabet=2\n" + "0 1 " * 10)
        assert run("diagnose", "--seq", data, "--max-pattern-len", 20) == 3

    def test_check_rejects_corrupt_file(self, workdir):
        bad = workdir / "bad.jsonl"
        bad.write_text('{"map_id": "x"}\n')
        assert run("diagnose", "--check-file", bad) == 2


def _written(path, content):
    path.write_bytes(content.encode() if isinstance(content, str) else content)
    return path


def _active_inputs(workdir):
    """env.json and emaps.json for a reward chain seen through a 2-action,
    1-observation event alphabet; returns the embedded reward map."""
    reward_map = compile_suffix_map(SuffixSet(Alphabet(2), ((0,), (1,))))
    event_map = embed_reward_map(reward_map, 2, 1)
    emissions = np.zeros((2, 2, 2))
    emissions[0, :, :] = [0.9, 0.1]
    emissions[1, :, :] = [0.2, 0.8]
    write_environment(workdir / "env.json", Environment(
        action_count=2, observation_count=1, reward_count=2,
        event_map=event_map, emissions=emissions))
    write_maps(workdir / "emaps.json", [event_map])
    return event_map


def _active(workdir, *extra):
    _active_inputs(workdir)
    return ["active", "--env", workdir / "env.json", "--n", 100,
            "--maps", workdir / "emaps.json", *extra]


def _experiment(workdir, **overrides):
    config = {"source": "source.json", "class": {"alphabet": 2, "max_depth": 1},
              "criterion": "cost", "pen": "bic:markov", "n_grid": [100], "seeds": [0]}
    config.update(overrides)
    return ["experiment", "--config", _written(workdir / "exp.json", json.dumps(config)),
            "--out", workdir / "traj.csv"]


# ergodic by support, but 1e-300 next to 1.0 makes the stationary solve singular
NEAR_SINGULAR_MODEL = json.dumps({
    "type": "fsmx",
    "map": {"kind": "general-fsm", "alphabet_size": 4, "states": 4, "start_state": 0,
            "psi": [[0, 1, 2, 3]] * 4},
    "emit": [[1e-20, 1e-20, 0.0, 1.0], [1.0, 1e-200, 1e-300, 0.0],
             [0.0, 1e-300, 1.0, 2e-300], [1e-20, 0.0, 0.0, 1.0]],
})


def _xent_near_singular(workdir, mode):
    model = _written(workdir / "m.json", NEAR_SINGULAR_MODEL)
    return ["xent", "--true", model, "--model", model, "--mode", mode, "--n", 1000]


def _env_with_emissions(workdir, emissions):
    _active_inputs(workdir)
    env = json.loads((workdir / "env.json").read_text())
    env["emissions"] = emissions
    (workdir / "env.json").write_text(json.dumps(env))
    return ["active", "--env", workdir / "env.json", "--n", 100,
            "--maps", workdir / "emaps.json"]


def _diagnose(workdir, *extra):
    return ["diagnose", "--seq", _written(workdir / "data.txt", "alphabet=2\n" + "0 1 " * 50),
            *extra]


BAD_INPUTS = {
    "stationary solve singular (exact)": lambda d: _xent_near_singular(d, "exact"),
    "stationary solve singular (mc)": lambda d: _xent_near_singular(d, "mc"),
    "map psi not a number": lambda d: [
        "maps", "check", _written(d / "maps.json", json.dumps({"maps": [{
            "kind": "general-fsm", "alphabet_size": 2, "states": 2,
            "start_state": 0, "psi": [[0, "x"], [1, 0]]}]}))],
    "model T not a number": lambda d: [
        "sample", "--source", _written(d / "hmm.json", json.dumps(
            {"type": "hmm", "T": "x", "E": [[1.0]], "initial": [1.0]})),
        "--n", 10, "--out", d / "out.txt"],
    "emit entry not a number": lambda d: [
        "sample", "--source", _written(d / "fsmx.json", json.dumps({
            "type": "fsmx", "emit": [["a", 0.5]],
            "map": {"kind": "general-fsm", "alphabet_size": 2, "states": 1,
                    "start_state": 0, "psi": [[0, 0]]}})),
        "--n", 10, "--out", d / "out.txt"],
    "environment emissions not a number": lambda d: _env_with_emissions(
        d, [[["x", 0.1], [0.9, 0.1]], [[0.2, 0.8], [0.2, 0.8]]]),
    "diagnose tol nan": lambda d: _diagnose(d, "--tol", "nan"),
    "diagnose tol negative": lambda d: _diagnose(d, "--tol", -1),
    "tail fraction nan": lambda d: _diagnose(d, "--tail-fraction", "nan"),
    "tail fraction zero": lambda d: _diagnose(d, "--tail-fraction", 0),
    "tail fraction negative": lambda d: _diagnose(d, "--tail-fraction", -1),
    "tail fraction above one": lambda d: _diagnose(d, "--tail-fraction", 5),
    "negative seed": lambda d: [
        "sample", "--source", d / "source.json", "--n", 10, "--seed", -1,
        "--out", d / "out.txt"],
    "csv seed not an integer": lambda d: [
        "diagnose", "--check-file", _written(
            d / "traj.csv", "seed,n,chosen_map_id,total,data_cost,penalty,stabilized\n"
                            "x,100,trivial,1.0,1.0,0.0,true\n")],
    "jsonl row not an object": lambda d: [
        "diagnose", "--check-file", _written(d / "scores.jsonl", "[1,2]\n")],
    "n_grid entry not a number": lambda d: _experiment(d, n_grid=[100, "x"]),
    "class depth not an integer": lambda d: _experiment(
        d, **{"class": {"alphabet": 2, "max_depth": "x"}}),
    "config smoothing not a number": lambda d: _experiment(d, smoothing="x"),
    "negative smoothing": lambda d: [
        "select", "--maps", _written(d / "maps.json", '{"maps": []}'),
        "--seq", _written(d / "data.txt", "alphabet=2\n0 1 1 0\n"),
        "--smoothing", -5],
    "active smoothing not finite": lambda d: _active(d, "--smoothing", "nan"),
    "policy entry not a number": lambda d: _active(
        d, "--policy", _written(d / "policy.json", '[["x", 1], [0.5, 0.5]]')),
    "sequence file not text": lambda d: [
        "diagnose", "--seq", _written(d / "data.txt", b"alphabet=2\n\xff")],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_two_with_one_line(workdir, capsys, case):
    assert run(*BAD_INPUTS[case](workdir)) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert captured.out == ""


class TestActiveCommand:
    def test_rollout_and_select(self, workdir, capsys):
        event_map = _active_inputs(workdir)
        assert run("active", "--env", workdir / "env.json", "--policy", "uniform",
                   "--n", 10_000, "--seed", 3, "--maps", workdir / "emaps.json",
                   "--out", workdir / "active.jsonl") == 0
        out = capsys.readouterr().out
        assert f"chose {event_map.map_id}" in out
        rows = [json.loads(line) for line in
                (workdir / "active.jsonl").read_text().splitlines()
                if not line.startswith("#")]
        assert {row["map_id"] for row in rows} == {"trivial", event_map.map_id}


# ---------------------------------------------------------------------------
# fuzzing the CLI contract: any argv and file contents exit 0, 2 or 3 with no
# traceback

FUZZ_POOL = ("x", "nan", "-1", "1e309", "0")

# command words -> (file flags -> fixture name, numeric flags -> valid value);
# the flag "" is a positional file argument and the fixture None any fixture
FUZZ_COMMANDS = {
    ("sample",): ({"--source": "source.json"},
                  {"--n": "200", "--seed": "3", "--stream": "1"}),
    ("maps", "enumerate"): ({}, {"--alphabet": "2", "--max-depth": "2",
                                 "--padding": "1", "--cap": "64"}),
    ("maps", "check"): ({"": "maps.json"}, {}),
    ("score",): ({"--maps": "maps.json", "--seq": "data.txt"}, {"--smoothing": "0.5"}),
    ("select",): ({"--maps": "maps.json", "--seq": "data.txt"}, {"--smoothing": "0.5"}),
    ("xent", "--mode", "exact"): ({"--true": "source.json", "--model": "source.json"}, {}),
    ("xent", "--mode", "mc"): ({"--true": "source.json", "--model": "source.json"},
                               {"--n": "1000", "--seed": "2"}),
    ("experiment",): ({"--config": "exp.json"}, {"--jobs": "1"}),
    ("active",): ({"--env": "env.json", "--maps": "emaps.json", "--policy": "policy.json"},
                  {"--n": "200", "--seed": "1", "--smoothing": "0.5"}),
    ("diagnose",): ({"--seq": "data.txt"},
                    {"--max-pattern-len": "2", "--tol": "0.05", "--tail-fraction": "0.5"}),
    ("diagnose", "--check-file"): ({"": None}, {}),
}
FUZZ_OUTPUTS = {("sample",), ("maps", "enumerate"), ("score",), ("experiment",)}


@pytest.fixture(scope="module")
def fuzz_fixtures(tmp_path_factory, reference_source):
    base = tmp_path_factory.mktemp("fixtures")
    write_model(base / "source.json", reference_source)
    run("sample", "--source", base / "source.json", "--n", 300, "--seed", 1,
        "--out", base / "data.txt")
    run("maps", "enumerate", "--alphabet", 2, "--max-depth", 2, "--out", base / "maps.json")
    _active_inputs(base)
    (base / "policy.json").write_text(json.dumps([[0.5, 0.5], [0.3, 0.7]]))
    (base / "exp.json").write_text(json.dumps({
        "source": "source.json", "class": {"alphabet": 2, "max_depth": 1},
        "criterion": "cost", "pen": "bic:markov", "n_grid": [100, 200], "seeds": [0]}))
    return {path.name: path.read_bytes() for path in base.iterdir()}


def _numeric_leaves(value, path=()):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _numeric_leaves(item, path + (key,))
    elif isinstance(value, list):
        for key, item in enumerate(value):
            yield from _numeric_leaves(item, path + (key,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path


def _malformed(data, name, content: bytes) -> bytes:
    kind = data.draw(st.sampled_from(("truncated", "non-numeric", "non-utf8")))
    if kind == "truncated":
        return content[:data.draw(st.integers(0, len(content) - 1))]
    if kind == "non-utf8":
        return b"\xff\xfe" + content
    if name.endswith(".txt"):
        return content.replace(b" 1 ", b" x ", 1)
    parsed = json.loads(content)
    *parents, last = data.draw(st.sampled_from(list(_numeric_leaves(parsed))))
    target = parsed
    for key in parents:
        target = target[key]
    target[last] = "x"
    return json.dumps(parsed).encode()


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_cli_fuzz_exits_cleanly(fuzz_fixtures, data):
    words = data.draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    files, numbers = FUZZ_COMMANDS[words]
    # at most one malformed file or out-of-pool flag value per run, so that
    # no fault hides behind another one checked earlier
    fault = data.draw(st.sampled_from([None, *files, *numbers]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, content in fuzz_fixtures.items():
            (tmp / name).write_bytes(content)
        argv = list(words)
        for flag, name in files.items():
            if name is None:
                name = data.draw(st.sampled_from(sorted(fuzz_fixtures)))
            if flag == fault:
                (tmp / name).write_bytes(_malformed(data, name, fuzz_fixtures[name]))
            argv += [flag, str(tmp / name)] if flag else [str(tmp / name)]
        for flag, valid in numbers.items():
            pool = FUZZ_POOL if flag == fault else (None, valid)
            value = data.draw(st.sampled_from(pool))
            if value is not None:
                argv += [flag, value]
        if words in FUZZ_OUTPUTS:
            argv += ["--out", str(tmp / "out")]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 2, 3), argv
    assert "Traceback" not in stderr.getvalue()
