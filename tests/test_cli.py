import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phimp
from phimp import (Alphabet, Environment, PairedSequence, PenaltyScheme, Policy, SuffixSet,
                   active_select, compile_suffix_map, embed_reward_map, read_environment,
                   read_maps, rollout, select, with_baseline, write_environment,
                   write_maps, write_model, write_sequence)
from phimp.cli import _score_record, build_parser, main


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

    # each of these once hung or crashed before the cap was checked
    @pytest.mark.parametrize("argv", [
        ("--alphabet", 2, "--max-depth", 7),
        ("--alphabet", 3, "--max-depth", 5),
        ("--alphabet", 2, "--max-depth", 2 ** 70),
        ("--alphabet", 1, "--max-depth", 1200, "--cap", 1000),
        ("--alphabet", 10 ** 9, "--max-depth", 1),
    ], ids=["binary depth 7", "ternary depth 5", "depth 2^70", "unary depth 1200",
            "1e9 symbols depth 1"])
    def test_enumeration_over_cap_exits_three_at_once(self, workdir, capsys, argv):
        start = time.perf_counter()
        assert run("maps", "enumerate", *argv, "--out", workdir / "maps.json") == 3
        assert time.perf_counter() - start < 1.0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("resource error: ")
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


# general maps, not suffix trees: the state is the parity of the ones read
PARITY_MODEL = json.dumps({
    "type": "fsmx",
    "map": {"kind": "general-fsm", "alphabet_size": 2, "states": 2, "start_state": 0,
            "psi": [[0, 1], [1, 0]]},
    "emit": [[0.6, 0.4], [0.3, 0.7]],
})
# the state is the last symbol, except the start state 2, which no symbol enters
TRANSIENT_START_MODEL = json.dumps({
    "type": "fsmx",
    "map": {"kind": "general-fsm", "alphabet_size": 2, "states": 3, "start_state": 2,
            "psi": [[0, 1]] * 3},
    "emit": [[0.7, 0.3], [0.4, 0.6], [0.5, 0.5]],
})


class TestXentOwnLaw:
    def xent(self, workdir, model_json, mode):
        model = _written(workdir / "model.json", model_json)
        assert run("xent", "--true", workdir / "source.json", "--model", model,
                   "--mode", mode, "--out", workdir / f"{mode}.json") == 0
        return json.loads((workdir / f"{mode}.json").read_text())

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_transient_start_model_is_scored(self, workdir, mode):
        assert math.isfinite(self.xent(workdir, TRANSIENT_START_MODEL, mode)["value"])

    def test_fsmx_paths_build_no_hmm(self, workdir, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an fsmx path built an HMM or ran the forward recursion")

        monkeypatch.setattr(phimp.sources, "induced_hmm", refuse)
        monkeypatch.setattr(phimp._kernels, "forward_nll_steps", refuse)
        parity = _written(workdir / "parity.json", PARITY_MODEL)
        for model in (workdir / "source.json", parity):
            for mode in ("exact", "mc"):
                assert run("xent", "--true", workdir / "source.json", "--model", model,
                           "--mode", mode, "--n", 2000) == 0
        assert run(*_experiment(workdir, n_grid=[100, 1000])) == 0


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

    def test_parallel_jobs_start_one_worker_per_seed(self, workdir, monkeypatch):
        # a pool that records its size and maps in this process, so no worker starts
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        monkeypatch.setattr("phimp.cli.ProcessPoolExecutor", InProcessPool)
        config = self.make_config(workdir)
        assert run("experiment", "--config", config, "--out",
                   workdir / "pooled.csv", "--jobs", 500) == 0
        assert sizes == [2]
        assert run("experiment", "--config", config, "--out",
                   workdir / "serial.csv") == 0
        assert nontimestamp_bytes(workdir / "serial.csv") == \
            nontimestamp_bytes(workdir / "pooled.csv")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_is_checked_once_whatever_the_seed_count(self, workdir, monkeypatch, jobs):
        # each check appends a line to a file, so a check in a worker counts too
        checks = workdir / "checks.txt"
        check_run = phimp.selection._check_run

        def counted(*args, **kwargs):
            with checks.open("a") as out:
                out.write("check\n")
            return check_run(*args, **kwargs)

        monkeypatch.setattr("phimp.cli._check_run", counted)
        monkeypatch.setattr("phimp.selection._check_run", counted)
        config = self.make_config(workdir, seeds=[0, 1, 2])
        assert run("experiment", "--config", config, "--out", workdir / "traj.csv",
                   "--jobs", jobs) == 0
        assert checks.read_text() == "check\n"

    def test_faulty_config_fails_before_any_worker_starts(self, workdir, monkeypatch,
                                                          capsys):
        pools = []
        monkeypatch.setattr("phimp.cli.ProcessPoolExecutor",
                            lambda max_workers: pools.append(max_workers))
        config = self.make_config(workdir, n_grid=[0, 100])
        assert run("experiment", "--config", config, "--out", workdir / "traj.csv",
                   "--jobs", 2) == 2
        assert pools == []
        assert capsys.readouterr().err == "error: n_grid points must lie in 1..inf\n"

    def test_near_singular_ergodic_source_runs(self, workdir):
        config = self.make_config(workdir, source=json.loads(NEAR_SINGULAR_MODEL),
                                  n_grid=[100, 1000], seeds=[0],
                                  **{"class": {"alphabet": 4, "max_depth": 1}})
        assert run("experiment", "--config", config, "--out", workdir / "traj.csv") == 0

    def test_transient_start_source_refused(self, workdir, capsys):
        config = self.make_config(workdir, source=json.loads(TRANSIENT_START_MODEL))
        assert run("experiment", "--config", config, "--out", workdir / "traj.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: source state chain is not ergodic")

    def test_summary_line_does_not_depend_on_the_hash_seed(self, workdir):
        # the three seeds end on three different maps, so the summary must
        # name the first seed's choice whatever order a set of ids would have
        config = self.make_config(workdir, n_grid=[30], seeds=[0, 1, 3])
        src = str(Path(phimp.__file__).parents[1])
        outputs = []
        for hash_seed in ("0", "1", "3"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            done = subprocess.run(
                [sys.executable, "-m", "phimp.cli", "experiment", "--config", str(config),
                 "--out", str(workdir / "traj.csv")],
                env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        assert "final choice st:0|1 in 1/3 seeds" in outputs[0]


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

    def test_calls_in_one_process_match_fresh_parsers(self, workdir, capsys):
        # one parser serves every call of a process; each call, a parse error
        # (exit 2) and an InputError (exit 2) among them, must end as it does
        # on a parser of its own
        maps, data = workdir / "maps.json", workdir / "seq.txt"
        calls = [
            (["maps", "enumerate", "--alphabet", 2, "--max-depth", 2, "--out", maps], maps),
            (["sample", "--source", workdir / "source.json", "--n", 500, "--seed", 3,
              "--out", data], data),
            (["select", "--maps", maps, "--seq", data, "--no-such-option"], None),
            (["select", "--maps", maps, "--seq", data, "--out", workdir / "select.json"],
             workdir / "select.json"),
            (["sample", "--source", workdir / "source.json", "--n", 10, "--seed", -1,
              "--out", workdir / "refused.txt"], None),
            (["score", "--maps", maps, "--seq", data, "--criterion", "ml",
              "--out", workdir / "score.jsonl"], workdir / "score.jsonl"),
            (["maps", "check", maps], None),
        ]

        def outcome(argv, out):
            try:
                code = run(*argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err, out and nontimestamp_bytes(out)

        fresh = []
        for argv, out in calls:
            build_parser.cache_clear()
            fresh.append(outcome(argv, out))
        assert [code for code, *_ in fresh] == [0, 0, 2, 0, 2, 0, 0]
        build_parser.cache_clear()
        shared = [outcome(argv, out) for argv, out in calls]
        assert shared == fresh
        assert build_parser.cache_info().misses == 1


class TestDiagnose:
    def test_sequence_report(self, workdir, capsys):
        run("sample", "--source", workdir / "source.json", "--n", 50_000,
            "--seed", 2, "--out", workdir / "data.txt")
        assert run("diagnose", "--seq", workdir / "data.txt",
                   "--max-pattern-len", 2, "--out", workdir / "report.json") == 0
        payload = json.loads((workdir / "report.json").read_text())
        assert payload["all_converged"] is True
        assert set(payload["patterns"]) == {"0", "1", "00", "01", "10", "11"}

        # 11 symbols: 11 + 121 patterns, none sharing a key
        data = _written(workdir / "data11.txt",
                        "alphabet=11\n" + " ".join(str(v % 11) for v in range(500)))
        assert run("diagnose", "--seq", data, "--max-pattern-len", 2,
                   "--out", workdir / "report11.json") == 0
        payload = json.loads((workdir / "report11.json").read_text())
        assert set(payload["patterns"]) == (
            {str(a) for a in range(11)}
            | {f"{a}-{b}" for a in range(11) for b in range(11)})

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


# ergodic by support, but 1e-300 next to 1.0 makes the dense stationary solve
# singular (exact mode solves the product chain of source and model)
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


def test_near_singular_model_mc_exits_zero_with_finite_value(workdir):
    # mc codes along the model's own state path and solves no stationary law
    assert run(*_xent_near_singular(workdir, "mc"), "--out", workdir / "xent.json") == 0
    assert math.isfinite(json.loads((workdir / "xent.json").read_text())["value"])


def test_near_singular_model_exact_exits_zero_with_finite_value(workdir):
    # the product chain's law comes from state reduction when the dense solve fails
    assert run(*_xent_near_singular(workdir, "exact"), "--out", workdir / "xent.json") == 0
    assert math.isfinite(json.loads((workdir / "xent.json").read_text())["value"])


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


def _score_twice(workdir):
    entry = compile_suffix_map(SuffixSet(Alphabet(2), ((0,), (1,)))).to_json()
    return ["score", "--maps", _written(workdir / "maps.json",
                                        json.dumps({"maps": [entry, entry]})),
            "--seq", _written(workdir / "data.txt", "alphabet=2\n0 1 1 0\n"),
            "--out", workdir / "scores.jsonl"]


BAD_INPUTS = {
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
    "enumeration cap zero": lambda d: [
        "maps", "enumerate", "--alphabet", 2, "--max-depth", 2, "--cap", 0,
        "--out", d / "maps.json"],
    "enumeration cap negative": lambda d: [
        "maps", "enumerate", "--alphabet", 2, "--max-depth", 2, "--cap", -1,
        "--out", d / "maps.json"],
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
    "include_baseline not a boolean": lambda d: _experiment(d, include_baseline="no"),
    "experiment jobs negative": lambda d: [*_experiment(d), "--jobs", -3],
    "experiment jobs zero": lambda d: [*_experiment(d), "--jobs", 0],
    "score class empty": lambda d: [
        "score", "--maps", _written(d / "maps.json", '{"maps": []}'),
        "--seq", _written(d / "data.txt", "alphabet=2\n0 1 1 0\n"),
        "--out", d / "scores.jsonl"],
    "score map listed twice": lambda d: _score_twice(d),
    "negative smoothing": lambda d: [
        "select", "--maps", _written(d / "maps.json", '{"maps": []}'),
        "--seq", _written(d / "data.txt", "alphabet=2\n0 1 1 0\n"),
        "--smoothing", -5],
    "active smoothing not finite": lambda d: _active(d, "--smoothing", "nan"),
    "policy entry not a number": lambda d: _active(
        d, "--policy", _written(d / "policy.json", '[["x", 1], [0.5, 0.5]]')),
    "sequence file not text": lambda d: [
        "diagnose", "--seq", _written(d / "data.txt", b"alphabet=2\n\xff")],
    "sequence token beyond int64": lambda d: [
        "diagnose", "--check-file",
        _written(d / "data.txt", "alphabet=2\n0 99999999999999999999\n")],
    "paired token beyond int64": lambda d: [
        "select", "--maps", _written(d / "maps.json", '{"maps": []}'),
        "--seq", _written(d / "data.txt", "alphabet=2,2\n0,1 0,99999999999999999999\n")],
}


# configs that `experiment` refuses; `diagnose --check-file` must refuse each
# the same way, and neither may sample the source first
UNBOUNDED_CLASS = {"maps": [{"kind": "general-fsm", "alphabet_size": 2, "states": 2,
                             "start_state": 0, "psi": [[0, 1], [1, 0]],
                             "id": "ones-mod-2"}]}
# the reference source, except that state 0 never emits a 1 and so never leaves
NON_ERGODIC_SOURCE = {"type": "fsmx", "emit": [[1.0, 0.0], [0.5, 0.5], [0.2, 0.8]],
                      "map": {"kind": "suffix-tree", "alphabet_size": 2, "states": 3,
                              "start_state": 0, "psi": [[0, 1], [0, 2], [0, 2]],
                              "suffixes": [[0], [0, 1], [1, 1]]}}
# each case: the config's changes and a fragment of the refusal it earns
FAULTY_CONFIGS = {
    "n_grid starts at 0": (lambda d: {"n_grid": [0, 100]}, "points must lie in 1.."),
    "n_grid ends at 1e30": (lambda d: {"n_grid": [100, 10 ** 30]}, "most steps"),
    "n_grid entry fractional": (lambda d: {"n_grid": [10.5, 100]},
                                "n_grid entry must be an integer"),
    "seed negative": (lambda d: {"seeds": [-1]}, "must lie in 0..2**64-1"),
    "seeds repeated": (lambda d: {"seeds": [1, 1]}, "seeds must be distinct"),
    "smoothing negative": (lambda d: {"smoothing": -1}, "smoothing must be"),
    "smoothing not a number": (lambda d: {"smoothing": "x"}, "smoothing must be"),
    "smoothing beyond the float range": (lambda d: {"smoothing": 10 ** 400},
                                         "smoothing must be"),
    "criterion unknown": (lambda d: {"criterion": "bogus"}, "unknown criterion"),
    "penalty unknown": (lambda d: {"pen": "bogus"}, "unknown penalty spec"),
    "source file missing": (lambda d: {"source": "nowhere.json"}, "cannot read model"),
    "class with unbounded memory": (lambda d: {"class": {"file": _written(
        d / "ones.json", json.dumps(UNBOUNDED_CLASS)).name}}, "bounded memory"),
    "class over three symbols": (lambda d: {"class": {"alphabet": 3, "max_depth": 1}},
                                 "alphabet mismatch"),
    "source not ergodic": (lambda d: {"source": NON_ERGODIC_SOURCE}, "not ergodic"),
}


def _verdicts(workdir, capsys, overrides):
    experiment = _experiment(workdir, **overrides)
    verdicts = []
    for argv in (["diagnose", "--check-file", experiment[2]], experiment):
        code = run(*argv)
        verdicts.append((code, capsys.readouterr().err.splitlines()[-1:]))
    return verdicts


@pytest.mark.parametrize("case", sorted(FAULTY_CONFIGS))
def test_check_file_refuses_what_experiment_refuses(workdir, capsys, monkeypatch, case):
    def refuse(*args, **kwargs):
        raise AssertionError("a refused config sampled the source")

    monkeypatch.setattr("phimp.selection.sample_fsmx", refuse)
    overrides, reason = FAULTY_CONFIGS[case]
    check, experiment = _verdicts(workdir, capsys, overrides(workdir))
    assert check == experiment
    code, [line] = experiment
    assert code in (2, 3) and reason in line


@pytest.mark.parametrize("missing", ["n_grid", "source", "class", "seeds"])
def test_check_file_reads_a_config_without_a_field_as_experiment_does(workdir, capsys,
                                                                      missing):
    config = {"source": "source.json", "class": {"alphabet": 2, "max_depth": 1},
              "criterion": "cost", "pen": "bic:markov", "n_grid": [100], "seeds": [0]}
    del config[missing]
    path = _written(workdir / "exp.json", json.dumps(config))
    verdicts = []
    for argv in (["diagnose", "--check-file", path],
                 ["experiment", "--config", path, "--out", workdir / "traj.csv"]):
        code = run(*argv)
        verdicts.append((code, capsys.readouterr().err.splitlines()))
    want = (2, [f"error: experiment config missing fields: ['{missing}']"])
    assert verdicts == [want, want]


def test_check_file_passes_the_reference_config(workdir, capsys):
    assert _verdicts(workdir, capsys, {"n_grid": [100, 1000]}) == [(0, []), (0, [])]


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_two_with_one_line(workdir, capsys, case):
    assert run(*BAD_INPUTS[case](workdir)) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert captured.out == ""


HUGE_LENGTH_COMMANDS = {
    "sample": lambda d, n: ["sample", "--source", d / "source.json", "--n", n,
                            "--out", d / "out.txt"],
    "xent mc": lambda d, n: ["xent", "--true", d / "source.json", "--model",
                             d / "source.json", "--mode", "mc", "--n", n],
    "active": lambda d, n: _active(d, "--n", n),  # the last --n wins
    "experiment": lambda d, n: _experiment(d, n_grid=[100, n]),
}
# 2^55 symbols need 2^58 bytes of uniforms, more than any 64-bit address
# space, so the allocation fails at once and nothing is allocated; 2^62 and
# 2^70 are beyond any array numpy can express and are refused before it
HUGE_LENGTHS = {(name if power == 55 else f"{name} 2^{power}"): (command, 2 ** power)
                for name, command in HUGE_LENGTH_COMMANDS.items()
                for power in (55, 62, 70)}


@pytest.mark.parametrize("case", sorted(HUGE_LENGTHS))
def test_oversized_length_exits_three_with_one_line(workdir, capsys, case):
    command, n = HUGE_LENGTHS[case]
    assert run(*command(workdir, n)) == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("resource error: ")
    assert "Traceback" not in captured.err


# headers this wide reach the single-state map, whose table row no array can
# hold: 2^62 int64 entries are too many bytes, and 2^63 or 2e20 too many
# entries; a |Y| beyond int64 overflows the joint symbols x * |Y| + y
HUGE_ALPHABETS = {
    "alphabet 2^62": ("select", "alphabet=4611686018427387904\n0 1\n"),
    "alphabet 2^63": ("select", "alphabet=9223372036854775808\n0 1\n"),
    "paired alphabet 1e20 x 2": ("select", "alphabet=100000000000000000000,2\n0,1 1,1\n"),
    "paired alphabet 2 x 1e20": ("diagnose", "alphabet=2,100000000000000000000\n0,1 1,1\n"),
}


@pytest.mark.parametrize("case", sorted(HUGE_ALPHABETS))
def test_huge_alphabet_header_exits_with_one_line(workdir, capsys, case):
    command, text = HUGE_ALPHABETS[case]
    data = _written(workdir / "data.txt", text)
    if command == "select":
        code = run("select", "--maps", _written(workdir / "maps.json", '{"maps": []}'),
                   "--seq", data)
    else:
        code = run("diagnose", "--seq", data)
    assert code in (2, 3)
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(("error: ", "resource error: "))
    assert captured.out == ""


# one-digit bodies, which read_sequence parses from their bytes, refused with
# the messages the token path gives
ONE_DIGIT_REFUSALS = {
    "symbol out of range": ("alphabet=2\n0 1 7 0\n", "sequence contains symbols outside 0..1"),
    "alphabet size zero": ("alphabet=0\n0 1 1 0\n", "alphabet size must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", sorted(ONE_DIGIT_REFUSALS))
def test_one_digit_body_refusals_exit_two(workdir, capsys, case):
    text, message = ONE_DIGIT_REFUSALS[case]
    run("maps", "enumerate", "--alphabet", 2, "--max-depth", 2, "--out", workdir / "maps.json")
    capsys.readouterr()
    assert run("select", "--maps", workdir / "maps.json",
               "--seq", _written(workdir / "data.txt", text)) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
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

    @pytest.mark.parametrize("no_baseline", [False, True])
    def test_writes_what_active_select_chooses(self, workdir, capsys, no_baseline):
        # the command sizes the baseline and the penalty as active_select does
        _active_inputs(workdir)
        out = workdir / "active.jsonl"
        assert run("active", "--env", workdir / "env.json", "--n", 3000, "--seed", 4,
                   "--maps", workdir / "emaps.json", "--out", out,
                   *(["--no-baseline"] if no_baseline else [])) == 0
        env = read_environment(workdir / "env.json")
        events = rollout(env, Policy.uniform(env.state_count, env.action_count), 3000, 4)
        result = active_select(events, read_maps(workdir / "emaps.json"),
                               PenaltyScheme("bic:markov", 2),
                               include_baseline=not no_baseline)
        rows = [json.loads(line) for line in nontimestamp_bytes(out).splitlines()]
        assert rows == [_score_record(b) for b in result.costs]
        assert len(rows) == (1 if no_baseline else 2)
        tie = str(result.tie_broken).lower()
        # the timestamp line, then the choice and its tie flag
        assert out.read_text().splitlines()[1] == (
            f"# chosen={result.chosen_map_id} tie_broken={tie}")
        assert (f"chose {result.chosen_map_id} by icost tie_broken={tie}\n"
                in capsys.readouterr().out)
        assert run("diagnose", "--check-file", out) == 0


class TestPenaltyAlphabet:
    """A penalty counts the alphabet its criterion codes: on pairs, |X| * |Y|
    joint symbols under cost and |Y| under icost and ocost."""

    @pytest.fixture
    def paired(self, tmp_path):
        rng = np.random.default_rng(5)
        xs = rng.integers(0, 2, 2000)
        ys = (np.roll(xs, 1) ^ (rng.random(2000) < 0.2)).astype(np.int64)
        pairs = PairedSequence(Alphabet(2), Alphabet(2), xs, ys)
        write_sequence(tmp_path / "pairs.txt", pairs)
        write_sequence(tmp_path / "joint.txt", pairs.joint_sequence())
        assert run("maps", "enumerate", "--alphabet", 4, "--max-depth", 1,
                   "--out", tmp_path / "maps.json") == 0
        return tmp_path, pairs

    @staticmethod
    def _rows(command, workdir, seq, criterion):
        out = workdir / f"{seq}.{command}.{criterion}"
        assert run(command, "--maps", workdir / "maps.json", "--seq", workdir / f"{seq}.txt",
                   "--criterion", criterion, "--out", out) == 0
        if command == "select":
            return json.loads(out.read_text())["costs"]
        return [json.loads(line) for line in nontimestamp_bytes(out).splitlines()]

    @pytest.mark.parametrize("command", ["score", "select"])
    def test_cost_on_pairs_equals_cost_on_their_joint_symbols(self, paired, command):
        workdir, _ = paired
        pair_rows = self._rows(command, workdir, "pairs", "cost")
        joint_rows = self._rows(command, workdir, "joint", "cost")
        assert [r["map_id"] for r in pair_rows] == [r["map_id"] for r in joint_rows]
        assert [r["total"] for r in pair_rows] == [r["total"] for r in joint_rows]
        assert [r["penalty"] for r in pair_rows] == [r["penalty"] for r in joint_rows]
        if command == "select":
            # the baseline's penalty prices four joint symbols: (4 - 1) / 2 ln n
            trivial, = [r for r in pair_rows if r["map_id"] == "trivial"]
            assert trivial["penalty"] == PenaltyScheme("bic:markov", 4).value(2000, 1)

    @pytest.mark.parametrize("criterion", ["icost", "ocost", "ml"])
    @pytest.mark.parametrize("command", ["score", "select"])
    def test_side_information_criteria_price_the_observations(self, paired, command,
                                                              criterion):
        workdir, pairs = paired
        maps = read_maps(workdir / "maps.json")
        if command == "select":
            maps = with_baseline(maps, pairs.joint_size)
        expected = select(maps, pairs, criterion, PenaltyScheme("bic:markov", 2))
        rows = self._rows(command, workdir, "pairs", criterion)
        assert rows == [_score_record(b) for b in expected.costs]

    @pytest.mark.parametrize("criterion,coded", [
        ("cost", 4), ("icost", 2), ("ocost", 2), ("ml", None)])
    def test_active_prices_the_alphabet_its_criterion_codes(self, workdir, criterion,
                                                            coded):
        # events over 1 observation, 2 actions and 2 rewards: cost codes all
        # four, icost and ocost the two rewards, ml has no penalty
        _active_inputs(workdir)
        out = workdir / "active.jsonl"
        assert run("active", "--env", workdir / "env.json", "--n", 3000, "--seed", 3,
                   "--maps", workdir / "emaps.json", "--criterion", criterion,
                   "--out", out) == 0
        rows = [json.loads(line) for line in nontimestamp_bytes(out).splitlines()]
        states = {"trivial": 1, "embed-r:st:0|1": 2}
        assert {r["map_id"] for r in rows} == set(states)
        for row in rows:
            penalty = (0.0 if coded is None else
                       PenaltyScheme("bic:markov", coded).value(3000, states[row["map_id"]]))
            assert row["penalty"] == penalty


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
