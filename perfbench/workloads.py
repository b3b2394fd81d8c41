"""The four benchmark workloads and the traced replay of their jobs.

A workload builds its input files once per set-up, names the ``phimp`` argv
of one job, reads that job's output files back into a result, checks the
result against invariants that hold for any seed, and replays the job
through the public function of each layer under a :class:`Tracer`.

A result is ``{"ids": {key: map id}, "values": {key: float}}``, so one
comparison serves the reference gate, the job-to-job check and the replay
check.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from phimp import (Alphabet, Environment, FeatureMap, FsmxSource, PenaltyScheme,
                   Policy, SuffixSet, compile_suffix_map, cross_entropy_exact_markov,
                   embed_reward_map, enumerate_closed_suffix_maps, estimate,
                   estimate_paired, forward_loglik_steps, hmm_from_map_model,
                   induced_hmm, log_likelihood, read_environment, read_maps,
                   read_model, read_sequence, rollout, sample_fsmx, SymbolSequence,
                   with_baseline, write_environment, write_maps, write_model,
                   write_sequence)

PEN = "bic:markov"
# Relative tolerance on every float the gate compares. Chosen map ids must
# match exactly; floats may move by reordered sums, never by more than this.
REL_TOL = 1e-9


def reference_source() -> FsmxSource:
    """The acceptance tests' 3-state binary source: states 0, 01, 11 emit a 1
    with probability 0.2, 0.5 and 0.8."""
    fmap = compile_suffix_map(SuffixSet(Alphabet(2), ((0,), (0, 1), (1, 1))))
    return FsmxSource(fmap, np.array([[0.8, 0.2], [0.5, 0.5], [0.2, 0.8]]))


def bic_penalty(n: int, states: int, alphabet_size: int) -> float:
    """The bic:markov penalty, written out here so the gate does not trust
    the program's own formula."""
    return max(states * (alphabet_size - 1), 1) / 2.0 * math.log(n)


def entropy_cost(symbols: np.ndarray) -> float:
    """Code length in nats of ``symbols`` under their own frequencies: the
    data cost of the single-state baseline."""
    counts = np.bincount(symbols)
    counts = counts[counts > 0]
    return float(-(counts * np.log(counts / symbols.size)).sum())


def close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def compare(expected: dict, got: dict) -> list[str]:
    """Mismatches of ``got`` against every id and value ``expected`` holds."""
    problems = []
    for key, want in expected["ids"].items():
        have = got["ids"].get(key)
        if have != want:
            problems.append(f"{key}: chose {have!r}, expected {want!r}")
    for key, want in expected["values"].items():
        have = got["values"].get(key)
        if have is None or not close(have, want):
            problems.append(f"{key}: {have!r}, expected {want!r} (rel tol {REL_TOL})")
    return problems


def _float(value) -> float:
    return math.inf if value == "inf" else float(value)


def _read_rows(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines()
            if line.strip() and not line.startswith("#")]


def _score_values(rows) -> dict:
    values = {}
    for row in rows:
        for field_name in ("n", "total", "data_cost", "penalty"):
            values[f"{row['map_id']}.{field_name}"] = _float(row[field_name])
    return values


def _argmin(rows: dict, maps: list[FeatureMap]) -> str:
    # the program's tie rule: lowest total, then fewer states, then canonical order
    return min(maps, key=lambda m: (rows[m.map_id]["total"], m.state_count,
                                    m.canonical_key)).map_id


def _check_scores(job: "Job", result: dict, alphabet_size: int) -> list[str]:
    """Invariants of a full score table: every candidate once at n symbols,
    the penalty formula, total = data cost + penalty, and the chosen map at
    the minimum."""
    values = result["values"]
    problems = []
    got_ids = {key.rsplit(".", 1)[0] for key in values}
    if got_ids != set(job.states):
        problems.append(f"scored maps {sorted(got_ids)} != candidates {sorted(job.states)}")
        return problems
    for map_id, states in job.states.items():
        n, data, pen, total = (values[f"{map_id}.{f}"]
                               for f in ("n", "data_cost", "penalty", "total"))
        if n != job.n:
            problems.append(f"{map_id}: scored on {n} symbols, expected {job.n}")
        if not close(pen, bic_penalty(job.n, states, alphabet_size)):
            problems.append(f"{map_id}: penalty {pen} is not bic:markov at n={job.n}")
        if not close(total, data + pen):
            problems.append(f"{map_id}: total {total} != data cost + penalty")
    chosen = result["ids"].get("chosen")
    best = min(values[f"{m}.total"] for m in job.states)
    if chosen not in job.states or values[f"{chosen}.total"] != best:
        problems.append(f"chosen map {chosen!r} does not have the lowest total {best}")
    baseline = job.oracle.get("baseline_data_cost")
    if baseline is not None and not close(values["trivial.data_cost"], baseline):
        problems.append(f"baseline data cost {values['trivial.data_cost']} != "
                        f"empirical entropy {baseline}")
    return problems


class Tracer:
    """Spans kept in memory: name, start, end, parent span, job id, a count
    computed from the call's inputs, and any other attributes given."""

    def __init__(self):
        self.spans: list[dict] = []
        self.job = None
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, count: int = 0, **attrs):
        record = {"id": self._next_id, "name": name, "job": self.job,
                  "parent": self._stack[-1] if self._stack else None, "count": count,
                  **attrs}
        self._next_id += 1
        self._stack.append(record["id"])
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()
            self.spans.append(record)


def _replay_cost(tracer: Tracer, fmap: FeatureMap, seq, scheme: PenaltyScheme) -> dict:
    # phimp.cost is estimate + log_likelihood + PenaltyScheme.value
    with tracer.span("estimation.count", len(seq), map=fmap.map_id):
        emp = estimate(fmap, seq)
    with tracer.span("estimation.codelen", len(seq), map=fmap.map_id):
        data = log_likelihood(fmap, emp, seq)
    pen = scheme.value(len(seq), fmap.state_count)
    return {"n": len(seq), "data_cost": data, "penalty": pen, "total": data + pen}


def _table_result(rows: dict, maps: list[FeatureMap]) -> dict:
    values = {f"{map_id}.{f}": value for map_id, row in rows.items()
              for f, value in row.items()}
    return {"ids": {"chosen": _argmin(rows, maps)}, "values": values}


@dataclass(eq=False)
class Job:
    """One job's argv and what the gate and the metrics need to know of it."""

    argv: list  # strings, paths and numbers
    files: dict[str, Path]
    seed: int
    n: int
    states: dict[str, int]  # candidate map id -> state count
    scored: int  # candidates scored per job
    scored_symbols: int  # sum over scored candidates of the symbols scored on
    oracle: dict = field(default_factory=dict)


class Consistency:
    """``phimp experiment`` for one seed: 22 candidates on 4 nested prefixes."""

    name = "consistency"
    grid = (100, 1000, 10_000, 100_000)

    def setup(self, work: Path, seed: int) -> Job:
        write_model(work / "source.json", reference_source())
        config = {"source": "source.json", "class": {"alphabet": 2, "max_depth": 3},
                  "criterion": "cost", "pen": PEN, "n_grid": list(self.grid),
                  "seeds": [seed]}
        (work / "experiment.json").write_text(json.dumps(config))
        candidates = with_baseline(enumerate_closed_suffix_maps(Alphabet(2), 3), 2)
        files = {"source": work / "source.json", "config": work / "experiment.json",
                 "out": work / "trajectory.csv"}
        return Job(argv=["experiment", "--config", files["config"], "--out", files["out"]],
                   files=files, seed=seed, n=self.grid[-1],
                   states={m.map_id: m.state_count for m in candidates},
                   scored=len(candidates) * len(self.grid),
                   scored_symbols=len(candidates) * sum(self.grid))

    def parse(self, job: Job, stdout: str) -> dict:
        rows = _read_rows(job.files["out"])
        ids, values = {}, {}
        for row in rows[1:]:
            _seed, n, chosen, total, data, pen, _stable = row.split(",")
            ids[f"n={n}"] = chosen
            for key, value in (("total", total), ("data_cost", data), ("penalty", pen)):
                values[f"n={n}.{key}"] = _float(value)
        return {"ids": ids, "values": values}

    def check(self, job: Job, result: dict) -> list[str]:
        problems = []
        values = result["values"]
        for n in self.grid:
            chosen = result["ids"].get(f"n={n}")
            if chosen not in job.states:
                problems.append(f"n={n}: chosen map {chosen!r} is not a candidate")
                continue
            pen, data, total = (values[f"n={n}.{f}"] for f in ("penalty", "data_cost", "total"))
            if not close(pen, bic_penalty(n, job.states[chosen], 2)):
                problems.append(f"n={n}: penalty {pen} is not bic:markov")
            if not close(total, data + pen):
                problems.append(f"n={n}: total {total} != data cost + penalty")
        return problems

    def replay(self, job: Job, tracer: Tracer) -> dict:
        source = read_model(job.files["source"])
        with tracer.span("fmaps.enumerate") as span:
            maps = enumerate_closed_suffix_maps(Alphabet(2), 3)
            span["count"] = len(maps)
        candidates = with_baseline(maps, 2)
        scheme = PenaltyScheme.from_string(PEN, 2)
        with tracer.span("sources.sample", job.n):
            sample = sample_fsmx(source, job.n, job.seed)
        ids, values = {}, {}
        for n in self.grid:
            prefix = sample.prefix(n)
            rows = {m.map_id: _replay_cost(tracer, m, prefix, scheme) for m in candidates}
            chosen = _argmin(rows, candidates)
            ids[f"n={n}"] = chosen
            values.update({f"n={n}.{f}": rows[chosen][f]
                           for f in ("total", "data_cost", "penalty")})
        return {"ids": ids, "values": values}


def write_symbols(path: Path, items: np.ndarray, per_line: int = 40):
    """``write_sequence``'s format for a plain sequence, written a block at a
    time so that set-up does not raise the peak memory the job is measured by."""
    block = per_line * 1000
    with path.open("w") as out:
        out.write("alphabet=2\n")
        for start in range(0, items.size, block):
            chunk = items[start:start + block].tolist()
            out.write("".join(" ".join(map(str, chunk[i:i + per_line])) + "\n"
                              for i in range(0, len(chunk), per_line)))


class SelectFile:
    """``phimp select`` on a 2e5-symbol file: the depth-2 closed class, two
    unbounded-memory maps and the baseline."""

    name = "select_file"
    # ROADMAP workload (b) names 1e6 symbols; a job that size takes 17-24 s
    # here, so a run would hold one job and its time would follow the shared
    # machine's drift. At 2e5 a run holds four or more jobs.
    n = 200_000

    @staticmethod
    def parity_maps() -> list[FeatureMap]:
        """Count of 1s mod 2 and mod 3: no window of recent symbols fixes the state."""
        return [FeatureMap(kind="general-fsm", alphabet_size=2, state_count=k,
                           start_state=0, map_id=f"ones-mod-{k}",
                           step_table=np.array([[s, (s + 1) % k] for s in range(k)]))
                for k in (2, 3)]

    def setup(self, work: Path, seed: int) -> Job:
        sample = sample_fsmx(reference_source(), self.n, seed)
        files = {"seq": work / "sequence.txt", "maps": work / "maps.json",
                 "out": work / "selection.json"}
        write_symbols(files["seq"], sample.items)
        maps = enumerate_closed_suffix_maps(Alphabet(2), 2) + self.parity_maps()
        write_maps(files["maps"], maps)
        candidates = with_baseline(maps, 2)
        return Job(argv=["select", "--maps", files["maps"], "--seq", files["seq"],
                         "--criterion", "cost", "--pen", PEN, "--out", files["out"]],
                   files=files, seed=seed, n=self.n,
                   states={m.map_id: m.state_count for m in candidates},
                   scored=len(candidates), scored_symbols=len(candidates) * self.n,
                   oracle={"baseline_data_cost": entropy_cost(sample.items),
                           "head": sample.items[:1000]})

    @staticmethod
    def check_format(work: Path, head: np.ndarray) -> list[str]:
        """The block writer must produce exactly what ``write_sequence`` writes."""
        write_sequence(work / "format-check.txt", SymbolSequence(Alphabet(2), head))
        write_symbols(work / "format-check-block.txt", head)
        same = ((work / "format-check.txt").read_bytes()
                == (work / "format-check-block.txt").read_bytes())
        return [] if same else ["block writer output differs from write_sequence"]

    def parse(self, job: Job, stdout: str) -> dict:
        payload = json.loads(job.files["out"].read_text())
        return {"ids": {"chosen": payload["chosen_map_id"]},
                "values": _score_values(payload["costs"])}

    def check(self, job: Job, result: dict) -> list[str]:
        problems = _check_scores(job, result, 2)
        if "format" not in job.oracle:
            job.oracle["format"] = self.check_format(job.files["seq"].parent,
                                                     job.oracle["head"])
        return problems + job.oracle["format"]

    def replay(self, job: Job, tracer: Tracer) -> dict:
        with tracer.span("sequences.read", job.files["seq"].stat().st_size):
            data = read_sequence(job.files["seq"])
        candidates = with_baseline(read_maps(job.files["maps"]), data.alphabet.size)
        scheme = PenaltyScheme.from_string(PEN, data.alphabet.size)
        rows = {m.map_id: _replay_cost(tracer, m, data, scheme) for m in candidates}
        return _table_result(rows, candidates)


class ActiveIcost:
    """``phimp active --criterion icost`` on a 1e5-event uniform-policy rollout."""

    name = "active_icost"
    n = 100_000
    actions, observations, rewards = 2, 2, 2

    def environment(self) -> Environment:
        """Reward law set by the last two rewards (states 0, 01, 11) and the
        action; the observation repeats the reward with probability 0.75."""
        state_map = embed_reward_map(reference_source().fmap, self.actions, self.observations)
        p_one = np.array([[0.2, 0.3], [0.5, 0.6], [0.8, 0.7]])  # (state, action)
        emissions = np.zeros((3, self.actions, self.observations * self.rewards))
        for o in range(self.observations):
            for r in range(self.rewards):
                p_reward = p_one if r == 1 else 1.0 - p_one
                emissions[:, :, o * self.rewards + r] = p_reward * (0.75 if o == r else 0.25)
        return Environment(self.actions, self.observations, self.rewards, state_map, emissions)

    def candidate_maps(self) -> list[FeatureMap]:
        rewards = enumerate_closed_suffix_maps(Alphabet(self.rewards), 2)
        embedded = [embed_reward_map(m, self.actions, self.observations) for m in rewards]
        events = self.actions * self.observations * self.rewards
        depth1 = compile_suffix_map(SuffixSet(Alphabet(events),
                                              tuple((e,) for e in range(events))))
        return embedded + [depth1]

    def setup(self, work: Path, seed: int) -> Job:
        files = {"env": work / "environment.json", "maps": work / "event-maps.json",
                 "out": work / "active.jsonl"}
        write_environment(files["env"], self.environment())
        maps = self.candidate_maps()
        write_maps(files["maps"], maps)
        candidates = with_baseline(maps, maps[0].alphabet_size)
        return Job(argv=["active", "--env", files["env"], "--policy", "uniform",
                         "--n", self.n, "--seed", seed, "--maps", files["maps"],
                         "--criterion", "icost", "--pen", PEN, "--out", files["out"]],
                   files=files, seed=seed, n=self.n,
                   states={m.map_id: m.state_count for m in candidates},
                   scored=len(candidates), scored_symbols=len(candidates) * self.n)

    def parse(self, job: Job, stdout: str) -> dict:
        rows = [json.loads(line) for line in _read_rows(job.files["out"])]
        chosen = re.search(r"chose (\S+) by", stdout)
        return {"ids": {"chosen": chosen.group(1) if chosen else None},
                "values": _score_values(rows)}

    def check(self, job: Job, result: dict) -> list[str]:
        if "baseline_data_cost" not in job.oracle:
            env = read_environment(job.files["env"])
            trace = rollout(env, Policy.uniform(env.state_count, env.action_count),
                            job.n, job.seed)
            job.oracle["baseline_data_cost"] = entropy_cost(trace.rewards)
        return _check_scores(job, result, self.rewards)

    def replay(self, job: Job, tracer: Tracer) -> dict:
        env = read_environment(job.files["env"])
        policy = Policy.uniform(env.state_count, env.action_count)
        with tracer.span("active.rollout", job.n):
            trace = rollout(env, policy, job.n, job.seed)
        paired = trace.to_paired()
        candidates = with_baseline(read_maps(job.files["maps"]), paired.joint_size)
        scheme = PenaltyScheme.from_string(PEN, env.reward_count)
        rows = {}
        for fmap in candidates:
            # phimp.icost is estimate_paired + the forward recursion on the
            # estimated model + PenaltyScheme.value
            with tracer.span("estimation.count", job.n, map=fmap.map_id):
                emp = estimate_paired(fmap, paired)
            model = hmm_from_map_model(fmap, emp.transition, emp.emission)
            with tracer.span("sources.forward", job.n, map=fmap.map_id):
                steps = forward_loglik_steps(model, paired.ys)
            data = float(steps.sum())
            data = math.inf if math.isinf(data) or math.isnan(data) else data
            pen = scheme.value(job.n, fmap.state_count)
            rows[fmap.map_id] = {"n": job.n, "data_cost": data, "penalty": pen,
                                 "total": data + pen}
        return _table_result(rows, candidates)


class XentMc:
    """``phimp xent --mode mc`` at n = 1e5 for a 2-state model whose emissions
    differ from the reference source."""

    name = "xent_mc"
    n = 100_000

    def setup(self, work: Path, seed: int) -> Job:
        fmap = compile_suffix_map(SuffixSet(Alphabet(2), ((0,), (1,))))
        files = {"true": work / "true.json", "model": work / "model.json",
                 "out": work / "xent.json"}
        write_model(files["true"], reference_source())
        write_model(files["model"], FsmxSource(fmap, np.array([[0.7, 0.3], [0.35, 0.65]])))
        return Job(argv=["xent", "--true", files["true"], "--model", files["model"],
                         "--mode", "mc", "--n", self.n, "--seed", seed, "--out", files["out"]],
                   files=files, seed=seed, n=self.n, states={fmap.map_id: 2},
                   scored=1, scored_symbols=self.n)

    def parse(self, job: Job, stdout: str) -> dict:
        payload = json.loads(job.files["out"].read_text())
        return {"ids": {}, "values": {"value": _float(payload["value"]),
                                      "std_error": _float(payload["std_error"]),
                                      "n_used": float(payload["n_used"])}}

    def check(self, job: Job, result: dict) -> list[str]:
        if "exact" not in job.oracle:
            model = read_model(job.files["model"])
            params = induced_hmm(model)
            job.oracle["exact"] = cross_entropy_exact_markov(
                read_model(job.files["true"]), model.fmap,
                params.transition, params.emission).value
        value, se = result["values"]["value"], result["values"]["std_error"]
        problems = []
        if result["values"]["n_used"] != job.n:
            problems.append(f"n_used {result['values']['n_used']} != {job.n}")
        # the Monte-Carlo mean must sit within 6 standard errors of the exact limit
        if not (se > 0 and abs(value - job.oracle["exact"]) <= 6 * se):
            problems.append(f"value {value} (std error {se}) is far from the exact "
                            f"cross-entropy {job.oracle['exact']}")
        return problems

    def replay(self, job: Job, tracer: Tracer) -> dict:
        true_model = read_model(job.files["true"])
        model = induced_hmm(read_model(job.files["model"]))
        with tracer.span("sources.sample", job.n):
            sample = sample_fsmx(true_model, job.n, job.seed)
        with tracer.span("sources.forward", job.n):
            steps = forward_loglik_steps(model, sample.items)
        return {"ids": {}, "values": {"value": float(steps.mean())}}


WORKLOADS = {w.name: w for w in (Consistency(), SelectFile(), ActiveIcost(), XentMc())}
