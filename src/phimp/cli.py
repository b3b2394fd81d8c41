"""Command-line driver composing the library into reproducible experiments.

Conventions: models, maps, environments and experiment configs are JSON;
score tables are JSON lines; trajectories are CSV. CSV/JSONL outputs start
with a '#'-prefixed timestamp line, which is the only part that differs
between identical re-runs. Floats are serialized with 17 significant digits.
Exit codes: 0 success, 2 input error, 3 resource-cap or out-of-memory error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

from .active import Policy, environment_from_json, read_environment, rollout
from .errors import InputError, ResourceError
from .estimation import CRITERIA, PenaltyScheme
from .fmaps import (_suffix_text, enumerate_closed_suffix_maps, maps_from_json,
                    memory_bound, read_maps, write_maps)
from .selection import _check_run, _sized, _trajectory, select
from .sequences import (Alphabet, PairedSequence, _fields, _read_json, _read_text,
                        _write_json, ergodicity_diagnostic, read_sequence,
                        write_sequence)
from .sources import (FsmxSource, cross_entropy_exact_fsmx, cross_entropy_mc,
                      model_from_json, read_model, sample_fsmx, sample_hmm)

SCORE_FIELDS = ("criterion", "data_cost", "map_id", "n", "penalty", "total")
TRAJECTORY_HEADER = "seed,n,chosen_map_id,total,data_cost,penalty,stabilized"
LN2 = math.log(2.0)


def _fmt(value: float) -> str:
    return "inf" if math.isinf(value) else format(value, ".17g")


def _display(value: float, bits: bool) -> str:
    # files always carry nats; --bits only changes the printed summary
    if bits:
        return f"{_fmt(value / LN2)} bits"
    return f"{_fmt(value)} nats"


def _json_float(value: float):
    return "inf" if math.isinf(value) else value


def _timestamp_line() -> str:
    return f"# generated {datetime.now(timezone.utc).isoformat()}"


def _score_record(breakdown) -> dict:
    return {
        "criterion": breakdown.criterion,
        "data_cost": _json_float(breakdown.data_cost),
        "map_id": breakdown.map_id,
        "n": breakdown.n,
        "penalty": _json_float(breakdown.penalty),
        "total": _json_float(breakdown.total),
    }


def _score_row(breakdown) -> str:
    return json.dumps(_score_record(breakdown), sort_keys=True)


def _write_lines(path, lines):
    Path(path).write_text("\n".join([_timestamp_line(), *lines]) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sample(args) -> int:
    model = read_model(args.source)
    if isinstance(model, FsmxSource):
        seq = sample_fsmx(model, args.n, args.seed, args.stream)
    else:
        seq = sample_hmm(model, args.n, args.seed, args.stream)
    write_sequence(args.out, seq)
    print(f"sample: wrote {args.n} symbols from {args.source} (seed {args.seed}) "
          f"to {args.out}")
    return 0


def _cmd_maps_enumerate(args) -> int:
    maps = enumerate_closed_suffix_maps(Alphabet(args.alphabet), args.max_depth,
                                        padding_symbol=args.padding,
                                        context_cap=args.cap)
    write_maps(args.out, maps)
    print(f"maps: enumerated {len(maps)} closed suffix maps of depth <= "
          f"{args.max_depth} over {args.alphabet} symbols to {args.out}")
    return 0


def _cmd_maps_check(args) -> int:
    maps = read_maps(args.file)
    for fmap in maps:
        bound = memory_bound(fmap)
        memory = f"kappa={bound.kappa}" if bound.bounded else "unbounded memory"
        print(f"  {fmap.map_id}: kind={fmap.kind} states={fmap.state_count} {memory}")
    print(f"maps: {args.file} holds {len(maps)} valid maps")
    return 0


def _cmd_score(args) -> int:
    data = read_sequence(args.seq)
    maps, scheme = _sized(read_maps(args.maps), data, args.criterion,
                          include_baseline=False, pen=args.pen)
    result = select(maps, data, args.criterion, scheme, args.smoothing)
    rows = [_score_row(b) for b in result.costs]
    _write_lines(args.out, rows)
    print(f"score: {len(rows)} maps scored with {args.criterion}/{args.pen} "
          f"on {args.seq} -> {args.out}")
    return 0


def _cmd_select(args) -> int:
    data = read_sequence(args.seq)
    maps, scheme = _sized(read_maps(args.maps), data, args.criterion, not args.no_baseline,
                          args.pen)
    result = select(maps, data, args.criterion, scheme, args.smoothing)
    chosen = result.total_of(result.chosen_map_id)
    if args.out:
        _write_json(args.out, {
            "chosen_map_id": result.chosen_map_id,
            "criterion": args.criterion,
            "tie_broken": result.tie_broken,
            "costs": [_score_record(b) for b in result.costs],
        })
    print(f"select: chose {result.chosen_map_id} (total {_display(chosen, args.bits)}, "
          f"tie_broken={str(result.tie_broken).lower()})")
    return 0


def _cmd_xent(args) -> int:
    true_model = read_model(args.true)
    model = read_model(args.model)
    if args.mode == "exact":
        if not isinstance(true_model, FsmxSource) or not isinstance(model, FsmxSource):
            raise InputError("exact mode needs finite-state (fsmx) models on both sides")
        estimate = cross_entropy_exact_fsmx(true_model, model)
    else:
        estimate = cross_entropy_mc(true_model, model, args.n, args.seed)
    detail = f"value={_display(estimate.value, args.bits)} mode={estimate.mode}"
    if estimate.std_error is not None:
        detail += f" std_error={_display(estimate.std_error, args.bits)}"
    if args.out:
        _write_json(args.out, {
            "mode": estimate.mode,
            "n_used": estimate.n_used,
            "std_error": _json_float(estimate.std_error) if estimate.std_error is not None else None,
            "value": _json_float(estimate.value),
        })
    print(f"xent: {detail}")
    return 0


def _experiment(path: Path):
    """The consistency run a config describes, checked whole before any
    sampling: a function of one seed that returns its trajectory, and the
    config's seeds.

    ``experiment`` runs it and ``diagnose --check-file`` passes it, so a
    config passes the check exactly when the run would start sampling.
    """
    config = _fields(_read_json(path, "config"), "experiment config",
                     ("source", "class", "criterion", "pen", "n_grid", "seeds"))
    for field in ("n_grid", "seeds"):
        if not isinstance(config[field], list) or not config[field]:
            raise InputError(f"{field} must be a non-empty list")
    include_baseline = config.get("include_baseline", True)
    if not isinstance(include_baseline, bool):
        raise InputError("include_baseline must be true or false")

    source = config["source"]
    source = (read_model(path.parent / source) if isinstance(source, str)
              else model_from_json(source))
    if not isinstance(source, FsmxSource):
        raise InputError("experiment sources must be finite-state (fsmx) models")
    spec = config["class"]
    if isinstance(spec, dict) and isinstance(spec.get("file"), str):
        maps = read_maps(path.parent / spec["file"])
    else:
        _fields(spec, "class spec", ("alphabet", "max_depth"),
                integers=("alphabet", "max_depth"))
        maps = enumerate_closed_suffix_maps(Alphabet(spec["alphabet"]), spec["max_depth"])
    scheme = PenaltyScheme.from_string(config["pen"], source.fmap.alphabet_size)

    smoothing = config.get("smoothing", 0.0)
    candidates, n_grid, seeds = _check_run(source, maps, config["criterion"],
                                           config["n_grid"], config["seeds"],
                                           include_baseline, smoothing)
    return functools.partial(_trajectory, source, candidates, config["criterion"], scheme,
                             n_grid, smoothing), seeds


def _trajectory_rows(trajectory) -> list[str]:
    rows = []
    for idx, n in enumerate(trajectory.n_grid):
        chosen = trajectory.chosen_ids[idx]
        breakdown = next(b for b in trajectory.costs_per_n[idx] if b.map_id == chosen)
        stabilized = "true" if idx >= trajectory.stabilization_index else "false"
        rows.append(f"{trajectory.seed},{n},{chosen},{_fmt(breakdown.total)},"
                    f"{_fmt(breakdown.data_cost)},{_fmt(breakdown.penalty)},{stabilized}")
    return rows


def _cmd_experiment(args) -> int:
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    run, seeds = _experiment(Path(args.config))
    # one trajectory per seed, serially or one seed per worker
    if args.jobs > 1:
        # a fork-started pool forks all its workers at once; a seed needs one
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(seeds))) as pool:
            trajectories = list(pool.map(run, seeds))
    else:
        trajectories = list(map(run, seeds))

    rows = [TRAJECTORY_HEADER]
    for trajectory in trajectories:
        rows.extend(_trajectory_rows(trajectory))
    _write_lines(args.out, rows)
    final = [trajectory.final_choice for trajectory in trajectories]
    # the first seed's choice among equally frequent ones
    winner = max(final, key=final.count)
    grid_points = len(trajectories[0].n_grid)
    print(f"experiment: {len(seeds)} seeds x {grid_points} grid points -> {args.out}; "
          f"final choice {winner} in {final.count(winner)}/{len(final)} seeds")
    return 0


def _cmd_active(args) -> int:
    env = read_environment(args.env)
    if args.policy == "uniform":
        policy = Policy.uniform(env.state_count, env.action_count)
    else:
        policy = Policy(_read_json(args.policy, "policy"))
    paired = rollout(env, policy, args.n, args.seed).to_paired()
    maps, scheme = _sized(read_maps(args.maps), paired, args.criterion, not args.no_baseline,
                          args.pen)
    result = select(maps, paired, args.criterion, scheme, args.smoothing)
    tie = str(result.tie_broken).lower()
    if args.out:
        _write_lines(args.out, [f"# chosen={result.chosen_map_id} tie_broken={tie}",
                                *(_score_row(b) for b in result.costs)])
    print(f"active: rolled out {args.n} events (seed {args.seed}); "
          f"chose {result.chosen_map_id} by {args.criterion} tie_broken={tie}")
    return 0


def _cmd_diagnose(args) -> int:
    if args.check_file:
        kind = _check_artifact(Path(args.check_file))
        print(f"diagnose: {args.check_file} is a valid {kind}")
        return 0
    if not args.seq:
        raise InputError("diagnose needs --seq (or --check-file)")
    data = read_sequence(args.seq)
    if isinstance(data, PairedSequence):
        data = data.joint_sequence()
    report = ergodicity_diagnostic(data, args.max_pattern_len, args.tol,
                                   args.tail_fraction)
    if args.out:
        payload = {
            "all_converged": report.all_converged,
            "max_pattern_len": report.max_pattern_len,
            "patterns": {
                _suffix_text(pat, data.alphabet.size): {
                    "converged": rep.converged,
                    "final_spread": rep.final_spread,
                    "grid": rep.grid.tolist(),
                    "values": rep.values.tolist(),
                }
                for pat, rep in report.reports.items()
            },
            "tol": report.tol,
        }
        _write_json(args.out, payload)
    verdict = "all substring frequencies settled" if report.all_converged \
        else "some substring frequencies still drift"
    worst = max(report.reports.values(), key=lambda r: r.final_spread)
    print(f"diagnose: {verdict} (tol {args.tol}, worst spread "
          f"{worst.final_spread:.3g})")
    return 0


def _check_artifact(path: Path) -> str:
    if not path.exists():
        raise InputError(f"{path} does not exist")
    suffix = path.suffix.lower()
    if suffix == ".json":
        data = _read_json(path, "artifact")
        if isinstance(data, dict) and "maps" in data:
            maps_from_json(data)
            return "map file"
        if isinstance(data, dict) and "event_map" in data:
            environment_from_json(data)
            return "environment file"
        if isinstance(data, dict) and ({"T", "E", "initial"} <= data.keys()
                                       or {"map", "emit"} <= data.keys()
                                       or data.get("type") in ("hmm", "fsmx")):
            model_from_json(data)
            return "model file"
        if isinstance(data, dict) and data.keys() & {"source", "class", "n_grid"}:
            _experiment(path)
            return "experiment config"
        if isinstance(data, dict) and "chosen_map_id" in data:
            if not isinstance(data.get("costs"), list):
                raise InputError(f"{path}: selection result missing cost rows")
            for row in data["costs"]:
                _fields(row, f"{path}: cost row", SCORE_FIELDS)
            return "selection result"
        if isinstance(data, dict) and {"value", "mode"} <= data.keys():
            return "cross-entropy result"
        if isinstance(data, dict) and "patterns" in data:
            return "diagnostic report"
        raise InputError(f"{path}: unrecognized JSON artifact")
    if suffix == ".jsonl":
        for lineno, line in enumerate(_read_text(path, "artifact").splitlines(), 1):
            if not line.strip() or line.startswith("#"):
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
            _fields(record, f"{path}:{lineno}: score row", SCORE_FIELDS)
        return "score table"
    if suffix == ".csv":
        lines = [ln for ln in _read_text(path, "artifact").splitlines()
                 if ln.strip() and not ln.startswith("#")]
        if not lines or lines[0] != TRAJECTORY_HEADER:
            raise InputError(f"{path}: first row must be '{TRAJECTORY_HEADER}'")
        for lineno, line in enumerate(lines[1:], 2):
            parts = line.split(",")
            if len(parts) != 7:
                raise InputError(f"{path}:{lineno}: expected 7 columns")
            try:
                int(parts[0]), int(parts[1])
                for value in parts[3:6]:
                    float(value)
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: malformed number: {exc}") from exc
            if parts[6] not in ("true", "false"):
                raise InputError(f"{path}:{lineno}: stabilized must be true/false")
        return "trajectory table"
    read_sequence(path)
    return "sequence file"


# ---------------------------------------------------------------------------
# argument parsing


def _add_pen_criterion(parser):
    parser.add_argument("--criterion", default="cost", choices=CRITERIA)
    parser.add_argument("--pen", default="bic:markov",
                        help="bic:markov | bic:full | cubic")
    parser.add_argument("--smoothing", type=float, default=0.0,
                        help="additive smoothing for cross-evaluation")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once a process; parsing leaves it as it
    was, so every call of ``main`` shares it."""
    parser = argparse.ArgumentParser(
        prog="phimp",
        description="Select compact finite-state representations for sequence "
                    "prediction by penalized maximum likelihood.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a sequence from a model file")
    p.add_argument("--source", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--out", "--output", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("maps", help="enumerate or check feature-map files")
    maps_sub = p.add_subparsers(dest="maps_command", required=True)
    pe = maps_sub.add_parser("enumerate")
    pe.add_argument("--alphabet", type=int, required=True)
    pe.add_argument("--max-depth", type=int, required=True)
    pe.add_argument("--padding", type=int, default=0)
    pe.add_argument("--cap", type=int, default=4096,
                    help="most candidate suffix sets and most alphabet symbols, "
                         "both checked before any set is built (default %(default)s)")
    pe.add_argument("--out", "--output", required=True)
    pe.set_defaults(func=_cmd_maps_enumerate)
    pc = maps_sub.add_parser("check")
    pc.add_argument("file")
    pc.set_defaults(func=_cmd_maps_check)

    p = sub.add_parser("score", help="score every map in a file on a sequence")
    p.add_argument("--maps", required=True)
    p.add_argument("--seq", "--input", required=True)
    _add_pen_criterion(p)
    p.add_argument("--out", "--output", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("select", help="pick the minimum-cost map")
    p.add_argument("--maps", required=True)
    p.add_argument("--seq", "--input", required=True)
    _add_pen_criterion(p)
    p.add_argument("--no-baseline", action="store_true",
                   help="do not inject the single-state map")
    p.add_argument("--bits", action="store_true",
                   help="print code lengths in bits instead of nats")
    p.add_argument("--out", "--output")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("xent", help="cross-entropy of a model against a source")
    p.add_argument("--true", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bits", action="store_true",
                   help="print code lengths in bits instead of nats")
    p.add_argument("--out", "--output")
    p.set_defaults(func=_cmd_xent)

    p = sub.add_parser("experiment", help="consistency experiment from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", "--output", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("active", help="roll out an environment and select a map")
    p.add_argument("--env", required=True)
    p.add_argument("--policy", default="uniform",
                   help="'uniform' or a JSON file with per-state action rows")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--maps", required=True)
    _add_pen_criterion(p)
    p.set_defaults(criterion="icost")
    p.add_argument("--no-baseline", action="store_true")
    p.add_argument("--out", "--output")
    p.set_defaults(func=_cmd_active)

    p = sub.add_parser("diagnose", help="substring-frequency convergence report "
                                        "or artifact schema check")
    p.add_argument("--seq", "--input")
    p.add_argument("--max-pattern-len", type=int, default=3)
    p.add_argument("--tol", type=float, default=0.01)
    p.add_argument("--tail-fraction", type=float, default=0.2)
    p.add_argument("--check-file")
    p.add_argument("--out", "--output")
    p.set_defaults(func=_cmd_diagnose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"resource error: out of memory ({exc})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
