"""Command-line driver composing the library into reproducible experiments.

Conventions: models, maps, environments and experiment configs are JSON;
score tables are JSON lines; trajectories are CSV. CSV/JSONL outputs start
with a '#'-prefixed timestamp line, which is the only part that differs
between identical re-runs. Floats are serialized with 17 significant digits.
Exit codes: 0 success, 2 input error, 3 resource-cap error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

from .active import (Policy, active_select, read_environment, rollout)
from .errors import InputError, ResourceError
from .estimation import PenaltyScheme
from .fmaps import (enumerate_closed_suffix_maps, maps_from_json, memory_bound,
                    read_maps, write_maps)
from .selection import (consistency_run, score_map, select, with_baseline)
from .sequences import (PairedSequence, _is_int, _read_json, _read_text,
                        _write_json, ergodicity_diagnostic, read_sequence,
                        write_sequence)
from .sources import (FsmxSource, cross_entropy_exact_markov, cross_entropy_mc,
                      induced_hmm, read_model, sample_fsmx, sample_hmm)

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


def _score_row(breakdown) -> str:
    record = {
        "criterion": breakdown.criterion,
        "data_cost": _json_float(breakdown.data_cost),
        "map_id": breakdown.map_id,
        "n": breakdown.n,
        "penalty": _json_float(breakdown.penalty),
        "total": _json_float(breakdown.total),
    }
    return json.dumps(record, sort_keys=True)


def _write_lines(path, lines):
    Path(path).write_text("\n".join([_timestamp_line(), *lines]) + "\n")


def _load_scheme(spec: str, alphabet_size: int) -> PenaltyScheme:
    return PenaltyScheme.from_string(spec, alphabet_size)


def _data_alphabet_size(data) -> int:
    if isinstance(data, PairedSequence):
        return data.y_alphabet.size
    return data.alphabet.size


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
    from .sequences import Alphabet

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
    maps = read_maps(args.maps)
    scheme = _load_scheme(args.pen, _data_alphabet_size(data))
    ordered = sorted(maps, key=lambda m: m.canonical_key)
    rows = [_score_row(score_map(m, data, args.criterion, scheme, args.smoothing))
            for m in ordered]
    _write_lines(args.out, rows)
    print(f"score: {len(rows)} maps scored with {args.criterion}/{args.pen} "
          f"on {args.seq} -> {args.out}")
    return 0


def _cmd_select(args) -> int:
    data = read_sequence(args.seq)
    maps = read_maps(args.maps)
    candidates = with_baseline(maps, _candidate_alphabet_size(data),
                               include_baseline=not args.no_baseline)
    scheme = _load_scheme(args.pen, _data_alphabet_size(data))
    result = select(candidates, data, args.criterion, scheme, args.smoothing)
    chosen = result.total_of(result.chosen_map_id)
    if args.out:
        _write_json(args.out, {
            "chosen_map_id": result.chosen_map_id,
            "criterion": args.criterion,
            "tie_broken": result.tie_broken,
            "costs": [json.loads(_score_row(b)) for b in result.costs],
        })
    print(f"select: chose {result.chosen_map_id} (total {_display(chosen, args.bits)}, "
          f"tie_broken={str(result.tie_broken).lower()})")
    return 0


def _candidate_alphabet_size(data) -> int:
    if isinstance(data, PairedSequence):
        return data.joint_size
    return data.alphabet.size


def _cmd_xent(args) -> int:
    true_model = read_model(args.true)
    model = read_model(args.model)
    if args.mode == "exact":
        if not isinstance(true_model, FsmxSource) or not isinstance(model, FsmxSource):
            raise InputError("exact mode needs finite-state (fsmx) models on both sides")
        params = induced_hmm(model)
        estimate = cross_entropy_exact_markov(true_model, model.fmap,
                                              params.transition, params.emission)
    else:
        model_hmm = induced_hmm(model) if isinstance(model, FsmxSource) else model
        estimate = cross_entropy_mc(true_model, model_hmm, args.n, args.seed)
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


def _load_experiment_config(path: Path) -> dict:
    config = _read_json(path, "config")
    if not isinstance(config, dict):
        raise InputError(f"{path}: experiment config must be a JSON object")
    required = {"source", "class", "criterion", "pen", "n_grid", "seeds"}
    missing = required - config.keys()
    if missing:
        raise InputError(f"experiment config missing fields: {sorted(missing)}")
    grid = config["n_grid"]
    if (not isinstance(grid, list) or not grid or not all(map(_is_int, grid))
            or any(b <= a for a, b in zip(grid, grid[1:]))):
        raise InputError("n_grid must be a non-empty strictly increasing list of integers")
    seeds = config["seeds"]
    if (not isinstance(seeds, list) or not seeds or not all(map(_is_int, seeds))
            or len(set(seeds)) != len(seeds)):
        raise InputError("seeds must be a non-empty list of distinct integers")
    smoothing = config.get("smoothing", 0.0)
    if not isinstance(smoothing, (int, float)) or isinstance(smoothing, bool):
        raise InputError("smoothing must be a number")
    return config


def _resolve_experiment_inputs(config: dict, base: Path):
    from .sequences import Alphabet
    from .sources import model_from_json

    source_spec = config["source"]
    if isinstance(source_spec, str):
        model = read_model(base / source_spec)
    else:
        model = model_from_json(source_spec)
    if not isinstance(model, FsmxSource):
        raise InputError("experiment sources must be finite-state (fsmx) models")

    class_spec = config["class"]
    if not isinstance(class_spec, dict):
        raise InputError("class spec must be an object")
    if isinstance(class_spec.get("file"), str):
        maps = read_maps(base / class_spec["file"])
    elif _is_int(class_spec.get("alphabet")) and _is_int(class_spec.get("max_depth")):
        maps = enumerate_closed_suffix_maps(Alphabet(class_spec["alphabet"]),
                                            class_spec["max_depth"])
    else:
        raise InputError("class spec needs either a 'file' name or integer "
                         "'alphabet' + 'max_depth'")

    scheme = _load_scheme(config["pen"], model.fmap.alphabet_size)
    return model, maps, scheme


def _experiment_worker(payload):
    source, maps, criterion, scheme, n_grid, seed, include_baseline, smoothing = payload
    trajectory = consistency_run(source, maps, criterion, scheme, n_grid, [seed],
                                 include_baseline=include_baseline,
                                 smoothing=smoothing)[0]
    return trajectory


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
    config_path = Path(args.config)
    config = _load_experiment_config(config_path)
    source, maps, scheme = _resolve_experiment_inputs(config, config_path.parent)
    criterion = config["criterion"]
    include_baseline = bool(config.get("include_baseline", True))
    smoothing = float(config.get("smoothing", 0.0))
    n_grid = [int(v) for v in config["n_grid"]]
    seeds = [int(v) for v in config["seeds"]]

    if args.jobs > 1:
        payloads = [(source, maps, criterion, scheme, n_grid, seed,
                     include_baseline, smoothing) for seed in seeds]
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            trajectories = list(pool.map(_experiment_worker, payloads))
    else:
        trajectories = consistency_run(source, maps, criterion, scheme, n_grid,
                                       seeds, include_baseline=include_baseline,
                                       smoothing=smoothing)

    rows = [TRAJECTORY_HEADER]
    for trajectory in trajectories:
        rows.extend(_trajectory_rows(trajectory))
    _write_lines(args.out, rows)
    final = [t.final_choice for t in trajectories]
    winner = max(set(final), key=final.count)
    print(f"experiment: {len(seeds)} seeds x {len(n_grid)} grid points -> {args.out}; "
          f"final choice {winner} in {final.count(winner)}/{len(final)} seeds")
    return 0


def _cmd_active(args) -> int:
    env = read_environment(args.env)
    if args.policy == "uniform":
        policy = Policy.uniform(env.state_count, env.action_count)
    else:
        policy = Policy(_read_json(args.policy, "policy"))
    trace = rollout(env, policy, args.n, args.seed)
    maps = read_maps(args.maps)
    scheme = _load_scheme(args.pen, env.reward_count)
    result = active_select(trace, maps, scheme, criterion=args.criterion,
                           include_baseline=not args.no_baseline,
                           smoothing=args.smoothing)
    if args.out:
        _write_lines(args.out, [_score_row(b) for b in result.costs])
    print(f"active: rolled out {args.n} events (seed {args.seed}); "
          f"chose {result.chosen_map_id} by {args.criterion}")
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
                "".join(map(str, pat)): {
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
            from .active import environment_from_json
            environment_from_json(data)
            return "environment file"
        if isinstance(data, dict) and ({"T", "E", "initial"} <= data.keys()
                                       or {"map", "emit"} <= data.keys()
                                       or data.get("type") in ("hmm", "fsmx")):
            from .sources import model_from_json
            model_from_json(data)
            return "model file"
        if isinstance(data, dict) and "n_grid" in data:
            _load_experiment_config(path)
            return "experiment config"
        if isinstance(data, dict) and "chosen_map_id" in data:
            if not isinstance(data.get("costs"), list):
                raise InputError(f"{path}: selection result missing cost rows")
            for row in data["costs"]:
                if not isinstance(row, dict):
                    raise InputError(f"{path}: cost row must be a JSON object")
                missing = set(SCORE_FIELDS) - row.keys()
                if missing:
                    raise InputError(f"{path}: cost row missing {sorted(missing)}")
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
            if not isinstance(record, dict):
                raise InputError(f"{path}:{lineno}: score row must be a JSON object")
            missing = set(SCORE_FIELDS) - record.keys()
            if missing:
                raise InputError(f"{path}:{lineno}: score row missing {sorted(missing)}")
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


def _add_pen_criterion(parser, criteria=("cost", "icost", "ocost", "ml")):
    parser.add_argument("--criterion", default="cost", choices=criteria)
    parser.add_argument("--pen", default="bic:markov",
                        help="bic:markov | bic:full | cubic")
    parser.add_argument("--smoothing", type=float, default=0.0,
                        help="additive smoothing for cross-evaluation")


def build_parser() -> argparse.ArgumentParser:
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
    pe.add_argument("--cap", type=int, default=4096)
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
    _add_pen_criterion(p, criteria=("icost", "ocost", "cost", "ml"))
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


if __name__ == "__main__":
    sys.exit(main())
