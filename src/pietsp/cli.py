"""Command-line entry point: train / eval / predict / inspect / bench / gen-synthetic / convert.

Every run that produces artifacts writes an ``effective-config.json``
capturing all resolved settings.  ``train`` and ``bench`` take it back via
``--config``, which reproduces the run at the same BLAS thread count.  Each
of their settings is its flag, else its ``--config`` value, else the
library default (``_settings``); a key the command never writes is refused,
and so is a value of the wrong type.  ``eval``'s file records its settings
but has no ``--config``.  Defaults come from the library
(``TrainConfig``, ``SyntheticSpec``, ``VARIANTS``, ``bench.RUNS``/``BATCH``/
``SHAPE``), never restated here.  BLAS reads its thread count as numpy
loads, so set ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` before launch to pin it.  An error, ``OSError``
included, is one ``pietsp <command>: ...`` line on stderr and exit status 1;
a flag value argparse cannot read, an empty item of a comma list included,
is its usage error and exit status 2.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import bench, seeding
from .checkpoint import inspect_checkpoint, load_checkpoint, write_atomic
from .data import (SyntheticSpec, convert_json_dump, convert_table, gen_synthetic, load_corpus, prepare_all,
                   read_json, save_corpus, split_users)
from .errors import PietspError
from .model import VARIANTS
from .train import (EARLY_STOP_K, REMOVED_SETTINGS, TrainConfig, checked_k_list, evaluate, fit, ranked_batches,
                    reject_removed_settings, resumable_checkpoint, write_history)


def _items(text: str, kind, what: str) -> tuple:
    """The items of a comma list flag, each read by ``kind``; an empty text is no item.  An empty item, or one
    ``kind`` cannot read, raises ``ArgumentTypeError`` naming it: argparse's usage error, exit status 2."""
    values = []
    for item in text.split(",") if text else ():
        try:
            values.append(kind(item))
        except ValueError:
            raise argparse.ArgumentTypeError(f"'{item}' is not {what}" if item.strip() else
                                             f"empty item in '{text}'") from None
    return tuple(values)


def _int_list(text: str) -> tuple[int, ...]:
    return _items(text, int, "an integer")


def _float_list(text: str) -> tuple[float, ...]:
    return _items(text, float, "a number")


def _settings(args, defaults: dict, removed=()) -> tuple[dict, set[str]]:
    """The run's settings: each key of ``defaults`` takes its flag, else its ``--config`` value, else its default.

    The ``--config`` file must be a JSON object whose every key is ``command``, a setting, or one of the
    ``removed`` settings at the value runs used.  The command runs with the returned dict, ``command``
    included, and writes it to ``effective-config.json``.  Also returns the keys that a flag or the
    ``--config`` file gave.
    """
    config = read_json(args.config) if args.config else {}
    if not isinstance(config, dict):
        raise ValueError(f"{args.config}: settings must be a JSON object")
    known = {"command", *defaults, *removed}
    unknown = sorted(set(config) - known)
    if unknown:
        raise ValueError(f"{args.config}: unknown setting {', '.join(map(repr, unknown))}"
                         f" (known: {', '.join(sorted(known))})")
    reject_removed_settings(config, args.config)
    flags = vars(args)
    given = {key for key in defaults if flags[key] is not None or key in config}
    return {"command": args.command} | {key: config.get(key, default) if flags[key] is None else flags[key]
                                        for key, default in defaults.items()}, given


def _write_effective(out_dir: Path, settings: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(settings, sort_keys=True, indent=2) + "\n"
    write_atomic(out_dir / "effective-config.json", text.encode("utf-8"))


def _split_corpus(corpus, ratios, seed):
    return split_users(corpus, ratios, seeding.spawn_seed(seed, "split"))


SPLITS = ("train", "val", "test", "all")


def _load_users(ckpt, data, split: str = "all"):
    """The ``ckpt`` checkpoint, its training config and the prepared users of ``split`` of the
    ``data`` corpus, which must share the checkpoint's vocabulary.  A split other than ``all`` is
    the training run's, so it needs the config the checkpoint records."""
    ck = load_checkpoint(ckpt)
    if split != "all" and ck.config is None:
        raise PietspError(f"{ckpt} records no training config, so its '{split}' split is unknown; use --split all")
    corpus, _ = load_corpus(data)
    if corpus.vocab_size != ck.params.vocab_size:
        raise PietspError(
            f"{data} has vocab_size {corpus.vocab_size} but {ckpt} was trained on"
            f" vocab_size {ck.params.vocab_size}"
        )
    config = TrainConfig.from_dict(ck.config or {})
    if split != "all":
        corpus = _split_corpus(corpus, config.split_ratios, config.seed)[SPLITS.index(split)]
    return ck, config, prepare_all(corpus, ck.params.k_max)


# train flag and effective-config.json key -> the TrainConfig field it sets: the field's name, except three
# keys that every recorded effective-config.json already uses
TRAIN_SETTINGS = {{"max_epochs": "epochs", "base_lr": "lr", "k_list": "k"}.get(f.name, f.name): f.name
                  for f in fields(TrainConfig)}


def _cmd_train(args) -> int:
    defaults = TrainConfig().to_dict()
    # an effective-config.json of an earlier version may hold a removed setting, judged by its value
    settings, _ = _settings(args, {"data": None} | {key: defaults[field] for key, field in TRAIN_SETTINGS.items()},
                            REMOVED_SETTINGS)
    if not isinstance(settings["data"], (str, type(None))):
        raise ValueError(f"data must be a string, got {settings['data']!r}")
    if not settings["data"]:
        print("train: --data is required", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    config = TrainConfig(**{field: settings[key] for key, field in TRAIN_SETTINGS.items()})
    corpus, report = load_corpus(settings["data"])
    if report.users_dropped or report.empty_sets_dropped or report.duplicate_ids_removed:
        print(
            f"load: kept {report.users_kept} users"
            f" (dropped {report.users_dropped} users, {report.empty_sets_dropped} empty sets,"
            f" {report.duplicate_ids_removed} duplicate ids)"
        )
    train_c, val_c, _ = _split_corpus(corpus, config.split_ratios, config.seed)
    latest = out_dir / "checkpoint-latest.json"
    # a refused resume leaves the run directory's settings as they were
    resume = resumable_checkpoint(latest, config, corpus.vocab_size) if args.resume else None
    _write_effective(out_dir, settings)
    result = fit(
        train_c,
        val_c,
        config,
        resume_from=resume,
        latest_path=latest,
        best_path=out_dir / "checkpoint-best.json",
    )
    write_history(result.history, out_dir / "history.jsonl")
    val_report = evaluate(prepare_all(val_c, result.k_max), result.params, config.k_list, config.variant)
    print(
        f"trained {result.epochs_run} epochs; best validation ndcg@{EARLY_STOP_K}"
        f" {result.best_metric:.4f} at epoch {result.best_epoch + 1}"
    )
    print(val_report.format_table())
    return 0


def _at_least_one(name: str, values) -> None:
    """Refuse a count below 1 by its flag or grid axis, before any checkpoint or corpus is read."""
    for value in values:
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def _cmd_eval(args) -> int:
    k_list = None if args.k is None else checked_k_list(args.k, "evaluate")  # refused before anything loads
    ck, config, samples = _load_users(args.ckpt, args.data, args.split)
    k_list = config.k_list if k_list is None else k_list
    report = evaluate(samples, ck.params, k_list, config.variant)
    print(report.format_table())
    if args.out:
        out_dir = Path(args.out)
        _write_effective(out_dir, {"command": "eval", "ckpt": args.ckpt, "data": args.data, "split": args.split, "k": list(k_list)})
        (out_dir / "metrics.json").write_text(report.to_json() + "\n", encoding="utf-8")
    return 0


def _cmd_predict(args) -> int:
    _at_least_one("--top", (args.top,))
    ck, config, samples = _load_users(args.ckpt, args.data, args.split)
    text = "".join(json.dumps({"user_id": sample.user_id, "items": ids}) + "\n"
                   for batch, ranked in ranked_batches(samples, ck.params, args.top, config.variant)
                   for sample, ids in zip(batch.samples, ranked.tolist()))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_inspect(args) -> int:
    print(json.dumps(inspect_checkpoint(args.ckpt), sort_keys=True, indent=2))
    return 0


def _parse_grid(text: str) -> dict[str, tuple[int, ...]]:
    grid: dict[str, tuple[int, ...]] = {}
    for clause in text.replace(";", " ").split():
        if "=" not in clause:
            raise ValueError(f"bad grid clause '{clause}' (expected KEY=v1,v2,...)")
        key, values = clause.split("=", 1)
        key = key.upper()
        if key not in ("N", "K", "E", "D"):
            raise ValueError(f"unknown grid key '{key}' (N, K, E, D)")
        if key in grid:
            raise ValueError(f"grid axis '{key}' is given twice")
        try:
            grid[key] = _int_list(values)
        except argparse.ArgumentTypeError:
            raise ValueError(f"grid axis '{key}' takes integers, got '{values}'") from None
        if not grid[key]:
            raise ValueError(f"grid axis '{key}' has no values")
        _at_least_one(f"grid axis '{key}'", grid[key])
    return grid


def _cmd_bench(args) -> int:
    defaults = {"grid": " ".join(f"{key}={n}" for key, n in bench.SHAPE.items()), "runs": bench.RUNS,
                "batch": bench.BATCH, "seed": 0, "dtype": "float64", "data": None, "ckpt": None}
    settings, given = _settings(args, defaults)
    # a flag arrives typed, a --config value may be any JSON: the integers first, then the ranges and choices
    rules = [(key, "an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
             for key, default in defaults.items() if isinstance(default, int)]
    rules += [("batch", "at least 1", lambda v: v >= 1), ("seed", "non-negative", lambda v: v >= 0),
              ("dtype", "float32 or float64", ("float32", "float64").__contains__),
              ("grid", "a string", lambda v: isinstance(v, str))]
    rules += [(key, "a string or null", lambda v: isinstance(v, (str, type(None)))) for key in ("data", "ckpt")]
    for key, rule, holds in rules:
        if not holds(settings[key]):
            raise ValueError(f"{key} must be {rule}, got {settings[key]!r}")
    grid_text, runs, batch, seed, dtype, data, ckpt = (settings[key] for key in defaults)
    bench.check_runs(runs)
    if bool(data) != bool(ckpt):
        print("bench: --data needs --ckpt" if data else "bench: --ckpt needs --data", file=sys.stderr)
        return 2
    unused = [key for key in ("grid", "seed") if data and key in given]
    if unused:
        print(f"bench: --{unused[0]} is not used with --data", file=sys.stderr)
        return 2

    if data:
        del settings["grid"], settings["seed"]  # a corpus run times no grid shape and draws nothing
        # one case: the trained checkpoint on the corpus's first `batch` users, cycled if there are fewer
        ck, _, samples = _load_users(ckpt, data)
        if not samples:
            raise PietspError(f"{data} has no users to time")
        cases = [(ck.params.astype(dtype), [samples[i % len(samples)] for i in range(batch)])]
        labels = [f"{Path(data).name} ({min(batch, len(samples))} of {len(samples)} users)"]
    else:
        grid = {key: [n] for key, n in bench.SHAPE.items()} | _parse_grid(grid_text)
        shapes = list(itertools.product(grid["N"], grid["K"], grid["E"], grid["D"]))
        cases = [bench.shape_case(n, k, e, d, batch, seed, seed, dtype) for n, k, e, d in shapes]
        labels = [f"N={n} K={k} E={params.vocab_size} D={d}" for (n, k, _, d), (params, _) in zip(shapes, cases)]
    reports = bench.time_cases(cases, runs)
    print(bench.format_table(reports, labels))
    if args.out:
        out_dir = Path(args.out)
        _write_effective(out_dir, settings)
        (out_dir / "bench.json").write_text(
            json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    return 0


# the optional gen-synthetic flags: each sets the SyntheticSpec field of its name, which has the default
SYNTHETIC_OPTIONS = ("seed", "history_len", "basket_min", "basket_max", "pool_size", "repeat_prob")


def _cmd_gen_synthetic(args) -> int:
    options = {name: getattr(args, name) for name in SYNTHETIC_OPTIONS if getattr(args, name) is not None}
    spec = SyntheticSpec(users=args.users, vocab_size=args.vocab, pattern=args.pattern, **options)
    corpus = gen_synthetic(spec)
    save_corpus(corpus, args.out)
    print(f"wrote {len(corpus.users)} users over {corpus.vocab_size} items to {args.out}")
    return 0


def _cmd_convert(args) -> int:
    path = Path(args.input)
    fmt = args.format or ("json" if path.suffix.lower() == ".json" else "table")
    if fmt == "json":
        corpus, report, vocab_map = convert_json_dump(path)
    else:
        corpus, report, vocab_map = convert_table(
            path, args.user_col, args.set_col, args.item_col, delimiter=args.delimiter
        )
    save_corpus(corpus, args.out)
    vocab_out = args.vocab_out or str(Path(args.out).with_name("vocab.json"))
    Path(vocab_out).write_text(json.dumps(vocab_map), encoding="utf-8")
    print(
        f"converted {report.users_kept} users, vocabulary {corpus.vocab_size}"
        f" (dropped {report.users_dropped} users, {report.empty_sets_dropped} empty sets;"
        f" {report.rows_skipped} rows skipped)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pietsp", description="Temporal set prediction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and write checkpoints")
    p.add_argument("--data")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    for key, field in TRAIN_SETTINGS.items():  # each flag read by the type of its field's default
        default = getattr(TrainConfig, field)
        kind = ({int: _int_list, float: _float_list}[type(default[0])] if isinstance(default, tuple)
                else type(default))
        p.add_argument(f"--{key.replace('_', '-')}", **{"choices": VARIANTS} if field == "variant" else {"type": kind})
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a corpus split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=SPLITS)
    p.add_argument("--k", type=_int_list)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("predict", help="emit top-k item ids per user as JSON lines")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=SPLITS)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("inspect", help="print a checkpoint's header with each array's shape and L2 norm")
    p.add_argument("--ckpt", required=True)
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("bench", help="inference latency/throughput harness")
    p.add_argument("--grid")
    p.add_argument("--data", help="corpus to time (needs --ckpt); otherwise synthetic --grid shapes")
    p.add_argument("--ckpt", help="checkpoint to time (needs --data)")
    p.add_argument("--runs", type=int)
    p.add_argument("--batch", type=int,
                   help="one-user forward calls per timed run (request latency, not one engine call)")
    p.add_argument("--seed", type=int)
    p.add_argument("--dtype", choices=("float32", "float64"))
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("gen-synthetic", help="generate a synthetic corpus")
    p.add_argument("--pattern", required=True, choices=("periodic", "repeat-biased"))
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--vocab", type=int, required=True)
    p.add_argument("--out", required=True)
    for name in SYNTHETIC_OPTIONS:
        default = getattr(SyntheticSpec, name)
        p.add_argument(f"--{name.replace('_', '-')}", type=type(default), help=f"default {default}")
    p.set_defaults(func=_cmd_gen_synthetic)

    p = sub.add_parser("convert", help="convert a raw dump (CSV/TSV or JSON) to a corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("table", "json"))
    p.add_argument("--user-col", default="user")
    p.add_argument("--set-col", default="order")
    p.add_argument("--item-col", default="item")
    p.add_argument("--delimiter")
    p.add_argument("--vocab-out")
    p.set_defaults(func=_cmd_convert)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PietspError, OSError, ValueError) as exc:
        print(f"pietsp {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
