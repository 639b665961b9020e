"""Command-line entry point.

Subcommands: train, jlsd, pretrain, joint, eval, extract, rank, synth.
Option precedence is flags > config file > defaults; every training run
writes the resolved configuration (provenance) and the event stream next
to its outputs. Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .corpus import gen_synthetic, load_jsonl, save_jsonl
from .errors import ConfigError, DataError, NumericError
from .jlsd import (
    JlsdConfig,
    jlsd_train,
    train_simple_joint,
    train_simple_pretrain,
    train_supervised,
)
from .metrics import dataset_f1, dataset_f1_at_k, extract, rank_phrases
from .model import load_checkpoint, save_checkpoint

TRAIN_MODES = ("train", "jlsd", "pretrain", "joint")
ALL_MODES = TRAIN_MODES + ("eval", "extract", "rank", "synth")

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(JlsdConfig)}

_REQUIRED = {
    "train": ("train", "dev", "out"),
    "jlsd": ("train", "unlabeled", "dev", "out"),
    "pretrain": ("source", "train", "dev", "out"),
    "joint": ("source", "train", "dev", "out"),
    "eval": ("ckpt", "test"),
    "extract": ("ckpt", "test", "out"),
    "rank": ("ckpt", "test", "out"),
    "synth": ("out",),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kpex", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="mode")
    for mode in ALL_MODES:
        p = sub.add_parser(mode, allow_abbrev=False)
        p.add_argument("--train", help="labeled training JSONL")
        p.add_argument("--dev", help="labeled development JSONL")
        p.add_argument("--test", help="JSONL to evaluate or decode")
        p.add_argument("--unlabeled", help="unlabeled JSONL (jlsd mode)")
        p.add_argument("--source", help="labeled source JSONL (pretrain/joint modes)")
        p.add_argument("--ckpt", help="checkpoint path to load")
        p.add_argument("--out", help="output directory (training) or file")
        p.add_argument("--seed", type=int)
        p.add_argument("--k", type=int, help="ranking cutoff for eval mode")
        if mode in TRAIN_MODES:
            p.add_argument("--config", help="JSON config file; flags override it")
            for name in sorted(_CONFIG_FIELDS - {"seed"}):
                p.add_argument(
                    f"--{name.lower().replace('_', '-')}", dest=name, type=_field_parser(name)
                )
        if mode == "synth":
            p.add_argument("--docs", type=int, default=100)
            p.add_argument("--vocab-size", type=int, default=120)
            p.add_argument("--keyword-fraction", type=float, default=0.25)
    return parser


def _field_parser(name: str):
    types = {f.name: f.type for f in dataclasses.fields(JlsdConfig)}
    t = types[name]
    if "float" in str(t):
        return float
    return int


def load_config(path: str | None, flags: dict) -> JlsdConfig:
    """Resolve a JlsdConfig from defaults, then config file, then flags."""
    values: dict = {}
    if path:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: invalid JSON ({exc.msg})") from exc
        unknown = set(raw) - _CONFIG_FIELDS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(raw)
    for name in _CONFIG_FIELDS:
        if flags.get(name) is not None:
            values[name] = flags[name]
    try:
        return JlsdConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _require(args: dict, mode: str) -> None:
    for name in _REQUIRED[mode]:
        if not args.get(name):
            raise ConfigError(f"missing required flag --{name} for mode {mode}")


def _provenance(outdir: Path, mode: str, args: dict, config: JlsdConfig) -> None:
    resolved = {
        "mode": mode,
        "paths": {
            k: args.get(k)
            for k in ("train", "dev", "test", "unlabeled", "source", "ckpt")
            if args.get(k)
        },
        "config": dataclasses.asdict(config),
    }
    (outdir / "config.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _training_run(mode: str, args: dict, config: JlsdConfig) -> int:
    outdir = Path(args["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    lock = outdir / ".lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise ConfigError(f"output directory {outdir} is locked by another run") from None
    os.close(fd)
    try:
        _provenance(outdir, mode, args, config)
        train = load_jsonl(args["train"], expect_labels=True)
        dev = load_jsonl(args["dev"], expect_labels=True)
        if mode == "train":
            model, report = train_supervised(train, dev, config)
        elif mode == "jlsd":
            unlabeled = load_jsonl(args["unlabeled"], expect_labels=False)
            model, report = jlsd_train(train, unlabeled, dev, config)
        elif mode == "pretrain":
            source = load_jsonl(args["source"], expect_labels=True)
            model, report = train_simple_pretrain(source, train, dev, config)
        else:
            source = load_jsonl(args["source"], expect_labels=True)
            model, report = train_simple_joint(source, train, dev, config)
        ckpt = outdir / "model.ckpt"
        save_checkpoint(model, ckpt)
        report.checkpoint_path = str(ckpt)
        (outdir / "events.jsonl").write_text(report.to_jsonl(), encoding="utf-8")
        print(
            json.dumps(
                {
                    "mode": mode,
                    "best_dev_f1": report.best_score,
                    "best_iteration": report.best_iteration,
                    "checkpoint": str(ckpt),
                }
            )
        )
        return 0
    finally:
        lock.unlink(missing_ok=True)


def _metric_json(name: str, rep, n_docs: int) -> str:
    return json.dumps(
        {
            "metric": name,
            "precision": rep.precision,
            "recall": rep.recall,
            "f1": rep.f1,
            "n_docs": n_docs,
        }
    )


def _eval_run(args: dict) -> int:
    model = load_checkpoint(args["ckpt"])
    test = load_jsonl(args["test"], expect_labels=True)
    lines = [_metric_json("f1", dataset_f1(model, test), len(test))]
    lines.append(_metric_json("f1_macro", dataset_f1(model, test, "macro"), len(test)))
    if args.get("k"):
        k = args["k"]
        lines.append(_metric_json(f"f1@{k}", dataset_f1_at_k(model, test, k), len(test)))
    out = "\n".join(lines) + "\n"
    sys.stdout.write(out)
    if args.get("out"):
        Path(args["out"]).write_text(out, encoding="utf-8")
    return 0


def _decode_run(mode: str, args: dict) -> int:
    model = load_checkpoint(args["ckpt"])
    test = load_jsonl(args["test"], expect_labels=False)
    with Path(args["out"]).open("w", encoding="utf-8", newline="\n") as fh:
        for doc in test:
            if mode == "extract":
                phrases, _ = extract(model, doc)
                rec = {"id": doc.id, "phrases": sorted(list(p) for p in phrases)}
            else:
                ranked = rank_phrases(model, doc)
                rec = {
                    "id": doc.id,
                    "ranked": [
                        {"phrase": list(p.phrase), "span": list(p.span), "confidence": p.confidence}
                        for p in ranked
                    ],
                }
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
    print(json.dumps({"mode": mode, "n_docs": len(test), "out": args["out"]}))
    return 0


def _synth_run(args: dict) -> int:
    seed = args.get("seed") if args.get("seed") is not None else 0
    dataset = gen_synthetic(
        seed=seed,
        n_docs=args["docs"],
        vocab_size=args["vocab_size"],
        keyword_fraction=args["keyword_fraction"],
    )
    save_jsonl(dataset, args["out"])
    print(json.dumps({"mode": "synth", "n_docs": len(dataset), "out": args["out"]}))
    return 0


def run(mode: str, args: dict) -> int:
    """Dispatch one resolved invocation; raises kpex errors on failure."""
    _require(args, mode)
    if mode == "synth":
        return _synth_run(args)
    if mode == "eval":
        return _eval_run(args)
    if mode in ("extract", "rank"):
        return _decode_run(mode, args)
    config = load_config(args.get("config"), args)
    return _training_run(mode, args, config)


def main(argv=None) -> int:
    parser = _parser()
    ns = parser.parse_args(argv)
    if ns.mode is None:
        parser.print_help()
        return 2
    args = vars(ns)
    try:
        return run(ns.mode, args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
