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
import typing
from pathlib import Path

from .corpus import gen_synthetic, load_jsonl, save_jsonl, write_atomic
from .errors import ConfigError, DataError, NumericError
from .jlsd import (
    JlsdConfig,
    jlsd_train,
    train_simple_joint,
    train_simple_pretrain,
    train_supervised,
)
from .metrics import evaluate, extract, rank_phrases
from .model import load_checkpoint, save_checkpoint

_TRAINERS = {
    "train": train_supervised,
    "jlsd": jlsd_train,
    "pretrain": train_simple_pretrain,
    "joint": train_simple_joint,
}
TRAIN_MODES = tuple(_TRAINERS)
ALL_MODES = TRAIN_MODES + ("eval", "extract", "rank", "synth")

# JlsdConfig field -> the types its value may have (``X | None`` unpacked); the first one
# parses the field's flag
_CONFIG_TYPES = {
    name: typing.get_args(t) or (t,) for name, t in typing.get_type_hints(JlsdConfig).items()
}

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

_PATH_HELP = {
    "train": "labeled training JSONL",
    "dev": "labeled development JSONL",
    "test": "JSONL to evaluate or decode",
    "unlabeled": "unlabeled JSONL (jlsd mode)",
    "source": "labeled source JSONL (pretrain/joint modes)",
    "ckpt": "checkpoint path to load",
    "out": "output directory (training) or file",
}


def _parser() -> argparse.ArgumentParser:
    """Each subcommand registers only the flags it reads."""
    parser = argparse.ArgumentParser(prog="kpex", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="mode")
    for mode in ALL_MODES:
        p = sub.add_parser(mode, allow_abbrev=False)
        for name in _REQUIRED[mode] + (("out",) if mode == "eval" else ()):
            p.add_argument(f"--{name}", help=_PATH_HELP[name])
        if mode in TRAIN_MODES:
            p.add_argument("--config", help="JSON config file; flags override it")
            for name, types in _CONFIG_TYPES.items():
                p.add_argument(f"--{name.lower().replace('_', '-')}", dest=name, type=types[0])
        if mode == "eval":
            p.add_argument("--k", type=int, help="also report F1 of the top-k ranked phrases")
        if mode == "synth":
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--docs", type=int, default=100)
            p.add_argument("--vocab-size", type=int, default=120)
            p.add_argument("--keyword-fraction", type=float, default=0.25)
    return parser


def load_config(path: str | None, flags: dict) -> JlsdConfig:
    """Resolve a JlsdConfig from defaults, then config file, then flags."""
    values: dict = {}
    if path:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found (or not a file): {path}")
        try:
            raw = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: invalid JSON ({exc.msg})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path}: not a JSON object ({type(raw).__name__})")
        unknown = set(raw) - _CONFIG_TYPES.keys()
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for name, value in raw.items():
            types = _CONFIG_TYPES[name]
            # a bool is no number, an int is also a float, and null fits only X | None
            if type(value) not in types and not (type(value) is int and float in types):
                want = " or ".join("null" if t is type(None) else t.__name__ for t in types)
                raise ConfigError(f"config key {name} must be {want}, not {json.dumps(value)}")
        values.update(raw)
    for name in _CONFIG_TYPES:
        if flags.get(name) is not None:
            values[name] = flags[name]
    return JlsdConfig(**values)


def _require(args: dict, mode: str) -> None:
    for name in _REQUIRED[mode]:
        if not args.get(name):
            raise ConfigError(f"missing required flag --{name} for mode {mode}")


def _provenance(outdir: Path, mode: str, args: dict, config: JlsdConfig) -> None:
    resolved = {
        "mode": mode,
        "paths": {k: args[k] for k in _REQUIRED[mode] if k != "out"},
        "config": dataclasses.asdict(config),
    }
    text = json.dumps(resolved, indent=2, sort_keys=True) + "\n"
    write_atomic(outdir / "config.json", text.encode("utf-8"))


def _training_run(mode: str, args: dict, config: JlsdConfig) -> int:
    outdir = Path(args["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    lock = outdir / ".lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        try:
            holder = lock.read_text(encoding="utf-8", errors="replace").strip()
        except OSError:  # released meanwhile
            holder = ""
        raise ConfigError(
            f"output directory {outdir} is locked by another run (pid {holder or 'unknown'})"
        ) from None
    os.write(fd, f"{os.getpid()}\n".encode("ascii"))
    os.close(fd)
    try:
        _provenance(outdir, mode, args, config)
        names = _REQUIRED[mode][:-1]  # the trainer's datasets in argument order
        datasets = [load_jsonl(args[n], expect_labels=n != "unlabeled") for n in names]
        model, report = _TRAINERS[mode](*datasets, config)
        ckpt = outdir / "model.ckpt"
        save_checkpoint(model, ckpt)
        report.checkpoint_path = str(ckpt)
        write_atomic(outdir / "events.jsonl", report.to_jsonl().encode("utf-8"))
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


def _eval_run(args: dict) -> int:
    k = args["k"]
    if k is not None and k < 1:
        raise ConfigError(f"--k must be >= 1, got {k}")
    model = load_checkpoint(args["ckpt"])
    test = load_jsonl(args["test"], expect_labels=True)
    out = ""
    for name, rep in evaluate(model, test, k).items():
        scores = {"precision": rep.precision, "recall": rep.recall, "f1": rep.f1}
        out += json.dumps({"metric": name, **scores, "n_docs": len(test)}) + "\n"
    sys.stdout.write(out)
    if args["out"]:
        write_atomic(args["out"], out.encode("utf-8"))
    return 0


def _decode_run(mode: str, args: dict) -> int:
    model = load_checkpoint(args["ckpt"])
    test = load_jsonl(args["test"], expect_labels=False)
    lines = []
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
        lines.append(json.dumps(rec, ensure_ascii=False) + "\n")
    write_atomic(args["out"], "".join(lines).encode("utf-8"))
    print(json.dumps({"mode": mode, "n_docs": len(test), "out": args["out"]}))
    return 0


def _synth_run(args: dict) -> int:
    dataset = gen_synthetic(
        seed=args["seed"],
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
