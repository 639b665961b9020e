"""Command-line entry point.

Subcommands: train, jlsd, pretrain, joint, eval, extract, rank, synth.
Option precedence is flags > config file > defaults; every training run
writes the resolved configuration (provenance) and the event stream next
to its outputs. Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric
error, 130 interrupted.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import fcntl
import json
import os
import sys
from functools import partial
from pathlib import Path

from .corpus import gen_synthetic, load_jsonl, parse_json, save_jsonl, write_atomic
from .errors import ConfigError, DataError, NumericError
from .jlsd import (
    CONFIG_TYPES,
    JlsdConfig,
    jlsd_train,
    train_simple_joint,
    train_simple_pretrain,
    train_supervised,
)
from .metrics import decode_batches, evaluate, extract  # noqa: F401 (bench traces cli.extract)
from .model import load_checkpoint, save_checkpoint

_TRAINERS = {
    "train": train_supervised,
    "jlsd": jlsd_train,
    "pretrain": train_simple_pretrain,
    "joint": train_simple_joint,
}
TRAIN_MODES = tuple(_TRAINERS)
ALL_MODES = TRAIN_MODES + ("eval", "extract", "rank", "synth")

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


def _parser(mode: str | None) -> argparse.ArgumentParser:
    """Lists every subcommand; only ``mode``, the one invoked, registers flags: those it reads."""
    parser = argparse.ArgumentParser(prog="kpex", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="mode")
    for name in ALL_MODES:
        sub.add_parser(name, allow_abbrev=False)
    p = sub.choices.get(mode)
    if p is None:  # no subcommand, or an unknown one: parse_args reports it
        return parser
    for name in _REQUIRED[mode] + (("out",) if mode == "eval" else ()):
        p.add_argument(f"--{name}", help=_PATH_HELP[name])
    if mode in TRAIN_MODES:
        p.add_argument("--config", help="JSON config file; flags override it")
        for name, types in CONFIG_TYPES.items():
            flag = f"--{name.lower().replace('_', '-')}"
            p.add_argument(flag, dest=name, type=partial(_flag_value, types[0]))
    if mode == "eval":
        p.add_argument("--k", type=int, help="also report F1 of the top-k ranked phrases")
    if mode == "synth":
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--docs", type=int, default=100)
        p.add_argument("--vocab-size", type=int, default=120)
        p.add_argument("--keyword-fraction", type=float, default=0.25)
    return parser


def _flag_value(parse, text: str):
    """A training flag read as its field's type, else as a float, else as the text itself, so that
    JlsdConfig names a value of the wrong type as it names a config file's."""
    for convert in (parse, float, str):
        with contextlib.suppress(ValueError):
            return convert(text)


def load_config(path: str | None, flags: dict) -> JlsdConfig:
    """Resolve a JlsdConfig from defaults, then config file, then flags."""
    values: dict = {}
    if path:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found (or not a file): {path}")
        try:
            data = p.read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from None
        raw = parse_json(data, ConfigError, f"config file {path}")
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path}: not a JSON object ({type(raw).__name__})")
        unknown = set(raw) - CONFIG_TYPES.keys()
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(raw)
    for name in CONFIG_TYPES:
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


def _lock(lock: Path) -> int:
    """Take an exclusive ``flock`` on ``lock`` and return its descriptor. The kernel drops
    it when its holder exits or is killed, so any unheld ``.lock`` is taken over."""
    holder = "unknown"
    for _ in range(2):
        try:
            fd = os.open(lock, os.O_CREAT | os.O_RDWR)
        except OSError as exc:  # e.g. .lock is a directory
            raise ConfigError(f"cannot open lock file {lock}: {exc.strerror}") from None
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            holder = os.read(fd, 64).decode("utf-8", errors="replace").strip() or holder
            os.close(fd)
            break
        if os.fstat(fd).st_nlink:
            return fd
        os.close(fd)  # its holder unlinked it on finishing, after our open: reopen once
    raise ConfigError(f"output directory {lock.parent} is locked by another run (pid {holder})")


def _training_run(mode: str, args: dict, config: JlsdConfig) -> int:
    outdir = Path(args["out"])
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. the path, or one of its parents, is a file
        raise ConfigError(f"cannot make output directory {outdir}: {exc.strerror}") from None
    lock = outdir / ".lock"
    fd = _lock(lock)
    try:
        os.ftruncate(fd, 0)
        os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        for name in ("model.ckpt", "events.jsonl"):  # an earlier run's, not this config's
            try:
                (outdir / name).unlink(missing_ok=True)
            except OSError as exc:  # e.g. a directory
                raise ConfigError(f"cannot remove {outdir / name}: {exc.strerror}") from None
        _provenance(outdir, mode, args, config)
        names = _REQUIRED[mode][:-1]  # the trainer's datasets in argument order
        datasets = [load_jsonl(args[n], expect_labels=n != "unlabeled") for n in names]
        model, report = _TRAINERS[mode](*datasets, config)
        ckpt = outdir / "model.ckpt"
        save_checkpoint(model, ckpt)
        write_atomic(outdir / "events.jsonl", report.to_jsonl().encode("utf-8"))
        print(json.dumps({"mode": mode, "best_dev_f1": report.best_score,
                          "best_iteration": report.best_iteration, "checkpoint": str(ckpt)}))
        return 0
    finally:
        lock.unlink(missing_ok=True)
        os.close(fd)


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
    for doc, result in zip(test, decode_batches(model, test, rank=mode == "rank")):
        if mode == "extract":
            rec = {"id": doc.id, "phrases": sorted(list(p) for p in result[0])}
        else:
            rec = {"id": doc.id, "ranked": [dataclasses.asdict(p) for p in result]}
        lines.append(json.dumps(rec, ensure_ascii=False) + "\n")
    write_atomic(args["out"], "".join(lines).encode("utf-8"))
    print(json.dumps({"mode": mode, "n_docs": len(test), "out": args["out"]}))
    return 0


def _synth_run(args: dict) -> int:
    dataset = gen_synthetic(
        args["seed"], args["docs"], args["vocab_size"], args["keyword_fraction"]
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
    parser = _parser(next(iter(sys.argv[1:] if argv is None else argv), None))
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
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
