import fcntl
import gc
import json
import os
import re
import struct
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kpex.cli
from kpex import (
    ConfigError,
    DataError,
    Dataset,
    JlsdConfig,
    NumericError,
    build_vocab,
    gen_synthetic,
    load_jsonl,
    save_checkpoint,
    save_jsonl,
    split_dataset,
)
from kpex.cli import main
from kpex.corpus import parse_json
from kpex.encoder import EncoderDims
from kpex.model import Model


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    ds = gen_synthetic(9, 220, vocab_size=60, keyword_fraction=0.25)
    train, dev, unlabeled = split_dataset(ds, [120, 40, 60])
    save_jsonl(train, root / "train.jsonl")
    save_jsonl(dev, root / "dev.jsonl")
    save_jsonl([d.doc for d in unlabeled], root / "unlabeled.jsonl")
    return root


TRAIN_FLAGS = [
    "--batch-size", "8", "--t", "150", "--eval-every", "50",
    "--embed-dim", "16", "--hidden-dim", "16",
    "--lr-lower", "1e-2", "--lr-upper", "1e-2",
]


def test_synth_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["synth", "--seed", "7", "--docs", "100", "--out", str(a)]) == 0
    assert main(["synth", "--seed", "7", "--docs", "100", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(capsys.readouterr().out.splitlines()[0])["n_docs"] == 100


def test_train_then_eval_reaches_high_f1(data_dir, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main([
        "train", "--train", str(data_dir / "train.jsonl"),
        "--dev", str(data_dir / "dev.jsonl"), "--out", str(out), "--seed", "1",
        *TRAIN_FLAGS,
    ])
    assert rc == 0
    assert (out / "model.ckpt").exists()
    assert (out / "config.json").exists()
    assert (out / "events.jsonl").exists()
    assert not (out / ".lock").exists()
    capsys.readouterr()

    rc = main([
        "eval", "--ckpt", str(out / "model.ckpt"),
        "--test", str(data_dir / "train.jsonl"), "--k", "5",
    ])
    assert rc == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    by_metric = {l["metric"]: l for l in lines}
    assert set(by_metric) == {"f1", "f1_macro", "f1@5"}
    assert by_metric["f1"]["f1"] >= 0.95
    assert by_metric["f1"]["n_docs"] == 120


def test_jlsd_requires_unlabeled_flag(data_dir, tmp_path, capsys):
    rc = main([
        "jlsd", "--train", str(data_dir / "train.jsonl"),
        "--dev", str(data_dir / "dev.jsonl"), "--out", str(tmp_path / "x"),
    ])
    assert rc == 2
    assert "--unlabeled" in capsys.readouterr().err


def test_jlsd_run_writes_swap_events(data_dir, tmp_path):
    out = tmp_path / "run"
    rc = main([
        "jlsd", "--train", str(data_dir / "train.jsonl"),
        "--dev", str(data_dir / "dev.jsonl"),
        "--unlabeled", str(data_dir / "unlabeled.jsonl"),
        "--out", str(out), "--seed", "2", "--teacher-t", "100",
        *TRAIN_FLAGS,
    ])
    assert rc == 0
    events = [json.loads(l) for l in (out / "events.jsonl").read_text().splitlines()]
    kinds = {e["event"] for e in events}
    assert {"eval", "iteration", "final"} <= kinds
    assert any(e.get("phase") == "pretraining" for e in events)


@pytest.mark.parametrize(
    "mode, inputs",
    [
        ("train", []),
        ("jlsd", ["--unlabeled", "unlabeled.jsonl", "--teacher-t", "10"]),
        ("pretrain", ["--source", "dev.jsonl", "--source-t", "10"]),
        ("joint", ["--source", "dev.jsonl"]),
    ],
)
def test_a_run_writes_the_same_bytes_into_any_output_directory(data_dir, tmp_path, mode, inputs):
    written = []
    for out in (tmp_path / "a", tmp_path / "elsewhere" / "b"):
        rc = main([
            mode, "--train", str(data_dir / "train.jsonl"), "--dev", str(data_dir / "dev.jsonl"),
            *[str(data_dir / arg) if arg.endswith(".jsonl") else arg for arg in inputs],
            "--out", str(out), "--seed", "3", "--t", "20", "--eval-every", "10",
            "--embed-dim", "8", "--hidden-dim", "8",
        ])
        assert rc == 0
        written.append([(out / name).read_bytes() for name in ("model.ckpt", "events.jsonl")])
    assert written[0] == written[1]


def test_flags_override_config_file(data_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"batch_size": 4, "T": 30, "eval_every": 15,
                               "embed_dim": 8, "hidden_dim": 8}))
    out = tmp_path / "run"
    rc = main([
        "train", "--train", str(data_dir / "train.jsonl"),
        "--dev", str(data_dir / "dev.jsonl"), "--out", str(out),
        "--config", str(cfg), "--batch-size", "6",
    ])
    assert rc == 0
    resolved = json.loads((out / "config.json").read_text())
    assert resolved["config"]["batch_size"] == 6  # flag wins
    assert resolved["config"]["T"] == 30  # file beats default
    assert resolved["mode"] == "train"


def test_unknown_config_key_is_rejected(data_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"batch_syze": 4}))
    rc = main([
        "train", "--train", str(data_dir / "train.jsonl"),
        "--dev", str(data_dir / "dev.jsonl"), "--out", str(tmp_path / "x"),
        "--config", str(cfg),
    ])
    assert rc == 2
    assert "batch_syze" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, accepted",
    [
        ({"T": 1.5}, False),
        ({"T": True}, False),
        ({"T": "8"}, False),
        ({"T": None}, False),
        ({"r": 1}, True),
        ({"teacher_T": None}, True),
        ({"batch_size": 2.0}, False),
        ({"eval_every": 2.5}, False),
        ({"seed": 1.5}, False),
        ({"r": "1"}, False),
    ],
    ids=["float-for-int", "bool-for-int", "string-for-int", "null-for-int", "int-for-float",
         "null-for-optional", "float-for-batch-size", "float-for-eval-every", "float-for-seed",
         "string-for-float"],
)
def test_config_values_must_have_their_field_type(data_dir, tmp_path, capsys, entry, accepted):
    fields = {"T": 0, "embed_dim": 4, "hidden_dim": 4, **entry}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))
    out = tmp_path / "run"
    rc = main([
        "train", "--train", str(data_dir / "train.jsonl"),
        "--dev", str(data_dir / "dev.jsonl"), "--out", str(out), "--config", str(cfg),
    ])
    [(name, value)] = entry.items()
    if accepted:
        assert rc == 0
        assert json.loads((out / "config.json").read_text())["config"][name] == value
        JlsdConfig(**fields)
    else:
        # the library's JlsdConfig raises the error that the config file gets
        message = f"config key {name} must be {'float' if name == 'r' else 'int'}, not "
        message += json.dumps(value)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (out / "config.json").exists()
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            JlsdConfig(**fields)


_POOL = "source_pool_size must be in [0, 1048576]"
_DIMS = "embed_dim and hidden_dim must be in [1, 1024]"


@pytest.mark.parametrize(
    "mode, flags, config_text, message",
    [
        ("train", ["--seed", "-1"], None, "seed must be >= 0"),
        ("jlsd", ["--seed", "-1"], None, "seed must be >= 0"),
        ("pretrain", ["--seed", "-1"], None, "seed must be >= 0"),
        ("joint", ["--seed", "-1"], None, "seed must be >= 0"),
        ("train", [], '{"seed": -3}', "seed must be >= 0"),
        ("jlsd", ["--r", "inf"], None, "r must be finite"),
        ("jlsd", [], '{"r": Infinity}', "r must be finite"),
        ("jlsd", ["--lr-upper", "inf"], None, "lr_upper must be finite"),
        ("train", ["--lr-lower", "inf"], None, "lr_lower must be finite"),
        ("jlsd", ["--r", "1e300"], None, "r * batch_size must be <= 4096"),
        ("jlsd", ["--r", "1e308"], None, "r * batch_size must be <= 4096"),  # r * 8 is inf
        ("jlsd", ["--r", "513"], None, "r * batch_size must be <= 4096"),
        ("train", ["--batch-size", "1" + "0" * 30], None, "batch_size must be in [1, 4096]"),
        ("train", ["--batch-size", "4097"], None, "batch_size must be in [1, 4096]"),
        # an int past float range: r * batch_size must not overflow before the bound
        ("train", [], '{"batch_size": 1%s}' % ("0" * 400), "batch_size must be in [1, 4096]"),
        ("jlsd", [], '{"r": 1%s}' % ("0" * 400), "r * batch_size must be <= 4096"),
        # a huge pool overflowed rng.choice; a huge dimension tried to allocate TiBs
        ("joint", ["--t", "2", "--source-pool-size", "1" + "0" * 30], None, _POOL),
        ("joint", ["--source-pool-size", str(2**20 + 1)], None, _POOL),
        ("joint", [], '{"source_pool_size": 1000000000}', _POOL),
        ("train", ["--hidden-dim", "1000000000"], None, _DIMS),
        ("train", ["--embed-dim", "1000000000000"], None, _DIMS),
        ("jlsd", ["--hidden-dim", "1025"], None, _DIMS),
        ("pretrain", [], '{"embed_dim": 1025}', _DIMS),
        ("train", [], '{"hidden_dim": 1%s}' % ("0" * 400), _DIMS),
        # a flag of the wrong type gets the message that a config file's value gets
        ("train", ["--t", "1.5"], None, "config key T must be int, not 1.5"),
        ("jlsd", ["--seed", "2e3"], None, "config key seed must be int, not 2000.0"),
        ("train", ["--r", "one"], None, 'config key r must be float, not "one"'),
    ],
    ids=["seed-train", "seed-jlsd", "seed-pretrain", "seed-joint", "seed-config", "r-flag",
         "r-config", "lr-upper", "lr-lower", "r-huge", "r-product-inf", "r-above-cap",
         "batch-huge", "batch-above-cap", "batch-config-past-float", "r-config-past-float",
         "pool-huge", "pool-above-cap", "pool-config", "hidden-huge", "embed-huge",
         "hidden-above-cap", "embed-config", "hidden-config-past-float", "float-t-flag",
         "float-seed-flag", "string-r-flag"],
)
def test_out_of_bounds_config_values_are_config_errors(
    data_dir, tmp_path, capsys, mode, flags, config_text, message
):
    data = {
        "train": data_dir / "train.jsonl", "dev": data_dir / "dev.jsonl",
        "unlabeled": data_dir / "unlabeled.jsonl", "source": data_dir / "train.jsonl",
    }
    out = tmp_path / "run"
    argv = [mode, "--out", str(out), *flags]
    for name in kpex.cli._REQUIRED[mode][:-1]:
        argv += [f"--{name}", str(data[name])]
    if config_text is not None:
        (tmp_path / "cfg.json").write_text(config_text)
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: config: {message}" in err and "Traceback" not in err
    assert not out.exists()


def test_a_negative_synth_seed_is_a_data_error(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    assert main(["synth", "--seed", "-1", "--docs", "5", "--out", str(out)]) == 3
    assert "error: data: seed must be >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, field", [("--docs", "n_docs"), ("--vocab-size", "vocab_size")])
def test_a_huge_synth_size_is_a_data_error(flag, field, tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    assert main(["synth", flag, str(2**64), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"error: data: {field} must be in [" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", ["eval", "extract", "rank", "synth"])
def test_training_flags_are_rejected_outside_training_modes(mode, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([mode, "--ckpt", "m.ckpt", "--test", "d.jsonl", "--out", str(tmp_path / "o"),
              "--t", "5"])
    assert exc.value.code == 2
    assert "--t" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--ckpt", "m.ckpt", "--test", "d.jsonl", "--seed", "5"],
        ["extract", "--ckpt", "m.ckpt", "--test", "d.jsonl", "--out", "o.jsonl", "--seed", "5"],
        ["rank", "--ckpt", "m.ckpt", "--test", "d.jsonl", "--out", "o.jsonl", "--seed", "5"],
        ["train", "--train", "t.jsonl", "--dev", "d.jsonl", "--out", "o", "--k", "5"],
        ["eval", "--ckpt", "m.ckpt", "--test", "d.jsonl", "--unlabeled", "u.jsonl"],
    ],
    ids=["seed-eval", "seed-extract", "seed-rank", "k-train", "unlabeled-eval"],
)
def test_flags_a_mode_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


def test_help_lists_every_mode_and_an_unknown_mode_fails(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    listed = capsys.readouterr().out
    assert all(mode in listed for mode in kpex.cli.ALL_MODES)
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--out", "o"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["train", "jlsd", "eval", "synth"])
def test_a_mode_help_lists_its_own_flags(mode, capsys):
    with pytest.raises(SystemExit) as exc:
        main([mode, "--help"])
    assert exc.value.code == 0
    flags = {"train": "--teacher-t", "jlsd": "--unlabeled", "eval": "--k", "synth": "--docs"}
    assert flags[mode] in capsys.readouterr().out


def test_eval_cutoff_below_one_is_a_config_error(tmp_path, capsys):
    rc = main(["eval", "--ckpt", str(tmp_path / "m.ckpt"), "--test", "d.jsonl", "--k", "0"])
    assert rc == 2
    assert "--k" in capsys.readouterr().err


def _train_tiny(data_dir, out):
    main([
        "train", "--train", str(data_dir / "train.jsonl"),
        "--dev", str(data_dir / "dev.jsonl"), "--out", str(out), "--t", "0",
        "--embed-dim", "4", "--hidden-dim", "4",
    ])
    return out / "model.ckpt"


def test_checkpoint_with_shapes_not_matching_dims_is_a_data_error(data_dir, tmp_path, capsys):
    ckpt = _train_tiny(data_dir, tmp_path / "run")
    blob = ckpt.read_bytes()
    (head_len,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12 : 12 + head_len])
    header["tensors"]["proj.W"]["shape"].reverse()  # [3, 8] -> [8, 3], same length
    head = json.dumps(header).encode("utf-8")
    ckpt.write_bytes(blob[:8] + struct.pack("<I", len(head)) + head + blob[12 + head_len :])
    rc = main(["eval", "--ckpt", str(ckpt), "--test", str(data_dir / "dev.jsonl")])
    assert rc == 3
    assert "proj.W" in capsys.readouterr().err


def test_truncated_checkpoint_is_a_data_error(data_dir, tmp_path, capsys):
    ckpt = _train_tiny(data_dir, tmp_path / "run")
    ckpt.write_bytes(ckpt.read_bytes()[:-8])
    rc = main(["eval", "--ckpt", str(ckpt), "--test", str(data_dir / "dev.jsonl")])
    assert rc == 3
    assert "error: data" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["extract", "eval"])
@pytest.mark.parametrize("embed_dim, hidden_dim", [(2, 0), (0, 2)])
def test_a_checkpoint_without_a_dimension_is_a_data_error(
    data_dir, tmp_path, capsys, mode, embed_dim, hidden_dim
):
    vocab = build_vocab(load_jsonl(data_dir / "train.jsonl", expect_labels=True))
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(Model(EncoderDims(len(vocab), embed_dim, hidden_dim), vocab), ckpt)
    argv = [mode, "--ckpt", str(ckpt), "--test", str(data_dir / "dev.jsonl")]
    rc = main(argv + (["--out", str(tmp_path / "out.jsonl")] if mode == "extract" else []))
    assert rc == 3
    assert "embed_dim and hidden_dim" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


TRAIN_PATHS = ["--dev", "{data}/dev.jsonl", "--out", "{tmp}/run"]
# reading /proc/self/mem at offset 0 fails with EIO: a file that opens but cannot be read
NEEDS_PROC_MEM = pytest.mark.skipif(
    not os.path.isfile("/proc/self/mem"), reason="no /proc/self/mem on this platform"
)


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["eval", "--ckpt", "{tmp}/missing.ckpt", "--test", "{data}/dev.jsonl"],
         3, "cannot read checkpoint"),
        (["train", "--train", "{tmp}/latin1.jsonl", *TRAIN_PATHS],
         3, "line 2 is not valid UTF-8"),
        (["train", "--train", "{data}/train.jsonl", *TRAIN_PATHS, "--config", "{tmp}/five.json"],
         2, "not a JSON object"),
        (["train", "--train", "{data}/train.jsonl", *TRAIN_PATHS, "--config", "{tmp}/utf16.json"],
         2, "not valid UTF-8"),
        (["train", "--train", "{tmp}/nested.jsonl", *TRAIN_PATHS],
         3, "line 2: invalid JSON (nested too deeply)"),
        (["train", "--train", "{data}/train.jsonl", *TRAIN_PATHS, "--config", "{tmp}/nested.json"],
         2, "invalid JSON (nested too deeply)"),
        (["extract", "--ckpt", "{tmp}/nested.ckpt", "--test", "{data}/dev.jsonl",
          "--out", "{tmp}/out.jsonl"], 3, "nested.ckpt header: invalid JSON (nested too deeply)"),
        (["train", "--train", "{tmp}/disagree.jsonl", *TRAIN_PATHS],
         3, "'labels' and 'keyphrases' at line 2 disagree"),
        (["train", "--train", "{tmp}/huge-int.jsonl", *TRAIN_PATHS],
         3, "line 2: invalid JSON (Exceeds the limit"),
        (["train", "--train", "{data}/train.jsonl", *TRAIN_PATHS,
          "--config", "{tmp}/huge-int.json"], 2, "invalid JSON (Exceeds the limit"),
        pytest.param(["train", "--train", "/proc/self/mem", *TRAIN_PATHS],
                     3, "cannot read /proc/self/mem", marks=NEEDS_PROC_MEM),
        pytest.param(["train", "--train", "{data}/train.jsonl", *TRAIN_PATHS,
                      "--config", "/proc/self/mem"],
                     2, "cannot read config file /proc/self/mem", marks=NEEDS_PROC_MEM),
        (["train", "--train", "{tmp}/surrogate-token.jsonl", *TRAIN_PATHS],
         3, "line 2: invalid JSON (lone surrogate escape)"),
        (["extract", "--ckpt", "{ckpt}", "--test", "{tmp}/surrogate-id.jsonl",
          "--out", "{tmp}/out.jsonl"], 3, "line 1: invalid JSON (lone surrogate escape)"),
        (["rank", "--ckpt", "{ckpt}", "--test", "{tmp}/surrogate-id.jsonl",
          "--out", "{tmp}/out.jsonl"], 3, "line 1: invalid JSON (lone surrogate escape)"),
        (["train", "--train", "{data}/train.jsonl", *TRAIN_PATHS,
          "--config", "{tmp}/surrogate.json"], 2, "invalid JSON (lone surrogate escape)"),
    ],
    ids=["missing-checkpoint", "non-utf8-jsonl", "config-not-object", "non-utf8-config",
         "nested-jsonl", "nested-config", "nested-checkpoint-header", "disagreeing-jsonl",
         "huge-int-jsonl", "huge-int-config", "read-error-jsonl", "read-error-config",
         "surrogate-token-train", "surrogate-id-extract", "surrogate-id-rank",
         "surrogate-key-config"],
)
def test_unreadable_input_exits_with_its_error_class(
    data_dir, tiny_ckpt, tmp_path, capsys, argv, code, message
):
    (tmp_path / "latin1.jsonl").write_bytes(
        b'{"id":"a","tokens":["x"],"labels":["O"]}\n'
        b'{"id":"b","tokens":["caf\xe9"],"labels":["O"]}\n'
    )
    (tmp_path / "five.json").write_text("5")
    (tmp_path / "utf16.json").write_bytes(b"\xff\xfe" + '{"T": 5}'.encode("utf-16-le"))
    nested = b"[" * 10**5  # deeper than json's recursion limit: a RecursionError, not a decode error
    (tmp_path / "nested.jsonl").write_bytes(b'{"id":"a","tokens":["x"],"labels":["O"]}\n' + nested)
    (tmp_path / "nested.json").write_bytes(nested)
    (tmp_path / "nested.ckpt").write_bytes(b"KFCKPT01" + struct.pack("<I", len(nested)) + nested)
    huge = "1" * 5000  # past Python's int-string limit: a ValueError, not a decode error
    (tmp_path / "huge-int.jsonl").write_text(
        '{"id":"a","tokens":["x"],"labels":["O"]}\n' f'{{"id":{huge},"tokens":["x"]}}\n'
    )
    (tmp_path / "huge-int.json").write_text(f'{{"T": {huge}}}')
    (tmp_path / "disagree.jsonl").write_text(
        '{"id":"a","tokens":["x"],"labels":["O"]}\n'
        '{"id":"b","tokens":["x","y","z"],"labels":["O","O","O"],"keyphrases":[["x","y"]]}\n'
    )
    # a JSON escape of a lone surrogate: json.loads takes it, no UTF-8 writer can write it
    (tmp_path / "surrogate-token.jsonl").write_text(
        '{"id":"a","tokens":["x"],"labels":["O"]}\n'
        '{"id":"b","tokens":["\\ud800x"],"labels":["O"]}\n'
    )
    (tmp_path / "surrogate-id.jsonl").write_text('{"id":"\\ud800","tokens":["x"]}\n')
    (tmp_path / "surrogate.json").write_text('{"T": 5, "\\udc80": 1}')
    rc = main([arg.format(tmp=tmp_path, data=data_dir, ckpt=tiny_ckpt) for arg in argv])
    assert rc == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


def test_missing_dataset_file_is_a_data_error(tmp_path, capsys):
    rc = main([
        "train", "--train", str(tmp_path / "nope.jsonl"),
        "--dev", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "x"),
    ])
    assert rc == 3
    assert "error: data" in capsys.readouterr().err


def test_a_directory_given_as_a_dataset_is_a_data_error(data_dir, tmp_path, capsys):
    (tmp_path / "train.jsonl").mkdir()
    rc = main([
        "train", "--train", str(tmp_path / "train.jsonl"),
        "--dev", str(data_dir / "dev.jsonl"), "--out", str(tmp_path / "run"),
    ])
    assert rc == 3
    assert "not a file" in capsys.readouterr().err


def test_a_directory_given_as_an_output_file_is_a_config_error(data_dir, tmp_path, capsys):
    ckpt = _train_tiny(data_dir, tmp_path / "run")
    out = tmp_path / "phrases.jsonl"
    out.mkdir()
    rc = main([
        "extract", "--ckpt", str(ckpt),
        "--test", str(data_dir / "unlabeled.jsonl"), "--out", str(out),
    ])
    assert rc == 2
    assert "is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["phrases.jsonl", "run"]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["extract", "--ckpt", "{ckpt}", "--test", "{data}/unlabeled.jsonl", "--out", "{out}"],
        ["rank", "--ckpt", "{ckpt}", "--test", "{data}/unlabeled.jsonl", "--out", "{out}"],
        ["eval", "--ckpt", "{ckpt}", "--test", "{data}/dev.jsonl", "--out", "{out}"],
        ["synth", "--docs", "5", "--out", "{out}"],
    ],
    ids=["extract", "rank", "eval", "synth"],
)
def test_an_output_file_in_a_missing_directory_is_a_config_error(
    data_dir, tiny_ckpt, tmp_path, capsys, argv
):
    out = tmp_path / "nodir" / "x.jsonl"
    rc = main([arg.format(ckpt=tiny_ckpt, data=data_dir, out=out) for arg in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: config" in err and str(out) in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_a_file_given_as_the_training_output_directory_is_a_config_error(
    data_dir, tmp_path, capsys
):
    out = tmp_path / "run"
    out.write_text("keep me\n")
    rc = main([
        "train", "--train", str(data_dir / "train.jsonl"),
        "--dev", str(data_dir / "dev.jsonl"), "--out", str(out),
    ])
    assert rc == 2
    assert "cannot make output directory" in capsys.readouterr().err
    assert out.read_text() == "keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]


DEAD_PID = 2**22 + 1  # above Linux's PID_MAX_LIMIT, so no process has it


def _train_until_the_trainer(data_dir, out, monkeypatch):
    """Run ``train`` on ``out`` with a trainer that records the lock and stops."""
    seen = []

    def stop(*args, **kwargs):
        seen.append((out / ".lock").read_text())
        raise DataError("stopped")

    monkeypatch.setitem(kpex.cli._TRAINERS, "train", stop)
    rc = main([
        "train", "--train", str(data_dir / "train.jsonl"),
        "--dev", str(data_dir / "dev.jsonl"), "--out", str(out),
    ])
    return rc, seen


def _hold(lock, text):
    """Take ``lock`` as a running holder would, on a descriptor of this process."""
    fd = os.open(lock, os.O_CREAT | os.O_RDWR)
    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    os.write(fd, text.encode("utf-8"))
    return fd


def test_locked_output_directory_is_rejected(data_dir, tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    out.mkdir()
    fd = _hold(out / ".lock", f"{os.getpid()}\n")
    try:
        rc, seen = _train_until_the_trainer(data_dir, out, monkeypatch)
        assert rc == 2 and seen == []
        err = capsys.readouterr().err
        assert "locked by another run" in err and f"pid {os.getpid()}" in err
        assert (out / ".lock").read_text() == f"{os.getpid()}\n"
        assert sorted(p.name for p in out.iterdir()) == [".lock"]
    finally:
        os.close(fd)  # what the kernel does when a holder dies
    rc, seen = _train_until_the_trainer(data_dir, out, monkeypatch)
    assert rc == 3  # the stub trainer's DataError: the run got past the lock
    assert seen == [f"{os.getpid()}\n"]
    assert not (out / ".lock").exists()


def test_a_lock_left_by_a_dead_run_is_taken_over(data_dir, tmp_path, monkeypatch):
    out = tmp_path / "run"
    out.mkdir()
    (out / ".lock").write_text(f"{DEAD_PID}\n")
    rc, seen = _train_until_the_trainer(data_dir, out, monkeypatch)
    assert rc == 3  # the stub trainer's DataError: the run got past the lock
    assert seen == [f"{os.getpid()}\n"]
    assert not (out / ".lock").exists()


@pytest.mark.parametrize(
    "holder",
    ["0", "-1", "", "12ab", "\u0663", "99999999999999999999", f"{os.getpid()}", f"{DEAD_PID}"],
    ids=["zero", "minus-one", "empty", "unparsable", "non-ascii-digit", "overflow", "live-pid",
         "dead-pid"],
)
def test_an_unheld_lock_is_taken_over(data_dir, tmp_path, monkeypatch, holder):
    out = tmp_path / "run"
    out.mkdir()
    (out / ".lock").write_text(f"{holder}\n")
    signalled = []
    monkeypatch.setattr(os, "kill", lambda pid, sig: signalled.append(pid))
    rc, seen = _train_until_the_trainer(data_dir, out, monkeypatch)
    assert rc == 3
    assert seen == [f"{os.getpid()}\n"]
    assert not (out / ".lock").exists()
    assert signalled == []


@pytest.mark.parametrize("losses", [1, 2])
def test_a_lock_unlinked_by_its_finishing_holder_is_reopened(
    data_dir, tmp_path, monkeypatch, capsys, losses
):
    out = tmp_path / "run"
    lock = out / ".lock"
    calls = []
    flock = fcntl.flock

    def finish_first(fd, op):  # the holder unlinks the file between our open and our flock
        calls.append(fd)
        if len(calls) <= losses:
            lock.unlink()
        return flock(fd, op)

    monkeypatch.setattr(fcntl, "flock", finish_first)
    rc, seen = _train_until_the_trainer(data_dir, out, monkeypatch)
    assert len(calls) == 2
    if losses == 1:
        assert rc == 3 and seen == [f"{os.getpid()}\n"]  # a fresh file was locked
        assert not lock.exists()
    else:
        assert rc == 2 and seen == []
        assert "locked by another run" in capsys.readouterr().err
        assert list(out.iterdir()) == []


def test_a_directory_in_place_of_the_lock_is_a_config_error(data_dir, tmp_path, monkeypatch,
                                                           capsys):
    out = tmp_path / "run"
    (out / ".lock").mkdir(parents=True)
    rc, seen = _train_until_the_trainer(data_dir, out, monkeypatch)
    assert rc == 2 and seen == []
    assert "cannot open lock file" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == [".lock"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("exit_path", ["success", "trainer-error", "held-lock"])
def test_the_lock_descriptor_is_closed_on_every_exit(data_dir, tmp_path, monkeypatch,
                                                     exit_path):
    out = tmp_path / "run"
    out.mkdir()
    held = _hold(out / ".lock", "1\n") if exit_path == "held-lock" else None
    before = len(os.listdir("/proc/self/fd"))
    if exit_path == "success":
        rc = main([
            "train", "--train", str(data_dir / "train.jsonl"), "--dev", str(data_dir / "dev.jsonl"),
            "--out", str(out), "--t", "0", "--embed-dim", "4", "--hidden-dim", "4",
        ])
    else:
        rc, _ = _train_until_the_trainer(data_dir, out, monkeypatch)
    assert len(os.listdir("/proc/self/fd")) == before
    if held is not None:
        os.close(held)
    assert rc == {"success": 0, "trainer-error": 3, "held-lock": 2}[exit_path]


def test_lock_records_the_pid_of_the_run_holding_it(data_dir, tmp_path, monkeypatch):
    out = tmp_path / "run"
    rc, seen = _train_until_the_trainer(data_dir, out, monkeypatch)
    assert rc == 3
    assert seen == [f"{os.getpid()}\n"]
    assert not (out / ".lock").exists()


def test_an_interrupted_rerun_exits_130_and_leaves_no_earlier_outputs(
    data_dir, tmp_path, monkeypatch, capsys
):
    out = tmp_path / "run"
    _train_tiny(data_dir, out)
    assert (out / "model.ckpt").exists() and (out / "events.jsonl").exists()
    capsys.readouterr()

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setitem(kpex.cli._TRAINERS, "train", interrupted)
    rc = main([
        "train", "--train", str(data_dir / "train.jsonl"),
        "--dev", str(data_dir / "dev.jsonl"), "--out", str(out), "--seed", "2",
    ])
    err = capsys.readouterr().err
    assert rc == 130
    assert "error: interrupted" in err and "Traceback" not in err
    assert sorted(p.name for p in out.iterdir()) == ["config.json"]
    assert json.loads((out / "config.json").read_text())["config"]["seed"] == 2


def test_a_directory_in_place_of_an_earlier_checkpoint_is_a_config_error(
    data_dir, tmp_path, monkeypatch, capsys
):
    out = tmp_path / "run"
    (out / "model.ckpt").mkdir(parents=True)
    rc, seen = _train_until_the_trainer(data_dir, out, monkeypatch)
    assert (rc, seen) == (2, [])
    assert "cannot remove" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["model.ckpt"]


def test_non_finite_checkpoint_is_a_data_error(data_dir, tmp_path, capsys):
    ckpt = _train_tiny(data_dir, tmp_path / "run")
    ckpt.write_bytes(ckpt.read_bytes()[:-8] + struct.pack("<d", float("nan")))
    rc = main(["eval", "--ckpt", str(ckpt), "--test", str(data_dir / "dev.jsonl")])
    assert rc == 3
    assert "non-finite" in capsys.readouterr().err


def test_extract_and_rank_write_jsonl(data_dir, tmp_path, capsys):
    out = tmp_path / "run"
    main([
        "train", "--train", str(data_dir / "train.jsonl"),
        "--dev", str(data_dir / "dev.jsonl"), "--out", str(out), "--seed", "1",
        *TRAIN_FLAGS,
    ])
    extracted = tmp_path / "phrases.jsonl"
    rc = main([
        "extract", "--ckpt", str(out / "model.ckpt"),
        "--test", str(data_dir / "unlabeled.jsonl"), "--out", str(extracted),
    ])
    assert rc == 0
    recs = [json.loads(l) for l in extracted.read_text().splitlines()]
    assert len(recs) == 60 and all("phrases" in r for r in recs)

    ranked = tmp_path / "ranked.jsonl"
    rc = main([
        "rank", "--ckpt", str(out / "model.ckpt"),
        "--test", str(data_dir / "unlabeled.jsonl"), "--out", str(ranked),
    ])
    assert rc == 0
    recs = [json.loads(l) for l in ranked.read_text().splitlines()]
    assert len(recs) == 60
    for r in recs:
        confs = [p["confidence"] for p in r["ranked"]]
        assert confs == sorted(confs, reverse=True)


def test_failed_extract_keeps_the_previous_output(data_dir, tmp_path, monkeypatch):
    ckpt = _train_tiny(data_dir, tmp_path / "run")
    out = tmp_path / "phrases.jsonl"
    out.write_bytes(b"previous output\n")
    batches = []
    forward = kpex.metrics.encode_forward

    def fail_on_second(params, token_ids, layout, **kwargs):
        assert kwargs == {"for_backward": False}
        batches.append(len(layout.lengths))
        if len(batches) == 2:
            raise NumericError("non-finite emissions")
        return forward(params, token_ids, layout, **kwargs)

    monkeypatch.setattr(kpex.metrics, "encode_forward", fail_on_second)
    monkeypatch.setattr(kpex.metrics, "PASS_BYTES", 2**19)  # the 60 documents make two passes
    rc = main([
        "extract", "--ckpt", str(ckpt),
        "--test", str(data_dir / "unlabeled.jsonl"), "--out", str(out),
    ])
    assert rc == 4
    assert len(batches) == 2
    assert out.read_bytes() == b"previous output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["phrases.jsonl", "run"]


def test_input_datasets_are_never_mutated(data_dir, tmp_path):
    before = (data_dir / "train.jsonl").read_bytes()
    out = tmp_path / "run"
    main([
        "train", "--train", str(data_dir / "train.jsonl"),
        "--dev", str(data_dir / "dev.jsonl"), "--out", str(out), "--seed", "3",
        "--t", "20", "--eval-every", "10", "--embed-dim", "8", "--hidden-dim", "8",
    ])
    assert (data_dir / "train.jsonl").read_bytes() == before


def test_one_forward_call_serves_several_extract_documents(data_dir, tmp_path, monkeypatch):
    ckpt = _train_tiny(data_dir, tmp_path / "run")
    batches = []
    forward = kpex.metrics.encode_forward

    def counting(params, token_ids, layout, **kwargs):
        assert kwargs == {"for_backward": False}
        batches.append(len(layout.lengths))  # documents in the pass, one per column
        return forward(params, token_ids, layout, **kwargs)

    monkeypatch.setattr(kpex.metrics, "encode_forward", counting)
    rc = main([
        "extract", "--ckpt", str(ckpt),
        "--test", str(data_dir / "unlabeled.jsonl"), "--out", str(tmp_path / "phrases.jsonl"),
    ])
    assert rc == 0
    assert sum(batches) == 60 and max(batches) > 1


def test_repeated_in_process_extracts_hold_no_memory(data_dir, tmp_path, capsys):
    """No cache outlives a run: 20 extract calls end within 64 KB of the first one's reading."""
    ckpt = _train_tiny(data_dir, tmp_path / "run")
    argv = [
        "extract", "--ckpt", str(ckpt),
        "--test", str(data_dir / "dev.jsonl"), "--out", str(tmp_path / "phrases.jsonl"),
    ]
    tracemalloc.start()
    try:
        readings = []
        for _ in range(20):
            assert main(argv) == 0
            capsys.readouterr()
            gc.collect()
            readings.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert readings[-1] - readings[0] <= 64 * 1024


@pytest.mark.parametrize("mode", ["extract", "rank"])
def test_an_empty_input_decodes_to_an_empty_file(data_dir, tmp_path, capsys, mode):
    ckpt = _train_tiny(data_dir, tmp_path / "run")
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    out = tmp_path / "out.jsonl"
    rc = main([mode, "--ckpt", str(ckpt), "--test", str(empty), "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == b""
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["n_docs"] == 0


_VALID_JSONL = (
    '{"id": "a", "tokens": ["kw001", "w002", "mid003"], "labels": ["B", "I", "O"]}\n'
    '{"id": "b", "tokens": ["Deep", "learning", "wins"], "keyphrases": [["deep", "learning"]]}\n'
    '{"id": 7, "tokens": ["café", "w002"], "labels": ["O", "B"], "keyphrases": [["w002"]]}\n'
).encode("utf-8")


def _mutate(data: bytes, mutations) -> bytes:
    """Apply (kind, a, b, value) edits: cut the file at a; join its first a
    bytes to the bytes from b on (a cut, or a repeat when b < a); xor byte a
    with value."""
    for kind, a, b, value in mutations:
        a, b = a % (len(data) + 1), b % (len(data) + 1)
        if kind == "truncate":
            data = data[:a]
        elif kind == "splice":
            data = data[:a] + data[b:]
        elif data:
            i = a % len(data)
            data = data[:i] + bytes([data[i] ^ value]) + data[i + 1 :]
    return data


@pytest.fixture(scope="module")
def tiny_ckpt(data_dir, tmp_path_factory):
    return _train_tiny(data_dir, tmp_path_factory.mktemp("tiny") / "run")


@settings(
    derandomize=True, deadline=None, max_examples=200,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    mutations=st.lists(
        st.tuples(
            st.sampled_from(["truncate", "splice", "flip"]),
            st.integers(0, 2**16), st.integers(0, 2**16), st.integers(1, 255),
        ),
        min_size=1, max_size=3,
    )
)
def test_mutated_jsonl_fails_only_as_a_data_error(tiny_ckpt, tmp_path_factory, mutations):
    work = tmp_path_factory.getbasetemp() / "mutated"
    work.mkdir(exist_ok=True)
    path = work / "test.jsonl"
    path.write_bytes(_mutate(_VALID_JSONL, mutations))
    for expect_labels in (True, False):
        try:
            assert isinstance(load_jsonl(path, expect_labels=expect_labels), Dataset)
        except DataError:
            pass
    argv = ["extract", "--ckpt", str(tiny_ckpt), "--test", str(path), "--out", str(work / "out")]
    assert main(argv) in (0, 2, 3, 4)


def test_an_escaped_surrogate_pair_reads_as_its_character(tiny_ckpt, tmp_path, capsys):
    escaped, literal = tmp_path / "escaped.jsonl", tmp_path / "literal.jsonl"
    escaped.write_text('{"id": "\\ud83d\\ude00", "tokens": ["kw001", "\\ud83d\\ude00"]}\n')
    literal.write_text('{"id": "\U0001f600", "tokens": ["kw001", "\U0001f600"]}\n', "utf-8")
    (doc,) = load_jsonl(escaped, expect_labels=False)
    assert (doc.id, doc.tokens) == ("\U0001f600", ("kw001", "\U0001f600"))
    outs = []
    for path in (escaped, literal):
        out = tmp_path / f"{path.stem}.out"
        argv = ["extract", "--ckpt", str(tiny_ckpt), "--test", str(path), "--out", str(out)]
        assert main(argv) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["id"] == "\U0001f600"


# JSON values written as raw text, of the kinds that byte flips seldom build: lone surrogate
# escapes, integers past the digit limit, NaN and Infinity, nesting past the recursion limit
_TOKENS = ['"x"', '"kw001"', '"Deep"', '"<pad>"', '"\\u0000"', '"\\ud83d\\ude00"', '"\\udc80x"']
_STRINGS = [*_TOKENS, '""', '"B"', '"\\ud800"']
_ATOMS = st.sampled_from(["null", "true", "false", "0", "-3", "7", "2.5", "1e400", "NaN",
                          "Infinity", "-Infinity", "1" * 5000, "[" * 5000 + "]" * 5000, *_STRINGS])
_VALUES = st.recursive(
    _ATOMS,
    lambda inner: st.lists(inner, max_size=3).map(lambda xs: f"[{', '.join(xs)}]")
    | st.lists(st.tuples(st.sampled_from(_STRINGS), inner), max_size=3).map(
        lambda kvs: "{" + ", ".join(f"{k}: {v}" for k, v in kvs) + "}"),
    max_leaves=6,
)


def _mostly(good, other=_VALUES):
    """``good`` seven times in eight, else ``other``: an arbitrary JSON value by default."""
    return st.sampled_from([good] * 7 + [other]).flatmap(lambda s: s)


def _one_of(*texts):
    return _mostly(st.sampled_from(texts))


def _array(items, **sizes):
    return st.lists(items, **sizes).map(lambda xs: f"[{', '.join(xs)}]")


def _object(fields, optional):
    return st.fixed_dictionaries(fields, optional=optional).map(
        lambda obj: "{" + ", ".join(f'"{k}": {v}' for k, v in obj.items()) + "}")


_RECORDS = _object(
    {"id": _one_of('"a"', '"b"', "7", '"\\ud83d\\ude00"', '"\\ud800"'),
     "tokens": _mostly(_array(_one_of(*_TOKENS), min_size=1, max_size=3)),
     "keyphrases": _mostly(_array(_array(_one_of(*_TOKENS), max_size=2), max_size=2))},
    {"labels": _array(_one_of('"B"', '"I"', '"O"'), min_size=1, max_size=3)},
)
_CONFIGS = _object({}, {
    "T": _one_of("0", "3"), "r": _one_of("0.5", "2"), "batch_size": _one_of("1", "4"),
    "seed": _one_of("1", "12345678901234567890"), "min_count": _one_of("1", "2"),
})


@settings(
    derandomize=True, deadline=None, max_examples=120,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(lines=st.lists(_mostly(_RECORDS, st.sampled_from(["", "  "])), min_size=1, max_size=2),
       config=_mostly(_CONFIGS))
def test_structured_json_fails_only_with_its_error_class(
    tiny_ckpt, tmp_path_factory, lines, config
):
    work = tmp_path_factory.getbasetemp() / "structured"
    work.mkdir(exist_ok=True)
    data, config_file, out = work / "data.jsonl", work / "config.json", work / "out.jsonl"
    data.write_text("\n".join(lines) + "\n", "utf-8")
    config_file.write_text(config)
    for expect_labels in (True, False):
        try:
            assert isinstance(load_jsonl(data, expect_labels=expect_labels), Dataset)
        except DataError:
            pass
    try:
        kpex.cli.load_config(str(config_file), {})
        rejected = False
    except ConfigError:
        rejected = True
    try:
        obj = parse_json(config.encode("utf-8"), ConfigError, "config")
    except ConfigError:
        obj = None
    # an object of JlsdConfig fields: the library checks it as the config file's reader does
    # (the fuzzed objects that are no configs hold no field names)
    if isinstance(obj, dict) and obj.keys() <= kpex.jlsd.CONFIG_TYPES.keys():
        try:
            JlsdConfig(**obj)
            assert not rejected
        except ConfigError:
            assert rejected

    for mode in ("extract", "rank", "eval"):
        out.write_bytes(b"old\n")
        rc = main([mode, "--ckpt", str(tiny_ckpt), "--test", str(data), "--out", str(out)])
        assert rc in (0, 2, 3)
        if rc:
            assert out.read_bytes() == b"old\n"
        else:  # complete: eval's two metric lines, or one record per document
            records = [json.loads(line) for line in out.read_text("utf-8").splitlines()]
            ids = [d.id for d in load_jsonl(data, expect_labels=False)]
            assert [r.get("metric", r.get("id")) for r in records] == (
                ["f1", "f1_macro"] if mode == "eval" else ids)
    # at T 1 a training step runs on the fuzzed tokens, and jlsd decodes pseudo-labels of them
    for mode, extra, t in [("train", [], "0"), ("jlsd", ["--unlabeled", str(data)], "0"),
                           ("pretrain", ["--source", str(data)], "0"),
                           ("joint", ["--source", str(data)], "0"),
                           ("train", [], "1"), ("jlsd", ["--unlabeled", str(data)], "1")]:
        rc = main([mode, "--train", str(data), "--dev", str(data), *extra,
                   "--out", str(work / mode), "--config", str(config_file),
                   "--t", t, "--embed-dim", "2", "--hidden-dim", "2"])
        assert rc in (0, 2, 3)
