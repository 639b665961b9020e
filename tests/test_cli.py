import json
import os
import struct

import pytest

import kpex.cli
from kpex import DataError, NumericError, gen_synthetic, save_jsonl, split_dataset
from kpex.cli import main


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
    ],
    ids=["float-for-int", "bool-for-int", "string-for-int", "null-for-int", "int-for-float",
         "null-for-optional"],
)
def test_config_values_must_have_their_field_type(data_dir, tmp_path, capsys, entry, accepted):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T": 0, "embed_dim": 4, "hidden_dim": 4, **entry}))
    out = tmp_path / "run"
    rc = main([
        "train", "--train", str(data_dir / "train.jsonl"),
        "--dev", str(data_dir / "dev.jsonl"), "--out", str(out), "--config", str(cfg),
    ])
    [(name, value)] = entry.items()
    if accepted:
        assert rc == 0
        assert json.loads((out / "config.json").read_text())["config"][name] == value
    else:
        assert rc == 2
        assert f"config key {name} must be int" in capsys.readouterr().err
        assert not (out / "config.json").exists()


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


TRAIN_PATHS = ["--dev", "{data}/dev.jsonl", "--out", "{tmp}/run"]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["eval", "--ckpt", "{tmp}/missing.ckpt", "--test", "{data}/dev.jsonl"],
         3, "cannot read checkpoint"),
        (["train", "--train", "{tmp}/latin1.jsonl", *TRAIN_PATHS],
         3, "line 2 is not valid UTF-8"),
        (["train", "--train", "{data}/train.jsonl", *TRAIN_PATHS, "--config", "{tmp}/five.json"],
         2, "not a JSON object"),
    ],
    ids=["missing-checkpoint", "non-utf8-jsonl", "config-not-object"],
)
def test_unreadable_input_exits_with_its_error_class(
    data_dir, tmp_path, capsys, argv, code, message
):
    (tmp_path / "latin1.jsonl").write_bytes(
        b'{"id":"a","tokens":["x"],"labels":["O"]}\n'
        b'{"id":"b","tokens":["caf\xe9"],"labels":["O"]}\n'
    )
    (tmp_path / "five.json").write_text("5")
    rc = main([arg.format(tmp=tmp_path, data=data_dir) for arg in argv])
    assert rc == code
    assert message in capsys.readouterr().err


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


def test_locked_output_directory_is_rejected(data_dir, tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    (out / ".lock").write_text("12345\n")
    rc = main([
        "train", "--train", str(data_dir / "train.jsonl"),
        "--dev", str(data_dir / "dev.jsonl"), "--out", str(out),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "locked" in err and "pid 12345" in err


def test_lock_records_the_pid_of_the_run_holding_it(data_dir, tmp_path, monkeypatch):
    out = tmp_path / "run"
    seen = []

    def stop(*args, **kwargs):
        seen.append((out / ".lock").read_text())
        raise DataError("stopped")

    monkeypatch.setitem(kpex.cli._TRAINERS, "train", stop)
    rc = main([
        "train", "--train", str(data_dir / "train.jsonl"),
        "--dev", str(data_dir / "dev.jsonl"), "--out", str(out),
    ])
    assert rc == 3
    assert seen == [f"{os.getpid()}\n"]
    assert not (out / ".lock").exists()


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
    decoded = []

    def fail_on_second(model, doc):
        decoded.append(doc.id)
        if len(decoded) == 2:
            raise NumericError("non-finite emissions")
        return frozenset(), []

    monkeypatch.setattr(kpex.cli, "extract", fail_on_second)
    rc = main([
        "extract", "--ckpt", str(ckpt),
        "--test", str(data_dir / "unlabeled.jsonl"), "--out", str(out),
    ])
    assert rc == 4
    assert len(decoded) == 2
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
