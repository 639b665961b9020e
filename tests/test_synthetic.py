"""The synthetic generator against its scalar oracle, and its bounded draws against numpy's."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpex import corpus, gen_synthetic, save_jsonl
from kpex.cli import main

from oracles import scalar_gen_synthetic


def _extract_pool_size():
    # bench/workloads.py's extract corpus: 700 documents plus a pool of unseen ones
    lengths = np.minimum(9 + np.random.default_rng(0).geometric(1 / 60, 100), 450)
    return int(lengths.sum()) // 10 + 100


CONFIGS = [
    *[(seed, 700, 120, 0.25) for seed in (1, 2, 3)],  # the supervised benchmark workload
    *[(seed, 2300, 1200, 0.3) for seed in (1, 2, 3)],  # jlsd
    *[(seed, 700 + _extract_pool_size(), 120, 0.25) for seed in (1, 2, 3)],  # extract
    (42, 700, 120, 0.25),  # acceptance criterion 4
    (11, 2300, 1200, 0.3),  # acceptance criterion 5
    (6, 400, 20, 0.49),  # the smallest vocabulary, the most keywords
    (0, 400, 20, 0.05),  # one keyword and one continuation: one-value tail draws
]


def _content(dataset):
    docs = [(d.id, d.tokens, d.labels) for d in dataset]
    return dataset.name, docs


@pytest.mark.parametrize("config", CONFIGS)
def test_generator_matches_the_scalar_oracle(config):
    assert _content(gen_synthetic(*config)) == _content(scalar_gen_synthetic(*config))


def test_one_continuation_config_draws_from_a_one_value_range():
    rule = corpus.make_synthetic_rule(0, 20, 0.05)
    assert rule.continuations == ("mid000",)
    assert len(rule.templates["kw000"]) == 3  # two tail draws over one value


def test_generator_matches_the_oracle_across_chunk_boundaries(monkeypatch):
    monkeypatch.setattr(corpus, "_DRAW_CHUNK", 7)
    config = (3, 300, 1200, 0.3)
    assert _content(gen_synthetic(*config)) == _content(scalar_gen_synthetic(*config))


def test_synth_writes_the_oracle_corpus(tmp_path):
    got, want = tmp_path / "synth.jsonl", tmp_path / "oracle.jsonl"
    argv = ["synth", "--seed", "5", "--docs", "150", "--vocab-size", "90",
            "--keyword-fraction", "0.3", "--out", str(got)]
    assert main(argv) == 0
    save_jsonl(scalar_gen_synthetic(5, 150, 90, 0.3), want)
    assert got.read_bytes() == want.read_bytes()


_ranges = st.tuples(
    st.integers(-2**40, 2**40),
    st.one_of(
        st.just(1),  # numpy takes no word
        st.integers(2, 1000),
        st.integers(2**31, 2**31 + 1000),  # numpy rejects about half of the words here
        st.integers(2**31, 2**32),
    ),
).map(lambda low_size: (low_size[0], low_size[0] + low_size[1]))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**64 - 1),
    ranges=st.lists(_ranges, max_size=40),
    chunk=st.sampled_from([1, 2, 7, 4096]),
)
def test_bounded_draws_replay_scalar_integers(seed, ranges, chunk):
    twin = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus, "_DRAW_CHUNK", chunk)
        draw = corpus._bounded_draws(np.random.default_rng(seed))
        got = [draw(low, high) for low, high in ranges]
    assert got == [int(twin.integers(low, high)) for low, high in ranges]


def test_bounded_draws_reject_an_empty_or_over_wide_range():
    draw = corpus._bounded_draws(np.random.default_rng(0))
    for low, high in [(0, 0), (5, 3), (0, 2**32 + 1)]:
        with pytest.raises(ValueError, match="1..2"):
            draw(low, high)
    assert draw(-3, -2) == -3 and draw(0, 2**32) >= 0
