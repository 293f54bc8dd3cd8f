"""Tree parsing, synthesis, and statistics."""

import hashlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdg import data
from rdg.data import CorpusError, ParseError, TreeInstance, Vocab


class TestParse:
    def test_single_leaf(self):
        v = Vocab()
        t = data.parse_sexpr("(1 good)", v, grow=True)
        assert t.n_nodes == 1 and t.n_leaves == 1
        assert t.labels == (1,)
        assert t.tokens[0] == v.token_to_id["good"]
        assert t.root == 0

    def test_three_node_tree(self):
        v = Vocab()
        t = data.parse_sexpr("(0 (1 not) (1 good))", v, grow=True)
        assert t.n_nodes == 3
        assert t.labels[t.root] == 0
        # post-order indices: children precede the root in topo order
        assert list(t.topo_order) == [0, 1, 2]
        assert t.is_leaf(0) and t.is_leaf(1) and not t.is_leaf(2)
        assert (t.lefts[2], t.rights[2]) == (0, 1)

    def test_bare_token_as_second_child_rejected(self):
        with pytest.raises(ParseError):
            data.parse_sexpr("(1 (1 a) b)", Vocab(), grow=True)

    def test_malformed_parens_report_offset(self):
        with pytest.raises(ParseError) as e:
            data.parse_sexpr("(1 (1 a) (1 b)", Vocab(), grow=True)
        assert "byte" in str(e.value)

    def test_bad_label(self):
        with pytest.raises(ParseError):
            data.parse_sexpr("(x good)", Vocab(), grow=True)

    def test_unknown_token_maps_to_unk_when_frozen(self):
        v = Vocab()
        v.add("good")
        t = data.parse_sexpr("(1 strange)", v, grow=False)
        assert t.tokens[0] == v.unk_id
        assert v.size == 2  # vocabulary untouched

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            data.parse_sexpr("(1 good) extra", Vocab(), grow=True)


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 24))
    def test_serialize_parse_identity(self, seed, n_leaves):
        rng = np.random.default_rng(seed)
        t = data.generate_synthetic("moderate", n_leaves, 12, 3, rng)
        v = data.synthetic_vocab(12)
        line = data.serialize(t, v)
        t2 = data.parse_sexpr(line, v, grow=False)
        assert t2 == t

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 32))
    def test_topo_order_children_first(self, seed, n_leaves):
        rng = np.random.default_rng(seed)
        t = data.generate_synthetic("moderate", n_leaves, 8, 2, rng)
        pos = {node: i for i, node in enumerate(t.topo_order)}
        for i in range(t.n_nodes):
            if not t.is_leaf(i):
                assert pos[t.lefts[i]] < pos[i]
                assert pos[t.rights[i]] < pos[i]


class TestSynthetic:
    def test_balanced_8(self):
        t = data.generate_synthetic("balanced", 8, 10, 2, np.random.default_rng(0))
        s = data.tree_stats(t)
        assert s == {"n_nodes": 15, "n_leaves": 8, "depth": 3, "max_parallelism": 8}

    def test_linear_8(self):
        t = data.generate_synthetic("linear", 8, 10, 2, np.random.default_rng(0))
        s = data.tree_stats(t)
        assert s == {"n_nodes": 15, "n_leaves": 8, "depth": 7, "max_parallelism": 2}

    def test_single_leaf_stats(self):
        t = data.generate_synthetic("moderate", 1, 10, 2, np.random.default_rng(0))
        assert data.tree_stats(t) == {
            "n_nodes": 1,
            "n_leaves": 1,
            "depth": 0,
            "max_parallelism": 1,
        }

    def test_balanced_requires_power_of_two(self):
        with pytest.raises(ValueError):
            data.generate_synthetic("balanced", 6, 10, 2, np.random.default_rng(0))

    @pytest.mark.parametrize("vocab,classes,what", [(0, 2, "vocab_size"), (10, 0, "n_classes")])
    def test_empty_vocabulary_or_label_set_rejected(self, vocab, classes, what):
        with pytest.raises(ValueError, match=f"{what} must be >= 1"):
            data.generate_synthetic("linear", 4, vocab, classes, np.random.default_rng(0))

    def test_moderate_deterministic_per_seed(self):
        a = data.generate_synthetic("moderate", 8, 10, 2, np.random.default_rng(7))
        b = data.generate_synthetic("moderate", 8, 10, 2, np.random.default_rng(7))
        assert a == b

    def test_moderate_mean_depth_between_extremes(self):
        rng = np.random.default_rng(123)
        depths = [
            data.tree_stats(data.generate_synthetic("moderate", 8, 10, 2, rng))["depth"]
            for _ in range(1000)
        ]
        mean = sum(depths) / len(depths)
        assert 3 < mean < 7  # strictly between balanced (3) and linear (7)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 64))
    def test_node_count_arithmetic(self, seed, n_leaves):
        rng = np.random.default_rng(seed)
        t = data.generate_synthetic("moderate", n_leaves, 6, 2, rng)
        assert t.n_nodes == 2 * n_leaves - 1
        assert t.n_leaves == n_leaves
        assert t.n_nodes % 2 == 1

    def test_labels_follow_word_sum_rule(self):
        rng = np.random.default_rng(5)
        t = data.generate_synthetic("moderate", 9, 10, 2, rng)

        def word_sum(i):
            if t.is_leaf(i):
                return t.tokens[i] - 1  # id 0 is the unk; words start at 1
            return word_sum(t.lefts[i]) + word_sum(t.rights[i])

        for i in range(t.n_nodes):
            assert t.labels[i] == word_sum(i) % 2


class TestLoadCorpus:
    def test_ordered_load(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("(1 a)\n\n# comment\n(0 (1 a) (0 b))\n(1 c)\n")
        v = Vocab()
        out = data.load_corpus(p, v, grow=True)
        assert [t.n_nodes for t in out] == [1, 3, 1]

    def test_bad_line_reported_with_number(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("(1 a)\n(1 (1 a) b)\n(1 c)\n")
        with pytest.raises(CorpusError) as e:
            data.load_corpus(p, Vocab(), grow=True)
        assert "line 2" in str(e.value)

    def test_frozen_vocab_reload_is_stable(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("(1 aa)\n(0 (1 bb) (0 aa))\n")
        v = Vocab()
        first = data.load_corpus(p, v, grow=True)
        again = data.load_corpus(p, v, grow=False)
        assert first == again


class TestWriteCorpus:
    def test_write_then_load(self, tmp_path):
        insts = data.generate_dataset("balanced", 4, 5, 10, 2, seed=3)
        v = data.synthetic_vocab(10)
        p = tmp_path / "out.txt"
        data.write_corpus(p, insts, v)
        loaded = data.load_corpus(p, v, grow=False)
        assert loaded == insts

    def test_deep_linear_tree_round_trips_at_default_recursion_limit(self, tmp_path):
        # Generation, writing and parsing are iterative, so their depth is
        # not bounded by the interpreter's recursion limit (1000 by default).
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            (t,) = data.generate_dataset("linear", 4000, 1, 20, 2, seed=1)
            v = data.synthetic_vocab(20)
            p = tmp_path / "deep.txt"
            data.write_corpus(p, [t], v)
            loaded = data.load_corpus(p, v, grow=False)
        finally:
            sys.setrecursionlimit(limit)
        assert t.n_leaves == 4000 and data.tree_stats(t)["depth"] == 3999
        assert loaded == [t]

    @pytest.mark.parametrize("shape, leaves, digest", [
        ("balanced", 16, "ddc1cfb76033fbb04832421a7d2fa6856d6b0bf5dc39549556bee4efeac934fb"),
        ("moderate", 23, "61045924a8c8c8f29f07c579e20c5ee3f54c6a1315687df394f208773a5cc03e"),
        ("linear", 23, "7c64a01af8b62d0ac877adb8f6321be2a3fe2c4ca05b2923175b08d261a66f7b"),
    ])
    def test_generated_corpus_text_is_pinned(self, shape, leaves, digest):
        # The benchmark writes its corpora with these functions: the same
        # seed must keep giving the same rng draws in the same order, so
        # the same text.
        v = data.synthetic_vocab(20)
        insts = data.generate_dataset(shape, leaves, 20, 20, 3, seed=11)
        text = "".join(data.serialize(t, v) + "\n" for t in insts)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
