"""Benchmark harness units and the command-line surface (in-process)."""

import numpy as np
import pytest

from rdg.bench import (
    BENCH_HEADER,
    BenchRow,
    bench_scaling,
    read_bench_csv,
    scaling_ratios,
    write_bench_csv,
    write_trace_csv,
)
from rdg.cli import build_parser, main
from rdg.data import Vocab, load_corpus
from rdg.models import load_checkpoint
from rdg.trainer import read_metrics_csv


def mk_row(**kw):
    base = dict(model="treernn", mode="recursive", suite="scaling",
                shape="balanced-15", batch=1, threads=8, n_instances=10,
                instances_per_s=1000.0, mean_ms=1.0, median_ms=1.0, p95_ms=2.0)
    base.update(kw)
    return BenchRow(**base)


class TestBenchCsv:
    def test_round_trip_is_lossless(self, tmp_path):
        rows = [
            mk_row(median_ms=1.2345678901234567, instances_per_s=813.0081300813),
            mk_row(mode="iterative", shape="balanced-511", p95_ms=0.1 + 0.2),
        ]
        path = tmp_path / "b.csv"
        write_bench_csv(path, rows)
        back = read_bench_csv(path)
        assert back == rows
        assert path.read_text().splitlines()[0] == ",".join(BENCH_HEADER)

    def test_header_guard(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("model,mode\nx,y\n")
        with pytest.raises(ValueError, match="unexpected bench header"):
            read_bench_csv(path)

    def test_trace_csv_shape(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace_csv(path, [(12, 0, "(3,)", 7, "matmul"), (15, 1, "()", 2, "tanh")])
        lines = path.read_text().splitlines()
        assert lines[0] == "timestamp_us,worker_id,key,node_id,op_kind"
        assert len(lines) == 3
        assert lines[1].startswith("12,0,")


class TestBenchSuites:
    def test_scaling_suite_rows_and_ratio(self):
        rows = bench_scaling(d=4, sizes=(7, 15), threads=2, warmup=1, runs=3)
        assert len(rows) == 4  # two modes x two sizes
        assert {r.shape for r in rows} == {"balanced-7", "balanced-15"}
        assert {r.mode for r in rows} == {"recursive", "iterative"}
        ratios = scaling_ratios(rows)
        assert set(ratios) == {"recursive", "iterative"}
        for v in ratios.values():
            assert v > 0

    def test_scaling_ratio_math(self):
        rows = [
            mk_row(shape="balanced-15", median_ms=2.0),
            mk_row(shape="balanced-511", median_ms=10.0),
            mk_row(mode="iterative", shape="balanced-15", median_ms=2.0),
            mk_row(mode="iterative", shape="balanced-511", median_ms=40.0),
        ]
        r = scaling_ratios(rows)
        assert r["recursive"] == pytest.approx(5.0)
        assert r["iterative"] == pytest.approx(20.0)


class TestArgumentDefaults:
    def test_batch_defaults_to_25(self):
        args = build_parser().parse_args(["train", "--data", "x.txt"])
        assert args.batch == 25
        assert args.lr == 0.05
        assert args.epochs == 10

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 2

    def test_train_requires_data(self):
        with pytest.raises(SystemExit) as e:
            main(["train"])
        assert e.value.code == 2

    @pytest.mark.parametrize("cmd", [
        ["train", "--data", "x.txt"], ["infer", "--ckpt", "c.json", "--data", "x.txt"],
    ])
    def test_threads_below_one_is_usage_error(self, cmd):
        with pytest.raises(SystemExit) as e:
            main(cmd + ["--threads", "0"])
        assert e.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "x.txt", "--hidden", "0"],
        ["train", "--data", "x.txt", "--batch", "0"],
        ["train", "--data", "x.txt", "--epochs", "-1"],
        ["train", "--data", "x.txt", "--batch", "two"],
        ["bench", "--suite", "scaling", "--out", "b.csv", "--runs", "0"],
        ["bench", "--suite", "scaling", "--out", "b.csv", "--warmup", "-1"],
        ["bench", "--suite", "scaling", "--out", "b.csv", "--hidden", "0"],
        ["train", "--data", "x.txt", "--capacity", "-1"],
        ["bench", "--suite", "balancedness", "--out", "b.csv", "--leaves", "6"],
        ["bench", "--suite", "balancedness", "--out", "b.csv", "--leaves", "0"],
        ["gendata", "--shape", "linear", "--out", "c.txt", "--leaves", "4", "--count", "0"],
        ["gendata", "--shape", "linear", "--out", "c.txt", "--count", "1", "--leaves", "0"],
        ["gendata", "--shape", "linear", "--out", "c.txt", "--leaves", "4", "--count", "1",
         "--vocab", "0"],
        ["gendata", "--shape", "linear", "--out", "c.txt", "--leaves", "4", "--count", "1",
         "--classes", "0"],
    ], ids=lambda argv: "/".join(argv[-2:]))
    def test_count_out_of_range_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert argv[-2] in capsys.readouterr().err


class TestGendata:
    def test_writes_expected_corpus(self, tmp_path, capsys):
        out = tmp_path / "c.txt"
        rc = main(["gendata", "--shape", "balanced", "--leaves", "8",
                   "--count", "100", "--out", str(out)])
        assert rc == 0
        assert "wrote 100 instance(s)" in capsys.readouterr().out
        corpus = load_corpus(out, Vocab(), grow=True)
        assert len(corpus) == 100
        assert all(t.n_nodes == 15 for t in corpus)

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert main(["gendata", "--shape", "moderate", "--leaves", "5",
                         "--count", "30", "--seed", "4", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_leaf_count_is_usage_error(self, tmp_path, capsys):
        rc = main(["gendata", "--shape", "balanced", "--leaves", "6",
                   "--count", "1", "--out", str(tmp_path / "c.txt")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small corpus trained for one epoch; returns (corpus, ckpt, metrics) paths."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.txt"
    ckpt = root / "model.json"
    metrics = root / "metrics.csv"
    assert main(["gendata", "--shape", "moderate", "--leaves", "4",
                 "--count", "12", "--out", str(corpus)]) == 0
    rc = main(["train", "--data", str(corpus), "--hidden", "4", "--epochs", "1",
               "--batch", "6", "--out", str(ckpt), "--metrics", str(metrics)])
    assert rc == 0
    return corpus, ckpt, metrics


class TestTrainCommand:
    def test_outputs_exist_and_parse(self, trained, capsys):
        corpus, ckpt, metrics = trained
        cfg, params, vocab = load_checkpoint(ckpt)
        assert cfg.kind == "treernn" and cfg.d == 4
        assert set(params) >= {"E", "W", "b", "Ws", "bs"}
        assert vocab is not None
        rows = read_metrics_csv(metrics)
        assert len(rows) == 1 and rows[0].epoch == 0
        assert np.isfinite(rows[0].loss_mean)

    def test_missing_corpus_file_fails_cleanly(self, tmp_path):
        rc = main(["train", "--data", str(tmp_path / "nope.txt")])
        assert rc == 1

    def test_empty_val_corpus_fails_before_training(self, trained, tmp_path, caplog):
        corpus, _, _ = trained
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        metrics = tmp_path / "metrics.csv"
        rc = main(["train", "--data", str(corpus), "--val", str(empty), "--hidden", "4",
                   "--epochs", "1", "--metrics", str(metrics)])
        assert rc == 1
        assert f"corpus {empty} is empty" in caplog.text
        assert not metrics.exists()  # rejected before any epoch ran

    def test_val_label_missing_from_training_corpus_trains(self, tmp_path):
        # the class count covers the validation corpus's labels too
        data, val = tmp_path / "train.txt", tmp_path / "val.txt"
        data.write_text("(0 (0 a) (0 b))\n(1 (1 a) (1 b))\n")
        val.write_text("(2 (2 a) (2 b))\n")
        metrics = tmp_path / "metrics.csv"
        rc = main(["train", "--data", str(data), "--val", str(val), "--hidden", "4",
                   "--epochs", "1", "--metrics", str(metrics)])
        assert rc == 0
        assert len(read_metrics_csv(metrics)) == 1

    def test_capacity_below_largest_instance_fails_before_training(self, tmp_path, caplog):
        data = tmp_path / "train.txt"
        data.write_text("(1 (0 a) (1 b))\n")
        metrics = tmp_path / "metrics.csv"
        rc = main(["train", "--data", str(data), "--mode", "iterative", "--capacity", "2",
                   "--hidden", "4", "--epochs", "1", "--metrics", str(metrics)])
        assert rc == 1
        assert "instance has 3 nodes, built capacity is 2" in caplog.text
        assert "Traceback" not in caplog.text
        assert not metrics.exists()


class TestInferCommand:
    def test_predictions_and_summary(self, trained, capsys):
        corpus, ckpt, _ = trained
        rc = main(["infer", "--ckpt", str(ckpt), "--data", str(corpus)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        pred_lines = [l for l in out if l.split("\t")[0].isdigit()]
        assert len(pred_lines) == 12
        assert all("predicted=" in l and "label=" in l for l in pred_lines)
        summary = out[-1]
        assert summary.startswith("accuracy ")
        acc = float(summary.split()[1])
        assert 0.0 <= acc <= 1.0

    def test_thread_count_does_not_change_output(self, trained, capsys):
        corpus, ckpt, _ = trained
        outs = []
        for t in ("1", "8"):
            assert main(["infer", "--ckpt", str(ckpt), "--data", str(corpus),
                         "--threads", t]) == 0
            lines = capsys.readouterr().out.splitlines()
            outs.append([l for l in lines if "predicted=" in l])
        assert outs[0] == outs[1]

    def test_iterative_mode_matches_recursive(self, trained, capsys):
        corpus, ckpt, _ = trained
        outs = []
        for mode in ("recursive", "iterative"):
            assert main(["infer", "--ckpt", str(ckpt), "--data", str(corpus),
                         "--mode", mode]) == 0
            lines = capsys.readouterr().out.splitlines()
            outs.append([l for l in lines if "predicted=" in l])
        assert outs[0] == outs[1]

    def test_corrupt_checkpoint_fails_cleanly(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "something-else"}')
        rc = main(["infer", "--ckpt", str(bad), "--data", str(bad)])
        assert rc == 1

    def test_missing_checkpoint_fails_cleanly(self, tmp_path):
        rc = main(["infer", "--ckpt", str(tmp_path / "no.json"),
                   "--data", str(tmp_path / "no.txt")])
        assert rc == 1


class TestBenchCommand:
    def test_scaling_suite_prints_ratio_per_mode(self, tmp_path, capsys):
        out = tmp_path / "scaling.csv"
        rc = main(["bench", "--suite", "scaling", "--hidden", "4", "--runs", "1", "--warmup", "0",
                   "--mode", "recursive", "--mode", "iterative", "--out", str(out)])
        assert rc == 0
        ratios = scaling_ratios(read_bench_csv(out))
        printed = capsys.readouterr().out.splitlines()
        assert printed[-2:] == [
            f"T(max)/T(min) for {mode}: {ratios[mode]:.2f}x" for mode in ("iterative", "recursive")
        ]

    def test_trace_env_writes_trace(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RDG_TRACE", "1")
        out = tmp_path / "report.csv"
        rc = main(["bench", "--suite", "balancedness", "--leaves", "4", "--hidden", "4",
                   "--runs", "1", "--warmup", "0", "--out", str(out)])
        assert rc == 0
        assert len(read_bench_csv(out)) == 9  # three shapes x batches 1/10/25
        trace = tmp_path / "report.trace.csv"
        lines = trace.read_text().splitlines()
        assert lines[0] == "timestamp_us,worker_id,key,node_id,op_kind"
        assert len(lines) > 15  # a 15-node tree touches more nodes than that
