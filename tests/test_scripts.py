"""The scripts under `scripts/` run to completion with their smallest
arguments. `make_mini_corpus.py` does not run, since its `main()` rewrites the
bundled corpus: its `build_corpus()` is checked against that file instead."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rdg
from rdg.data import serialize

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("argv", [
    ["run_grad_check.py", "--kinds", "treernn", "--trials", "1", "--max-leaves", "4"],
    ["train_parity.py", "--train-count", "40", "--val-count", "10", "--leaves", "4",
     "--hidden", "4", "--max-epochs", "1", "--batch", "10", "--target", "0"],
    ["profile_step.py", "--leaves", "4", "--batch", "2", "--top", "3"],
    pytest.param(
        ["profile_step.py", "--leaves", "4", "--batch", "2", "--hidden", "4", "--memory"],
        id="profile_step.py-memory",
    ),
], ids=lambda argv: argv[0])
def test_script_exits_zero(argv, tmp_path):
    out = _run_script(argv, tmp_path)
    assert out.returncode == 0, out.stderr
    if "--memory" in argv:
        assert re.search(r"d=4, 1 thread: .* peak traced memory \d+\.\d MB$", out.stdout), out.stdout


@pytest.mark.parametrize("flag", ["--trials", "--hidden", "--max-leaves"])
def test_grad_check_count_below_one_is_usage_error(flag, tmp_path):
    out = _run_script(["run_grad_check.py", "--kinds", "treernn", flag, "0"], tmp_path)
    assert out.returncode == 2, out.stderr
    assert flag in out.stderr


@pytest.mark.parametrize("script, flag, value", [
    *[("profile_step.py", f, "0") for f in ("--top", "--leaves", "--batch", "--hidden")],
    ("profile_step.py", "--top", "-1"),  # a negative count once sliced off the last rows
    *[
        ("train_parity.py", f, "0")
        for f in (
            "--train-count", "--val-count", "--leaves", "--hidden", "--vocab", "--batch",
            "--threads", "--max-epochs",
        )
    ],
])
def test_count_below_one_is_usage_error(script, flag, value, tmp_path):
    out = _run_script([script, f"{flag}={value}"], tmp_path)
    assert out.returncode == 2, out.stderr
    assert flag in out.stderr and "must be >= 1" in out.stderr


def test_result_hashes_prints_one_line_per_check(tmp_path):
    out = _run_script(["result_hashes.py"], tmp_path)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert all(re.fullmatch(r"[\w.-]+ [0-9a-f]{16}", line) for line in lines), lines
    names = [line.split()[0] for line in lines]
    grads = [
        f"{kind}.{mode}.batch{k}"
        for kind in ("treernn", "rntn", "treelstm")
        for mode in ("recursive", "iterative")
        for k in (10, 3, 1)
    ]
    assert names == [
        "train-lstm-balanced", "train-lstm-balanced.step_grads",
        "train-rnn-linear", "train-rnn-linear.step_grads",
        "infer-reviews", "infer-lstm-wide", *grads, "treelstm.d8.trace",
    ]


def _run_script(argv, cwd):
    src = os.path.dirname(os.path.dirname(rdg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_mini_corpus_script_reproduces_bundled_corpus(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    path = SCRIPTS / "make_mini_corpus.py"
    spec = importlib.util.spec_from_file_location("make_mini_corpus", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    corpus, vocab = script.build_corpus()
    text = "\n".join(serialize(t, vocab) for t in corpus) + "\n"  # as its main() writes it
    bundled = Path(rdg.__file__).parent / "corpora" / "mini_reviews.txt"
    assert text == bundled.read_text(encoding="utf-8")
