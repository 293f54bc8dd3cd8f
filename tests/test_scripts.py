"""The scripts under `scripts/` run to completion with their smallest
arguments. `make_mini_corpus.py` does not run, since its `main()` rewrites the
bundled corpus: its `build_corpus()` is checked against that file instead."""

import importlib.util
import os
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
], ids=lambda argv: argv[0])
def test_script_exits_zero(argv, tmp_path):
    out = _run_script(argv, tmp_path)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("flag", ["--trials", "--hidden", "--max-leaves"])
def test_grad_check_count_below_one_is_usage_error(flag, tmp_path):
    out = _run_script(["run_grad_check.py", "--kinds", "treernn", flag, "0"], tmp_path)
    assert out.returncode == 2, out.stderr
    assert flag in out.stderr


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
