"""The scripts under `scripts/` run to completion with their smallest
arguments. `make_mini_corpus.py` is left out: it rewrites the bundled corpus."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rdg

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("argv", [
    ["run_grad_check.py", "--kinds", "treernn", "--trials", "1", "--max-leaves", "4"],
    ["train_parity.py", "--train-count", "40", "--val-count", "10", "--leaves", "4",
     "--hidden", "4", "--max-epochs", "1", "--batch", "10", "--target", "0"],
    ["profile_step.py", "--leaves", "4", "--batch", "2", "--top", "3"],
], ids=lambda argv: argv[0])
def test_script_exits_zero(argv, tmp_path):
    src = os.path.dirname(os.path.dirname(rdg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
