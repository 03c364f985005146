"""`tune -o` on the toy corpus against recorded files, byte for byte.

Every λ the search evaluates is one line of the file, so a change in any
retrain or objective value fails here.  The files under ``golden/`` were
written by ``alignsmooth tune`` with the flags below, one per strategy
and objective, before EM shared work between retrains.
"""

import pathlib

import pytest

from alignsmooth.cli import main
from alignsmooth.data import toy_paths
from alignsmooth.objectives import OBJECTIVE_NAMES
from alignsmooth.smoothing import STRATEGY_NAMES

GOLDEN = pathlib.Path(__file__).parent / "golden"
FLAGS = ["--iters", "4", "--grid", "0.0001,0.001,0.01,0.1,1,10", "--max-evals", "6"]


@pytest.mark.parametrize("objective", OBJECTIVE_NAMES)
@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_tune_output_is_byte_identical(tmp_path, strategy, objective):
    src, tgt, ann = toy_paths()
    out = tmp_path / "tune.tsv"
    args = ["tune", "-s", src, "-t", tgt, "-a", ann, "--strategy", strategy,
            "--objective", objective, *FLAGS, "-o", str(out)]
    assert main(args) == 0
    assert out.read_bytes() == (GOLDEN / f"tune.{strategy}.{objective}.tsv").read_bytes()
