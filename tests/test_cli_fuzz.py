"""The CLI's exit contract under arbitrary file bytes: 0 or 2, never 1 and never a traceback."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignsmooth.cli import main
from alignsmooth.data import toy_paths

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)

# Pieces that reach further than uniform bytes: words, numbers, separators,
# a BOM, bytes that are not UTF-8, and characters that str.splitlines()
# would take for line breaks.
FRAGMENTS = [
    b"a", b"x", b"<NULL>", b"#", b"0", b"1", b"2", b"0.5", b"1e400", b"nan",
    b"-1", b"S", b"P", b" ", b"\t", b"\n", b"\r", b"\r\n", b"\x0c", b"\x00",
    "\x85".encode(), "\u2028".encode(), "\ufeff".encode(), b"\xff", b"\xc3",
]
# Whole lines, so that some files are valid throughout: annotation records,
# model entries and defaults over the toy vocabulary, comments and corpus lines.
LINES = [
    b"1 1 1 S\n", b"2 0 3 P\r\n", b"1 2 2 S\r", b"# note\n", b"\n",
    b"baum\ttree\t0.5\n", b"baum\t\t0.25\n", b"hat\thas\t1.0\n", b"der klein\n",
]
file_bytes = (st.binary(max_size=200)
              | st.lists(st.sampled_from(FRAGMENTS), max_size=60).map(b"".join)
              | st.lists(st.sampled_from(LINES), max_size=8).map(b"".join))


def run(args) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI call; an uncaught exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(args)
    return code, err.getvalue()


def check(args):
    code, err = run(args)
    assert code in (0, 2), err


@pytest.fixture(scope="module")
def toy_model(tmp_path_factory):
    src, tgt, _ = toy_paths()
    model = str(tmp_path_factory.mktemp("toy") / "model.tsv")
    assert run(["train", "-s", src, "-t", tgt, "--iters", "1", "-o", model])[0] == 0
    return model


@SETTINGS
@given(file_bytes)
def test_train_on_any_corpus_bytes(tmp_path_factory, data):
    work = tmp_path_factory.mktemp("train")
    corpus = work / "corpus.txt"
    corpus.write_bytes(data)
    check(["train", "-s", str(corpus), "-t", str(corpus), "--iters", "1",
           "-o", str(work / "model.tsv")])


@SETTINGS
@given(data=file_bytes)
def test_eval_on_any_annotation_bytes(tmp_path_factory, toy_model, data):
    src, tgt, _ = toy_paths()
    annotation = tmp_path_factory.mktemp("eval") / "gold.txt"
    annotation.write_bytes(data)
    check(["eval", "-s", src, "-t", tgt, "-m", toy_model, "-a", str(annotation)])


@SETTINGS
@given(data=file_bytes)
def test_align_on_any_model_bytes(tmp_path_factory, data):
    src, tgt, _ = toy_paths()
    work = tmp_path_factory.mktemp("align")
    model = work / "model.tsv"
    model.write_bytes(data)
    check(["align", "-s", src, "-t", tgt, "-m", str(model), "-o", str(work / "out.txt")])
