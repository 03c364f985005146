"""The README's library quickstart runs as written, on the bundled toy corpus."""

import contextlib
import io
import pathlib
import re

import pytest

from alignsmooth.data import toy_paths

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quickstart_blocks():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_quickstart_has_two_blocks():
    assert len(quickstart_blocks()) == 2


@pytest.mark.parametrize("index", [0, 1], ids=["train-and-tune", "experiment"])
def test_quickstart_block_runs(index):
    code = quickstart_blocks()[index]
    for name, path in zip(("corpus.de", "corpus.en", "gold.txt"), toy_paths()):
        assert f'"{name}"' in code
        code = code.replace(f'"{name}"', repr(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, f"README.md quickstart block {index + 1}", "exec"), {})
    assert out.getvalue()
