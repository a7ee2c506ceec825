"""Replay docs/reproduction.md: its python blocks, then every esdkit command.

Each command runs in-process through cli.main, in a scratch directory
holding what the python blocks wrote, and is held to the `#` lines under
it; the doc's "Install and test" section states their grammar.
"""

import os
import re
import shlex
import shutil
import sys
import warnings
from pathlib import Path

import pytest

from esdkit import cli

DOC = Path(__file__).resolve().parents[1] / "docs" / "reproduction.md"

# How the doc may launch esdkit: the words before "esdkit", and whether
# warnings are errors.
LAUNCHERS = {(): False, ("python3", "-m"): False, ("python3", "-W", "error", "-m"): True}


def parse(text: str) -> tuple[list[str], list[tuple[str, list[str]]]]:
    """The python heredoc bodies and the (command, expectation lines) pairs,
    both in doc order, from the indented code lines."""
    blocks, commands = [], []
    lines = iter(line[4:] for line in text.splitlines() if line.startswith("    "))
    after_command = False
    for line in lines:
        if line == "python3 - <<'EOF'":
            body = []
            for body_line in lines:
                if body_line == "EOF":
                    break
                body.append(body_line)
            blocks.append("\n".join(body) + "\n")
            after_command = False
        elif line.startswith("#"):
            assert after_command, f"expectation under no command: {line}"
            commands[-1][1].append(line)
        else:
            after_command = "esdkit" in shlex.split(line, comments=True)
            if after_command:
                commands.append((line, []))
    return blocks, commands


BLOCKS, COMMANDS = parse(DOC.read_text())


def matches(fragment: str, text: str) -> bool:
    """fragment occurs in text; "..." is any run of characters, and any run
    of whitespace matches any other."""
    pieces = [r"\s+".join(map(re.escape, piece.split())) for piece in fragment.split("...")]
    return re.search(".*?".join(pieces), text, re.DOTALL) is not None


def data_rows(path: Path) -> int:
    """Rows after the header, '#' comment lines not counted."""
    return sum(not line.startswith("#") for line in path.read_text().splitlines()[1:])


# Only the master's |gg><gg| mode has a trace, and its growth factor is
# exactly 1: every documented trajectory keeps trace_err within the rounding
# of the diagonal's sum (measured 2.2e-16).
TRACE_ERR_TOL = 4 * sys.float_info.epsilon


def max_trace_err(path: Path) -> float:
    """The largest cell of an evolve CSV's trace_err column."""
    header, *rows = path.read_text().splitlines()
    col = header.split(",").index("trace_err")
    return max(float(row.split(",")[col]) for row in rows)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    """A directory holding what the doc's python blocks write."""
    where = tmp_path_factory.mktemp("inputs")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(where)
        for block in BLOCKS:
            exec(compile(block, str(DOC), "exec"), {})
    return where


def test_every_command_line_is_replayed():
    text = DOC.read_text()
    launched = re.findall(r"^ *((?:python3 [^#\n]*-m )?esdkit [a-z].*)$", text, re.MULTILINE)
    assert launched and sorted(launched) == sorted(line for line, _ in COMMANDS)
    assert BLOCKS


@pytest.mark.parametrize("line, expectations", COMMANDS,
                         ids=[shlex.join(shlex.split(line, comments=True)) for line, _ in COMMANDS])
def test_documented_command(line, expectations, inputs, tmp_path, monkeypatch, capsys):
    words = shlex.split(line, comments=True)
    at = words.index("esdkit")
    assert tuple(words[:at]) in LAUNCHERS, f"cannot run: {line}"
    shutil.copytree(inputs, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    before = set(os.listdir())
    with warnings.catch_warnings():
        if LAUNCHERS[tuple(words[:at])]:
            warnings.simplefilter("error")
        code = cli.main(words[at + 1:])
    out, err = capsys.readouterr()
    written = set(os.listdir()) - before

    want_code = 0
    for expectation in expectations:
        # two or more spaces start the commentary
        body = re.split(r"\s{2,}", expectation[1:].strip(), maxsplit=1)[0]
        if exit_code := re.match(r"exit code (\d+)\b", body):
            want_code = int(exit_code[1])
            continue
        where, _, fragment = body.partition(": ")
        if where in ("stdout", "stderr"):
            text = out if where == "stdout" else err
        else:
            assert where in written, f"{line} wrote no {where}: {expectation}"
            text = (tmp_path / where).read_text()
        assert matches(fragment, text), f"{where} lacks {fragment!r}:\n{text[-2000:]}"
    assert code == want_code, err
    assert code == 0 or not written, f"exit {code} left {sorted(written)}"
    for name, rows in re.findall(r"wrote (\S+) \((\d+) (?:rows|checks)", out):
        assert data_rows(tmp_path / name) == int(rows), name
        if words[at + 1] == "evolve":
            assert max_trace_err(tmp_path / name) <= TRACE_ERR_TOL, name
