"""The argv parser against argparse, which built esdkit's parser before:
the same options and exit codes on every argv drawn from the option tables,
except that a negative number argparse reads as an option is a value here."""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esdkit import cli


def argparse_parser() -> argparse.ArgumentParser:
    """One subparser per cli.COMMANDS entry, one flag per option-table
    entry, every flag defaulting to None: esdkit's parser as argparse built it."""
    parser = argparse.ArgumentParser(prog="esdkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, spec, help_text) in cli.COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(func=func, spec=spec, config=None)
        if spec:
            p.add_argument("--config")
        for name, (convert, _default, text) in spec.items():
            flag = "--" + name.replace("_", "-")
            if convert is cli._parse_bool:
                p.add_argument(flag, action=argparse.BooleanOptionalAction, help=text)
            else:
                p.add_argument(flag, type=convert, help=text)
    return parser


ARGPARSE = argparse_parser()


def outcome(parse, argv):
    """The exit code a parse ends with, or the options it resolved, by repr."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args = parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except cli._Exit as exc:
        return exc.code
    return {key: repr(value) for key, value in vars(args).items()}


# argparse reads a token as a negative number, so as a value, only in these forms.
ARGPARSE_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def argparse_misreads(value: str) -> bool:
    """A number argparse takes for an option string: -1e-3, -inf."""
    try:
        float(value)
    except ValueError:
        return False
    return value.startswith("-") and not ARGPARSE_NEGATIVE.match(value)


FLOATS = st.one_of(
    st.floats(width=64).map(repr),
    st.integers(-10**4, 10**4).map(str),
    st.sampled_from(["-1e-3", "-2e3", "-1E2", "-0.0", "-.5", ".5", "-5.", "1_0", "-nan", "x", ""]),
)
VALUES = {
    cli._float: FLOATS,
    int: st.one_of(st.integers(-10**6, 10**6).map(str),
                   st.sampled_from(["-1e3", "1e3", "-0", "x", " 7"])),
    str: st.sampled_from(["out.csv", "-x", "-a b", "--a b", "x=y", "-", "", " -1", "-1e3",
                          "=", "-h"]),
    cli._parse_gammas: st.sampled_from(["0.5,0.1", "2", "abc", "-0.0", "1,0.25", "-1e-300"]),
}
OTHER = ["-h", "--help", "--h", "--bogus", "--bogus=1", "-x", "-q=1", "stray", "1"]


def prefix(flag: str):
    """The flag or a prefix of it, at least "--" and one letter: unique or ambiguous."""
    return st.one_of(st.just(flag), st.integers(3, len(flag)).map(lambda k: flag[:k]))


@st.composite
def item(draw, spec):
    """One option's tokens, and the tokens argparse is held to: the same,
    but --name=value where argparse would misread a separate value."""
    kind = draw(st.sampled_from(["value"] * 12 + ["flag"] * 4 + ["missing", "other"]) if spec
                else st.just("other"))
    if kind == "other":
        token = draw(st.sampled_from(OTHER))
        return [token], [token]
    bools = [name for name, (convert, _d, _t) in spec.items() if convert is cli._parse_bool]
    if kind == "flag" and bools:
        name = draw(st.sampled_from(bools))
        flag = draw(prefix(draw(st.sampled_from(["--", "--no-"])) + name.replace("_", "-")))
        token = flag + draw(st.sampled_from(["", "", "=yes", "="]))
        return [token], [token]
    names = [name for name in spec if name not in bools] + ["config"]
    name = draw(st.sampled_from(names))
    flag = draw(prefix("--" + name.replace("_", "-")))
    if kind == "missing":
        return [flag], [flag]
    convert = spec[name][0] if name in spec else str
    value = draw(VALUES[getattr(convert, "convert", convert)])  # a Domain's own converter
    joined = [f"{flag}={value}"]
    if draw(st.booleans()):
        return joined, joined
    return [flag, value], joined if argparse_misreads(value) else [flag, value]


@st.composite
def argv_pairs(draw):
    """argv, and the argv argparse must resolve the same way."""
    top = draw(st.lists(st.sampled_from(["-h", "--help", "--he", "--foo", "-x", "--foo=1"]),
                        max_size=2) if draw(st.integers(0, 5)) == 0 else st.just([]))
    command = draw(st.sampled_from([*cli.COMMANDS] * 3 + ["frobnicate", "evo", None]))
    spec = cli.COMMANDS[command][1] if command in cli.COMMANDS else cli.EVOLVE_SPEC
    items = draw(st.lists(item(spec), max_size=6))
    head = top + ([] if command is None else [command])
    ours = [tok for mine, _ in items for tok in mine]
    if command in cli.COMMANDS:
        theirs = [tok for _, joined in items for tok in joined]
    else:
        # With no command to take them, the values stand alone: a number
        # argparse misreads is a value, so the command, as "-1" is for argparse.
        theirs = ["-1" if argparse_misreads(tok) else tok for tok in ours]
    return head + ours, head + theirs


@settings(max_examples=600, deadline=None)
@given(argv_pairs())
def test_argv_resolves_as_argparse_did(pair):
    argv, oracle_argv = pair
    assert outcome(cli.parse_args, argv) == outcome(ARGPARSE.parse_args, oracle_argv)


@pytest.mark.parametrize("argv, what", [
    (["evolve", "--t-m", "2"], {"t_max": 2.0}),
    (["evolve", "--t-m=2", "--no-nat", "--nat"], {"t_max": 2.0, "natural_units": True}),
    (["sweep", "--a-s", "3", "--a-steps", "4"], {"a_steps": 4}),
    (["td", "--a=-0.0"], {"a": 0.0}),
    (["bound", "--g", "0.5"], {"gammas": (0.5,)}),
    (["evolve", "--mem"], 2),
    (["sweep", "--a", "1"], 2),
    (["evolve", "--natural-units=yes"], 2),
    (["evolve", "--a"], 2),
    (["evolve", "--bogus", "1"], 2),
    (["frobnicate"], 2),
    ([], 2),
    (["--foo", "evolve", "-h"], 0),
])
def test_argv_grammar_examples(argv, what):
    # unique and ambiguous prefixes, "=", --no-, the last repeated flag wins
    got = outcome(cli.parse_args, argv)
    assert got == outcome(ARGPARSE.parse_args, argv)
    if isinstance(what, int):
        assert got == what
    else:
        assert {key: got[key] for key in what} == {key: repr(v) for key, v in what.items()}


@pytest.mark.parametrize("argv", [
    ["--memory-rate", "5", "--kernel-center", "-1e-3"],
    ["--omega-a", "-2e3"],
    ["--omega-b", "-1E2"],
])
def test_negative_exponent_values_are_values(tmp_path, argv):
    # argparse took -1e-3 for an option string and exited 2 ("expected one
    # argument"); the --name=value form always worked
    joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    written = []
    for k, form in enumerate([argv, joined]):
        out = tmp_path / f"{k}.csv"
        assert cli.main(["evolve", "--t-max", "0.1", *form, "--output", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert outcome(ARGPARSE.parse_args, ["evolve", *argv]) == 2


def test_help_lists_every_command_and_every_option_with_its_default(capsys):
    assert cli.main(["-h"]) == 0
    out = capsys.readouterr().out
    commands = {line.split()[0]: line for line in out.splitlines() if line.startswith("  ")}
    assert list(commands) == list(cli.COMMANDS)
    for command, (_func, spec, text) in cli.COMMANDS.items():
        assert commands[command].endswith(text)
        assert cli.main([command, "-h"]) == 0
        out = capsys.readouterr().out
        listed = {line.split()[0].rstrip(","): line for line in out.splitlines()
                  if line.startswith("  ")}
        flags = ["-h"] + (["--config"] if spec else []) + [
            "--" + name.replace("_", "-") for name in spec]
        assert list(listed) == flags
        for name, (convert, default, text) in spec.items():
            line = listed["--" + name.replace("_", "-")]
            if isinstance(convert, cli.Domain):  # the domain is printed from the entry, once
                assert "[" not in text and "(" not in text
                text = f"{text}; in {convert}"
            assert line.endswith(text if default is None else f"{text} (default {default})")


SMALLEST_ARGV = [
    ["evolve", "--t-max", "0.001", "--dt", "0.001", "--output", "out.csv"],
    ["sweep", "--a-steps", "1", "--t-steps", "1", "--output", "out.csv"],
    ["td"],
    ["bound", "--samples", "1", "--output", "out.csv"],
    ["check"],
]


@pytest.mark.parametrize("argv", SMALLEST_ARGV, ids=[argv[0] for argv in SMALLEST_ARGV])
def test_a_run_loads_no_argparse_gettext_or_locale(tmp_path, argv):
    probe = ("import json, sys, esdkit.cli; code = esdkit.cli.main(sys.argv[1:]); "
             "print(json.dumps([m for m in ('argparse', 'gettext', 'locale') "
             "if m in sys.modules])); sys.exit(code)")
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe, *argv], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                         text=True, timeout=120, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == []
