"""The README's examples, run: each shown output must be what the code prints."""

import io
import re
import shlex
from pathlib import Path

import hermix.checks as checks
import hermix.cli as cli
from hermix import generate_instance, render_document

from conftest import GOLDEN

ROOT = Path(__file__).parents[1]
README = (ROOT / "README.md").read_text()


def fenced_blocks(language=""):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def shell_examples():
    """(command line, shown output) for every ``$ hermix ...`` line."""
    examples = []
    for block in fenced_blocks():
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, shown = chunk.partition("\n")
            examples.append((command, shown.rstrip("\n") + "\n"))
    return examples


def test_python_api_block_prints_its_comments():
    (block,) = fenced_blocks("python")
    want = [line.split("# ", 1)[1] for line in block.splitlines() if "print(" in line]
    printed = []

    def record(*args):
        printed.append(" ".join(map(str, args)))

    exec(block, {"print": record})
    assert printed == want


def test_shell_examples_print_what_is_shown(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # `gen` writes g.json here
    ran = []
    for command, shown in shell_examples():
        command, _, pipe = command.partition(" | ")
        argv = shlex.split(command)
        assert argv[0] == "hermix"
        argv = [str(ROOT / a) if a.startswith("tests/") else a for a in argv[1:]]
        out, err = io.StringIO(), io.StringIO()
        assert cli.main(argv, out=out, err=err) == 0, command
        text = out.getvalue()
        if pipe:  # `tail -k` keeps the last k lines
            assert pipe.startswith("tail -"), pipe
            text = "".join(text.splitlines(keepends=True)[-int(pipe[len("tail -") :]) :])
        assert (text, err.getvalue()) == (shown, ""), command
        ran.append(argv[0])
    assert ran == ["det", "inverse", "classify", "classify", "check", "gen"]
    golden = (GOLDEN / "gen_seed7_n10_unicyclic.json").read_text()
    assert (tmp_path / "g.json").read_text() == golden


def test_document_format_example_is_the_generator_golden():
    (example,) = fenced_blocks("json")
    golden = (GOLDEN / "gen_seed7_n10_unicyclic.json").read_text()
    assert example == golden == render_document(generate_instance(7, 10, True))


def test_check_list_is_the_registry():
    listed = re.findall(r"^(\d+)\. `(\w+)`:", README, flags=re.M)
    assert listed == [(str(k), name) for k, name in enumerate(checks.CHECKS, 1)]
