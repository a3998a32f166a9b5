"""The README's library quick start runs against the package's API, and
its CLI examples parse."""

import pathlib
import re
import shlex

from treesplit.cli import build_parser

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert "0.9241962407465937" in capsys.readouterr().out.splitlines()


def test_cli_examples_parse():
    """Each ``treesplit`` line of the shell blocks, continuations joined,
    parses, every flag passing its check; none is run."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    examples = [shlex.split(line)[1:] for line in lines if line.startswith("treesplit ")]
    assert {argv[0] for argv in examples} == {
        "analytic", "asymptote", "windowed-scan", "simulate", "sweep", "compare", "tree"}
    parser = build_parser()
    for argv in examples:
        parser.parse_args(argv)
