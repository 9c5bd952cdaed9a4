"""The README's library example runs as written, and its command line
section names every option of the CLI."""

import pathlib
import re

from tanglev import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(code, str(README), "exec"), {})
    printed = float(capsys.readouterr().out.split()[0])
    assert printed - 1 > 1e-2


def test_command_line_section_names_every_option():
    # a flag the CLI drops cannot linger in the docs, nor a new one go
    # undocumented
    section = README.read_text().split("## Command line", 1)[1]
    section = section.split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", section))
    options = {opt for action in cli.build_parser()._actions
               for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"}
    assert documented == options
