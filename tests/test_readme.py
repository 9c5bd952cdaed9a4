"""The README's library example runs as written, its command line
section names every option of the CLI, and every module attribute it
names exists."""

import importlib
import pathlib
import pkgutil
import re

import tanglev
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


def test_named_module_attributes_exist():
    # a name the code drops cannot linger in the docs: each backticked
    # `module.name` (or `module.name(...)`) of a tanglev module resolves
    modules = {info.name for info in pkgutil.iter_modules(tanglev.__path__)}
    named = re.findall(r"`([a-z_]+)((?:\.\w+)+)[`(]", README.read_text())
    named = [(module, path) for module, path in named if module in modules]
    missing = []
    for module, path in named:
        obj = importlib.import_module("tanglev." + module)
        for attr in path[1:].split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(module + path)
    assert named and missing == []
