import argparse
import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import infodyn
from infodyn.cli import build_parser, main


def test_all_names_resolve():
    missing = [name for name in infodyn.__all__ if not hasattr(infodyn, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(infodyn.__all__) == len(set(infodyn.__all__))


def test_all_lists_every_public_name():
    # Submodules are reached as attributes, not exported by name.
    public = {
        name for name, value in vars(infodyn).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(infodyn.__all__)) == []


def test_private_names_cross_modules_only_from_hilbert():
    # `hilbert` is the home of the package-wide private helpers; any other
    # module's `_` names stay inside it.
    stray = []
    for path in sorted(Path(infodyn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module != "hilbert":
                stray += [f"{path.name}: {node.module}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert stray == []


def test_every_size_cap_is_named_in_the_readme():
    package = Path(infodyn.__file__).parent
    readme = (package.parents[1] / "README.md").read_text()
    caps = [
        f"{path.stem}.{target.id}"
        for path in sorted(package.glob("*.py"))
        for node in ast.parse(path.read_text()).body if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("MAX_")
    ]
    assert len(caps) >= 9
    assert [cap for cap in caps if not re.search(rf"\b{cap.partition('.')[2]}\b", readme)] == []


def test_every_fixed_size_cap_goes_through_the_integer_rule():
    # These caps bound a value computed from several inputs, so each
    # keeps its own check.
    derived = {"MAX_ORBIT_STEPS", "MAX_PARTITION_CELLS", "MAX_SWEEP_ROWS"}
    package = Path(infodyn.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))]
    caps = {
        target.id
        for tree in trees
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("MAX_")
    }
    checked = {
        arg.id
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_check_integer"
        for arg in [*node.args, *(keyword.value for keyword in node.keywords)]
        if isinstance(arg, ast.Name)
    }
    assert derived <= caps and len(caps - derived) >= 8
    assert sorted(caps - derived - checked) == []


def test_cli_import_loads_no_process_pool():
    # Only a parallel sweep makes a process pool; the modules behind one
    # load multiprocessing, which no other command uses.
    code = ("import sys; import infodyn.cli; infodyn.cli.build_parser(); "
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(infodyn.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            timeout=60)
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


def _float_flags():
    """(flag, field, argv) for every flag that parses to a float.

    argv gives every required flag of the subcommand a value that parses,
    with input paths that do not exist.
    """
    subcommands = next(action for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)).choices
    for command, parser in subcommands.items():
        required = [command]
        floats = []
        for action in parser._actions:
            parses_float = isinstance(_parse(action.type, "0.5"), float)
            if parses_float:
                floats.append(action)
            if action.required:
                value = (sorted(action.choices)[0] if action.choices else "3.5" if parses_float
                         else f"missing/{action.dest}.json")
                required += [action.option_strings[0], value]
        for action in floats:
            yield action.option_strings[0], action.dest, required


def _parse(kind, text):
    try:
        return kind(text)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return None


def test_float_flags_exit_2_on_non_finite_values_naming_their_field(capsys):
    flags = list(_float_flags())
    assert sorted(flag for flag, _, _ in flags) == [
        "--eps-const", "--eps-zero", "--from", "--log-base", "--step", "--to"]
    for flag, field, argv in flags:
        for text in ["nan", "inf"]:
            assert main(argv + [flag, text]) == 2, (flag, text)
            err = capsys.readouterr().err
            assert f"{field} must be a finite real number" in err and f"got {text}" in err, err
