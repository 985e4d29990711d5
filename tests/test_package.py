import argparse
import ast
import copy
import importlib
import importlib.util
import os
import pickle
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import infodyn
from infodyn import channels, classical, hilbert, metrics, recognition
from infodyn.cli import build_parser, main


LAYERS = ["exceptions", "hilbert", "channels", "metrics", "classical", "recognition"]


def _fresh(code):
    """Stdout of `code` run in a fresh interpreter that imports this package."""
    env = {**os.environ, "PYTHONPATH": str(Path(infodyn.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_all_names_resolve():
    missing = [name for name in infodyn.__all__ if not hasattr(infodyn, name)]
    assert missing == []
    homes = {name: importlib.import_module(f"infodyn.{module}")
             for module, names in infodyn._EXPORTS.items() for name in names}
    assert [name for name, home in homes.items() if getattr(infodyn, name) is not getattr(home, name)] == []
    star = {}
    exec("from infodyn import *", star)
    assert [name for name, home in homes.items() if star.get(name) is not getattr(home, name)] == []
    assert sorted(set(infodyn.__all__) - set(dir(infodyn))) == []
    assert not hasattr(infodyn, "no_such_name")
    # Each layer is read before anything has loaded it, so the lazy
    # namespace has to import it.
    code = f"import infodyn; print([getattr(infodyn, layer).__name__ for layer in {LAYERS}])"
    assert _fresh(code) == f"{[f'infodyn.{layer}' for layer in LAYERS]}\n"


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


def test_the_kraus_layout_lives_only_in_channels():
    # `Channel` holds the Kraus form; the stacked kernels read it through
    # the same methods as the per-item paths.
    gone = {"_kraus_factor", "_kraus_vectors", "_kraus_apply"}
    stray = []
    for path in sorted(Path(infodyn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in gone:
                stray.append(f"{path.name}: defines {node.name}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                stray += [f"{path.name}: imports {alias.name}" for alias in node.names if alias.name in gone]
            elif (isinstance(node, ast.Attribute) and node.attr in {"_data", "_factor"}
                  and path.name != "channels.py"):
                stray.append(f"{path.name}: reads {node.attr}")
    assert stray == []


def test_immutability_is_written_once():
    # The value types derive from `hilbert._Frozen`, whose `__setattr__`
    # is the only one in the package, and whose `_set` alone makes an
    # array read-only.
    owners = [
        f"{path.stem}.{node.name}"
        for path in sorted(Path(infodyn.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)
        if any(isinstance(f, ast.FunctionDef) and f.name == "__setattr__" for f in node.body)
    ]
    assert owners == ["hilbert._Frozen"]

    callers = _owners(lambda node: isinstance(node, ast.Call)
                      and getattr(node.func, "attr", None) == "setflags")
    assert callers == ["hilbert._Frozen._set"]

    # `_set` alone writes a slot, and no record is a dataclass.
    writers = _owners(lambda node: isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                      and getattr(node.value, "id", None) == "object")
    assert writers == ["hilbert._Frozen._set"]
    importers = _owners(lambda node: isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "dataclasses" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses")
    assert importers == []


def _frozen_values():
    """Two values of each `_Frozen` type, by type name; a record's two have equal fields."""
    rho = np.diag([0.75, 0.25])
    memory = hilbert.DensityOperator(rho)
    orbit = np.array([[0.1], [0.9], [0.1], [0.9], [0.4]])
    builds = {
        "DensityOperator": lambda: hilbert.DensityOperator(rho),
        "Channel": lambda: channels.random_kraus_channel(3, 2, np.random.default_rng(1)),
        "EmpiricalChannel": lambda: classical.empirical_channel(orbit, classical.Partition(((0.0, 1.0),), 2)),
        "SignalBasis": lambda: recognition.SignalBasis.fourier(3),
        "BellSystem": lambda: recognition.BellSystem(recognition.SignalBasis.fourier(3)),
        "CompletePositivityReport": lambda: channels.choi_check(channels.identity_channel(2)),
        "MapSystem": classical.logistic_map,
        "OrbitConfig": lambda: classical.OrbitConfig((0.3,), 5, 10, 3.7),
        "Partition": lambda: classical.Partition(((0.0, 1.0),), 4),
        "SweepRow": lambda: classical.SweepRow(3.9, 0.5, 0.25, "chaotic"),
        "ComplexityConfig": lambda: metrics.ComplexityConfig(restarts=5, seed=1),
        "ChaosDegreeReport": lambda: metrics.chaos_degree(rho, channels.identity_channel(2)),
        "ConjectureOutcome": lambda: metrics.ConjectureOutcome(0.5, 0.25, 0.1, 0.2, True),
        "AxiomResult": lambda: metrics.AxiomResult(True, 0.0, 1e-10, 3),
        "SamplePolicy": lambda: recognition.SamplePolicy(seed=3),
        "ArgmaxPolicy": recognition.ArgmaxPolicy,
        "FixedPolicy": lambda: recognition.FixedPolicy(1, 0),
        "RecognitionStep": lambda: recognition.RecognitionStep(0, 1, 0, 0.5, memory),
    }
    return {name: (build(), build()) for name, build in builds.items()}


FROZEN = _frozen_values()
RECORDS = [name for name, (value, _) in FROZEN.items() if isinstance(value, hilbert._Record)]


def test_every_frozen_type_is_covered():
    def below(cls):
        return {name for sub in cls.__subclasses__() for name in (sub.__name__, *below(sub))}
    assert below(hilbert._Frozen) == set(FROZEN) | {"_Record"}
    assert len(RECORDS) == 13


def _same(a, b):
    """Whether `a` and `b` hold the same data, `_Frozen` values slot by slot and arrays by their bits."""
    if isinstance(a, hilbert._Frozen):
        return type(a) is type(b) and all(_same(getattr(a, name), getattr(b, name)) for name in a.__slots__)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


def _arrays(value):
    """Every array held by a `_Frozen` value, through the `_Frozen` values it holds."""
    for name in value.__slots__:
        field = getattr(value, name)
        if isinstance(field, np.ndarray):
            yield field
        elif isinstance(field, hilbert._Frozen):
            yield from _arrays(field)


@pytest.mark.parametrize("name", FROZEN)
@pytest.mark.parametrize("restore", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy],
                         ids=["pickle", "deepcopy", "copy"])
def test_every_frozen_value_pickles_and_copies(name, restore):
    # A parallel sweep pickles its map, config and partition; a restored
    # value fills its slots through `_set`, so its arrays are read-only.
    value = FROZEN[name][0]
    restored = restore(value)
    assert type(restored) is type(value) and _same(restored, value)
    assert not any(array.flags.writeable for array in _arrays(restored))
    if isinstance(value, hilbert._Record) and not any(
            isinstance(field, hilbert._Frozen) for field in value._fields()):
        assert restored == value and hash(restored) == hash(value)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        restored.anything = 0


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_and_compare_by_their_fields(name):
    a, b = FROZEN[name]
    for field in (*a.__slots__, "anything"):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(a, field, 0)
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert repr(a) == repr(b) == f"{name}({', '.join(f'{f}={getattr(a, f)!r}' for f in a.__slots__)})"
    assert a != (*a._fields(),)


def test_records_print_and_take_their_fields_as_a_dataclass_does():
    assert repr(recognition.FixedPolicy(1, 0)) == "FixedPolicy(i=1, j=0)"
    assert repr(recognition.ArgmaxPolicy()) == "ArgmaxPolicy()"
    assert metrics.AxiomResult(True, 0.0, 1e-10, 3) == metrics.AxiomResult(True, 0.0, 1e-10, 3, "")
    row = classical.SweepRow(param=3.9, chaos_degree=0.5, lyapunov=0.25, label="chaotic")
    assert row == classical.SweepRow(3.9, 0.5, lyapunov=0.25, label="chaotic")
    assert row != classical.SweepRow(3.9, 0.5, 0.25, "stable")
    assert repr(row) == "SweepRow(param=3.9, chaos_degree=0.5, lyapunov=0.25, label='chaotic')"
    # A field left out, one too many, one given twice, and an unknown one.
    for values, named in [((3.9, 0.5, 0.25), {}), ((3.9, 0.5, 0.25, "chaotic", 1), {}),
                          ((3.9, 0.5, 0.25, "chaotic"), {"param": 3.9}),
                          ((3.9, 0.5, 0.25), {"colour": "red"})]:
        with pytest.raises(TypeError, match="^SweepRow takes the fields param, chaos_degree, lyapunov, label$"):
            classical.SweepRow(*values, **named)


def _nodes():
    """Each AST node of the package, with the module-qualified function or class around it."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            yield owner, child
            inner = (f"{owner}.{child.name}" if isinstance(child, (ast.ClassDef, ast.FunctionDef))
                     else owner)
            yield from walk(child, inner)

    for path in sorted(Path(infodyn.__file__).parent.glob("*.py")):
        yield from walk(ast.parse(path.read_text()), path.stem)


def _owners(matches):
    """The module-qualified function or class around each AST node of the package that `matches`."""
    return [owner for owner, node in _nodes() if matches(node)]


def _reads(name):
    """Whether an AST node reads `name`: as a name, an attribute or an imported alias."""
    return lambda node: ((isinstance(node, ast.Attribute) and node.attr == name)
                         or (isinstance(node, ast.Name) and node.id == name)
                         or (isinstance(node, ast.alias) and node.name == name))


def test_eigenvectors_are_made_in_one_function():
    # `hilbert._self_adjoint_spectra` is the one eigendecomposition, of a
    # state and of a Schur weight alike.
    assert _owners(_reads("eigh")) == ["hilbert._self_adjoint_spectra"]


def test_metrics_reads_gram_spectra_and_relative_entropies_in_one_kernel():
    # `metrics._piece_terms` forms a decomposition's Gram spectra once, for D
    # and T alike: no other function of `metrics` reads either kernel.
    for name in ("_gram_spectra", "_relative_entropies"):
        assert [owner for owner in _owners(_reads(name)) if owner.startswith("metrics.")] == [
            "metrics._piece_terms"], name


def test_rotated_search_candidates_are_scored_by_the_decomposition_kernel():
    # `metrics._piece_terms` scores a rotated candidate as it scores an
    # eigenbasis: no module defines or reads a channel method of its own for
    # rotated spectra, and package-wide only the channel's `image_spectra`
    # and the kernel read the Gram spectra (module-level imports aside).
    def defines(node):
        return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == "rotated_image_spectra"

    assert _owners(defines) == _owners(_reads("rotated_image_spectra")) == []
    assert [owner for owner in _owners(_reads("_gram_spectra")) if "." in owner] == [
        "channels.Channel.image_spectra", "metrics._piece_terms"]


def test_the_hermitian_part_is_formed_in_one_function():
    # `hilbert._hermitian_part` is the one symmetrization: no other function
    # adds an expression to its own adjoint.
    def symmetrizes(node):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
            return False
        left, right = ast.unparse(node.left), ast.unparse(node.right)
        return f"{left}.conj()" in right or f"{right}.conj()" in left

    assert _owners(symmetrizes) == ["hilbert._hermitian_part"]


def test_kronecker_products_are_formed_by_one_function():
    # `hilbert._kron` is the one Kronecker product; the package calls no `np.kron`.
    assert _owners(_reads("kron")) == []


def test_a_map_stream_is_read_only_by_iterate_orbit():
    # `classical.iterate_orbit` is the one reader of a map's coordinate
    # stream: no other function calls a `.points(...)` or reads `fromiter`.
    def calls_points(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "points")

    assert _owners(calls_points) == ["classical.iterate_orbit"]
    assert _owners(_reads("fromiter")) == ["classical.iterate_orbit"]


def test_a_schur_weight_is_a_channels_data():
    # A Schur channel holds its weight as a plain matrix: no module defines
    # or reads a weight type or a coercion to one. The entrywise damping
    # product, with its overflow guard, is formed in `Channel.apply_matrix`
    # alone.
    gone = {"SchurWeight", "as_weight", "_damped"}
    assert _owners(lambda node: (isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in gone)
                   or any(_reads(name)(node) for name in gone)) == []
    guard = "damped state has a non-finite entry"
    assert _owners(lambda node: isinstance(node, ast.Constant) and node.value == guard) == [
        "channels.Channel.apply_matrix"]


def test_a_channel_kind_has_one_constructor():
    # A unitary, Schur or stochastic channel is built as `Channel(kind, data)`:
    # no module defines, reads or exports a factory that only forwards to it.
    # `jsonio.parse_channel` builds its channels through `Channel` and
    # `kraus_channel`, which stacks a list of operators, alone.
    gone = {"schur_channel", "unitary_channel", "stochastic_channel"}
    assert _owners(lambda node: (isinstance(node, ast.FunctionDef) and node.name in gone)
                   or any(_reads(name)(node) for name in gone)) == []
    assert sorted(gone & set(infodyn.__all__)) == []
    constructors = {name for name, value in vars(channels).items()
                if getattr(value, "__module__", None) == channels.__name__}
    called = {node.func.id for owner, node in _nodes()
              if owner == "jsonio.parse_channel" and isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)}
    assert sorted(called & constructors) == ["Channel", "kraus_channel"]


# The package's layers, lowest first: a module imports only modules of
# earlier layers, so `metrics`, `classical` and `recognition` import none of
# one another, and `svgplot` imports no module of the package. `__init__`
# imports each layer lazily, by name.
LAYER_ORDER = [{"exceptions", "svgplot"}, {"hilbert"}, {"channels"},
               {"metrics", "classical", "recognition"}, {"jsonio"}, {"cli"}]


def test_each_module_imports_only_earlier_layers():
    level = {module: k for k, modules in enumerate(LAYER_ORDER) for module in modules}
    package = Path(infodyn.__file__).parent
    assert sorted(level) == sorted(path.stem for path in package.glob("*.py") if path.stem != "__init__")
    imports = [(owner.partition(".")[0], name) for owner, node in _nodes()
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for name in ([node.module] if node.module else [alias.name for alias in node.names])]
    assert len(imports) >= 20
    assert [f"{module} imports {name}" for module, name in imports if not level[name] < level[module]] == []


def test_only_hilbert_knows_the_gram_bound():
    # The overflow bound of a Gram sum lives in `hilbert`, which reads it in
    # the Kraus-sum check and the one unitarity check.
    stray = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(infodyn.__file__).parent.glob("*.py")) if path.name != "hilbert.py"
        for node in ast.walk(ast.parse(path.read_text()))
        # A name, an attribute, an imported alias or a definition.
        if "_gram_fits" in {getattr(node, field, None) for field in ("id", "attr", "name")}
    ]
    assert stray == []


def test_jsonio_leaves_every_json_number_to_the_array_rule():
    # `jsonio` has no finiteness test of its own: a NaN, an infinity or an
    # integer beyond the float range reaches `hilbert._as_array`, which names
    # the field. No `isfinite` of any module, and no raise that says "finite".
    tree = ast.parse((Path(infodyn.__file__).parent / "jsonio.py").read_text())
    stray = [
        node.lineno for node in ast.walk(tree)
        if "isfinite" in {getattr(node, field, None) for field in ("id", "attr", "name")}
        or (isinstance(node, ast.Raise) and "finite" in ast.unparse(node))
    ]
    assert stray == []


def test_only_channels_decides_trace_preservation():
    # A channel's flag is derived by its constructor: only `channels` calls
    # the Kraus-sum check, and only `hilbert` defines it.
    found = [
        f"{path.stem}: {'defines' if isinstance(node, ast.FunctionDef) else 'calls'}"
        for path in sorted(Path(infodyn.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.FunctionDef) and node.name == "_check_kraus_sums")
        or (isinstance(node, ast.Call) and "_check_kraus_sums" in {
            getattr(node.func, "id", None), getattr(node.func, "attr", None)})
    ]
    assert found == ["channels: calls", "hilbert: defines"]


def test_only_jsonio_speaks_json():
    # The wire format lives in one module: only `jsonio` imports `json`,
    # no class serializes itself, and `jsonio` imports neither `metrics`
    # nor `cli`.
    stray = []
    for path in sorted(Path(infodyn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import) and path.name != "jsonio.py":
                stray += [f"{path.name}: imports {alias.name}" for alias in node.names
                          if alias.name.partition(".")[0] == "json"]
            elif (isinstance(node, ast.ImportFrom) and path.name != "jsonio.py" and node.level == 0
                  and node.module.partition(".")[0] == "json"):
                stray.append(f"{path.name}: imports from {node.module}")
            elif isinstance(node, ast.ImportFrom) and path.name == "jsonio.py" and node.level == 1:
                stray += [f"jsonio.py: imports {name}" for name in [node.module, *(a.name for a in node.names)]
                          if name in {"metrics", "cli"}]
            elif isinstance(node, ast.ClassDef):
                stray += [f"{path.name}: {node.name}.to_json" for f in node.body
                          if isinstance(f, ast.FunctionDef) and f.name == "to_json"]
    assert stray == []


def test_no_code_silences_floating_point_warnings():
    # Warnings are errors in this suite, so every floating-point warning
    # that a public call emits fails the test that makes it.
    paths = [*Path(infodyn.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    stray = [f"{path.name}:{node.lineno}" for path in sorted(paths)
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "errstate"]
    assert stray == []


def test_complex_arrays_are_read_only_through_the_array_rule():
    # `hilbert._as_array` is the one conversion of an array argument. A bare
    # complex conversion stays only for JSON matrices in and out.
    allowed = {"_as_array", "json_to_matrix", "matrix_to_json"}

    def calls(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                yield function, child
            inner = child.name if isinstance(child, ast.FunctionDef) else function
            yield from calls(child, inner)

    def is_complex(node):
        return isinstance(node, ast.Name) and node.id == "complex"

    stray = [
        f"{path.name}:{call.lineno} in {function}"
        for path in sorted(Path(infodyn.__file__).parent.glob("*.py"))
        for function, call in calls(ast.parse(path.read_text()), None)
        if isinstance(call.func, ast.Attribute) and call.func.attr in {"asarray", "array"}
        and getattr(call.func.value, "id", None) == "np" and function not in allowed
        and (any(is_complex(arg) for arg in call.args[1:2])
             or any(k.arg == "dtype" and is_complex(k.value) for k in call.keywords))
    ]
    assert stray == []


def test_the_declared_numpy_floor_has_every_array_attribute_the_code_reads():
    # `ndarray.mT`, the stacked transpose that the kernels read, exists
    # from numpy 2.0 on; under an older numpy the first stacked kernel fails.
    package = Path(infodyn.__file__).parent
    uses_mt = any(isinstance(node, ast.Attribute) and node.attr == "mT"
                  for path in package.glob("*.py") for node in ast.walk(ast.parse(path.read_text())))
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', (package.parents[1] / "pyproject.toml").read_text())
    assert uses_mt and floor is not None
    assert tuple(map(int, floor.groups())) >= (2, 0)


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


def test_every_export_has_one_role_in_the_readme():
    # The role table's rows are "| `module` | role | `name`, ... | use |".
    readme = (Path(infodyn.__file__).parents[2] / "README.md").read_text()
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in readme.splitlines() if line.startswith("| `")]
    roles = {"cli", "bench", "paper", "oracle"}
    listed = [(row[0].strip("`"), name) for row in rows if len(row) > 2 and row[1] in roles
              for name in re.findall(r"`(\w+)`", row[2])]
    exports = [(module, name) for module, names in infodyn._EXPORTS.items() for name in names]
    assert sorted(listed) == sorted(exports)


def test_every_fixed_size_cap_goes_through_the_integer_rule():
    # A sweep grid's row count can be math.inf, which is no integer, so
    # its cap keeps its own check.
    derived = {"MAX_SWEEP_ROWS"}
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
    # `import infodyn` loads no layer. Only a parallel sweep makes a
    # process pool; the modules behind one load multiprocessing, which
    # no other command uses. No record is a dataclass, so the parser's
    # start loads no `dataclasses` either.
    code = "import sys; import infodyn; print(sorted(m for m in sys.modules if m.startswith('infodyn')))"
    assert _fresh(code) == "['infodyn']\n"
    code = ("import sys; import infodyn.cli; infodyn.cli.build_parser(); "
            "print(sorted({'concurrent.futures.process', 'dataclasses', 'multiprocessing'} & set(sys.modules)))")
    assert _fresh(code) == "[]\n"


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


def test_the_code_line_counter_skips_docstrings_comments_and_blank_lines():
    counter = _tool("code_lines")
    source = ('"""Module docstring."""\n'
              "\n"
              "class A:\n"
              '    """Class docstring,\n'
              '    on two lines."""\n'
              "\n"
              "    # A comment.\n"
              "    def f(self, x):\n"
              "        return (x +  # a trailing comment\n"
              "                1)\n")
    assert counter.code_lines(source) == 4


def _tool(name):
    """The module of `tools/<name>.py`, loaded from its file."""
    path = Path(__file__).parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_kernel_runner_sets_each_kernel_in_its_childs_environment_alone(monkeypatch, capsys):
    # `subprocess.run` is replaced by a recorder, so no child pytest starts.
    kernels = _tool("kernels")
    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    before = dict(os.environ)
    summary = "1 failed, 9 passed in 1.00s\n"
    outputs = {"SkylakeX": "FAILED tests/a.py::t[x - y] - AssertionError: assert 1 == 2\n" + summary,
               "Haswell": "FAILED tests/a.py::t[x - y]\nFAILED tests/b.py::u - ValueError\nERROR tests/c.py\n"
                          "2 failed, 8 passed, 1 error in 1.00s\n",
               "Prescott": "FAILED tests/a.py::t[x - y] - AssertionError\n" + summary}
    calls = []

    def recorder(command, **kwargs):
        calls.append((command, kwargs))
        return subprocess.CompletedProcess(command, 1, outputs[kwargs["env"]["OPENBLAS_CORETYPE"]], "")

    monkeypatch.setattr(kernels.subprocess, "run", recorder)
    assert kernels.main([]) == 1
    assert dict(os.environ) == before
    root = Path(__file__).parents[1].resolve()
    assert [command for command, _ in calls] == [
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]] * 3
    assert [kwargs["cwd"] for _, kwargs in calls] == [root] * 3
    envs = [kwargs["env"] for _, kwargs in calls]
    assert [env["OPENBLAS_CORETYPE"] for env in envs] == ["SkylakeX", "Haswell", "Prescott"]
    assert {(env["OPENBLAS_NUM_THREADS"], env["PYTHONPATH"]) for env in envs} == {
        ("1", f"{root / 'src'}{os.pathsep}elsewhere")}
    assert len({id(env) for env in envs}) == 3 and all(env is not os.environ for env in envs)
    assert capsys.readouterr().out == ("SkylakeX: 9 passed, 1 failed\n"
                                       "Haswell: 8 passed, 3 failed\n"
                                       "  + tests/b.py::u\n"
                                       "  + tests/c.py\n"
                                       "Prescott: 9 passed, 1 failed\n")
    # Arguments replace the tier-1 ones; agreeing failure sets exit 0.
    outputs["Haswell"] = outputs["SkylakeX"]
    calls.clear()
    assert kernels.main(["tests/a.py", "-x"]) == 0
    assert [command[3:] for command, _ in calls] == [["tests/a.py", "-x"]] * 3
    # A run that ends without a test report stops the comparison.
    monkeypatch.setattr(kernels.subprocess, "run",
                        lambda command, **kwargs: subprocess.CompletedProcess(command, 4, "", "usage\n"))
    assert kernels.main(["--no-such-flag"]) == 2
    assert capsys.readouterr().out.endswith("SkylakeX: pytest exited 4 without a test report\nusage\n")
