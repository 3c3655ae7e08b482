"""The public names of the package: every ``__all__`` name resolves, each
loading its module on first use, the removed helpers stay gone, README's
list of the public API follows ``__all__``, every module-level
definition is named somewhere, each module-level function and class by
the package or the benchmark, and only ``PairCodec`` defines the
encoders; and a command loads only the modules it runs."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest
from child import run_child

import geompair
from geompair.cli import HEADER, MAGIC
from geompair.families import FAMILY_BYTES, CodeFamily, make_codec

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"
PACKAGE = Path(geompair.__file__).resolve().parent

# (module, dotted attribute) of each removed name; the codecs' ``encode``,
# ``encode_to``, ``codeword``, ``decode``, ``decode_text`` and
# ``signature_lengths`` replace them, ``CkCodec`` and ``GolombPairCodec``
# are the only implementations of their codes, and the fringe-2 search, the
# checks of oracle trees, the design-point shortcut and the q -> 1
# asymptotics are test reference code (reference_theory)
REMOVED = [
    ("geompair", "unary_encode"),
    ("geompair", "limit_decode"),
    ("geompair", "golomb_decode"),
    ("geompair", "quasi_uniform_decode"),
    ("geompair", "limit_codeword"),
    ("geompair", "quasi_uniform_encode"),
    ("geompair", "golomb_encode"),
    ("geompair", "limit_encode"),
    ("geompair", "top_code_table"),
    ("geompair", "WeightedSource"),
    ("geompair", "fringe2_optimal_range"),
    ("geompair", "two_level_check"),
    ("geompair", "max_gap"),
    ("geompair", "asymptotic_redundancy"),
    ("geompair.basecodes", "unary_encode"),
    ("geompair.basecodes", "read_unary"),
    ("geompair.basecodes", "quasi_uniform_encode"),
    ("geompair.basecodes", "golomb_encode"),
    ("geompair.basecodes", "QuasiUniformSpec"),
    ("geompair.basecodes", "canonical_codewords"),
    ("geompair.basecodes", "golomb_decode"),
    ("geompair.basecodes", "quasi_uniform_decode"),
    ("geompair.basecodes", "PairCodec.decode_at"),
    ("geompair.basecodes", "golomb_codeword"),
    ("geompair.basecodes", "quasi_uniform_codeword"),
    ("geompair.basecodes", "RankOutOfRange"),
    ("geompair.basecodes", "decode_unary_pairs"),
    ("geompair.basecodes", "PairCodec.decode_many"),
    ("geompair.basecodes", "PairCodec._table_path"),
    ("geompair.basecodes", "PROBE_PAIRS"),
    ("geompair.basecodes", "MISS_SHARE"),
    ("geompair.cminus_codec", "limit_encode"),
    ("geompair.cminus_codec", "limit_decode"),
    ("geompair.cminus_codec", "limit_codeword"),
    ("geompair.cminus_codec", "SignatureLengthRow.total_pairs"),
    ("geompair.cminus_codec", "LeavesWindow"),
    ("geompair.cminus_codec", "CminusCodec._run_signature"),
    ("geompair.bitio", "Codeword.fragments"),
    ("geompair.bitio", "BitWriter.write_codeword"),
    ("geompair.ck_codec", "CkCodec._top_codeword"),
    ("geompair.ck_codec", "CkCodec._starts"),
    ("geompair.fringe2", "CompactProfile.n_upper"),
    ("geompair.fringe2", "CompactProfile.n_mid"),
    ("geompair.fringe2", "CompactProfile.n_lower"),
    ("geompair.fringe2", "top_code_table"),
    ("geompair.fringe2", "TopCode"),
    ("geompair.fringe2", "WeightedSource"),
    ("geompair.fringe2", "NotFourUniform"),
    ("geompair.fringe2", "delta_sc"),
    ("geompair.fringe2", "_sign"),
    ("geompair.fringe2", "SIGN_RTOL"),
    ("geompair.fringe2", "tree_chain"),
    ("geompair.fringe2", "trees_equivalent"),
    ("geompair.fringe2", "fringe2_optimal_range"),
    ("geompair.fringe2", "optimal_trees"),
    ("geompair.fringe2", "profile_average_length"),
    ("geompair.fringe2", "top_source_weights"),
    ("geompair.fringe2", "top_code_symbols"),
    ("geompair.analysis", "CminusLengthModel"),
    ("geompair.analysis", "LimitLengthModel"),
    ("geompair.analysis", "GolombPairLengthModel"),
    ("geompair.analysis", "CkLengthModel"),
    ("geompair.analysis", "avg_len_ck_design"),
    ("geompair.analysis", "LOG2E"),
    ("geompair.analysis", "_level_ratio"),
    ("geompair.analysis", "oscillation_redundancy"),
    ("geompair.analysis", "asymptotic_redundancy"),
    ("geompair.analysis", "_golden_extremum"),
    ("geompair.analysis", "oscillation_extremes"),
    ("geompair.oracle", "TruncatedSource.signatures"),
    ("geompair.oracle", "OracleCode.lengths"),
    ("geompair.oracle", "OracleCode.lengths_by_signature"),
    ("geompair.bitio", "Codeword.bits"),
    ("geompair.basecodes", "PairCodec.codeword"),
    ("geompair.oracle", "two_level_check"),
    ("geompair.oracle", "max_gap"),
    ("geompair.oracle", "gap_bound"),
]


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from geompair import *", namespace)
    missing = [name for name in geompair.__all__ if name not in namespace]
    assert not missing
    assert all(namespace[name] is getattr(geompair, name) for name in geompair.__all__)
    assert set(geompair.__all__) <= set(dir(geompair))


@pytest.mark.parametrize("module, name", REMOVED, ids=[f"{m}.{n}" for m, n in REMOVED])
def test_removed_name_raises_attribute_error(module, name):
    owner = importlib.import_module(module)
    *path, last = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    with pytest.raises(AttributeError):
        getattr(owner, last)
    assert name not in getattr(importlib.import_module(module), "__all__", ())


def test_readme_lists_the_public_api():
    text = README.read_text(encoding="utf-8")
    start = text.index("The public API is")
    listed = set(re.findall(r"`(\w+)`", text[start : text.index("\n\n", start)]))
    assert not set(geompair.__all__) - listed
    assert not listed & {name for module, name in REMOVED if module == "geompair"}


def _imports(source: str, unwanted) -> list[str]:
    """The modules of the absolute imports in ``source``, at any depth,
    whose top-level name ``unwanted`` accepts."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if unwanted(name.partition(".")[0])]


def _non_stdlib_imports(source: str) -> list[str]:
    return _imports(source, lambda top: top not in sys.stdlib_module_names | {"geompair"})


def _test_module_imports(source: str) -> list[str]:
    return _imports(source, lambda top: top.startswith("test_"))


def test_package_imports_only_the_standard_library():
    # the package has no runtime dependencies; numpy is for the tests only
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    found = {path.name: _non_stdlib_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert not {name: imports for name, imports in found.items() if imports}
    # the check sees imports inside functions and TYPE_CHECKING blocks too
    assert _non_stdlib_imports(
        "import os\nfrom . import x\nif T:\n    import numpy as np\n"
        "def f():\n    from hypothesis.strategies import integers\n    import geompair.cli\n"
    ) == ["numpy", "hypothesis.strategies"]


def test_no_test_module_imports_another():
    # what tests share lives in helper modules, such as codec_families and child
    modules = sorted(TESTS.glob("test_*.py"))
    assert len(modules) >= 15
    found = {path.name: _test_module_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert not {name: imports for name, imports in found.items() if imports}
    # the check sees imports inside functions, and only of test_ modules
    assert _test_module_imports(
        "import codec_families\nfrom test_batch import geometric_pairs\n"
        "def f():\n    import test_cli as cli\n    from child import run_child\n"
    ) == ["test_batch", "test_cli"]


def _definitions(tree) -> list[str]:
    """The module-level functions and classes of ``tree`` and the methods of its
    classes, as ``name`` or ``Class.method``, dunders left out."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{sub.name}" for sub in node.body if isinstance(sub, ast.FunctionDef)]
    return [name for name in names if not re.fullmatch(r"__\w+__", name.rpartition(".")[2])]


def _named(tree) -> set[str]:
    """Every name that ``tree`` uses: names, attributes, imported names, and
    strings that are identifiers (``_LAZY``'s keys, ``getattr``'s names)."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            named.add(node.value)
    return named


def test_only_pair_codec_defines_the_encoders():
    # a codec states its code once, as the _coder it builds; PairCodec wraps
    # it in the one encode_many loop, and no class defines a codeword method
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                found += [(node.name, sub.name) for sub in node.body
                          if isinstance(sub, ast.FunctionDef) and sub.name in ("codeword", "encode_many")]
    assert found == [("PairCodec", "encode_many")]


def _unnamed_by_the_program(modules, others, lazy=()) -> list[str]:
    """The module-level functions and classes of ``modules``, a dict of
    module name to tree, that no tree of ``modules`` or ``others`` names
    besides its own definition; the ``__init__`` tree's names leave out
    ``lazy``, the keys of its ``_LAZY``."""
    named = set()
    for name, tree in [*modules.items(), *(("", tree) for tree in others)]:
        named |= _named(tree) - (set(lazy) if name == "__init__" else set())
    return [name for tree in modules.values() for name in _definitions(tree)
            if "." not in name and name not in named]


def test_theory_modules_define_only_what_the_program_names():
    # theory that serves only the tests, such as the fringe-2 search and the
    # q -> 1 asymptotics, lives in reference_theory: every module-level
    # function and class of the package is named in the package or the
    # benchmark, besides its own definition and its key in _LAZY
    package = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    bench = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted((TESTS.parent / "bench").glob("*.py"))]
    assert len(package) >= 10 and sum(len(_definitions(tree)) for tree in package.values()) >= 100
    assert _unnamed_by_the_program(package, bench, geompair._LAZY) == []
    # the check sees a function named only by its own def or its _LAZY key
    toy = {"__init__": ast.parse("_LAZY = {'f': 'm', 'g': 'm'}\ndef h(): return K\n"),
           "m": ast.parse("def f(): pass\ndef g(): pass\nclass K: pass\n")}
    assert _unnamed_by_the_program(toy, [ast.parse("from m import g\n")], {"f", "g"}) == ["h", "f"]


# methods that a base class outside the package calls: namedtuple's _replace calls _make
OVERRIDES = {"CodeFamily._make"}


def test_no_module_level_code_that_nothing_names():
    # every module-level function, class and method of the package is named
    # besides its own definition, in the package, the tests or the benchmark
    named, defined = set(), []
    for directory in (PACKAGE, TESTS, TESTS.parent / "bench"):
        for path in sorted(directory.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            named |= _named(tree)
            defined += _definitions(tree) if directory == PACKAGE else []
    assert len(defined) >= 100
    assert {name for name in defined if name.rpartition(".")[2] not in named} == OVERRIDES
    # the check sees a definition named only by its own def, and no dunder
    tree = ast.parse("class A:\n    def __init__(self): pass\n    def f(self): return g\n"
                     "def g(): pass\ndef h(): pass\nx = {'A': 1}\n")
    assert [name for name in _definitions(tree) if name.rpartition(".")[2] not in _named(tree)] == [
        "A.f", "h"]


# the modules that a command loads only if it runs them
ON_DEMAND = tuple(f"geompair.{name}" for name in
                  ("bitio", "basecodes", "ck_codec", "cminus_codec", "fringe2", "analysis"))


COLD_PATH_SPARED = ("__future__", "encodings.ascii")  # modules no command needs


def modules_loaded(*steps):
    """In a fresh child, the ON_DEMAND modules loaded after ``import geompair``,
    after ``import geompair.cli`` and after each step: an argv run by ``main``,
    with its exit code, or a statement; then whether every ``__all__`` name
    resolves.  Checks that none of this loads a COLD_PATH_SPARED module that
    was not loaded before."""
    child = run_child("-c", (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"def loaded(): return [m for m in {ON_DEMAND!r} if m in sys.modules]\n"
        "import geompair\n"
        "print(loaded())\n"
        "import geompair.cli\n"
        "print(loaded())\n"
        f"for step in {list(steps)!r}:\n"
        "    if isinstance(step, str):\n"
        "        exec(step)\n"
        "        print(loaded())\n"
        "    else:\n"
        "        print(geompair.cli.main(step), loaded())\n"
        "print(all(getattr(geompair, name) for name in geompair.__all__))\n"
        f"print([m for m in {COLD_PATH_SPARED!r} if m in sys.modules and m not in before])\n"
    ))
    assert child.returncode == 0, child.stderr
    *lines, spared = child.stdout.splitlines()
    assert spared == "[]"
    return lines


def write_container(path, family, pairs):
    payload, _ = make_codec(family).encode_many(pairs)
    path.write_bytes(HEADER.pack(MAGIC, 1, FAMILY_BYTES[family.kind], family.k, len(pairs)) + payload)
    return str(path)


def test_import_and_decode_load_only_the_codec_they_run(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + bytes(12))
    cminus = write_container(tmp_path / "cminus.bin", CodeFamily("cminus", 2), [(4, 1), (0, 0)])
    out = str(tmp_path / "out.txt")
    assert modules_loaded(["decode", str(bad), "--out", out], ["decode", cminus, "--out", out]) == [
        "[]",  # import geompair
        "[]",  # import geompair.cli
        "2 []",  # a container refused at its header
        "0 ['geompair.bitio', 'geompair.basecodes', 'geompair.cminus_codec']",
        "True",
    ]
    assert (tmp_path / "out.txt").read_text() == "4 1\n0 0\n"


@pytest.mark.parametrize("family, modules", [
    (["ck", "--k", "3"], "['geompair.bitio', 'geompair.basecodes', 'geompair.ck_codec', 'geompair.fringe2']"),
    (["limit"], "['geompair.bitio', 'geompair.basecodes', 'geompair.cminus_codec']"),
    (["golomb", "--k", "3"], "['geompair.bitio', 'geompair.basecodes']"),
], ids=["ck", "limit", "golomb"])
def test_encode_and_decode_load_only_their_family_codec(tmp_path, family, modules):
    src, enc, dec = tmp_path / "in.txt", str(tmp_path / "enc.bin"), str(tmp_path / "dec.txt")
    src.write_text("4 1 0 0 9 2\n")
    lines = modules_loaded(["encode", str(src), "--family", *family, "--out", enc],
                                 ["decode", enc, "--out", dec])
    assert lines == ["[]", "[]", f"0 {modules}", f"0 {modules}", "True"]
    assert (tmp_path / "dec.txt").read_text() == "4 1\n0 0\n9 2\n"


def test_commands_load_neither_future_nor_the_ascii_codec(tmp_path):
    src, enc, dec, csv = tmp_path / "in.txt", str(tmp_path / "enc.bin"), tmp_path / "dec.txt", tmp_path / "s.csv"
    src.write_text("4 1 0 0 9 2\n")
    lines = modules_loaded(["encode", str(src), "--family", "ck", "--k", "3", "--out", enc],
                                 ["decode", enc, "--out", str(dec)], ["select", "--mean", "2.5"],
                                 ["oracle", "--q", "0.9"], ["sweep", "--out", str(csv)])
    ck = "0 ['geompair.bitio', 'geompair.basecodes', 'geompair.ck_codec', 'geompair.fringe2']"
    analysis = ck.replace("fringe2'", "fringe2', 'geompair.analysis'")
    series = analysis.replace("ck_codec'", "ck_codec', 'geompair.cminus_codec'")  # sweep sums cminus series
    assert lines == ["[]", "[]", ck, ck, "ck k=2", analysis, "9.408254 ± 3.20e-08", analysis, series, "True"]
    assert dec.read_text() == "4 1\n0 0\n9 2\n"
    assert csv.read_text() == (Path(__file__).parent / "data" / "sweep_default.csv").read_text()


@pytest.mark.parametrize("step, lines", [
    ("from geompair.oracle import oracle_optimal_avg_len", ["[]"]),
    (["oracle", "--q", "0.9"], ["9.408254 ± 3.20e-08", "0 []"])], ids=["import", "command"])
def test_oracle_loads_neither_the_analysis_nor_a_codec(step, lines):
    # the oracle takes its q check from families, where DataError is
    assert modules_loaded(step) == ["[]", "[]", *lines, "True"]
