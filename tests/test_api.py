"""The public names of the package: every ``__all__`` name resolves, each
loading its module on first use, the removed helpers stay gone, and
README's list of the public API follows ``__all__``; and a command loads
only the codec modules it runs."""

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
# ``encode_to``, ``codeword``, ``decode``, ``decode_many`` and
# ``signature_lengths`` replace them, and ``CkCodec`` and
# ``GolombPairCodec`` are the only implementations of their codes
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
    ("geompair.cminus_codec", "limit_encode"),
    ("geompair.cminus_codec", "limit_decode"),
    ("geompair.cminus_codec", "limit_codeword"),
    ("geompair.cminus_codec", "SignatureLengthRow.total_pairs"),
    ("geompair.bitio", "Codeword.fragments"),
    ("geompair.bitio", "BitWriter.write_codeword"),
    ("geompair.fringe2", "CompactProfile.n_upper"),
    ("geompair.fringe2", "CompactProfile.n_mid"),
    ("geompair.fringe2", "CompactProfile.n_lower"),
    ("geompair.fringe2", "top_code_table"),
    ("geompair.fringe2", "TopCode"),
    ("geompair.analysis", "CminusLengthModel"),
    ("geompair.analysis", "LimitLengthModel"),
    ("geompair.analysis", "GolombPairLengthModel"),
    ("geompair.analysis", "CkLengthModel"),
    ("geompair.oracle", "TruncatedSource.signatures"),
    ("geompair.oracle", "OracleCode.lengths"),
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


CODEC_MODULES = tuple(f"geompair.{name}"
                      for name in ("bitio", "basecodes", "ck_codec", "cminus_codec", "fringe2"))


COLD_PATH_SPARED = ("__future__", "encodings.ascii")  # modules no command needs


def codec_modules_loaded(*argvs):
    """In a fresh child, the CODEC_MODULES loaded after ``import geompair``,
    after ``import geompair.cli`` and after each ``main(argv)``, with its exit
    code; then whether every ``__all__`` name resolves.  Checks that none of
    this loads a COLD_PATH_SPARED module that was not loaded before."""
    child = run_child("-c", (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"def loaded(): return [m for m in {CODEC_MODULES!r} if m in sys.modules]\n"
        "import geompair\n"
        "print(loaded())\n"
        "import geompair.cli\n"
        "print(loaded())\n"
        f"for argv in {list(argvs)!r}:\n"
        "    print(geompair.cli.main(argv), loaded())\n"
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
    assert codec_modules_loaded(["decode", str(bad), "--out", out], ["decode", cminus, "--out", out]) == [
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
    lines = codec_modules_loaded(["encode", str(src), "--family", *family, "--out", enc],
                                 ["decode", enc, "--out", dec])
    assert lines == ["[]", "[]", f"0 {modules}", f"0 {modules}", "True"]
    assert (tmp_path / "dec.txt").read_text() == "4 1\n0 0\n9 2\n"


def test_commands_load_neither_future_nor_the_ascii_codec(tmp_path):
    src, enc, dec, csv = tmp_path / "in.txt", str(tmp_path / "enc.bin"), tmp_path / "dec.txt", tmp_path / "s.csv"
    src.write_text("4 1 0 0 9 2\n")
    lines = codec_modules_loaded(["encode", str(src), "--family", "ck", "--k", "3", "--out", enc],
                                 ["decode", enc, "--out", str(dec)], ["select", "--mean", "2.5"],
                                 ["oracle", "--q", "0.9"], ["sweep", "--out", str(csv)])
    ck = "0 ['geompair.bitio', 'geompair.basecodes', 'geompair.ck_codec', 'geompair.fringe2']"
    series = ck.replace("ck_codec'", "ck_codec', 'geompair.cminus_codec'")  # sweep sums cminus series
    assert lines == ["[]", "[]", ck, ck, "ck k=2", ck, "9.408254 ± 3.20e-08", ck, series, "True"]
    assert dec.read_text() == "4 1\n0 0\n9 2\n"
    assert csv.read_text() == (Path(__file__).parent / "data" / "sweep_default.csv").read_text()
