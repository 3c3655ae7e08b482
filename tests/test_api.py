"""The public names of the package: every ``__all__`` name resolves, the
lazy analysis and oracle ones included, the removed helpers stay gone, and
README's list of the public API follows ``__all__``."""

import importlib
import re
from pathlib import Path

import pytest

import geompair

README = Path(__file__).resolve().parents[1] / "README.md"

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
