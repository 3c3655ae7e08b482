"""The public names of the package: every ``__all__`` name resolves, the
lazy analysis and oracle ones included, and the removed helpers stay gone."""

import importlib

import pytest

import geompair

# (module, dotted attribute) of each removed name; the codecs' ``encode``,
# ``encode_to``, ``codeword`` and ``signature_lengths`` replace them
REMOVED = [
    ("geompair", "unary_encode"),
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
    ("geompair.cminus_codec", "limit_encode"),
    ("geompair.cminus_codec", "SignatureLengthRow.total_pairs"),
    ("geompair.bitio", "Codeword.fragments"),
    ("geompair.bitio", "BitWriter.write_codeword"),
    ("geompair.fringe2", "CompactProfile.n_upper"),
    ("geompair.fringe2", "CompactProfile.n_mid"),
    ("geompair.fringe2", "CompactProfile.n_lower"),
    ("geompair.fringe2", "top_code_table"),
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

