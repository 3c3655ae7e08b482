"""The immutable records of the codec path and the oracle: equality,
hashing, repr and immutability, as the frozen dataclasses they replace
had them."""

import numpy as np
import pytest

from geompair.bitio import Codeword
from geompair.cminus_codec import SignatureLengthRow, limit_row, signature_length_row
from geompair.families import CodeFamily, InvalidFamilyParam, make_codec
from geompair.fringe2 import CompactProfile, TopCodeParams, profile_from, top_code_params
from geompair.oracle import TruncatedSource, build_truncated_source

RECORDS = [
    (Codeword(5, 4), Codeword(5, 4), Codeword(5, 5), "Codeword(value=5, length=4)"),
    (signature_length_row(3, 7), SignatureLengthRow(7, 19, 6, 2), limit_row(7),
     "SignatureLengthRow(s=7, lam=19, n_short=6, n_long=2)"),
    (CodeFamily("ck", 3), CodeFamily("ck", k=3), CodeFamily("ck", 4), "CodeFamily(kind='ck', k=3)"),
    (profile_from(1, 1, 9), CompactProfile(1, 1, 4, 3, (0, 7, 2)), profile_from(0, 0, 9),
     "CompactProfile(sigma=1, c=1, m=4, M=3, leaves=(0, 7, 2))"),
    (top_code_params(3), top_code_params.__wrapped__(3), top_code_params(4), None),
    (build_truncated_source(0.5, 0.4), TruncatedSource(0.5, 2, ((1.25, -1, 1), (1.0, 0, 1),
     (0.5, 1, 2), (0.25, 2, 3)), 1.25), build_truncated_source(0.5, 0.3),
     "TruncatedSource(q=0.5, s_max=2, runs=((1.25, -1, 1), (1.0, 0, 1), (0.5, 1, 2),"
     " (0.25, 2, 3)), tail_weight=1.25)"),
]


IDS = [type(record).__name__ for record, _, _, _ in RECORDS]


@pytest.mark.parametrize("record, equal, other, text", RECORDS, ids=IDS)
def test_record_equality_hash_and_repr(record, equal, other, text):
    assert record == equal and not record != equal
    assert record != other
    assert hash(record) == hash(equal)
    assert len({record, equal, other}) == 2
    if text is not None:
        assert repr(record) == text


@pytest.mark.parametrize("record", [r[0] for r in RECORDS], ids=IDS)
def test_records_are_immutable(record):
    field = "value" if isinstance(record, Codeword) else type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 1)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, field)


def test_codeword_keeps_its_checks_and_operations():
    with pytest.raises(ValueError):
        Codeword(4, 2)
    with pytest.raises(ValueError):
        Codeword(0, -1)
    assert Codeword(0b10, 2) + Codeword(1, 3) == Codeword(0b10001, 5)
    assert len(Codeword(3, 7)) == 7
    assert Codeword(3, 7) != (3, 7)


def test_top_code_params_fields():
    params = top_code_params(3)
    assert isinstance(params, TopCodeParams)
    assert (params.k, params.M, params.j, params.r, params.sigma, params.c) == (3, 3, 0, 0, 1, 1)
    assert params.profile.leaves == (0, 7, 2)
    assert repr(params).startswith("TopCodeParams(k=3, q=")


def test_code_family_checks_its_parameter():
    with pytest.raises(InvalidFamilyParam):
        CodeFamily("ck", 0)
    with pytest.raises(InvalidFamilyParam):
        CodeFamily("limit", 2)
    with pytest.raises(InvalidFamilyParam):
        CodeFamily("bogus", 1)
    with pytest.raises(InvalidFamilyParam):
        CodeFamily("ck", 3)._replace(k=0)
    for kind, k in (("ck", 2.5), ("golomb", 3.0), ("cminus", float("nan")),
                    ("limit", 0.0), ("ck", "3"), ("ck", None)):
        with pytest.raises(InvalidFamilyParam):
            CodeFamily(kind, k)
    stored = CodeFamily("ck", np.int64(3)).k
    assert stored == 3 and type(stored) is int
    assert CodeFamily("ck", 3)._replace(k=5) == CodeFamily("ck", 5)
    assert CodeFamily("limit") == CodeFamily("limit", 0)
    assert CodeFamily("cminus", 2).label() == "cminus k=2"


def test_make_codec_cache_hits_on_an_equal_family():
    make_codec.cache_clear()
    first = make_codec(CodeFamily("ck", 7))
    again = make_codec(CodeFamily("ck", 7))
    assert again is first
    info = make_codec.cache_info()
    assert (info.hits, info.misses) == (1, 1)
