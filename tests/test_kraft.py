"""Kraft equality for every family: each code is complete.

ck and golomb send a pair as a code on the residue pairs [0, k)^2
followed by two unary quotients.  The runs of ones of each quotient sum
to 1 on their own, so the code is complete exactly when the codewords of
the residue pairs, less their two unary zeros, sum to 1.

cminus and limit are canonical codes, signature by signature: the
codewords of the signatures up to S fill the code space up to the first
canonical value of signature S + 1, so they sum to 1 - D_{S+1} /
2^Lambda_{S+1} with (Lambda, D) from :func:`signature_row`, a remainder
below 2^-S that vanishes as S grows.
"""

from fractions import Fraction

import pytest
from codec_families import FAMILIES, codeword

from geompair.cminus_codec import signature_row
from geompair.families import CodeFamily, make_codec

KRAFT_FAMILIES = FAMILIES + [
    CodeFamily("ck", 5), CodeFamily("ck", 8), CodeFamily("golomb", 255),
    CodeFamily("cminus", 5), CodeFamily("cminus", 6),
]
SIGNATURES = 200


@pytest.mark.parametrize("family", KRAFT_FAMILIES, ids=CodeFamily.label)
def test_kraft_equality(family):
    codec = make_codec(family)
    if family.kind in ("ck", "golomb"):
        k = family.k
        lengths = [codeword(codec, (a, b))[1] - 2 for a in range(k) for b in range(k)]
        top = max(lengths)
        assert sum(1 << (top - length) for length in lengths) == 1 << top
        return
    total = sum(
        Fraction(count, 1 << length)
        for s in range(SIGNATURES + 1)
        for length, count in codec.signature_lengths(s)
    )
    lam, _, _, deficit = signature_row(codec.k, SIGNATURES + 1)
    assert total == 1 - Fraction(deficit, 1 << lam)
    assert 0 < 1 - total < Fraction(1, 1 << SIGNATURES)
