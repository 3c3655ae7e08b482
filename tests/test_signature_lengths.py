"""The per-signature lengths of every codec, against the lengths of the
codewords they describe, and their refusal of a negative signature: the
``signature_lengths`` method of cminus and limit, which the ``lengths``
command prints, and the reference's residue form for ck and Golomb."""

from collections import Counter

import pytest
from codec_families import FAMILIES, codeword
from reference_theory import signature_lengths

from geompair.families import CodeFamily, make_codec

SIGNATURES = list(range(200)) + [511, 4095]


@pytest.mark.parametrize("family", FAMILIES, ids=CodeFamily.label)
def test_signature_lengths_are_the_codeword_lengths(family):
    codec = make_codec(family)
    for s in SIGNATURES:
        groups = signature_lengths(codec)(s)
        assert sum(count for _, count in groups) == s + 1, s
        want = Counter(codeword(codec, (i, s - i))[1] for i in range(s + 1))
        got = Counter()
        for length, count in groups:
            got[length] += count
        assert +got == want, s


@pytest.mark.parametrize("family", FAMILIES, ids=CodeFamily.label)
def test_negative_signature_is_refused(family):
    codec = make_codec(family)
    for s in (-1, -2, -5, -(2**70)):
        with pytest.raises(ValueError, match="signature must be >= 0"):
            signature_lengths(codec)(s)
