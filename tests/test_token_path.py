"""``encode`` from the input tokens and ``decode`` to text.

``encode`` codes the pairs from their decimal tokens, one route per
family.  cminus and limit join the codeword strings of the token view of
the encode table, which codes a pair it does not hold on lookup.  Golomb
joins each distinct token's codeword string.  ck converts each distinct
token once, joining strings where the top code fits TABLE_BITS bits and
looping over the ranks otherwise; ck1, which is golomb1 bit for bit,
takes Golomb's route.  Only a codeword of over MISS_BITS bits sends
cminus, limit, Golomb and ck1 to the int fallback, ``encode_many`` of
the tokens' ints.  Either way the container must hold the header and the
bytes of ``encode_many`` of the pairs, and every input error must be
reported as ``encode_many`` of the ints reports it: a non-decimal token,
then a token too long to convert, then an odd count, each with its
0-based position.  A direct call with two bad tokens reports the first
in stream order, under every hash seed.  ``decode`` prints the text of
the decode table's slots, and a stream of long codewords never builds
that table.
"""

import contextlib
import io
import math
import random
import sys

import pytest
from child import run_child
from codec_families import FAMILIES, codeword, geometric_pairs, reference_stream, table_built
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geompair import ck_codec
from geompair.basecodes import MISS_BITS, PairCodec, golomb_length, quasi_uniform_shape
from geompair.bitio import BitWriter
from geompair.cli import HEADER, MAGIC, main
from geompair.families import FAMILY_BYTES, CodeFamily, make_codec

WHITESPACE = " \t\n\r\x0b\x0c"


def family_args(family):
    return ["--family", family.kind, *([] if family.kind == "limit" else ["--k", str(family.k)])]


def container(family, pairs):
    """The container of ``pairs`` from ``encode_many``, and its payload bits."""
    payload, nbits = make_codec(family).encode_many(pairs)
    return HEADER.pack(MAGIC, 1, FAMILY_BYTES[family.kind], family.k, len(pairs)) + payload, nbits


def encode(directory, family, text):
    """``encode`` of ``text``: the exit code, the container (None if no
    file was written) and stderr."""
    src, out = directory / "in.txt", directory / "out.bin"
    src.write_text(text)
    if out.exists():
        out.unlink()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["encode", str(src), *family_args(family), "--out", str(out)])
    return code, out.read_bytes() if out.exists() else None, err.getvalue()


def spell(pairs, rng, zeros=0.0):
    """``pairs`` as codec input: random runs of whitespace around every
    token, and a leading zero or two on a share ``zeros`` of the tokens."""
    parts = [rng.choice(("", " ", "\n", "\t "))]
    for value in (x for pair in pairs for x in pair):
        parts.append("0" * rng.choice((1, 2)) * (rng.random() < zeros) + str(value))
        parts.append("".join(rng.choice(WHITESPACE) for _ in range(rng.randint(1, 3))))
    return "".join(parts)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("token-path")


SMALL = st.tuples(st.integers(0, 15), st.integers(0, 15))
# a component of 16 or more misses the token view; up to 300, so that some
# codewords are longer than the 64 bits that the text route fills
LARGE = st.one_of(st.tuples(st.integers(0, 300), st.integers(16, 300)),
                  st.tuples(st.integers(16, 300), st.integers(0, 300)))


@st.composite
def streams(draw):
    """A family and pairs of which none, a few or most miss the token
    view, shuffled."""
    family = draw(st.sampled_from(FAMILIES))
    hits = draw(st.lists(SMALL, max_size=60))
    none, few, most = (0, 0), (1, max(1, len(hits) // 8)), (len(hits) + 1, len(hits) + 20)
    low, high = draw(st.sampled_from((none, few, most)))
    return family, draw(st.permutations(hits + draw(st.lists(LARGE, min_size=low, max_size=high))))


def drifted(family, q, n=400):
    """``family`` and n pairs drawn geometric at q, far above its design q, by inversion."""
    rng = random.Random(f"drifted-{family.label()}-{q}")
    scale = 1 / math.log(q)
    return family, [tuple(int(scale * math.log(1 - rng.random())) for _ in range(2))
                    for _ in range(n)]


@settings(max_examples=120, deadline=None)
@given(streams(), st.randoms(use_true_random=False), st.sampled_from((0.0, 0.3)))
# streams drawn far above the family's design q: misses of the token view
# that it codes itself, and codewords of over MISS_BITS bits
@example(drifted(CodeFamily("cminus", 2), 0.75), random.Random(1), 0.3)
@example(drifted(CodeFamily("limit"), 0.5), random.Random(2), 0.0)
@example(drifted(CodeFamily("cminus", 4), 0.85), random.Random(3), 0.3)
def test_encode_gives_the_bytes_of_encode_many(scratch, stream, rng, zeros):
    family, pairs = stream
    code, blob, err = encode(scratch, family, spell(pairs, rng, zeros))
    want, nbits = container(family, pairs)
    assert (code, blob, err) == (0, want, f"encoded {len(pairs)} pairs, {nbits} payload bits\n")
    decoded = scratch / "decoded.txt"
    assert main(["decode", str(scratch / "out.bin"), "--out", str(decoded)]) == 0
    assert decoded.read_text() == "".join(f"{i} {j}\n" for i, j in pairs)


@pytest.mark.parametrize("family", FAMILIES, ids=CodeFamily.label)
@pytest.mark.parametrize("text", ["", " \n\t\n  "], ids=["empty", "whitespace"])
def test_input_without_tokens_gives_a_container_of_no_pairs(scratch, family, text):
    code, blob, err = encode(scratch, family, text)
    assert (code, len(blob), err) == (0, 16, "encoded 0 pairs, 0 payload bits\n")
    assert blob == container(family, [])[0]


@pytest.mark.parametrize("family", FAMILIES, ids=CodeFamily.label)
def test_leading_zeros_encode_like_the_number(scratch, family):
    assert encode(scratch, family, "007 000\n") == encode(scratch, family, "7 0\n")
    pairs = [(7, 0), (1, 2)] * 100
    assert encode(scratch, family, "007 000 01 2\n" * 100)[1] == container(family, pairs)[0]


def hits_around(token, before=100, after=100):
    """``token`` inside a stream of pairs that hit the token view."""
    return "1 2\n" * before + token + "\n" + "3 4\n" * after


@pytest.mark.parametrize("family", [CodeFamily("ck", 1), CodeFamily("ck", 3),
                                    CodeFamily("cminus", 2), CodeFamily("limit"),
                                    CodeFamily("golomb", 3)],
                         ids=CodeFamily.label)
@pytest.mark.parametrize("text, message", [
    # a 5000-digit second component, past the int-string limit of 4300
    (hits_around("0 " + "9" * 5000), "token at position 201 has 5000 digits"),
    # an odd count reports the long token first, as encode_many of the ints does
    (hits_around("9" * 5000), "token at position 200 has 5000 digits"),
    (hits_around("0 x"), "token 'x' at position 201 is not a nonnegative integer"),
    (hits_around("5"), "401 integers do not form pairs"),
])
def test_errors_among_view_hits_name_the_same_token(scratch, family, text, message):
    code, blob, err = encode(scratch, family, text)
    assert (code, blob) == (2, None)
    if "digits" in message:
        message += f", more than the limit of {sys.get_int_max_str_digits()}"
    assert err == f"geompair: {message}\n"


def test_pair_too_large_among_view_hits_exits_2_as_alone(tmp_path):
    # the message of a pair that no Python int can hold, as the one-line
    # input gives it (see test_cli), also where it sits among view hits
    lone, among = tmp_path / "lone.txt", tmp_path / "among.txt"
    lone.write_text("99999999999999999999 0\n")
    among.write_text(hits_around("99999999999999999999 0"))
    out = str(tmp_path / "out.bin")
    child = run_child("-c", (
        "import contextlib, io\n"
        "from geompair.cli import main\n"
        "for family in (['limit'], ['cminus', '--k', '2'], ['ck', '--k', '3'],\n"
        "               ['golomb', '--k', '3']):\n"
        f"    for path in ({str(lone)!r}, {str(among)!r}):\n"
        "        err = io.StringIO()\n"
        "        with contextlib.redirect_stderr(err):\n"
        f"            code = main(['encode', path, '--family', *family, '--out', {out!r}])\n"
        "        print(code, repr(err.getvalue()))\n"
    ), timeout=60)
    assert child.returncode == 0, child.stderr
    lines = child.stdout.splitlines()
    assert len(lines) == 8
    for alone, with_hits in zip(lines[0::2], lines[1::2]):
        assert alone.startswith("2 \"geompair: a pair's codeword is too long to encode (")
        assert with_hits == alone
    assert not (tmp_path / "out.bin").exists()


# ---------------------------------------------------------------------------
# Which streams reach the int fallback, encode_many
# ---------------------------------------------------------------------------


@pytest.fixture
def int_route_calls(monkeypatch):
    """The codecs that call ``encode_many``, as ``"<class> <k>"``."""
    calls = []
    original = PairCodec.encode_many

    def spy(self, pairs):
        calls.append(f"{type(self).__name__} {getattr(self, 'k', '')}")
        return original(self, pairs)

    monkeypatch.setattr(PairCodec, "encode_many", spy)
    return calls


@pytest.mark.parametrize("family", [CodeFamily("ck", 1), CodeFamily("cminus", 2)],
                         ids=CodeFamily.label)
def test_short_codeword_streams_never_call_encode_many(scratch, int_route_calls, family):
    pairs = geometric_pairs(family, 2000, "route")
    pairs[700:700] = [(0, 20), (30, 1), (16, 16)]  # misses, filled from codeword
    want = container(family, pairs)
    int_route_calls.clear()
    text = spell(pairs, random.Random(family.label()), 0.01)
    assert encode(scratch, family, text) == (0, want[0],
                                             f"encoded {len(pairs)} pairs, {want[1]} payload bits\n")
    assert int_route_calls == []


def test_long_codeword_streams_call_encode_many(scratch, int_route_calls):
    # one codeword of over MISS_BITS bits among short ones sends cminus,
    # limit, Golomb and ck1 to encode_many; ck of k >= 2 codes it in its own loop
    rng = random.Random("long")
    for family, calls in ((CodeFamily("cminus", 2), ["CminusCodec 2"]),
                          (CodeFamily("limit"), ["LimitCodec inf"]),
                          (CodeFamily("golomb", 3), ["GolombPairCodec 3"]),
                          (CodeFamily("ck", 1), ["CkCodec 1"]),
                          (CodeFamily("ck", 3), []), (CodeFamily("ck", 256), [])):
        pairs = geometric_pairs(family, 1000, "long")
        pairs[rng.randrange(1000):0] = [(300 * family.k, 0) if family.kind == "ck" else (300, 0)]
        want = container(family, pairs)[0]
        int_route_calls.clear()
        assert encode(scratch, family, spell(pairs, rng))[:2] == (0, want), family
        assert int_route_calls == calls, family


@pytest.mark.parametrize("family", [CodeFamily("cminus", 2), CodeFamily("limit")],
                         ids=CodeFamily.label)
def test_view_misses_call_encode_many_only_past_miss_bits(int_route_calls, family):
    # every pair misses the token view, a component of 16 or more, and its
    # codeword fits MISS_BITS bits: cminus2 up to signature 32, limit up to 17
    codec = make_codec(family)
    top = 32 if family.kind == "cminus" else 17
    rng = random.Random(f"misses-{family.label()}")
    pairs = []
    for _ in range(1500):
        i = rng.randint(16, top)
        j = rng.randint(0, top - i)
        pairs.append((i, j) if rng.random() < 0.5 else (j, i))
    assert max(codeword(codec, pair)[1] for pair in pairs) == MISS_BITS
    tokens = spell(pairs, rng, 0.3).split()
    _, data, nbits = reference_stream(family, pairs)
    assert codec.encode_tokens(tokens) == (data, nbits)
    assert int_route_calls == []
    # and the same stream ended by the one codeword of over MISS_BITS bits
    last = (0, top + 1)
    assert codeword(codec, last)[1] > MISS_BITS
    _, data, nbits = reference_stream(family, pairs + [last])
    assert codec.encode_tokens(tokens + list(map(str, last))) == (data, nbits)
    assert int_route_calls == [f"{type(codec).__name__} {codec.k}"]


# ---------------------------------------------------------------------------
# ck's route: each distinct token converted once
# ---------------------------------------------------------------------------

CK_ORDERS = (1, 2, 3, 16, 32, 33, 256)


@pytest.mark.parametrize("k", CK_ORDERS)
def test_ck_int_route_gives_the_reference_bytes(scratch, int_route_calls, k):
    # pairs that mostly miss the token view, with long unary runs, many
    # repeated tokens, and leading zeros on a third; only ck1, which takes
    # Golomb's route, hands a unary run of over MISS_BITS bits to encode_many
    family = CodeFamily("ck", k)
    codec = make_codec(family)
    rng = random.Random(f"int-route-{k}")
    spread = 4 * k + 40
    pairs = [(rng.randrange(spread), rng.randrange(spread)) for _ in range(1500)]
    pairs[100:100] = [(0, 0), (k - 1, k), (3000 * k, 1), (2, 70 * k + 3), (7, 7)]
    _, data, nbits = reference_stream(family, pairs)
    text = spell(pairs, rng, 0.3)
    tokens = text.split()
    assert "007" in tokens or "07" in tokens
    assert codec.encode_many(pairs) == (data, nbits)
    int_route_calls.clear()
    assert codec.encode_tokens(tokens) == (data, nbits)
    assert int_route_calls == ["CkCodec 1"] * (k == 1)
    header = HEADER.pack(MAGIC, 1, FAMILY_BYTES["ck"], k, len(pairs))
    assert encode(scratch, family, text) == (0, header + data,
                                             f"encoded {len(pairs)} pairs, {nbits} payload bits\n")


@pytest.mark.parametrize("k", CK_ORDERS)
def test_ck_int_route_refuses_as_encode_many(scratch, k):
    family = CodeFamily("ck", k)
    code, blob, err = encode(scratch, family, "20 1 " * 300 + "0 " + "9" * 5000 + "\n")
    limit = sys.get_int_max_str_digits()
    assert (code, blob, err) == (
        2, None, f"geompair: token at position 601 has 5000 digits, more than the limit of {limit}\n")
    codec = make_codec(family)
    with pytest.raises(ValueError, match="^pair components must be >= 0$"):
        codec.encode_tokens(["20", "1", "3", "-1"])


def test_ck_int_route_refuses_a_pair_too_large_as_encode_many(tmp_path):
    # in a child, as a codeword of 10^20 bits may be tried before it is refused
    path = tmp_path / "in.txt"
    path.write_text("20 1 " * 300 + "99999999999999999999 0\n")
    out = str(tmp_path / "out.bin")
    child = run_child("-c", (
        "import contextlib, io\n"
        "from geompair.cli import main\n"
        "from geompair.families import CodeFamily, make_codec\n"
        f"for k in {CK_ORDERS!r}:\n"
        "    try:\n"
        "        make_codec(CodeFamily('ck', k)).encode_many([(10**20 - 1, 0)])\n"
        "    except (OverflowError, MemoryError) as exc:\n"
        "        want = f\"geompair: a pair's codeword is too long to encode ({type(exc).__name__})\\n\"\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stderr(err):\n"
        f"        code = main(['encode', {str(path)!r}, '--family', 'ck', '--k', str(k), '--out', {out!r}])\n"
        "    print(code, err.getvalue() == want)\n"
    ), timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == ["2 True"] * len(CK_ORDERS)
    assert not (tmp_path / "out.bin").exists()


@pytest.mark.parametrize("k", (1, 2, 3, 16, 32, 37, 38))
@pytest.mark.parametrize("quot", (MISS_BITS - 1, MISS_BITS))
def test_ck_string_route_up_to_the_top_table_bound(monkeypatch, int_route_calls, k, quot):
    # the strings where the top code fits TABLE_BITS (k <= 37) and no unary
    # code is longer than MISS_BITS bits, a quotient of MISS_BITS - 1 at most;
    # elsewhere the rank loop, which writes through a BitWriter.  ck1 takes
    # Golomb's route, whose fallback past MISS_BITS is encode_many
    writers = []

    class Writer(BitWriter):
        def __init__(self):
            super().__init__()
            writers.append(self)

    monkeypatch.setattr(ck_codec, "BitWriter", Writer)
    family = CodeFamily("ck", k)
    codec = make_codec(family)
    rng = random.Random(f"strings-{k}-{quot}")
    pairs = [(rng.randrange(4 * k), rng.randrange(4 * k)) for _ in range(800)]
    pairs[300:300] = [(0, 0), (k - 1, k), (quot * k + k - 1, 1), (2, quot * k)]
    _, data, nbits = reference_stream(family, pairs)
    tokens = spell(pairs, rng, 0.3).split()
    assert any(len(token) > 1 and token[0] == "0" for token in tokens)
    assert codec.encode_tokens(tokens) == (data, nbits)
    assert bool(writers) == (k > 1 and (k > 37 or quot >= MISS_BITS))
    assert int_route_calls == ["CkCodec 1"] * (k == 1 and quot >= MISS_BITS)


# ---------------------------------------------------------------------------
# Golomb's per-token route
# ---------------------------------------------------------------------------

GOLOMB_ORDERS = (1, 2, 3, 7, 64, 65535)


def golomb_pairs(k, n, rng):
    """n pairs drawn geometric at the design q = 2^(-1/k), by inversion."""
    scale = k / math.log(2)  # 1 / log(1 / q)
    return [tuple(int(scale * -math.log(1 - rng.random())) for _ in range(2)) for _ in range(n)]


def golomb_component(k, length):
    """A component whose order-k Golomb codeword has ``length`` bits: a
    quotient and the last remainder, which takes the long m-bit codeword."""
    m, _ = quasi_uniform_shape(k)
    n = (length - m) * k - 1
    assert golomb_length(k, n) == length
    return n


@pytest.mark.parametrize("k", GOLOMB_ORDERS)
def test_golomb_per_token_route_gives_the_bytes_of_encode_many(int_route_calls, k):
    family = CodeFamily("golomb", k)
    codec = make_codec(family)
    rng = random.Random(f"golomb-{k}")
    design = golomb_pairs(k, 600, rng)
    wide = [(rng.randrange(40 * k), rng.randrange(40 * k)) for _ in range(300)]
    exact, over = golomb_component(k, MISS_BITS), golomb_component(k, MISS_BITS + 1)
    for pairs, int_route in ((design, False), (wide, False), (design + [(exact, 0)] + wide, False),
                             (design + [(exact, over)], True), ([(over, exact)], True), ([], False)):
        tokens = spell(pairs, rng, 0.3).split()
        if pairs:  # and "007", the spelling of a component with leading zeros
            pairs, tokens = pairs + [(7, 0)], tokens + ["007", "0"]
        want = codec.encode_many(pairs)
        int_route_calls.clear()
        assert codec.encode_tokens(tokens) == want
        assert int_route_calls == [f"GolombPairCodec {k}"] * int_route
    _, data, nbits = reference_stream(family, design + [(exact, 0)])
    assert codec.encode_tokens(spell(design + [(exact, 0)], rng, 0.3).split()) == (data, nbits)
    with pytest.raises(ValueError, match="^Golomb argument must be >= 0$"):
        codec.encode_tokens(["20", "1", "3", "-1"])


# a quotient of MISS_BITS or more sends ck1 and golomb1 to encode_many
UNARY = st.tuples(st.integers(0, 2 * MISS_BITS), st.integers(0, 2 * MISS_BITS))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(SMALL, UNARY), max_size=40), st.randoms(use_true_random=False),
       st.sampled_from((0.0, 0.3)), st.booleans())
def test_ck1_codes_tokens_as_golomb1(pairs, rng, zeros, negative):
    # ck1 and golomb1 are the same code bit for bit, and ck1 takes Golomb's
    # route: view hits, unary runs past MISS_BITS and leading zeros give
    # encode_many's bytes, and a negative token still raises ck's own error
    ck1, golomb1 = make_codec(CodeFamily("ck", 1)), make_codec(CodeFamily("golomb", 1))
    tokens = spell(pairs, rng, zeros).split()
    if negative and tokens:
        tokens[rng.randrange(len(tokens))] = f"-{rng.randint(1, 2 * MISS_BITS)}"
        with pytest.raises(ValueError, match="^pair components must be >= 0$"):
            ck1.encode_tokens(tokens)
        with pytest.raises(ValueError, match="^Golomb argument must be >= 0$"):
            golomb1.encode_tokens(tokens)
        return
    want = ck1.encode_many(pairs)
    assert ck1.encode_tokens(tokens) == golomb1.encode_tokens(tokens) == want
    assert golomb1.encode_many(pairs) == want


LONG = "9" * 5000  # more digits than the interpreter's int-string limit
BAD_STREAMS = (["-3", "1", LONG, "0"], [LONG, "0", "-3", "1"], ["1000", "0", "-3", "1", LONG, "0"])


@pytest.mark.parametrize("seed", range(1, 7))
def test_the_first_bad_token_in_stream_order_is_reported(monkeypatch, seed):
    # the routes convert the distinct tokens in set order, which the string
    # hash seed sets; whatever the order, a negative token before one too long
    # to convert raises the codec's own error, and the long token first raises
    # int's, also where a long codeword ("1000") first sends a route to its
    # int fallback
    monkeypatch.setenv("PYTHONHASHSEED", str(seed))
    child = run_child("-c", (
        "from geompair.families import CodeFamily, make_codec\n"
        f"for family in {[tuple(family) for family in FAMILIES]!r}:\n"
        f"    for tokens in {BAD_STREAMS!r}:\n"
        "        try:\n"
        "            make_codec(CodeFamily(*family)).encode_tokens(tokens)\n"
        "        except ValueError as exc:\n"
        "            print(exc)\n"
    ))
    assert child.returncode == 0, child.stderr
    with pytest.raises(ValueError) as too_long:
        int(LONG)
    want = []
    for family in FAMILIES:
        negative = "Golomb argument must be >= 0" if family.kind == "golomb" else "pair components must be >= 0"
        want += [negative, str(too_long.value), negative]
    assert child.stdout.splitlines() == want


@pytest.mark.parametrize("family, built", [(CodeFamily("ck", 256), False),
                                           (CodeFamily("ck", 1), True)],
                         ids=["ck256", "ck1"])
def test_decode_builds_the_decode_table_only_for_short_codewords(scratch, family, built):
    pairs = geometric_pairs(family, 500, "table")
    (scratch / "stream.bin").write_bytes(container(family, pairs)[0])
    make_codec.cache_clear()
    decoded = scratch / "stream.txt"
    assert main(["decode", str(scratch / "stream.bin"), "--out", str(decoded)]) == 0
    assert decoded.read_text() == "".join(f"{i} {j}\n" for i, j in pairs)
    assert table_built(make_codec(family)) == built
