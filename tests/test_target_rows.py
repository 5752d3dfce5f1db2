"""Row-wise construction of full targets against per-pair reference loops.

The references below orient, decode and check one vertex pair at a time;
the library builds each out-mask a whole row at a time and must give the
same masks and the same first error.
"""

import base64
import hashlib
import json
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orichrome import FullTarget, sample_full
from orichrome.errors import InvariantViolation
from orichrome.targets import _cut_rows, _orient_cross_pairs

ks = st.integers(min_value=1, max_value=5)
Ns = st.integers(min_value=1, max_value=12)
seeds = st.integers(min_value=0, max_value=2**64 - 1)


def cross_pairs(k: int, N: int) -> list[tuple[int, int]]:
    n = k * N
    return [(u, v) for u in range(n) for v in range(u + 1, n) if u // N != v // N]


def _reference_orient(k: int, N: int, bits) -> list[int]:
    """Out-masks with the i-th cross pair u < v oriented u -> v when the
    i-th value of ``bits`` is true."""
    n = k * N
    out = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if u // N != v // N:
                if next(bits):
                    out[u] |= 1 << v
                else:
                    out[v] |= 1 << u
    return out


def _reference_from_json(k: int, N: int, raw: bytes) -> list[int]:
    """Out-masks read from to_json's packed arcs one pair bit at a time."""
    n = k * N
    out = [0] * n
    idx = 0
    for u in range(n):
        for v in range(u + 1, n):
            if u // N != v // N:
                if raw[idx >> 3] >> (idx & 7) & 1:
                    out[u] |= 1 << v
                else:
                    out[v] |= 1 << u
            idx += 1
    return out


def _reference_init(k: int, N: int, arcs) -> list[int] | str:
    """FullTarget's arc checks, one pair at a time: the out-masks, or the
    message of the first error."""
    n = k * N
    out = [0] * n
    inn = [0] * n
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            return f"arc ({u},{v}) out of range"
        if u // N == v // N:
            return f"arc ({u},{v}) inside a class"
        if out[u] >> v & 1 or out[v] >> u & 1:
            return f"pair ({u},{v}) oriented twice"
        out[u] |= 1 << v
        inn[v] |= 1 << u
    class_mask = (1 << N) - 1
    for u in range(n):
        expected = ((1 << n) - 1) ^ (class_mask << (u // N * N))
        if (out[u] | inn[u]) != expected:
            return f"vertex {u} is not complete to the other classes"
    return out


def _reference_cut(word: int, lengths: list[int]) -> list[int]:
    """Fields of ``word``, lowest first, by masking each off and shifting it out."""
    fields = []
    for length in lengths:
        fields.append(word & ((1 << length) - 1))
        word >>= length
    return fields


def built(k: int, N: int, arcs) -> list[int] | str:
    try:
        return FullTarget(k, 1, N, arcs)._out
    except InvariantViolation as exc:
        return str(exc)


def target_text(k: int, N: int, raw: bytes) -> str:
    arcs = base64.b64encode(raw).decode("ascii")
    return json.dumps({"k": k, "d": 1, "N": N, "seed": None, "arcs": arcs})


# -- orientation from one int ------------------------------------------------------


@settings(deadline=None, max_examples=150)
@given(ks, Ns, seeds)
def test_orient_matches_reference(k, N, seed):
    pairs = len(cross_pairs(k, N))
    for word in (random.Random(seed).getrandbits(pairs), 0, (1 << pairs) - 1):
        bits = iter([bool(word >> i & 1) for i in range(pairs)])
        assert _orient_cross_pairs(k, N, word) == _reference_orient(k, N, bits)


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.integers(min_value=0, max_value=70), max_size=12),
    st.integers(min_value=0, max_value=80),
    seeds,
)
def test_cut_rows_matches_shift_loop(lengths, above, seed):
    # zero-length fields, and bits above the total length that must be ignored
    total = sum(lengths)
    for word in (random.Random(seed).getrandbits(total + above), 0, (1 << total + above) - 1):
        assert _cut_rows(word, lengths) == _reference_cut(word, lengths)


@pytest.mark.parametrize("k, N", [(1, 1), (1, 2), (1, 9), (2, 1)])
def test_json_round_trip_of_degenerate_shapes(k, N):
    # no cross pair (k = 1) or only one-bit and empty rows (N = 1)
    pairs = len(cross_pairs(k, N))
    for word in (0, (1 << pairs) - 1):
        t = FullTarget._from_out_masks(k, 2, N, _orient_cross_pairs(k, N, word), None)
        text = t.to_json()
        loaded = FullTarget.from_json(text)
        assert loaded._out == t._out
        assert loaded.to_json() == text


# -- from_json ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=150)
@given(ks, Ns, seeds, st.integers(min_value=0, max_value=3))
def test_from_json_matches_reference(k, N, seed, extra):
    # random bytes set the bits of pairs inside a class, the padding bits of
    # the last byte and the trailing bytes as often as the arc bits
    n = k * N
    need = (n * (n - 1) // 2 + 7) // 8
    raw = random.Random(seed).randbytes(need + extra)
    assert FullTarget.from_json(target_text(k, N, raw))._out == _reference_from_json(k, N, raw)


@settings(deadline=None, max_examples=80)
@given(ks, Ns, seeds, st.integers(min_value=0, max_value=3))
def test_from_json_ignores_bits_outside_cross_pairs(k, N, seed, extra):
    n = k * N
    need = (n * (n - 1) // 2 + 7) // 8
    arc_bits = 0
    idx = 0
    for u in range(n):
        for v in range(u + 1, n):
            if u // N != v // N:
                arc_bits |= 1 << idx
            idx += 1
    value = random.Random(seed).getrandbits(8 * need)
    clear = (value & arc_bits).to_bytes(need, "little") + bytes(extra)
    flooded = (value | ~arc_bits & (1 << 8 * need) - 1).to_bytes(need, "little") + b"\xff" * extra
    loaded = FullTarget.from_json(target_text(k, N, clear))._out
    assert FullTarget.from_json(target_text(k, N, flooded))._out == loaded
    assert loaded == _reference_from_json(k, N, clear)


# -- FullTarget from arcs ------------------------------------------------------------------


def defect(rng: random.Random, k: int, N: int, arcs: list) -> None:
    """Put one defect into ``arcs`` at a random place."""
    n = k * N
    kind = rng.randrange(5)
    at = rng.randrange(len(arcs) + 1)
    if kind == 0:
        bad = rng.choice([-1, n, n + 3])
        arcs.insert(at, (bad, rng.randrange(n)) if rng.random() < 0.5 else (rng.randrange(n), bad))
    elif kind == 1:
        u = rng.randrange(n)
        arcs.insert(at, (u, u // N * N + rng.randrange(N)))
    elif kind in (2, 3) and arcs:
        u, v = rng.choice(arcs)
        arcs.insert(at, (u, v) if kind == 2 else (v, u))
    elif arcs:
        arcs.pop(rng.randrange(len(arcs)))


@settings(deadline=None, max_examples=200)
@given(ks, Ns, seeds, st.integers(min_value=0, max_value=2))
def test_init_matches_reference(k, N, seed, defects):
    rng = random.Random(seed)
    arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in cross_pairs(k, N)]
    rng.shuffle(arcs)
    for _ in range(defects):
        defect(rng, k, N, arcs)
    assert built(k, N, arcs) == _reference_init(k, N, arcs)


def replace_defect(rng: random.Random, k: int, N: int, arcs: list) -> None:
    """Overwrite one arc of ``arcs`` with a defect, keeping its length: a
    loop, an in-class arc, another arc again or reversed, an out-of-range
    end."""
    n = k * N
    kind = rng.randrange(5)
    at = rng.randrange(len(arcs))
    u = rng.randrange(n)
    if kind == 0:
        arcs[at] = (u, u)
    elif kind == 1:
        arcs[at] = (u, u // N * N + rng.randrange(N))
    elif kind in (2, 3):
        a, b = rng.choice(arcs)
        arcs[at] = (a, b) if kind == 2 else (b, a)
    else:
        bad = rng.choice([-1, n, n + 3])
        arcs[at] = (bad, u) if rng.random() < 0.5 else (u, bad)


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=2, max_value=5), Ns, seeds, st.integers(min_value=1, max_value=3))
def test_init_same_length_defects_match_reference(k, N, seed, defects):
    # a list of exactly as many arcs as cross pairs, so no length test
    # catches a defect
    rng = random.Random(seed)
    arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in cross_pairs(k, N)]
    rng.shuffle(arcs)
    for _ in range(defects):
        replace_defect(rng, k, N, arcs)
    assert built(k, N, arcs) == _reference_init(k, N, arcs)


# k = 2, N = 2: classes {0, 1} and {2, 3}
COMPLETE = [(0, 2), (3, 0), (1, 2), (1, 3)]


@pytest.mark.parametrize(
    "arcs, message",
    [
        (COMPLETE + [(-1, 2)], "arc (-1,2) out of range"),
        ([(2, -1)] + COMPLETE, "arc (2,-1) out of range"),
        (COMPLETE[:2] + [(0, 4)] + COMPLETE[2:], "arc (0,4) out of range"),
        ([(0, 1)] + COMPLETE, "arc (0,1) inside a class"),
        (COMPLETE + [(3, 3)], "arc (3,3) inside a class"),
        (COMPLETE + [(1, 2)], "pair (1,2) oriented twice"),
        (COMPLETE[:1] + [(2, 0)] + COMPLETE[1:], "pair (2,0) oriented twice"),
        (COMPLETE[:3], "vertex 1 is not complete to the other classes"),
        (COMPLETE[1:], "vertex 0 is not complete to the other classes"),
        ([], "vertex 0 is not complete to the other classes"),
        # two defects: the first in list order wins, and any arc error
        # comes before a missing pair
        ([(0, 2), (2, 0), (5, 0)], "pair (2,0) oriented twice"),
        ([(0, 2), (5, 0), (2, 0)], "arc (5,0) out of range"),
        ([(2, 3), (0, 9)] + COMPLETE, "arc (2,3) inside a class"),
        (COMPLETE[:3] + [(0, 2)], "pair (0,2) oriented twice"),
        (COMPLETE[1:] + [(0, 0)], "arc (0,0) inside a class"),
        (COMPLETE + COMPLETE, "pair (0,2) oriented twice"),
    ],
    ids=[
        "negative", "negative-head", "n", "in-class", "loop", "duplicate", "reversed",
        "missing", "missing-first", "empty", "reversed-then-range", "range-then-reversed",
        "class-then-range", "missing-and-duplicate", "missing-and-loop", "listed-twice",
    ],
)
def test_init_error_order(arcs, message):
    assert _reference_init(2, 2, arcs) == message
    with pytest.raises(InvariantViolation) as info:
        FullTarget(2, 1, 2, arcs)
    assert str(info.value) == message


# lists as long as COMPLETE with one entry that is no pair of ints: alone it
# raises what unpacking or indexing it raises; an earlier defect wins
@pytest.mark.parametrize(
    "arcs, error, message",
    [
        ([(0, 2), (3, 0), (1.5, 2), (1, 3)], TypeError, "bytearray indices must be integers or slices, not float"),
        ([(0, 2), (3, 0, 1), (1, 2), (1, 3)], ValueError, "too many values to unpack (expected 2)"),
        ([(0, 2), None, (1, 2), (1, 3)], TypeError, "cannot unpack non-iterable NoneType object"),
        ([(0, 2), (2, 0), (1.5, 2), (1, 3)], InvariantViolation, "pair (2,0) oriented twice"),
        ([(0, 2), (4, 0), (3, 0, 1), (1, 3)], InvariantViolation, "arc (4,0) out of range"),
        ([(0, 1), None, (1, 2), (1, 3)], InvariantViolation, "arc (0,1) inside a class"),
        ([(0, 2), None, (0, 2), (1, 3)], TypeError, "cannot unpack non-iterable NoneType object"),
    ],
    ids=["float", "3-tuple", "none", "reversed-then-float", "range-then-3-tuple", "in-class-then-none", "none-then-duplicate"],
)
def test_init_error_on_entries_that_are_not_pairs(arcs, error, message):
    assert len(arcs) == len(COMPLETE)
    with pytest.raises(error) as info:
        FullTarget(2, 1, 2, arcs)
    assert type(info.value) is error and str(info.value) == message


def test_init_accepts_an_iterator():
    assert FullTarget(2, 1, 2, iter(COMPLETE))._out == _reference_init(2, 2, COMPLETE)


def test_init_refuses_a_short_list_without_a_pair_table():
    # a 10^6-vertex target with no arcs: an n x n table would be 10^12 bytes
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(InvariantViolation, match="vertex 0 is not complete"):
            FullTarget(2, 1, 500_000, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert time.perf_counter() - start < 1.0


# -- the sampled stream ---------------------------------------------------------------------


def test_sample_full_k8_pinned():
    # the k = 8 coin stream, row layout and JSON, pinned at seed 0
    text = sample_full(8, 2, seed=0).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "fe6c6c2d9ac2d010905f4a917b57ca369676464ddd68a4031c96b1b285372827"
    )
