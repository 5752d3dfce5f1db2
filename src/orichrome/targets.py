"""Complete multipartite targets with the sign-realization property.

A target with parameters (k, d, N) has k vertex classes of N vertices each,
one arc between every cross-class pair, and realizes every orientation
pattern: for each class i, each set U of at most d vertices outside class i,
and each sign vector over U, some vertex of class i points exactly that way
toward U.  Random orientations have this property with high probability once
N reaches ceil(8^d * ln k); the verifier certifies concrete instances.

RestrictedTarget merges the top classes into a reserved pool and deletes the
arcs inside the pool; LazyTarget materialises the same kind of object on
demand, minting vertices and fixing orientations only when queried.  Both
answer the same calls: reserve_pool, query, install_pool_arc, class_of,
orientation, realizes and free_classes.

All three keep one bit row per vertex, bit u of ``_out[x]`` set for the arc
x -> u, and answer orientation, vertex_count and to_oriented_graph from those
rows alone.  The two pool targets also keep in-rows, bit u of ``_in[x]`` set
for u -> x, and a class per vertex, 0 for the pool.
"""

from __future__ import annotations

import base64
import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice
from typing import NoReturn

from .errors import (
    ArityExceeded,
    BudgetExceeded,
    CapacityExceeded,
    ClassCollision,
    DomainError,
    InvalidClass,
    InvariantViolation,
    ParseError,
    PreconditionViolated,
    RealizationError,
)
from .graphs import OrientedGraph, bits, canonical_json, count_text
from .rng import SplitMix64, derive_seed

VERIFIER_VERSION = "1"
_DEFAULT_VERIFY_BUDGET = 20_000_000
_DEFAULT_MINIMAL_BUDGET = 1 << 20
_SAMPLE_ATTEMPTS = 32
# verify_full's scan ORs the first _HEAD_BLOCKS blocks of 8 members (48
# members) inside every member mask A, and the rest only for an A they leave
# short.  Not a tuning knob: at arity 2 a member of a fair random orientation
# realises a given sign pair with probability 1/4, so 48 members all miss it
# with probability (3/4)^48, about 1e-6 per pair.
_HEAD_BLOCKS = 6
# _BIT_DIGITS[t] maps a byte to b"1" when its bit t is set and to b"0"
# otherwise; masks are rebuilt from such digits by int(digits, 2)
_BIT_DIGITS = [bytes(48 + (x >> t & 1) for x in range(256)) for t in range(8)]


@dataclass
class FailureWitness:
    """A (class, vertex set, sign vector) combination nobody realizes.

    Falsy so that ``verify_full`` can return either True or a witness.
    """

    class_index: int
    vertices: tuple[int, ...]
    signs: tuple[int, ...]

    def __bool__(self) -> bool:
        return False

    def to_dict(self) -> dict:
        """The JSON object ``full verify`` and criterion 1 report."""
        return {"class": self.class_index, "vertices": list(self.vertices), "signs": list(self.signs)}


def _check_vertex(u: int, vertex_count: int) -> None:
    """The gate every target's class_of, orientation, query and
    install_pool_arc share: each vertex asked about, constraint vertex and
    pool-arc end names an existing vertex."""
    if not 0 <= u < vertex_count:
        raise InvalidClass(f"vertex {u} outside 0..{vertex_count - 1}")


class _BitRows:
    """The calls every target answers from its out-rows ``_out``."""

    __slots__ = ()

    @property
    def vertex_count(self) -> int:
        return len(self._out)

    def orientation(self, a: int, b: int) -> int | None:
        """+1 when the arc runs a -> b, -1 when b -> a, None when the pair
        carries none: inside a class, or a pool or lazy pair not yet fixed."""
        out = self._out
        n = len(out)
        if not (0 <= a < n and 0 <= b < n):
            _check_vertex(a, n)
            _check_vertex(b, n)
        if out[a] >> b & 1:
            return 1
        if out[b] >> a & 1:
            return -1
        return None

    def to_oriented_graph(self) -> OrientedGraph:
        return OrientedGraph._from_masks(self._out)


class FullTarget(_BitRows):
    """Oriented complete k-partite graph with N vertices per class.

    Vertices are 0..k*N-1; class c (1-based) holds vertices (c-1)*N..c*N-1.
    ``certified`` records a successful verification at arity d.
    """

    __slots__ = ("k", "d", "N", "seed", "_out", "certified")

    # the arc-list form is bench-only: bench/run.py:308 rebuilds each target from its arcs
    def __init__(self, k: int, d: int, N: int, arcs, seed: int | None = None):
        if k < 1 or N < 1 or d < 1:
            raise DomainError("need k, d, N >= 1")
        self.k, self.d, self.N = k, d, N
        self.seed = seed
        self.certified = False
        n = k * N
        if not isinstance(arcs, (list, tuple)):
            arcs = list(arcs)  # counted before the pass and, if refused, walked again
        pairs = (n * n - k * N * N) // 2
        if not pairs and not arcs:  # one class: no cross pair
            self._out = [0] * n
            return
        out = _marked_rows(k, N, arcs) if len(arcs) == pairs else None
        if out is None:
            _raise_arc_defect(n, N, pairs, arcs)
        self._out = out

    @classmethod
    def _from_out_masks(cls, k: int, d: int, N: int, out: list[int], seed: int | None) -> "FullTarget":
        t = cls.__new__(cls)
        t.k, t.d, t.N, t.seed = k, d, N, seed
        t.certified = False
        t._out = out
        return t

    def class_of(self, v: int) -> int:
        _check_vertex(v, self.vertex_count)
        return v // self.N + 1

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        # pair u < v is bit sum_{w<u} (n-1-w) + (v-u-1): the upper-triangle
        # rows in order, row u of length n-1-u, written as zero-filled binary
        # digits from row n-2 (the highest) down; row n-1 is empty
        n, out = self.vertex_count, self._out
        size = (n * (n - 1) // 2 + 7) // 8
        digits = "".join(format(out[u] >> u + 1, f"0{n - 1 - u}b") for u in range(n - 2, -1, -1))
        total = int(digits or "0", 2)
        payload = {
            "k": self.k,
            "d": self.d,
            "N": self.N,
            "seed": self.seed,
            "arcs": base64.b64encode(total.to_bytes(size, "little")).decode("ascii"),
            "certificate": {
                "verified": self.certified,
                "verifier_version": VERIFIER_VERSION,
            },
        }
        return canonical_json(payload)

    @classmethod
    def from_json(cls, text: str) -> "FullTarget":
        """Inverse of to_json; malformed text raises ParseError.

        The arcs decode as one little-endian int, cut into to_json's rows by
        ``_cut_rows`` in one pass over its binary digits.  Bits of pairs
        inside a class, the padding bits of the last byte and any bytes past
        them are ignored.  The certificate's ``verified``, when present, must
        be true or false; the target loads certified only when it is true
        and the verifier version matches.  The seed must be an integer or
        null (or absent).
        """
        try:
            obj = json.loads(text)
            k, d, N = obj["k"], obj["d"], obj["N"]
            raw = base64.b64decode(obj["arcs"], validate=True)
        # RecursionError: json.loads on a document nested past the stack depth
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise ParseError(f"bad target JSON: {exc!r}", 1) from None
        if not all(type(x) is int and x >= 1 for x in (k, d, N)):
            raise ParseError(f"k, d, N must be positive integers, got {k!r}, {d!r}, {N!r}", 1)
        seed = obj.get("seed")
        if seed is not None and type(seed) is not int:
            raise ParseError(f"seed must be an integer or null, got {seed!r}", 1)
        cert = obj.get("certificate", {})
        if not isinstance(cert, dict):
            raise ParseError(f"certificate must be an object, got {cert!r}", 1)
        verified = cert.get("verified", False)
        if type(verified) is not bool:
            raise ParseError(f"certificate's verified must be true or false, got {verified!r}", 1)
        n = k * N
        need = (n * (n - 1) // 2 + 7) // 8
        if len(raw) < need:
            raise ParseError(f"arcs field holds {len(raw)} bytes, a {k}x{N} target needs {need}", 1)
        rows = _cut_rows(int.from_bytes(raw[:need], "little"), [n - 1 - u for u in range(n)])
        upper = []
        for u, row in enumerate(rows):
            # row u holds v = u+1..n-1; the class of u ends before v = start
            start = (u // N + 1) * N
            upper.append(row >> start - u - 1 << start)
        t = cls._from_out_masks(k, d, N, _with_lower(upper, N), seed)
        t.certified = verified and cert.get("verifier_version") == VERIFIER_VERSION
        return t


def _marked_rows(k: int, N: int, arcs) -> list[int] | None:
    """Out-masks from a list of exactly as many arcs as cross pairs, or None
    when an arc is out of range, an entry is no pair of ints, or the arcs do
    not orient every cross pair once.

    Each arc marks one byte per ordered pair; row u of the marks, reversed,
    is the digits of out[u].  The rows are accepted only when out[u] ^ in[u]
    is u's cross-class mask for every u, that is when every cross pair is
    marked in exactly one direction.  That takes one arc per cross pair, all
    the arcs there are, so none is left to be a loop, to lie inside a class
    or to repeat a pair in either direction.
    """
    n = k * N
    seen = bytearray(n * n)
    try:
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                return None
            seen[u * n + v] = 1
    except (TypeError, ValueError):
        return None
    digits = _BIT_DIGITS[0]
    out = [int(seen[u * n : (u + 1) * n][::-1].translate(digits), 2) for u in range(n)]
    full = (1 << n) - 1
    cross = [full ^ ((1 << N) - 1) << c * N for c in range(k)]
    if all(row ^ col == cross[u // N] for u, (row, col) in enumerate(zip(out, _transpose(out)))):
        return out
    return None


def _raise_arc_defect(n: int, N: int, pairs: int, arcs) -> NoReturn:
    """Raise FullTarget's error for arcs that do not orient each cross pair
    once: the first arc out of range, inside a class or repeating a pair, in
    list order, or else the first vertex a short list leaves incomplete."""
    # seen[u*n + v] is 1 for the arc u -> v and 2 for v -> u: one byte per
    # ordered pair, sized only for a list long enough to orient every
    # cross pair.  A shorter list is refused below, so a dict holds its
    # few marks instead.
    seen = bytearray(n * n) if len(arcs) >= pairs > 0 else defaultdict(int)
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise InvariantViolation(f"arc ({u},{v}) out of range")
        if u // N == v // N:
            raise InvariantViolation(f"arc ({u},{v}) inside a class")
        uv = u * n + v
        if seen[uv]:
            raise InvariantViolation(f"pair ({u},{v}) oriented twice")
        seen[uv] = 1
        seen[v * n + u] = 2
    # every arc is a distinct cross pair, so the list is short: one of full
    # length would have passed _marked_rows
    degree = Counter(chain.from_iterable(arcs))
    u = next(u for u in range(n) if degree[u] != n - N)
    raise InvariantViolation(f"vertex {u} is not complete to the other classes")


def _transpose(rows: list[int]) -> list[int]:
    """Columns of the square bit matrix with the given rows: bit u of
    column v is bit v of row u.

    The rows are laid out as bytes; one strided slice takes byte b of every
    row, and translating it to one bit's digits gives a column per bit.
    """
    n = len(rows)
    width = (n + 7) // 8
    matrix = b"".join(row.to_bytes(width, "little") for row in rows)
    columns = []
    for b in range(width):
        column_bytes = matrix[b::width][::-1]  # row n-1 first: the high digit
        columns += [int(column_bytes.translate(digits), 2) for digits in _BIT_DIGITS]
    return columns[:n]


def _cut_rows(word: int, lengths: list[int]) -> list[int]:
    """Consecutive fields of ``word``, lowest bits first: field i is the
    ``lengths[i]`` bits above the first sum(lengths[:i]).  Bits above the
    total length are ignored.

    The word is written out once as binary digits and each field read back
    from its slice, so the cost is linear in the total length, where
    shifting the word once per field would be quadratic.
    """
    total = sum(lengths)
    digits = format(word & ((1 << total) - 1), f"0{total}b")
    fields = []
    for length in lengths:
        fields.append(int(digits[total - length : total] or "0", 2))
        total -= length
    return fields


def _with_lower(upper: list[int], N: int) -> list[int]:
    """Out-masks from their upper halves: ``upper[u]`` holds the v > u of
    later classes that u points at, and every other cross pair runs the
    other way, so v points at u < v of an earlier class exactly when
    upper[u] misses v."""
    below = _transpose(upper)
    return [row | below[v] ^ ((1 << v // N * N) - 1) for v, row in enumerate(upper)]


def _cyclic_bipartite_target(N: int, offsets: tuple[int, ...], d: int) -> FullTarget:
    """Oriented K_{N,N}: class-1 vertex i points toward class-2 vertex j
    exactly when (j - i) mod N is in ``offsets``."""
    row = sum(1 << j for j in offsets)  # vertex 0's row; vertex i's is it rotated by i
    word = sum(((row << i | row >> N - i) & ((1 << N) - 1)) << i * N for i in range(N))
    return FullTarget._from_out_masks(2, d, N, _orient_cross_pairs(2, N, word), None)


def cyclic_k66_target() -> FullTarget:
    """Oriented K_{6,6} whose sign patterns are the cyclic shifts of (+,+,-,+,-,-).

    Class 1 holds vertices 0..5, class 2 holds 6..11; vertex i of class 1
    points toward class-2 vertices i, i+1 and i+3 (cyclically) and receives
    from the other three.  Every row and every column of a class's sign
    matrix is then a 3-subset of 6, no two equal and no two complementary,
    so every pair of outside vertices sees all four sign pairs: the target
    certifies at arity 2.  No smaller two-class target does: a class's N x N
    sign matrix must be a binary covering array of strength 2, which has at
    most C(N-1, ceil(N/2)) columns (Kleitman & Spencer 1973; Katona 1973),
    fewer than N for every N <= 5.
    """
    return _cyclic_bipartite_target(6, (0, 1, 3), 2)


# -- verification -------------------------------------------------------------


def _points_at(t: FullTarget, c: int, u: int) -> int:
    """Mask of the members of class c (bit i for the i-th) that point at u,
    outside class c: those that u does not point at."""
    return ~t._out[u] >> (c - 1) * t.N & ((1 << t.N) - 1)


def _subset_or_tables(rows: list[int]) -> list[list[int]]:
    """For each block of 8 consecutive rows, the OR of every subset of the
    block's rows, indexed by the subset's bits (bit i for the block's i-th
    row).  Each entry is one smaller entry ORed with one row."""
    tables = []
    for b in range(0, len(rows), 8):
        table = [0]
        for row in rows[b : b + 8]:
            table += [x | row for x in table]
        tables.append(table)
    return tables


def _verify_arity(k: int, d: int, N: int) -> int:
    """verify_full's arity for a (k, d, N) target; BudgetExceeded over the verify budget."""
    outside_count = (k - 1) * N
    arity = min(d, outside_count)
    work = k * math.comb(outside_count, arity) * (1 << arity)
    if work > _DEFAULT_VERIFY_BUDGET:
        raise BudgetExceeded(f"verification needs ~{count_text(work)} checks, budget {_DEFAULT_VERIFY_BUDGET}")
    return arity


@lru_cache(maxsize=8)
def _scan_shape(k: int, d: int, N: int):
    """verify_full's setup for (k, d, N), kept for minimal_full_N's thousands of calls:
    the arity, each S but its last vertex as outside positions, each class's outside."""
    arity, n, full = _verify_arity(k, d, N), k * N, (1 << N) - 1
    prefixes = [*combinations(range((k - 1) * N), max(arity - 2, 0))]
    return arity, prefixes, [(b, ((1 << n) - 1) ^ full << b, [*range(b), *range(b + N, n)]) for b in range(0, n, N)]


def verify_full(t: FullTarget):
    """Check the realization property at the target's arity.

    Checking subsets of size exactly min(d, outside) suffices: any realizer
    for a superset realizes the subset.  Returns True (and marks the target
    certified) or a falsy FailureWitness for the lexicographically first
    failing (class, subset) with its first missing sign vector.

    Every arity runs one Four-Russians scan.  A subset is S, its first d - 1
    vertices, and a later w.  For each S in lexicographic order and each
    sign vector over S, A is the members with those signs, and the OR of
    their rows, read from per-class subset-OR tables of 8 rows each, gives
    every w that A realises with each last sign; the two vectors differing
    only at S's last vertex u share one pass over the tables.  Only the
    first _HEAD_BLOCKS tables are read for every A, the rest for an A they
    leave short.  S leads the plain scan's order too, so the witness is the
    first S with a miss, its least missed w and first missing sign vector.
    """
    arity, prefixes, classes = _scan_shape(t.k, t.d, t.N)
    n, N, full, blocks = t.vertex_count, t.N, (1 << t.N) - 1, (t.N + 7) // 8
    for c, (base, outside_mask, outside) in enumerate(classes, 1):
        plus = [_points_at(t, c, u) for u in outside]
        minus = [full ^ p for p in plus]
        # member i's row: the outside w it points at (sign +), below those pointing at it (sign -)
        rows = [r | (outside_mask ^ r) << n for r in t._out[base : base + N]]
        head = _subset_or_tables(rows[: 8 * _HEAD_BLOCKS])
        tail = []  # the later blocks' tables, built for the first A the head leaves short
        # S's last vertex u, with the members of sign - and + toward it; at arity 1
        # S is empty, and a stand-in u = -1 with all members on both sides comes first
        lasts = ([-1], [full], [full]) if arity == 1 else (outside, minus, plus)
        for prefix in prefixes:
            # each sign vector over S but u, -1 before +1, with its members
            vectors = [((), full)]
            for j in prefix:
                vectors = [(sigma + (s,), a & m) for sigma, a in vectors for s, m in ((-1, minus[j]), (1, plus[j]))]
            for u, minus_u, plus_u in islice(zip(*lasts), prefix[-1] + 1 if prefix else 0, None):
                later = outside_mask >> u + 1 << u + 1
                first = None  # the least w missed on S, with its first missing sign vector
                for sigma, a in vectors:
                    neg_bytes = (a & minus_u).to_bytes(blocks, "little")
                    pos_bytes = (a & plus_u).to_bytes(blocks, "little")
                    neg = pos = 0
                    for table, x, y in zip(head, neg_bytes, pos_bytes):
                        neg |= table[x]
                        pos |= table[y]
                    if later & ~(neg >> n & neg & pos >> n & pos):
                        # ORs only add bits, so the tail can only shrink the miss
                        tail = tail or _subset_or_tables(rows[8 * _HEAD_BLOCKS :])
                        for table, x, y in zip(tail, neg_bytes[_HEAD_BLOCKS:], pos_bytes[_HEAD_BLOCKS:]):
                            neg |= table[x]
                            pos |= table[y]
                        missed = later & ~(neg >> n & neg & pos >> n & pos)
                        w = (missed & -missed).bit_length() - 1
                        if missed and (first is None or w < first[0]):
                            side, s = (pos, 1) if (neg >> n & neg) >> w & 1 else (neg, -1)
                            first = w, sigma + (s, 1 if side >> n + w & 1 else -1)
                if first:
                    # at arity 1 the stand-in u and its sign drop out
                    vertices = (*map(outside.__getitem__, prefix), u, first[0])
                    return FailureWitness(c, vertices[-arity:], first[1][-arity:])
    t.certified = True
    return True


def failure_probability_bound(k: int, d: int, N: int) -> float:
    """Union bound on a random orientation failing: k*(kN)^d*2^d*exp(-N/2^d)."""
    if k < 1 or d < 1 or N < 1:
        raise DomainError("need k, d, N >= 1")
    try:
        tail = math.exp(-N / (1 << d))
    except OverflowError:
        tail = 0.0
    return float(k) * float(k * N) ** d * (1 << d) * tail


def _orient_cross_pairs(k: int, N: int, word: int) -> list[int]:
    """Out-masks of a complete k-partite graph with N vertices per class.

    Cross-class pairs u < v are taken in lexicographic order; the i-th is
    oriented u -> v when bit i of ``word`` is set and v -> u otherwise.
    Row u is the next n - start bits, start being the first vertex of the
    class after u's.
    """
    n = k * N
    starts = [(u // N + 1) * N for u in range(n)]
    rows = _cut_rows(word, [n - start for start in starts])
    return _with_lower([row << start for row, start in zip(rows, starts)], N)


def sample_full(k: int, d: int, seed: int = 0) -> FullTarget:
    """Sample and certify a (k, d, N)-full target with N = ceil(8^d * ln k).

    Las Vegas: each attempt orients all cross-class pairs by independent fair
    coins from a seed-derived stream and runs the verifier; the first
    certified sample is returned.  Raises BudgetExceeded when all
    _SAMPLE_ATTEMPTS samples fail (astronomically unlikely at the designed N),
    or before the first coin when the verifier's budget refuses (k, d, N).
    """
    if k < 5 or d < 2:
        raise DomainError("sampling bound proved for k >= 5, d >= 2")
    if d >= _DEFAULT_VERIFY_BUDGET.bit_length():
        # the verifier's 2^d sign patterns alone pass its budget, so 8^d is not built
        raise BudgetExceeded(f"verification needs over 2^{d} checks, budget {_DEFAULT_VERIFY_BUDGET}")
    N = math.ceil(8**d * math.log(k))
    _verify_arity(k, d, N)
    pairs = k * (k - 1) // 2 * N * N
    for attempt in range(_SAMPLE_ATTEMPTS):
        rng = SplitMix64(derive_seed(seed, 0xF011, attempt))
        out = _orient_cross_pairs(k, N, rng.coin_bits(pairs))
        t = FullTarget._from_out_masks(k, d, N, out, derive_seed(seed, 0xF011, attempt))
        if verify_full(t) is True:
            return t
    raise BudgetExceeded(f"no certified sample within {_SAMPLE_ATTEMPTS} attempts")


def minimal_full_N(k: int, d: int, n_cap: int = 6) -> int | None:
    """Smallest N <= n_cap admitting a (k, d, N)-full orientation, by exhaustion.

    Scans N upward, trying every orientation of the complete k-partite graph.
    Returns None when all N up to the cap fail.  Tiny parameters only
    (1 <= k <= 3, 1 <= d <= 2, N <= 6); BudgetExceeded when 2^(cross pairs)
    would blow the orientation budget.
    """
    if k < 1 or d < 1:
        raise DomainError("need k, d >= 1")
    if k > 3 or d > 2 or n_cap > 6:
        raise DomainError("exhaustive search supports k <= 3, d <= 2, N <= 6")
    for N in range(1, n_cap + 1):
        pairs = k * (k - 1) // 2 * N * N
        if 1 << pairs > _DEFAULT_MINIMAL_BUDGET:
            raise BudgetExceeded(f"N = {N} needs 2^{pairs} orientations, budget {_DEFAULT_MINIMAL_BUDGET}")
        for code in range(1 << pairs):
            out = _orient_cross_pairs(k, N, code)
            t = FullTarget._from_out_masks(k, d, N, out, None)
            if verify_full(t) is True:
                return N
    return None


# -- restricted targets --------------------------------------------------------


def _check_pool_request(in_use: bool, count: int, capacity: int) -> None:
    """The reserve_pool gates every target shares, in their fixed order."""
    if count < 0:
        raise DomainError(f"cannot reserve {count} pool vertices")
    if in_use:
        raise PreconditionViolated("reserved pool already in use")
    if count > capacity:
        raise CapacityExceeded(f"{count} vertices exceed the reserved pool capacity {capacity}")


def _check_pool_arc(target, a: int, b: int, vertex_count: int) -> None:
    """The install_pool_arc gates every target shares, in their fixed order."""
    _check_vertex(a, vertex_count)
    _check_vertex(b, vertex_count)
    if target.class_of(a) != 0 or target.class_of(b) != 0:
        raise InvalidClass("pool arcs may only join pool vertices")
    if a == b:
        raise InvariantViolation("loop in pool")
    if target.orientation(a, b) is not None:
        raise InvariantViolation(f"pool pair ({a},{b}) already oriented")


class _PoolRows(_BitRows):
    """The calls both pool targets answer from their rows: ``_in`` beside
    ``_out``, bit u of ``_in[x]`` set for the arc u -> x, and ``_class_of``,
    each vertex's class, 0 for the pool."""

    __slots__ = ()

    def class_of(self, v: int) -> int:
        _check_vertex(v, len(self._class_of))
        return self._class_of[v]

    def install_pool_arc(self, a: int, b: int) -> None:
        _check_pool_arc(self, a, b, len(self._out))
        self._out[a] |= 1 << b
        self._in[b] |= 1 << a

    def realizes(self, x: int, heads: int, tails: int) -> bool:
        """Whether x -> h for every bit h of ``heads`` and t -> x for every
        bit t of ``tails``; x must be a vertex, unchecked."""
        return not (heads & ~self._out[x] or tails & ~self._in[x])


class RestrictedTarget(_PoolRows):
    """A full target with its top classes merged into a reserved pool.

    Classes 1..free_classes keep their cross arcs; vertices of the remaining
    classes form the pool (class 0) and the arcs among them are deleted.
    Arcs inside the pool exist only when installed explicitly.

    The rows are built once: the base's out-rows with the bits among pool
    vertices cleared, and the in-rows, every other cross pair of a vertex.
    So is each free class's member mask.  A query ANDs the class's member
    mask with one row per constraint and answers the lowest member left.
    The arity gate reads the base's certification on every query, since it
    may be certified after this target is built.
    """

    def __init__(self, base: FullTarget, free_classes: int):
        if not 1 <= free_classes < base.k:
            raise DomainError("need 1 <= free_classes < k")
        self.base = base
        self.free_classes = free_classes
        N, n = base.N, base.vertex_count
        lo = free_classes * N  # the first pool vertex
        self.pool: tuple[int, ...] = tuple(range(lo, n))
        self._reserved = False  # whether reserve_pool has handed out a slot
        self._class_of = [v // N + 1 for v in range(lo)] + [0] * (n - lo)
        free = (1 << lo) - 1  # a pool vertex's cross pairs: the free classes
        cross = [((1 << n) - 1) ^ ((1 << N) - 1) << c * N for c in range(free_classes)]
        self._out = [row if v < lo else row & free for v, row in enumerate(base._out)]
        self._in = [(cross[v // N] if v < lo else free) ^ row for v, row in enumerate(self._out)]
        # indexed by class; the pool (class 0) is never queried
        self._members = [0] + [(1 << N) - 1 << c * N for c in range(free_classes)]

    @property
    def fullness_arity(self) -> int | None:
        return self.base.d if self.base.certified else None

    @property
    def pool_capacity(self) -> int:
        return len(self.pool)

    def reserve_pool(self, count: int) -> list[int]:
        """The first ``count`` pool vertices; the pool may hold no slot or arc yet."""
        lo = self.pool[0]  # a pool row has bits from lo up only for installed arcs
        in_use = self._reserved or any(row >> lo for row in self._out[lo:])
        _check_pool_request(in_use, count, self.pool_capacity)
        self._reserved = count > 0
        return list(self.pool[:count])

    def query(self, class_index: int, constraints: dict[int, int]) -> int:
        """A class vertex pointing per ``constraints`` (image -> sign toward it)."""
        if not 1 <= class_index <= self.free_classes:
            raise InvalidClass(f"class {class_index} outside 1..{self.free_classes}")
        base = self.base
        if base.certified and len(constraints) > base.d:
            raise ArityExceeded(f"{len(constraints)} constraints exceed certified arity {base.d}")
        out, inn, class_of = self._out, self._in, self._class_of
        n = len(out)
        mask = self._members[class_index]
        for u, sign in constraints.items():
            if not 0 <= u < n:
                _check_vertex(u, n)
            if class_of[u] == class_index:
                raise ClassCollision(f"constraint vertex {u} lies in class {class_index}")
            # sign 1 keeps the members with an arc into u, any other sign those u points at
            mask &= inn[u] if sign == 1 else out[u]
            if not mask:
                raise RealizationError(
                    f"class {class_index} realizes no vertex for {constraints}"
                )
        return (mask & -mask).bit_length() - 1

    realizer = query  # bench-only alias: bench/run.py:310 calls it, bench/spans.py:114 traces it


# bench-only: bench/run.py:309 calls it and bench/spans.py:110 traces it
def build_restricted(base: FullTarget, free_classes: int) -> RestrictedTarget:
    """Merge the classes above ``free_classes`` into the reserved pool."""
    return RestrictedTarget(base, free_classes)


# -- lazy targets ----------------------------------------------------------------


class LazyTarget(_PoolRows):
    """On-demand realization of a full-style target of unbounded class size.

    Vertices are minted as queries arrive; a pair's orientation is fixed the
    first time a query constrains it and memoized forever, so replaying the
    same query sequence reproduces every answer.  Queries prefer the earliest
    compatible minted vertex, minting fresh only when no existing class
    vertex can satisfy the constraints.

    Each minted vertex x keeps two bit rows: bit u of its out-row is set when
    x -> u is fixed, and of its in-row when u -> x is.  Each class keeps a
    member mask.  Vertices are numbered in mint order, so the lowest member
    bit no constraint row blocks is the earliest compatible vertex.
    """

    def __init__(self, free_classes: int, pool_capacity: int):
        if free_classes < 1 or pool_capacity < 0:
            raise DomainError("need free_classes >= 1 and pool_capacity >= 0")
        self.free_classes = free_classes
        self.pool_capacity = pool_capacity
        self._class_of: list[int] = []
        self._out: list[int] = []
        self._in: list[int] = []
        self._members: dict[int, int] = {}

    def minted(self, c: int) -> list[int]:
        return list(bits(self._members.get(c, 0)))

    def _mint(self, c: int) -> int:
        v = len(self._class_of)
        self._class_of.append(c)
        self._out.append(0)
        self._in.append(0)
        self._members[c] = self._members.get(c, 0) | 1 << v
        return v

    def reserve_pool(self, count: int) -> list[int]:
        """Mint ``count`` pool vertices; no pool vertex may be minted yet."""
        _check_pool_request(bool(self._members.get(0)), count, self.pool_capacity)
        return [self._mint(0) for _ in range(count)]

    def query(self, class_index: int, constraints: dict[int, int]) -> int:
        """A class vertex oriented per ``constraints`` (vertex -> sign toward it).

        Reuses the earliest minted vertex whose already-fixed orientations all
        match, fixing its constrained pairs that are still open; mints a fresh
        vertex otherwise, which always succeeds.
        """
        if not 1 <= class_index <= self.free_classes:
            raise InvalidClass(f"class {class_index} outside 1..{self.free_classes}")
        class_of, out, inn = self._class_of, self._out, self._in
        count = len(class_of)
        # a member is blocked by u when its pair with u is fixed the other way
        blocked = 0
        for u, sign in constraints.items():
            if not 0 <= u < count:
                _check_vertex(u, count)
            if class_of[u] == class_index:
                raise ClassCollision(f"constraint vertex {u} lies in class {class_index}")
            blocked |= out[u] if sign == 1 else inn[u]
        free = self._members.get(class_index, 0) & ~blocked
        x = (free & -free).bit_length() - 1 if free else self._mint(class_index)
        # fix each constrained pair on both rows (_mint appends to these same lists)
        bit = 1 << x
        for u, sign in constraints.items():
            if sign == 1:
                out[x] |= 1 << u
                inn[u] |= bit
            else:
                out[u] |= bit
                inn[x] |= 1 << u
        return x
