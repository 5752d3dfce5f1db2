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
orientation and free_classes.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from itertools import combinations, product

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
from .graphs import OrientedGraph
from .rng import SplitMix64, derive_seed

VERIFIER_VERSION = "1"
_DEFAULT_VERIFY_BUDGET = 20_000_000
_DEFAULT_MINIMAL_BUDGET = 1 << 20
_SAMPLE_ATTEMPTS = 32


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


class FullTarget:
    """Oriented complete k-partite graph with N vertices per class.

    Vertices are 0..k*N-1; class c (1-based) holds vertices (c-1)*N..c*N-1.
    ``certified`` records a successful verification at arity d.
    """

    __slots__ = ("k", "d", "N", "seed", "_out", "certified")

    def __init__(self, k: int, d: int, N: int, arcs, seed: int | None = None):
        if k < 1 or N < 1 or d < 1:
            raise DomainError("need k, d, N >= 1")
        self.k, self.d, self.N = k, d, N
        self.seed = seed
        self.certified = False
        n = k * N
        out = [0] * n
        inn = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise InvariantViolation(f"arc ({u},{v}) out of range")
            if u // N == v // N:
                raise InvariantViolation(f"arc ({u},{v}) inside a class")
            if out[u] >> v & 1 or out[v] >> u & 1:
                raise InvariantViolation(f"pair ({u},{v}) oriented twice")
            out[u] |= 1 << v
            inn[v] |= 1 << u
        self._out = out
        class_mask = (1 << N) - 1
        for u in range(n):
            expected = ((1 << n) - 1) ^ (class_mask << (u // N * N))
            if (out[u] | inn[u]) != expected:
                raise InvariantViolation(f"vertex {u} is not complete to the other classes")

    @classmethod
    def _from_out_masks(cls, k: int, d: int, N: int, out: list[int], seed: int | None) -> "FullTarget":
        t = cls.__new__(cls)
        t.k, t.d, t.N, t.seed = k, d, N, seed
        t.certified = False
        t._out = out
        return t

    @property
    def vertex_count(self) -> int:
        return self.k * self.N

    def class_of(self, v: int) -> int:
        return v // self.N + 1

    def class_members(self, c: int) -> range:
        if not 1 <= c <= self.k:
            raise InvalidClass(f"class {c} outside 1..{self.k}")
        return range((c - 1) * self.N, c * self.N)

    def orientation(self, a: int, b: int) -> int | None:
        """+1 when the arc runs a -> b, -1 when b -> a, None inside a class."""
        if a // self.N == b // self.N:
            return None
        if self._out[a] >> b & 1:
            return 1
        return -1

    def has_arc(self, a: int, b: int) -> bool:
        return bool(self._out[a] >> b & 1)

    def to_oriented_graph(self) -> OrientedGraph:
        return OrientedGraph._from_masks(list(self._out))

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        n = self.vertex_count
        bitstring = bytearray((n * (n - 1) // 2 + 7) // 8)
        idx = 0
        for u in range(n):
            for v in range(u + 1, n):
                if self._out[u] >> v & 1:
                    bitstring[idx >> 3] |= 1 << (idx & 7)
                idx += 1
        payload = {
            "k": self.k,
            "d": self.d,
            "N": self.N,
            "seed": self.seed,
            "arcs": base64.b64encode(bytes(bitstring)).decode("ascii"),
            "certificate": {
                "verified": self.certified,
                "verifier_version": VERIFIER_VERSION,
            },
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FullTarget":
        """Inverse of to_json; malformed text raises ParseError."""
        try:
            obj = json.loads(text)
            k, d, N = obj["k"], obj["d"], obj["N"]
            raw = base64.b64decode(obj["arcs"], validate=True)
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseError(f"bad target JSON: {exc!r}", 1) from None
        if not all(type(x) is int and x >= 1 for x in (k, d, N)):
            raise ParseError(f"k, d, N must be positive integers, got {k!r}, {d!r}, {N!r}", 1)
        n = k * N
        need = (n * (n - 1) // 2 + 7) // 8
        if len(raw) < need:
            raise ParseError(f"arcs field holds {len(raw)} bytes, a {k}x{N} target needs {need}", 1)
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
        t = cls._from_out_masks(k, d, N, out, obj.get("seed"))
        cert = obj.get("certificate", {})
        t.certified = bool(cert.get("verified")) and cert.get("verifier_version") == VERIFIER_VERSION
        return t


def cyclic_k44_target(d: int = 2) -> FullTarget:
    """Oriented K_{4,4} whose sign patterns are the cyclic shifts of (+,+,-,-).

    Class 1 holds vertices 0..3, class 2 holds 4..7; vertex i of class 1
    points toward class-2 vertices i and i+1 (cyclically) and receives from
    the other two.  Realizes both signs toward every single outside vertex,
    but misses half the patterns on antipodal pairs, so it certifies at
    arity 1 and fails at arity 2.
    """
    arcs = []
    for i in range(4):
        for j in range(4):
            if (j - i) % 4 in (0, 1):
                arcs.append((i, 4 + j))
            else:
                arcs.append((4 + j, i))
    return FullTarget(2, d, 4, arcs)


# -- verification -------------------------------------------------------------


def _class_sign_masks(t: FullTarget, c: int) -> tuple[list[int], int, int]:
    """For class c: per-outside-vertex mask of class members pointing at it."""
    base = (c - 1) * t.N
    full = (1 << t.N) - 1
    outside = [v for v in range(t.vertex_count) if v // t.N != c - 1]
    plus = []
    for u in outside:
        mask = 0
        for i in range(t.N):
            if t._out[base + i] >> u & 1:
                mask |= 1 << i
        plus.append(mask)
    return plus, full, base


def verify_full(t: FullTarget, budget: int | None = None):
    """Check the realization property at the target's arity.

    Checking subsets of size exactly min(d, outside) suffices: any realizer
    for a superset realizes the subset.  Returns True (and marks the target
    certified) or a falsy FailureWitness for the lexicographically first
    failing (class, subset) with its first missing sign vector.
    """
    budget = _DEFAULT_VERIFY_BUDGET if budget is None else budget
    outside_count = (t.k - 1) * t.N
    arity = min(t.d, outside_count)
    work = t.k * math.comb(outside_count, arity) * (1 << arity)
    if work > budget:
        raise BudgetExceeded(f"verification needs ~{work} checks, budget {budget}")

    for c in range(1, t.k + 1):
        plus, full, base = _class_sign_masks(t, c)
        outside = [v for v in range(t.vertex_count) if v // t.N != c - 1]
        if arity == 0:
            continue
        # sign vectors are scanned with -1 before +1, matching the plain
        # product((-1, 1), ...) reference order, so witnesses are canonical
        if arity == 1:
            for j, u in enumerate(outside):
                if plus[j] == full:
                    return FailureWitness(c, (u,), (-1,))
                if plus[j] == 0:
                    return FailureWitness(c, (u,), (1,))
            continue
        if arity == 2:
            for j1 in range(len(outside)):
                p1 = plus[j1]
                m1 = full ^ p1
                for j2 in range(j1 + 1, len(outside)):
                    p2 = plus[j2]
                    m2 = full ^ p2
                    if not m1 & m2:
                        return FailureWitness(c, (outside[j1], outside[j2]), (-1, -1))
                    if not m1 & p2:
                        return FailureWitness(c, (outside[j1], outside[j2]), (-1, 1))
                    if not p1 & m2:
                        return FailureWitness(c, (outside[j1], outside[j2]), (1, -1))
                    if not p1 & p2:
                        return FailureWitness(c, (outside[j1], outside[j2]), (1, 1))
            continue
        for combo in combinations(range(len(outside)), arity):
            for signs in product((-1, 1), repeat=arity):
                mask = full
                for j, s in zip(combo, signs):
                    mask &= plus[j] if s == 1 else full ^ plus[j]
                    if not mask:
                        break
                if not mask:
                    return FailureWitness(c, tuple(outside[j] for j in combo), signs)
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


def sample_full(k: int, d: int, seed: int = 0, max_attempts: int = _SAMPLE_ATTEMPTS, budget: int | None = None) -> FullTarget:
    """Sample and certify a (k, d, N)-full target with N = ceil(8^d * ln k).

    Las Vegas: each attempt orients all cross-class pairs by independent fair
    coins from a seed-derived stream and runs the verifier; the first
    certified sample is returned.  Raises BudgetExceeded when max_attempts
    samples all fail (astronomically unlikely at the designed N).
    """
    if k < 5 or d < 2:
        raise DomainError("sampling bound proved for k >= 5, d >= 2")
    N = math.ceil(8**d * math.log(k))
    n = k * N
    for attempt in range(max_attempts):
        rng = SplitMix64(derive_seed(seed, 0xF011, attempt))
        out = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if u // N != v // N:
                    if rng.coin():
                        out[u] |= 1 << v
                    else:
                        out[v] |= 1 << u
        t = FullTarget._from_out_masks(k, d, N, out, derive_seed(seed, 0xF011, attempt))
        if verify_full(t, budget=budget) is True:
            return t
    raise BudgetExceeded(f"no certified sample within {max_attempts} attempts")


def minimal_full_N(k: int, d: int, n_cap: int = 6, budget: int | None = None) -> int | None:
    """Smallest N <= n_cap admitting a (k, d, N)-full orientation, by exhaustion.

    Scans N upward, trying every orientation of the complete k-partite graph.
    Returns None when all N up to the cap fail.  Tiny parameters only
    (k <= 3, d <= 2, N <= 6); BudgetExceeded when 2^(cross pairs) would blow
    the orientation budget.
    """
    if k > 3 or d > 2 or n_cap > 6:
        raise DomainError("exhaustive search supports k <= 3, d <= 2, N <= 6")
    budget = _DEFAULT_MINIMAL_BUDGET if budget is None else budget
    for N in range(1, n_cap + 1):
        cross = []
        n = k * N
        for u in range(n):
            for v in range(u + 1, n):
                if u // N != v // N:
                    cross.append((u, v))
        if 1 << len(cross) > budget:
            raise BudgetExceeded(
                f"N = {N} needs 2^{len(cross)} orientations, budget {budget}"
            )
        for code in range(1 << len(cross)):
            out = [0] * n
            for i, (u, v) in enumerate(cross):
                if code >> i & 1:
                    out[u] |= 1 << v
                else:
                    out[v] |= 1 << u
            t = FullTarget._from_out_masks(k, d, N, out, None)
            if verify_full(t) is True:
                return N
    return None


# -- restricted targets --------------------------------------------------------


def _check_pool_request(in_use: bool, count: int, capacity: int) -> None:
    """The reserve_pool gates every target shares, in their fixed order."""
    if in_use:
        raise PreconditionViolated("reserved pool already carries arcs")
    if count > capacity:
        raise CapacityExceeded(f"{count} vertices exceed the reserved pool capacity {capacity}")


class RestrictedTarget:
    """A full target with its top classes merged into a reserved pool.

    Classes 1..free_classes keep their cross arcs; vertices of the remaining
    classes form the pool (class 0) and the arcs among them are deleted.
    Arcs inside the pool exist only when installed explicitly.
    """

    def __init__(self, base: FullTarget, free_classes: int):
        if not 1 <= free_classes < base.k:
            raise DomainError("need 1 <= free_classes < k")
        self.base = base
        self.free_classes = free_classes
        self.pool: tuple[int, ...] = tuple(range(free_classes * base.N, base.vertex_count))
        self.extra_arcs: list[tuple[int, int]] = []
        self._extra_set: set[tuple[int, int]] = set()
        self._plus_cache: dict[int, dict[int, int]] = {}

    @property
    def fullness_arity(self) -> int | None:
        return self.base.d if self.base.certified else None

    @property
    def pool_capacity(self) -> int:
        return len(self.pool)

    def class_of(self, v: int) -> int:
        c = self.base.class_of(v)
        return c if c <= self.free_classes else 0

    def class_members(self, c: int):
        if c == 0:
            return self.pool
        if not 1 <= c <= self.free_classes:
            raise InvalidClass(f"class {c} outside 0..{self.free_classes}")
        return self.base.class_members(c)

    def orientation(self, a: int, b: int) -> int | None:
        ca, cb = self.class_of(a), self.class_of(b)
        if ca == 0 and cb == 0:
            if (a, b) in self._extra_set:
                return 1
            if (b, a) in self._extra_set:
                return -1
            return None
        if ca == cb:
            return None
        return self.base.orientation(a, b)

    def install_pool_arc(self, a: int, b: int) -> None:
        if self.class_of(a) != 0 or self.class_of(b) != 0:
            raise InvalidClass("pool arcs may only join pool vertices")
        if a == b:
            raise InvariantViolation("loop in pool")
        if (a, b) in self._extra_set or (b, a) in self._extra_set:
            raise InvariantViolation(f"pool pair ({a},{b}) already oriented")
        self.extra_arcs.append((a, b))
        self._extra_set.add((a, b))

    def reserve_pool(self, count: int) -> list[int]:
        """The first ``count`` pool vertices; the pool must carry no arcs yet."""
        _check_pool_request(bool(self.extra_arcs), count, self.pool_capacity)
        return list(self.pool[:count])

    def query(self, class_index: int, constraints: dict[int, int]) -> int:
        """A class vertex pointing per ``constraints`` (image -> sign toward it)."""
        if not 1 <= class_index <= self.free_classes:
            raise InvalidClass(f"class {class_index} outside 1..{self.free_classes}")
        arity = self.fullness_arity
        if arity is not None and len(constraints) > arity:
            raise ArityExceeded(f"{len(constraints)} constraints exceed certified arity {arity}")
        base = (class_index - 1) * self.base.N
        full = (1 << self.base.N) - 1
        cache = self._plus_cache.setdefault(class_index, {})
        mask = full
        for u, sign in constraints.items():
            if self.base.class_of(u) == class_index:
                raise ClassCollision(f"constraint vertex {u} lies in class {class_index}")
            plus = cache.get(u)
            if plus is None:
                plus = 0
                for i in range(self.base.N):
                    if self.base.has_arc(base + i, u):
                        plus |= 1 << i
                cache[u] = plus
            mask &= plus if sign == 1 else full ^ plus
            if not mask:
                raise RealizationError(
                    f"class {class_index} realizes no vertex for {constraints}"
                )
        return base + (mask & -mask).bit_length() - 1

    realizer = query  # older name, still called and traced by bench/


def build_restricted(base: FullTarget, free_classes: int) -> RestrictedTarget:
    """Merge the classes above ``free_classes`` into the reserved pool."""
    return RestrictedTarget(base, free_classes)


# -- lazy targets ----------------------------------------------------------------


class LazyTarget:
    """On-demand realization of a full-style target of unbounded class size.

    Vertices are minted as queries arrive; a pair's orientation is fixed the
    first time something depends on it and memoized forever, so replaying the
    same query sequence with the same seed reproduces every answer.  Queries
    prefer the earliest compatible minted vertex, minting fresh only when no
    existing class vertex can satisfy the constraints.
    """

    def __init__(self, free_classes: int, pool_capacity: int, seed: int = 0):
        if free_classes < 1 or pool_capacity < 0:
            raise DomainError("need free_classes >= 1 and pool_capacity >= 0")
        self.free_classes = free_classes
        self.pool_capacity = pool_capacity
        self.seed = seed
        self.fullness_arity: int | None = None  # unbounded
        self._rng = SplitMix64(derive_seed(seed, 0x1A5E))
        self._class_of: list[int] = []
        self._minted: dict[int, list[int]] = {}
        self._orient: dict[tuple[int, int], int] = {}

    @property
    def vertex_count(self) -> int:
        return len(self._class_of)

    def class_of(self, v: int) -> int:
        return self._class_of[v]

    def minted(self, c: int) -> list[int]:
        return list(self._minted.get(c, ()))

    def _mint(self, c: int) -> int:
        v = len(self._class_of)
        self._class_of.append(c)
        self._minted.setdefault(c, []).append(v)
        return v

    def mint_pool(self) -> int:
        if len(self._minted.get(0, ())) >= self.pool_capacity:
            raise CapacityExceeded(f"reserved pool holds only {self.pool_capacity} vertices")
        return self._mint(0)

    def reserve_pool(self, count: int) -> list[int]:
        """Mint ``count`` pool vertices; no pool vertex may be minted yet."""
        _check_pool_request(bool(self._minted.get(0)), count, self.pool_capacity)
        return [self.mint_pool() for _ in range(count)]

    def _get(self, a: int, b: int) -> int | None:
        """Memoized orientation as a sign from a's point of view."""
        key = (a, b) if a < b else (b, a)
        s = self._orient.get(key)
        if s is None:
            return None
        return s if a < b else -s

    def _set(self, a: int, b: int, sign: int) -> None:
        key = (a, b) if a < b else (b, a)
        self._orient[key] = sign if a < b else -sign

    def orientation(self, a: int, b: int, decide: bool = False) -> int | None:
        """Orientation between two minted vertices; optionally coin-decides.

        Same-class pairs (including undecided pool pairs) carry no arc and
        always return None; pool pairs become arcs only via install_pool_arc.
        """
        if self._class_of[a] == self._class_of[b]:
            if self._class_of[a] == 0:
                return self._get(a, b)
            return None
        s = self._get(a, b)
        if s is None and decide:
            s = self._rng.sign()
            self._set(a, b, s)
        return s

    def install_pool_arc(self, a: int, b: int) -> None:
        if self._class_of[a] != 0 or self._class_of[b] != 0:
            raise InvalidClass("pool arcs may only join pool vertices")
        if a == b:
            raise InvariantViolation("loop in pool")
        if self._get(a, b) is not None:
            raise InvariantViolation(f"pool pair ({a},{b}) already oriented")
        self._set(a, b, 1)

    def query(self, class_index: int, constraints: dict[int, int]) -> int:
        """A class vertex oriented per ``constraints`` (vertex -> sign toward it).

        Reuses the earliest minted vertex whose already-fixed orientations all
        match, fixing its undecided constrained pairs; mints a fresh vertex
        otherwise, which always succeeds.
        """
        if not 1 <= class_index <= self.free_classes:
            raise InvalidClass(f"class {class_index} outside 1..{self.free_classes}")
        for u in constraints:
            if self._class_of[u] == class_index:
                raise ClassCollision(f"constraint vertex {u} lies in class {class_index}")
        for x in self._minted.get(class_index, ()):
            ok = True
            for u, sign in constraints.items():
                s = self._get(x, u)
                if s is not None and s != sign:
                    ok = False
                    break
            if ok:
                for u, sign in constraints.items():
                    if self._get(x, u) is None:
                        self._set(x, u, sign)
                return x
        x = self._mint(class_index)
        for u, sign in constraints.items():
            self._set(x, u, sign)
        return x

    def decided_arcs(self) -> list[tuple[int, int]]:
        """All fixed orientations as arcs (tail, head), sorted."""
        arcs = []
        for (a, b), s in self._orient.items():
            arcs.append((a, b) if s == 1 else (b, a))
        return sorted(arcs)

    def to_oriented_graph(self) -> OrientedGraph:
        """The currently-realized finite graph (minted vertices, fixed arcs)."""
        return OrientedGraph(self.vertex_count, self.decided_arcs())
