import hashlib
import json
from functools import cache, partial
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orichrome import (
    FullTarget,
    LazyTarget,
    RestrictedTarget,
    cyclic_k66_target,
    failure_probability_bound,
    minimal_full_N,
    sample_full,
    verify_full,
)
from orichrome.errors import (
    ArityExceeded,
    BudgetExceeded,
    CapacityExceeded,
    ClassCollision,
    DomainError,
    InvalidClass,
    InvariantViolation,
    ParseError,
    RealizationError,
)
from orichrome import targets
from orichrome.rng import SplitMix64, derive_seed
from orichrome.targets import _cyclic_bipartite_target, _points_at

from conftest import cyclic_k44_target, pool_arcs

seeds = st.integers(min_value=0, max_value=2**62)


def random_target(k: int, d: int, N: int, seed: int) -> FullTarget:
    rng = SplitMix64(derive_seed(seed, 0x7E57))
    n = k * N
    arcs = []
    for a in range(n):
        for b in range(a + 1, n):
            if a // N != b // N:
                arcs.append((a, b) if rng.coin() else (b, a))
    return FullTarget(k, d, N, arcs, seed=seed)


def witness_key(res):
    return True if res is True else (res.class_index, res.vertices, res.signs)


def biased_target(k: int, d: int, N: int, bias: float, rng: SplitMix64) -> FullTarget:
    """Each cross pair u < v runs u -> v with probability ``bias``."""
    cut = int(bias * 2**64)
    n = k * N
    arcs = []
    for a in range(n):
        for b in range(a + 1, n):
            if a // N != b // N:
                arcs.append((a, b) if rng.next_u64() < cut else (b, a))
    return FullTarget(k, d, N, arcs)


def naive_verify(t: FullTarget):
    """Reference verifier: no bitsets, no fast paths, straight from the definition."""
    n = t.k * t.N
    for c in range(1, t.k + 1):
        members = range((c - 1) * t.N, c * t.N)
        outside = [v for v in range(n) if t.class_of(v) != c]
        arity = min(t.d, len(outside))
        for subset in combinations(outside, arity):
            for signs in product((-1, 1), repeat=arity):
                if not any(
                    all(t.orientation(x, u) == s for u, s in zip(subset, signs))
                    for x in members
                ):
                    return (c, subset, signs)
    return True


# -- explicit targets ------------------------------------------------------------


def test_constructor_checks_completeness():
    with pytest.raises(InvariantViolation):
        FullTarget(2, 1, 2, [(0, 2), (0, 3), (1, 2)])  # pair (1,3) missing


def test_constructor_rejects_intra_class_arcs():
    arcs = [(0, 2), (0, 3), (1, 2), (1, 3), (0, 1)]
    with pytest.raises(InvariantViolation):
        FullTarget(2, 1, 2, arcs)


def test_class_bookkeeping():
    t = cyclic_k44_target(1)
    assert t.vertex_count == 8
    assert t.class_of(0) == 1 and t.class_of(7) == 2
    assert [v for v in range(t.vertex_count) if t.class_of(v) == 2] == [4, 5, 6, 7]
    assert t.orientation(0, 4) == 1 and t.orientation(4, 0) == -1
    assert t.orientation(0, 1) is None


def test_cyclic_target_certifies_at_arity_1():
    t = cyclic_k44_target(1)
    assert verify_full(t) is True
    assert t.certified


def test_cyclic_target_fails_at_arity_2():
    t = cyclic_k44_target(2)
    res = verify_full(t)
    assert res is not True
    assert not t.certified
    # the first miss, in scan order: no class-1 vertex points away from both
    # antipodal vertices 4 and 6 of the other class simultaneously
    assert (res.class_index, res.vertices, res.signs) == (1, (4, 6), (-1, -1))


def test_every_single_reversal_breaks_arity_2():
    base = cyclic_k44_target(2)
    for u, v in base.to_oriented_graph().arcs():
        out = list(base._out)
        out[u] &= ~(1 << v)
        out[v] |= 1 << u
        t = FullTarget._from_out_masks(2, 2, 4, out, 0)
        assert verify_full(t) is not True


def test_cyclic_k66_target_certifies_at_arity_2():
    t = cyclic_k66_target()
    assert t.vertex_count == 12
    assert naive_verify(t) is True
    assert verify_full(t) is True
    assert t.certified


def test_one_way_bipartite_fails_at_arity_1():
    arcs = [(a, b) for a in range(2) for b in range(2, 4)]
    t = FullTarget(2, 1, 2, arcs)
    res = verify_full(t)
    assert res is not True
    assert res.signs == (-1,)


def test_sample_full_gives_up_after_32_attempts(monkeypatch):
    attempts = []

    def refuse(t):
        attempts.append(t)
        return targets.FailureWitness(1, (), ())

    monkeypatch.setattr(targets, "verify_full", refuse)
    with pytest.raises(BudgetExceeded, match="^no certified sample within 32 attempts$"):
        sample_full(5, 2, seed=0)
    assert len(attempts) == 32


def test_verify_budget_gate():
    t = random_target(2, 6, 64, seed=0)
    with pytest.raises(BudgetExceeded):
        verify_full(t)


@settings(deadline=None, max_examples=60)
@given(
    seeds,
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=1, max_value=3).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(min_value=2, max_value=12 if d <= 2 else 4))
    ),
)
def test_verifier_matches_naive_reference(seed, k, d_and_N):
    d, N = d_and_N
    t = random_target(k, d, N, seed)
    assert witness_key(verify_full(t)) == naive_verify(t)


def test_arity_2_witnesses_match_naive_on_fixed_sample():
    # N up to 40 is five blocks of 8 rows, most of them with a partial last
    # block.  Biased coins fail early, at every sign pair; fair coins, drawn
    # with N >= 24 and k <= 3 to keep the reference fast on a pass, pass or
    # fail at classes past the first.
    rng = SplitMix64(derive_seed(0, 0xB10C))
    seen = []
    for i in range(300):
        if i % 3 == 0:
            k, N = 2 + rng.randrange(2), 24 + rng.randrange(17)
        else:
            k, N = 2 + rng.randrange(5), 2 + rng.randrange(39)
        t = biased_target(k, 2, N, (0.5, 0.9, 0.97)[i % 3], rng)
        expected = naive_verify(t)
        assert witness_key(verify_full(t)) == expected, (k, N, i)
        seen.append((N, expected))
    failures = [w for _, w in seen if w is not True]
    assert len(failures) < len(seen)
    assert {signs for _, _, signs in failures} == {(-1, -1), (-1, 1), (1, -1), (1, 1)}
    assert len({c for c, _, _ in failures}) >= 3
    assert any(N % 8 and w is True for N, w in seen)


def _point(out: list[int], x: int, u: int, sign: int) -> None:
    """Orient the pair (x, u) x -> u for sign +1 and u -> x for -1."""
    a, b = (x, u) if sign == 1 else (u, x)
    out[a] |= 1 << b
    out[b] &= ~(1 << a)


def test_arity_2_tail_blocks_match_naive(monkeypatch):
    # the first 48 members of class c, its head blocks, all point the same
    # way at an outside pair (u, v), so the head realises one of the pair's
    # four sign pairs and leaves the other three to the N - 48 later members:
    # some of those tails realise them, some do not
    subset_or_tables = targets._subset_or_tables
    tables_for = []  # how many member rows each _subset_or_tables call tabulates

    def recording(rows):
        tables_for.append(len(rows))
        return subset_or_tables(rows)

    monkeypatch.setattr(targets, "_subset_or_tables", recording)
    rng = SplitMix64(derive_seed(0, 0x7A11))
    outcomes = []
    for i in range(24):
        N = 49 + rng.randrange(24)
        out = list(random_target(2, 2, N, i)._out)
        c = 1 + rng.randrange(2)
        other = (2 - c) * N
        u = other + rng.randrange(N)
        v = other + (u - other + 1 + rng.randrange(N - 1)) % N
        su, sv = (2 * rng.randrange(2) - 1 for _ in range(2))
        for x in range((c - 1) * N, (c - 1) * N + 48):
            _point(out, x, u, su)
            _point(out, x, v, sv)
        t = FullTarget._from_out_masks(2, 2, N, out, None)
        tables_for.clear()
        expected = naive_verify(t)
        assert witness_key(verify_full(t)) == expected, (i, N, c, u, v)
        assert N - 48 in tables_for, "the tail blocks were never tabulated"
        outcomes.append(expected is True)
    assert set(outcomes) == {True, False}


def _residue_circulant(p: int, d: int) -> FullTarget:
    """Oriented K_{p,p}: class-1 vertex i points at class-2 vertex j when
    j - i is a quadratic residue mod p."""
    return _cyclic_bipartite_target(p, tuple(sorted({x * x % p for x in range(1, p)})), d)


@pytest.mark.parametrize("p", [19, 23, 31])
def test_arity_3_residue_circulants_certify(p):
    t = _residue_circulant(p, 3)
    assert naive_verify(t) is True
    assert verify_full(t) is True and t.certified


def _reversed(t: FullTarget, u: int, v: int) -> FullTarget:
    """t with its arc u -> v turned round."""
    out = list(t._out)
    _point(out, v, u, 1)
    return FullTarget._from_out_masks(t.k, t.d, t.N, out, None)


@pytest.mark.parametrize(
    "p, arc",
    [(19, (14, 19)), (19, (6, 30)), (19, (18, 36)), (19, (37, 15)), (23, (0, 23)), (23, (9, 41)), (31, (0, 32))],
)
def test_arity_3_reversals_match_naive(p, arc):
    # one reversed arc of a certified circulant: the witness, when there is
    # one, can lie deep in the scan order, e.g. class 1, (29, 36, 37), (-1, -1, -1)
    t = _reversed(_residue_circulant(p, 3), *arc)
    assert witness_key(verify_full(t)) == naive_verify(t)


def test_arity_3_and_4_witnesses_match_naive_on_fixed_sample():
    # at arity 4 no residue circulant inside the budget certifies, so the
    # failing side is all there is to compare there
    rng = SplitMix64(derive_seed(0, 0xA3A4))
    outcomes = {3: [], 4: []}
    for i in range(120):
        d = 3 + i % 2
        k = 2 + rng.randrange(3 if d == 3 else 2)
        N = 2 + rng.randrange(15 if d == 3 else 8)
        t = biased_target(k, d, N, (0.5, 0.5, 0.8)[i % 3], rng)
        expected = naive_verify(t)
        assert witness_key(verify_full(t)) == expected, (i, k, d, N)
        outcomes[d].append(expected)
    for d in (3, 4):
        failures = [w for w in outcomes[d] if w is not True]
        assert len({signs for _, _, signs in failures}) >= 4


@pytest.mark.parametrize("N, seed", [(49, 0), (58, 5), (59, 2), (63, 6), (64, 3)])
def test_arity_3_tail_blocks_match_naive(monkeypatch, N, seed):
    # fair coins on more than 48 members: before the first miss the head
    # leaves a few member masks short that the tail then covers (23 at
    # N = 59, 14 at N = 64)
    subset_or_tables = targets._subset_or_tables
    tables_for = []  # how many member rows each _subset_or_tables call tabulates

    def recording(rows):
        tables_for.append(len(rows))
        return subset_or_tables(rows)

    monkeypatch.setattr(targets, "_subset_or_tables", recording)
    t = random_target(2, 3, N, seed)
    assert witness_key(verify_full(t)) == naive_verify(t)
    assert N - 48 in tables_for, "the tail blocks were never tabulated"


def test_one_class_target_certifies_at_every_arity():
    # k = 1 leaves no outside vertex: arity 0, one empty subset, nothing to miss
    for d in (1, 2, 3, 9):
        t = FullTarget(1, d, 5, [])
        assert naive_verify(t) is True
        assert verify_full(t) is True and t.certified
    assert minimal_full_N(1, 1) == minimal_full_N(1, 2) == 1


def test_points_at_matches_member_loop():
    for seed, (k, N) in enumerate([(2, 3), (3, 8), (4, 9), (5, 17)]):
        t = random_target(k, 2, N, seed)
        for c in range(1, k + 1):
            for u in range(t.vertex_count):
                if t.class_of(u) == c:
                    continue
                base = (c - 1) * N
                mask = 0
                for i in range(N):
                    if t._out[base + i] >> u & 1:
                        mask |= 1 << i
                assert _points_at(t, c, u) == mask


@pytest.mark.parametrize(
    "k, d, N",
    # 10 * C(1332, 2) * 4 = 35.5M and 2 * C(250, 3) * 8 = 41.2M checks, both
    # over the 20M budget
    [(10, 2, 148), (2, 3, 250)],
    ids=["arity-2", "arity-3"],
)
def test_verify_budget_gate_precedes_the_scan(monkeypatch, k, d, N):
    # refused before a single column is read, however fast the scan
    def no_scan(*args):
        raise AssertionError("verify_full scanned a target over budget")

    monkeypatch.setattr(targets, "_points_at", no_scan)
    monkeypatch.setattr(targets, "_subset_or_tables", no_scan)
    with pytest.raises(BudgetExceeded):
        verify_full(FullTarget._from_out_masks(k, d, N, [0] * (k * N), None))


def test_json_round_trip():
    t = cyclic_k44_target(1)
    verify_full(t)
    t2 = FullTarget.from_json(t.to_json())
    assert t2.to_json() == t.to_json()
    assert t2.certified
    assert t2.to_oriented_graph() == t.to_oriented_graph()
    data = json.loads(t.to_json())
    assert data["certificate"]["verified"]


def _k44_with_certificate(certificate: dict) -> str:
    payload = json.loads(cyclic_k44_target(1).to_json())
    payload["certificate"] = certificate
    return json.dumps(payload)


@pytest.mark.parametrize("verified", ["false", "true", "yes", 0, 1, [0], None])
def test_from_json_refuses_a_non_boolean_verified(verified):
    text = _k44_with_certificate({"verified": verified, "verifier_version": targets.VERIFIER_VERSION})
    with pytest.raises(ParseError, match="verified must be true or false"):
        FullTarget.from_json(text)


@pytest.mark.parametrize("seed", [[1, {"x": 2}], "7", 1.5, True])
def test_from_json_refuses_a_seed_neither_int_nor_null(seed):
    payload = json.loads(cyclic_k44_target(1).to_json())
    payload["seed"] = seed
    with pytest.raises(ParseError, match="seed must be an integer or null"):
        FullTarget.from_json(json.dumps(payload))


@pytest.mark.parametrize("seed", [None, 0, -3, 2**70])
def test_from_json_keeps_int_and_null_seeds(seed):
    payload = json.loads(cyclic_k44_target(1).to_json())
    payload["seed"] = seed
    t = FullTarget.from_json(json.dumps(payload))
    assert t.seed == seed
    assert json.loads(t.to_json()) == payload


@pytest.mark.parametrize(
    "certificate, certified",
    [
        ({"verified": True, "verifier_version": targets.VERIFIER_VERSION}, True),
        ({"verified": False, "verifier_version": targets.VERIFIER_VERSION}, False),
        ({"verified": True, "verifier_version": "0"}, False),
        ({"verifier_version": targets.VERIFIER_VERSION}, False),
        ({}, False),
    ],
    ids=["true", "false", "old-verifier", "verified-missing", "empty"],
)
def test_from_json_certified_only_by_true(certificate, certified):
    assert FullTarget.from_json(_k44_with_certificate(certificate)).certified is certified


@pytest.mark.parametrize(
    "make, digest",
    [
        (lambda: cyclic_k44_target(1), "c503f95e86cea5f152218e526bb750d304fd6f792bc4d5e6b3b60268ecd5c285"),
        (lambda: cyclic_k44_target(2), "2737e2a42f799d100a72fc8e764f92626f2242bded48ab29510e04c0912edf89"),
        (cyclic_k66_target, "2090e02a3fa112c34de886f1fd3cf07a0b3e23bb2b92a17597ae613403f8ef85"),
    ],
    ids=["k44-d1", "k44-d2", "k66"],
)
def test_bundled_target_json_pinned(make, digest):
    assert hashlib.sha256(make().to_json().encode()).hexdigest() == digest


# -- probability bound and sampling ----------------------------------------------


def test_failure_bound_values():
    assert failure_probability_bound(5, 2, 104) == pytest.approx(2.7629953463766462e-05)
    assert failure_probability_bound(6, 2, 115) == pytest.approx(3.7320123175226487e-06)
    assert failure_probability_bound(5, 2, 1) > 1


def test_failure_bound_monotone_in_N():
    vals = [failure_probability_bound(5, 2, n) for n in range(80, 140, 10)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_sample_full_desk_scale():
    t = sample_full(5, 2, seed=7)
    assert t.N == 104
    assert t.certified
    assert verify_full(t) is True


def test_sample_full_domain_gate():
    with pytest.raises(DomainError):
        sample_full(4, 2)
    with pytest.raises(DomainError):
        sample_full(5, 1)


def test_sample_full_refuses_before_drawing_a_coin(monkeypatch):
    # k = 20 needs more verify checks than the budget allows: the refusal
    # comes before the first attempt, so no coin is drawn and no row built
    def refuse(self, count):
        raise AssertionError("sample_full drew coins for a target it cannot verify")

    monkeypatch.setattr(SplitMix64, "coin_bits", refuse)
    with pytest.raises(BudgetExceeded, match=r"^verification needs ~532170240 checks, budget 20000000$"):
        sample_full(20, 2)


def test_sample_full_deterministic():
    a = sample_full(5, 2, seed=3)
    b = sample_full(5, 2, seed=3)
    assert a.to_json() == b.to_json()


# -- smallest class size ----------------------------------------------------------


def test_minimal_class_sizes_at_arity_1():
    assert minimal_full_N(2, 1) == 2
    assert minimal_full_N(3, 1) == 2


def test_no_class_size_up_to_4_suffices_at_arity_2():
    assert minimal_full_N(2, 2, n_cap=3) is None
    assert minimal_full_N(2, 2, n_cap=4) is None


def test_minimal_budget_gate():
    # N = 5 needs 2^25 orientations: the gate refuses it rather than
    # searching up to the bundled 6+6 target
    with pytest.raises(BudgetExceeded):
        minimal_full_N(2, 2, n_cap=5)


def test_minimal_domain_gate():
    with pytest.raises(DomainError):
        minimal_full_N(4, 1)
    with pytest.raises(DomainError):
        minimal_full_N(2, 3)
    with pytest.raises(DomainError):
        minimal_full_N(2, 2, n_cap=7)


# -- restricted targets ------------------------------------------------------------


def test_restricted_pool_layout():
    t = cyclic_k44_target(1)
    verify_full(t)
    r = RestrictedTarget(t, 1)
    assert r.pool == (4, 5, 6, 7)
    assert r.pool_capacity == 4
    assert r.class_of(0) == 1 and r.class_of(5) == 0
    assert r.orientation(4, 5) is None
    assert r.orientation(0, 4) == 1


def test_restricted_pool_arcs():
    r = RestrictedTarget(cyclic_k44_target(1), 1)
    r.install_pool_arc(5, 4)
    assert r.orientation(5, 4) == 1
    assert r.orientation(4, 5) == -1
    with pytest.raises(InvariantViolation):
        r.install_pool_arc(4, 5)
    with pytest.raises(InvalidClass):
        r.install_pool_arc(0, 4)


def test_restricted_realizer():
    t = cyclic_k44_target(1)
    verify_full(t)
    r = RestrictedTarget(t, 1)
    x = r.query(1, {4: 1})
    assert r.class_of(x) == 1
    assert t.orientation(x, 4) == 1
    y = r.query(1, {4: -1})
    assert t.orientation(y, 4) == -1


def test_restricted_realizer_gates():
    t = cyclic_k44_target(1)
    verify_full(t)
    r = RestrictedTarget(t, 1)
    with pytest.raises(ArityExceeded):
        r.query(1, {4: 1, 5: 1})
    with pytest.raises(ClassCollision):
        r.query(1, {0: 1})
    with pytest.raises(InvalidClass):
        r.query(2, {0: 1})


def test_restricted_arity_is_read_per_query():
    # the gate follows the base's certification, also one made after building
    t = cyclic_k44_target(1)
    r = RestrictedTarget(t, 1)
    constraints = {u: t.orientation(0, u) for u in (4, 5, 6)}  # vertex 0 realizes them
    assert r.query(1, constraints) == 0
    verify_full(t)
    with pytest.raises(ArityExceeded):
        r.query(1, constraints)


def test_restricted_needs_free_class():
    with pytest.raises(DomainError):
        RestrictedTarget(cyclic_k44_target(1), 2)


def _reference_query(r, cache: dict, class_index: int, constraints: dict[int, int]) -> int:
    """RestrictedTarget.query with its plus rows in ``cache``, a dict per
    class filled one constraint vertex at a time: the reference the library's
    query must agree with, call for call."""
    if not 1 <= class_index <= r.free_classes:
        raise InvalidClass(f"class {class_index} outside 1..{r.free_classes}")
    arity = r.fullness_arity
    if arity is not None and len(constraints) > arity:
        raise ArityExceeded(f"{len(constraints)} constraints exceed certified arity {arity}")
    full = (1 << r.base.N) - 1
    rows = cache.setdefault(class_index, {})
    mask = full
    for u, sign in constraints.items():
        targets._check_vertex(u, r.base.vertex_count)
        if u // r.base.N + 1 == class_index:
            raise ClassCollision(f"constraint vertex {u} lies in class {class_index}")
        plus = rows.get(u)
        if plus is None:
            plus = rows[u] = _points_at(r.base, class_index, u)
        mask &= plus if sign == 1 else full ^ plus
        if not mask:
            raise RealizationError(f"class {class_index} realizes no vertex for {constraints}")
    return (class_index - 1) * r.base.N + (mask & -mask).bit_length() - 1


@cache
def _query_bases() -> dict[str, FullTarget]:
    k66 = cyclic_k66_target()
    verify_full(k66)
    return {"k66": k66, "k5": sample_full(5, 2, seed=1)}


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(["k66", "k5"]), st.data())
def test_restricted_query_matches_dict_reference(name, data):
    base = _query_bases()[name]
    certified = base.certified
    r = RestrictedTarget(base, data.draw(st.integers(min_value=1, max_value=base.k - 1)))
    n, N = base.vertex_count, base.N
    signs = st.sampled_from((1, -1, 0, 2))
    reference = partial(_reference_query, r, {})
    try:
        for _ in range(20):
            base.certified = data.draw(st.booleans())
            free = r.free_classes
            c = data.draw(st.integers(min_value=1, max_value=free) | st.integers(min_value=0, max_value=free + 1))
            # mostly vertices outside the queried class, so that queries get
            # past the gates; long uncertified sets often realize nothing
            lo = (c - 1) * N
            outside = [u for u in range(n) if not lo <= u < lo + N]
            constraints = data.draw(st.dictionaries(st.sampled_from(outside), signs, max_size=10))
            odd = data.draw(st.integers(min_value=0, max_value=5))
            if odd == 0:
                constraints[data.draw(st.sampled_from([-1, n, n + 5, -n]))] = data.draw(signs)
            elif odd == 1:
                constraints[data.draw(st.integers(min_value=0, max_value=n - 1))] = data.draw(signs)
            args = (c, constraints)
            assert _outcome(r.query, *args) == _outcome(reference, *args)
    finally:
        base.certified = certified


def _reference_orientation(r, installed: set, a: int, b: int) -> int | None:
    """RestrictedTarget.orientation through class_of and base.orientation,
    each end checked by both, with the ``installed`` pool arcs kept as a set:
    the reference the library's orientation must agree with, call for call."""

    def class_of(v: int) -> int:
        targets._check_vertex(v, r.base.vertex_count)
        c = v // r.base.N + 1
        return c if c <= r.free_classes else 0

    ca, cb = class_of(a), class_of(b)
    if ca == 0 and cb == 0:
        if (a, b) in installed:
            return 1
        if (b, a) in installed:
            return -1
        return None
    if ca == cb:
        return None
    targets._check_vertex(a, r.base.vertex_count)
    targets._check_vertex(b, r.base.vertex_count)
    if a // r.base.N == b // r.base.N:
        return None
    return 1 if r.base._out[a] >> b & 1 else -1


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(["k66", "k5"]), st.data())
def test_restricted_orientation_matches_reference(name, data):
    base = _query_bases()[name]
    r = RestrictedTarget(base, data.draw(st.integers(min_value=1, max_value=base.k - 1)))
    n, N = base.vertex_count, base.N
    pool = st.sampled_from(r.pool)
    installed = set()
    for _ in range(data.draw(st.integers(min_value=0, max_value=8))):
        a, b = data.draw(pool), data.draw(pool)
        if a != b and r.orientation(a, b) is None:
            r.install_pool_arc(a, b)
            installed.add((a, b))
    assert r._in == targets._transpose(r._out)  # the in-rows mirror the out-rows
    # the ends of every class and of the installed arcs, drawn vertices, and
    # ends just outside and far outside the target, in every pair
    inside = {v for c in range(base.k) for v in (c * N, c * N + N - 1)}
    inside.update(v for arc in installed for v in arc)
    inside.update(data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=12)))
    ends = [-n - 1, -2, -1, *sorted(inside), n, n + 1, 10**6]
    for a in ends:
        for b in ends:
            assert _outcome(r.orientation, a, b) == _outcome(_reference_orientation, r, installed, a, b)


def _assert_realizes_matches_orientation(t, data) -> None:
    """``realizes(x, heads, tails)`` against one orientation call per bit, for
    drawn x and masks: mostly images x realizes, with at most one arbitrary
    vertex in each mask, so both answers come up."""
    n = t.vertex_count
    vertex = st.integers(min_value=0, max_value=n - 1)
    for _ in range(8):
        x = data.draw(vertex)
        outs = [h for h in range(n) if t.orientation(x, h) == 1]
        ins = [u for u in range(n) if t.orientation(u, x) == 1]
        masks = []
        for realized in (outs, ins):
            chosen = data.draw(st.sets(st.sampled_from(realized)) if realized else st.just(set()))
            chosen |= data.draw(st.sets(vertex, max_size=1))
            masks.append(chosen)
        heads, tails = masks
        expected = all(t.orientation(x, h) == 1 for h in heads) and all(t.orientation(u, x) == 1 for u in tails)
        assert t.realizes(x, sum(1 << h for h in heads), sum(1 << u for u in tails)) is expected


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=4), st.data())
def test_lazy_realizes_matches_orientation(free_classes, pool_capacity, data):
    t = LazyTarget(free_classes, pool_capacity)
    pool = t.reserve_pool(data.draw(st.integers(min_value=0, max_value=pool_capacity)))
    for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
        if pool and data.draw(st.booleans()):
            a, b = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
            if a != b and t.orientation(a, b) is None:
                t.install_pool_arc(a, b)
        else:
            c = data.draw(st.integers(min_value=1, max_value=free_classes))
            outside = [u for u in range(t.vertex_count) if t.class_of(u) != c]
            signs = st.sampled_from((1, -1))
            t.query(c, data.draw(st.dictionaries(st.sampled_from(outside), signs, max_size=4)) if outside else {})
    _assert_realizes_matches_orientation(t, data)


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=5), seeds, st.data())
def test_restricted_realizes_matches_orientation(k, N, seed, data):
    r = RestrictedTarget(random_target(k, 2, N, seed), data.draw(st.integers(min_value=1, max_value=k - 1)))
    pool = st.sampled_from(r.pool)
    for _ in range(data.draw(st.integers(min_value=0, max_value=6))):
        a, b = data.draw(pool), data.draw(pool)
        if a != b and r.orientation(a, b) is None:
            r.install_pool_arc(a, b)
    _assert_realizes_matches_orientation(r, data)


# each target with the state a query or a pool arc may change: installed pool
# arcs for the restricted target, minted vertices and fixed orientations for
# the lazy one
QUERY_TARGETS = {
    "restricted": (lambda: RestrictedTarget(cyclic_k44_target(1), 1), pool_arcs),
    "lazy": (lambda: LazyTarget(3, 2), lambda t: (t.vertex_count, t.to_oriented_graph().arcs())),
}


@pytest.mark.parametrize("constraints", [{10**6: -1}, {-1: 1}], ids=["above", "negative"])
@pytest.mark.parametrize("name", list(QUERY_TARGETS))
def test_query_refuses_vertex_outside_target(name, constraints):
    make, state = QUERY_TARGETS[name]
    t = make()
    a, b = t.reserve_pool(2)
    t.install_pool_arc(a, b)
    before = state(t)
    with pytest.raises(InvalidClass):
        t.query(1, constraints)
    assert state(t) == before


@pytest.mark.parametrize("outside", [10**6, -1], ids=["above", "negative"])
@pytest.mark.parametrize("name", list(QUERY_TARGETS))
def test_pool_arc_refuses_vertex_outside_target(name, outside):
    make, state = QUERY_TARGETS[name]
    t = make()
    (a,) = t.reserve_pool(1)
    before = state(t)
    for ends in ((a, outside), (outside, a), (outside, outside + 1)):
        with pytest.raises(InvalidClass):
            t.install_pool_arc(*ends)
    assert state(t) == before


def _lazy_with_one_vertex():
    t = LazyTarget(3, 2)
    t.query(1, {})
    return t


# vertices the targets lack: 12 of a 12-vertex target, and -1, which an
# unchecked index reads as the last vertex
OUTSIDE_CALLS = {
    "full-class_of": (cyclic_k66_target, lambda t: t.class_of(-1), -1, 11),
    "full-orientation": (cyclic_k66_target, lambda t: t.orientation(-1, 0), -1, 11),
    "restricted-class_of": (
        lambda: RestrictedTarget(cyclic_k66_target(), 1), lambda t: t.class_of(12), 12, 11
    ),
    "restricted-orientation": (
        lambda: RestrictedTarget(cyclic_k66_target(), 1), lambda t: t.orientation(-1, 0), -1, 11
    ),
    "lazy-class_of": (_lazy_with_one_vertex, lambda t: t.class_of(-1), -1, 0),
    "lazy-orientation": (_lazy_with_one_vertex, lambda t: t.orientation(-1, 0), -1, 0),
}


@pytest.mark.parametrize("name", list(OUTSIDE_CALLS))
def test_targets_refuse_vertices_they_do_not_have(name):
    make, call, vertex, last = OUTSIDE_CALLS[name]
    with pytest.raises(InvalidClass) as info:
        call(make())
    assert str(info.value) == f"vertex {vertex} outside 0..{last}"


# -- lazy targets -------------------------------------------------------------------


def test_lazy_minting_and_classes():
    t = LazyTarget(free_classes=3, pool_capacity=2)
    with pytest.raises(CapacityExceeded):
        t.reserve_pool(3)
    assert t.vertex_count == 0  # refused before any vertex is minted
    p0, p1 = t.reserve_pool(2)
    assert t.class_of(p0) == 0 and t.class_of(p1) == 0


def test_lazy_pool_arcs():
    t = LazyTarget(2, 2)
    a, b = t.reserve_pool(2)
    assert t.orientation(a, b) is None
    t.install_pool_arc(a, b)
    assert t.orientation(a, b) == 1
    with pytest.raises(InvariantViolation):
        t.install_pool_arc(b, a)


def test_lazy_query_respects_constraints():
    t = LazyTarget(3, 1)
    (p,) = t.reserve_pool(1)
    x = t.query(1, {p: 1})
    assert t.class_of(x) == 1
    assert t.orientation(x, p) == 1
    y = t.query(2, {x: -1, p: 1})
    assert t.orientation(y, x) == -1
    assert t.orientation(y, p) == 1


def test_lazy_query_reuses_compatible_vertices():
    t = LazyTarget(2, 1)
    (p,) = t.reserve_pool(1)
    x = t.query(1, {p: 1})
    assert t.query(1, {p: 1}) == x
    z = t.query(1, {p: -1})
    assert z != x


def test_lazy_query_gates():
    t = LazyTarget(2, 1)
    (p,) = t.reserve_pool(1)
    x = t.query(1, {p: 1})
    with pytest.raises(ClassCollision):
        t.query(1, {x: 1})
    with pytest.raises(InvalidClass):
        t.query(3, {})


def test_lazy_orientation_memo_is_stable():
    t = LazyTarget(2, 0)
    x = t.query(1, {})
    y = t.query(2, {})
    assert t.orientation(x, y) is None
    # the constraint fixes the open pair on y, so y is reused
    assert t.query(2, {x: -1}) == y
    assert t.orientation(y, x) == -1
    assert t.orientation(x, y) == 1
    assert t.query(2, {x: -1}) == y
    assert t.query(2, {x: 1}) != y
    assert t.orientation(y, x) == -1


def test_lazy_same_class_never_adjacent():
    t = LazyTarget(2, 1)
    (p,) = t.reserve_pool(1)
    x = t.query(1, {p: 1})
    y = t.query(1, {p: -1})
    assert x != y
    assert t.orientation(x, y) is None


def test_lazy_replay_determinism():
    def drive():
        t = LazyTarget(4, 3)
        out = []
        p, q = t.reserve_pool(2)
        t.install_pool_arc(q, p)
        for c in (1, 2, 3, 1):
            out.append(t.query(c, {p: 1, q: -1}))
        x, y = out[0], out[1]
        out.append(t.query(2, {x: -1}))
        out.append(t.orientation(x, y))
        return out, t.to_oriented_graph().arcs()

    assert drive() == drive()


def test_lazy_to_oriented_graph_consistent():
    t = LazyTarget(3, 2)
    (p,) = t.reserve_pool(1)
    x = t.query(1, {p: 1})
    y = t.query(2, {x: 1, p: -1})
    g = t.to_oriented_graph()
    for a, b in g.arcs():
        assert t.orientation(a, b) == 1
    assert g.has_arc(x, p) and g.has_arc(y, x)


class _DictLazyTarget:
    """The lazy target as a dict of orientations keyed by ordered pairs and a
    list of minted vertices per class, scanned candidate by candidate: the
    reference the bit-row LazyTarget must agree with, call for call."""

    def __init__(self, free_classes: int, pool_capacity: int):
        if free_classes < 1 or pool_capacity < 0:
            raise DomainError("need free_classes >= 1 and pool_capacity >= 0")
        self.free_classes = free_classes
        self.pool_capacity = pool_capacity
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

    def reserve_pool(self, count: int) -> list[int]:
        targets._check_pool_request(bool(self._minted.get(0)), count, self.pool_capacity)
        return [self._mint(0) for _ in range(count)]

    def _get(self, a: int, b: int) -> int | None:
        key = (a, b) if a < b else (b, a)
        s = self._orient.get(key)
        if s is None:
            return None
        return s if a < b else -s

    def _set(self, a: int, b: int, sign: int) -> None:
        key = (a, b) if a < b else (b, a)
        self._orient[key] = sign if a < b else -sign

    def orientation(self, a: int, b: int) -> int | None:
        targets._check_vertex(a, self.vertex_count)
        targets._check_vertex(b, self.vertex_count)
        if self._class_of[a] == self._class_of[b] != 0:
            return None
        return self._get(a, b)

    def install_pool_arc(self, a: int, b: int) -> None:
        targets._check_pool_arc(self, a, b, self.vertex_count)
        self._set(a, b, 1)

    def query(self, class_index: int, constraints: dict[int, int]) -> int:
        if not 1 <= class_index <= self.free_classes:
            raise InvalidClass(f"class {class_index} outside 1..{self.free_classes}")
        for u in constraints:
            targets._check_vertex(u, self.vertex_count)
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

    def fixed_arcs(self) -> list[tuple[int, int]]:
        arcs = []
        for (a, b), s in self._orient.items():
            arcs.append((a, b) if s == 1 else (b, a))
        return sorted(arcs)


def _outcome(call, *args):
    """A call's return value, or its exception's type and message."""
    try:
        return call(*args)
    except Exception as exc:  # every refusal is compared, whatever its type
        return type(exc), str(exc)


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=4), st.data())
def test_lazy_target_matches_dict_reference(free_classes, pool_capacity, data):
    new = LazyTarget(free_classes, pool_capacity)
    old = _DictLazyTarget(free_classes, pool_capacity)
    signs = st.sampled_from((1, -1))
    for _ in range(20):
        V = old.vertex_count
        vertex = st.integers(min_value=-1, max_value=V)  # both ends one past the range
        op = data.draw(st.sampled_from(["reserve_pool", "install_pool_arc"] + ["query"] * 7))
        if op == "reserve_pool":
            args = (data.draw(st.integers(min_value=-1, max_value=pool_capacity + 1)),)
        elif op == "install_pool_arc":
            args = (data.draw(vertex), data.draw(vertex))
        else:
            # mostly a free class and vertices outside it, so that queries get
            # past the gates and meet fixed pairs; now and then anything
            odd = data.draw(st.integers(min_value=0, max_value=7)) == 0
            c = data.draw(st.integers(min_value=0, max_value=free_classes + 1) if odd else st.integers(min_value=1, max_value=free_classes))
            outside = [v for v in range(V) if old.class_of(v) != c]
            constraints = data.draw(st.dictionaries(st.sampled_from(outside) if outside else vertex, signs, max_size=6))
            if odd:
                constraints[data.draw(vertex)] = data.draw(signs)
            args = (c, constraints)
        assert _outcome(getattr(new, op), *args) == _outcome(getattr(old, op), *args)
        V = old.vertex_count
        assert new.vertex_count == V
        assert [new.class_of(v) for v in range(V)] == [old.class_of(v) for v in range(V)]
        for c in range(-1, free_classes + 2):
            assert new.minted(c) == old.minted(c)
        g = new.to_oriented_graph()
        assert (g.n, sorted(g.arcs())) == (V, old.fixed_arcs())
        assert new._in == targets._transpose(new._out)
        for a in range(-V - 1, V + 1):
            for b in range(-V - 1, V + 1):
                assert _outcome(new.orientation, a, b) == _outcome(old.orientation, a, b)
