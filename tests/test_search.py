import sys
from itertools import product
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hstarkit import boxgroup, search
from hstarkit.boxgroup import DEFAULT_VOLUME_CAP, enumerate_box_group
from hstarkit.errors import (
    InternalCheckError,
    InvalidParametersError,
    NotASimplexError,
    VolumeTooLargeError,
)
from hstarkit.search import _window_generators, realize_cyclic_group, search_windows
from hstarkit.linalg import adjugate
from hstarkit.simplex import from_vertices, normalized_volume
from hstarkit.theorem import extract_face


@st.composite
def cyclic_generators(draw):
    """(generator, q): entries in [0, q) (zeros likely), sum divisible by q,
    order exactly q, in a random vertex order."""
    q = draw(st.integers(1, 60))
    length = draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.integers(0, q - 1))
    head = draw(st.lists(entry, min_size=length - 1, max_size=length - 1))
    generator = tuple(draw(st.permutations(head + [-sum(head) % q])))
    assume(gcd(q, *generator) == 1)
    return generator, q


def assert_realizes(generator, q):
    simplex = realize_cyclic_group(generator, q)
    assert simplex.dimension == len(generator) - 1
    group = enumerate_box_group(simplex)
    multiples = np.arange(q)[:, None] * np.array(generator, dtype=np.int64) % q
    assert group.order == group.exponent == q
    assert sorted(map(tuple, group.rows().tolist())) == sorted(map(tuple, multiples.tolist()))


def assert_invalid_variants_raise(generator, q):
    out_of_range = (generator[0] + q,) + generator[1:]
    with pytest.raises(InvalidParametersError, match=r"lie in \[0, q\)"):
        realize_cyclic_group(out_of_range, q)
    if q > 1:
        with pytest.raises(InvalidParametersError, match="divisible by q"):
            realize_cyclic_group(generator + (1,), q)
    with pytest.raises(InvalidParametersError, match="order exactly q"):
        realize_cyclic_group(tuple(2 * a for a in generator), 2 * q)


class TestRealizeCyclicGroup:
    @given(cyclic_generators())
    @settings(max_examples=200, deadline=None)
    def test_group_is_the_multiples_of_the_generator(self, case):
        assert_realizes(*case)
        assert_invalid_variants_raise(*case)

    @pytest.mark.parametrize(
        "generator, q",
        [
            ((0,), 1),
            ((0, 0), 1),
            ((0, 0, 0), 1),
            ((0, 1, 5), 6),
            ((1, 2, 3, 5, 99980), 99991),
            ((99990, 0, 7, 0, 99985, 0, 0), 99991),
        ],
    )
    def test_trivial_and_large_orders(self, generator, q):
        assert_realizes(generator, q)
        assert_invalid_variants_raise(generator, q)

    def test_order_one_is_the_unit_segment(self):
        assert realize_cyclic_group((0, 0), 1).vertices == ((0,), (1,))

    def test_realizes_past_the_volume_cap(self):
        # The certificate lists no group, so the cap is the enumeration's alone.
        q = DEFAULT_VOLUME_CAP + 1
        simplex = realize_cyclic_group((1, q - 1), q)
        assert normalized_volume(simplex) == q
        with pytest.raises(VolumeTooLargeError):
            enumerate_box_group(simplex)


def realized_mutant(monkeypatch, generator, q, mutate):
    """The simplex realize_cyclic_group builds when ``mutate`` rewrites its
    vertex list, and whether its certificate raised."""
    built = []

    def mutated(dim, verts):
        built.append(from_vertices(dim, mutate([list(v) for v in verts])))
        return built[-1]

    with monkeypatch.context() as m:
        m.setattr(search, "from_vertices", mutated)
        try:
            realize_cyclic_group(generator, q)
        except InternalCheckError:
            return built[0], True
    return built[0], False


def realizes(simplex, generator, q):
    """The reference: whether the simplex's listed group is <generator/q>."""
    group = enumerate_box_group(simplex)
    multiples = np.arange(q)[:, None] * np.array(generator, dtype=np.int64) % q
    return group.order == group.exponent == q and sorted(
        map(tuple, group.rows().tolist())) == sorted(map(tuple, multiples.tolist()))


def shift_vertex(i, j, delta):
    def mutate(verts):
        verts[i][j] += delta
        return verts
    return mutate


class TestCertificate:
    """realize_cyclic_group's certificate (normalized volume q, generator a
    weight tuple) against the group listed by enumerate_box_group."""

    @pytest.mark.parametrize("generator, q", [((1, 2, 3), 6), ((2, 3, 4, 5), 7)])
    def test_permuted_vertices_keep_the_volume_but_raise(self, monkeypatch, generator, q):
        # A volume check alone would pass these: only membership catches them.
        simplex, raised = realized_mutant(
            monkeypatch, generator, q, lambda verts: verts[:1] + verts[:0:-1])
        assert normalized_volume(simplex) == q
        assert raised and not realizes(simplex, generator, q)

    @pytest.mark.parametrize("generator, q", [((1, 2, 3), 6), ((2, 3, 4, 5), 7)])
    def test_shift_by_q_keeps_membership_but_raises(self, monkeypatch, generator, q):
        # A membership check alone would pass these: only the volume catches them.
        simplex, raised = realized_mutant(monkeypatch, generator, q, shift_vertex(1, 0, q))
        assert normalized_volume(simplex) != q
        assert raised and not realizes(simplex, generator, q)

    def test_perturbed_adjugate_raises(self, monkeypatch):
        def perturbed(rows):
            adj, det = adjugate(rows)
            adj[0][0] += det
            return adj, det

        monkeypatch.setattr(search.linalg, "adjugate", perturbed)
        with pytest.raises(InternalCheckError, match="wrong weight group"):
            realize_cyclic_group((1, 2, 3), 6)

    @given(cyclic_generators(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_the_listed_group_on_vertex_mutants(self, case, data):
        generator, q = case
        n = len(generator) - 1
        assume(n >= 1)
        i = data.draw(st.integers(0, n), label="vertex")
        j = data.draw(st.integers(0, n - 1), label="coordinate")
        delta = data.draw(st.sampled_from([-q, -2, -1, 1, 2, q]), label="delta")
        with pytest.MonkeyPatch.context() as monkeypatch:
            try:
                simplex, raised = realized_mutant(
                    monkeypatch, generator, q, shift_vertex(i, j, delta))
            except NotASimplexError:
                assume(False)
        assert raised == (not realizes(simplex, generator, q))

    def test_search_lists_each_hit_twice(self, monkeypatch):
        # Both listings are extract_face's: the input's group and the face's.
        calls = []
        original = boxgroup.enumerate_box_group

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("hstarkit") and getattr(
                    module, "enumerate_box_group", None) is original:
                monkeypatch.setattr(module, "enumerate_box_group", spy)
        hits = list(search_windows(2, "strong", 24, 4))
        assert (len(hits), len(calls)) == (261, 522)
        calls.clear()
        for q, gen, _ in hits:
            realize_cyclic_group(gen, q)
        assert calls == []


def reference_window_generators(k, window, max_order, max_dim):
    """_window_generators by brute force over tuples: every nondecreasing
    tuple over [1, q-1] with sum divisible by q and gcd 1, its heights
    counted one element at a time, deduplicated on tuple signatures."""
    top = 2 * k - 1 if window == "weak" else 2 * k
    out = [(1, (0, 0))]
    for q in range(2, max_order + 1):
        for length in range(2, max_dim + 2):
            seen = set()
            for gen in product(range(1, q), repeat=length):
                if list(gen) != sorted(gen) or sum(gen) % q or gcd(q, *gen) != 1:
                    continue
                elements = [tuple(j * a % q for a in gen) for j in range(q)]
                if any(k < sum(el) // q <= top for el in elements):
                    continue
                signature = tuple(sorted(tuple(sorted(el)) for el in elements))
                if signature not in seen:
                    seen.add(signature)
                    out.append((q, gen))
    return out


class TestWindowGenerators:
    @pytest.mark.parametrize("window", ["weak", "strong"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_brute_force_reference(self, k, window):
        assert list(_window_generators(k, window, 10, 4)) == reference_window_generators(
            k, window, 10, 4)


class TestSearchWindows:
    def test_hits_are_extraction_certificates(self):
        hits = list(search_windows(2, "weak", 6, 3))
        assert [(q, gen) for q, gen, _ in hits] == list(_window_generators(2, "weak", 6, 3))
        for q, gen, cert in hits:
            assert cert == extract_face(realize_cyclic_group(gen, q), 2)

    def test_limit_cuts_the_hits(self):
        assert len(list(search_windows(2, "weak", 6, 3, limit=2))) == 2

    def test_limit_past_maxsize_is_no_limit(self):
        # itertools.islice refuses a stop past sys.maxsize; no search gets there.
        every = list(search_windows(2, "weak", 5, 2))
        assert list(search_windows(2, "weak", 5, 2, limit=10**20)) == every

    @pytest.mark.parametrize(
        "args",
        [(2, "odd", 6, 3), (0, "weak", 6, 3), (2, "weak", 0, 3), (2, "weak", 6, 21),
         (2, "weak", 6, 3, -1)],
        ids=["window", "k", "max_order", "max_dim", "limit"],
    )
    def test_parameters_checked_on_the_call(self, args):
        with pytest.raises(InvalidParametersError):
            search_windows(*args)
