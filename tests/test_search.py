from itertools import product
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hstarkit.boxgroup import DEFAULT_VOLUME_CAP, enumerate_box_group
from hstarkit.errors import InvalidParametersError, VolumeTooLargeError
from hstarkit.search import _window_generators, realize_cyclic_group, search_windows
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

    def test_volume_cap_checked_before_listing_the_group(self):
        q = DEFAULT_VOLUME_CAP + 1
        with pytest.raises(VolumeTooLargeError):
            realize_cyclic_group((1, q - 1), q)


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
