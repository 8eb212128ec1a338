"""The exact element-by-element reference the array code is tested against.

An element of a group is a tuple of ``Fraction``s, coordinate i being the
weight of vertex i, read off ``group.rows()`` over ``group.exponent``. The
group law and the height here follow the definitions directly: addition is
coordinatewise mod 1, negation is coordinatewise -r mod 1, and the height is
the coordinate sum, which must be an integer.
"""
from fractions import Fraction


def point(nums, den):
    """The element whose coordinate i is nums[i] / den."""
    return tuple(Fraction(x, den) for x in nums)


def elements(group):
    """Every element of the group, in its canonical (height, coordinates) order."""
    q = group.exponent
    return tuple(point(row, q) for row in group.rows().tolist())


def as_rows(points, den):
    """Points as numerator rows over den, a multiple of every coordinate's denominator."""
    rows = [[x * den for x in p] for p in points]
    assert all(x.denominator == 1 for row in rows for x in row), f"{den} is not a common denominator"
    return [[int(x) for x in row] for row in rows]


def zero(length):
    return (Fraction(0),) * length


def height(p):
    total = sum(p)
    assert total.denominator == 1, f"coordinate sum {total} is not an integer"
    return int(total)


def support(p):
    return tuple(i for i, x in enumerate(p) if x)


def add(a, b):
    assert len(a) == len(b), "cannot add tuples of different lengths"
    return tuple((x + y) % 1 for x, y in zip(a, b))


def neg(a):
    return tuple(-x % 1 for x in a)
