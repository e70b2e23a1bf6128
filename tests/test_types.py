"""k-types: enumeration, restriction, types of tuples, serialization."""

import random
from itertools import product
from math import factorial

import pytest

from agekit.errors import InputError
from agekit.ktypes import (
    enumerate_types,
    parse_type,
    partitions_rgs,
    restrict_type,
    serialize_type,
    type_of_raw,
)
from agekit.structures import Signature, structure
from conftest import type_of

SIG = Signature((("lt", 2),))


def chain(n):
    return structure(SIG, n, [("lt", (i, j)) for i in range(n) for j in range(n) if i < j])


def partitions_of(k):
    return list(partitions_rgs(k))


class TestEnumerateTypes:
    def test_linear_orders_three_pair_types(self, linord):
        got = [serialize_type(t) for t in enumerate_types(linord, 2)]
        assert got == [
            "[{0,1}|size=1:]",
            "[{0}{1}|size=2: lt(0,1)]",
            "[{0}{1}|size=2: lt(1,0)]",
        ]

    def test_linear_orders_13_triple_types(self, linord):
        # oracle: sum over partitions of (number of labelled chains on blocks)
        expected = sum(factorial(max(r) + 1) for r in partitions_of(3))
        assert expected == 13
        assert len(enumerate_types(linord, 3)) == 13

    def test_simple_graphs_three_pair_types(self, graphs):
        assert len(enumerate_types(graphs, 2)) == 3

    def test_point_class_single_type_every_level(self, point):
        for k in range(1, 4):
            assert len(enumerate_types(point, k)) == 1

    def test_monotone_in_level(self, bipartite, linord, graphs):
        for cls in (bipartite, linord, graphs):
            counts = [len(enumerate_types(cls, k)) for k in (1, 2, 3)]
            assert counts == sorted(counts)

    def test_quotients_live_in_age(self, trifree):
        from agekit.ages import in_age
        for t in enumerate_types(trifree, 3):
            assert in_age(trifree, t.quotient)


class TestRestrictType:
    def test_swap_reverses_pair(self, linord):
        lt = enumerate_types(linord, 2)[1]
        assert serialize_type(restrict_type(lt, (1, 0))) == "[{0}{1}|size=2: lt(1,0)]"

    def test_identity(self, linord):
        for t in enumerate_types(linord, 2):
            assert restrict_type(t, (0, 1)) == t

    def test_forced_degeneracy(self, linord):
        lt = enumerate_types(linord, 2)[1]
        deg = restrict_type(lt, (0, 0))
        assert deg.blocks == (0, 0) and deg.quotient.size == 1

    def test_composition_law(self, linord):
        rng = random.Random(9)
        types3 = enumerate_types(linord, 3)
        for _ in range(100):
            p = rng.choice(types3)
            sigma = tuple(rng.randrange(3) for _ in range(rng.randint(1, 4)))
            tau = tuple(rng.randrange(len(sigma)) for _ in range(rng.randint(1, 4)))
            composed = tuple(sigma[v] for v in tau)
            assert restrict_type(restrict_type(p, sigma), tau) == \
                restrict_type(p, composed)

    def test_out_of_range_sigma(self, linord):
        with pytest.raises(InputError):
            restrict_type(enumerate_types(linord, 2)[0], (0, 5))


class TestTypeOf:
    def test_repeating_tuple_on_chain(self, linord):
        t = type_of(linord, chain(3), (2, 0, 2))
        assert t.blocks == (0, 1, 0)
        # block of position 1 (= point 0) lies below block of position 0 (= point 2)
        assert t.quotient.table("lt") == frozenset({(1, 0)})

    def test_single_point(self, linord):
        t = type_of(linord, chain(2), (1,))
        assert t.k == 1 and t.quotient.size == 1

    def test_edge_pair(self, graphs):
        e = structure(Signature((("E", 2),)), 2, [("E", (0, 1)), ("E", (1, 0))])
        t = type_of(graphs, e, (0, 1))
        assert serialize_type(t) == "[{0}{1}|size=2: E(0,1) E(1,0)]"

    def test_outside_age_is_input_error(self, linord):
        cyc = structure(SIG, 3, [("lt", (0, 1)), ("lt", (1, 2)), ("lt", (2, 0))])
        with pytest.raises(InputError):
            type_of(linord, cyc, (0, 1))

    def test_commutes_with_restriction(self, linord):
        rng = random.Random(4)
        s = chain(4)
        for _ in range(80):
            tup = tuple(rng.randrange(4) for _ in range(rng.randint(1, 4)))
            sigma = tuple(rng.randrange(len(tup)) for _ in range(rng.randint(1, 4)))
            left = type_of_raw(s, tuple(tup[v] for v in sigma))
            right = restrict_type(type_of_raw(s, tup), sigma)
            assert left == right

    def test_every_enumerated_type_is_realized(self, linord):
        # each 2-type of the linear-order class is the type of a real tuple
        realized = {type_of_raw(chain(2), t) for t in product(range(2), repeat=2)}
        assert realized == set(enumerate_types(linord, 2))


class TestSerialization:
    def test_round_trip(self, linord, graphs):
        for cls, k in ((linord, 2), (linord, 3), (graphs, 2)):
            for t in enumerate_types(cls, k):
                assert parse_type(cls.signature, serialize_type(t)) == t

    def test_bad_partition_rejected(self, linord):
        with pytest.raises(InputError):
            parse_type(SIG, "[{1}{0}|size=2: lt(0,1)]")

    def test_position_listed_twice_rejected(self, linord):
        with pytest.raises(InputError, match="listed twice"):
            parse_type(SIG, "[{0,0}|size=1:]")
