"""Shared fixtures: the shipped catalog, parsed once per session."""

from importlib import resources

import pytest

from agekit.ages import BoundedClass, enumerate_age
from agekit.parser import Catalog, parse_input

CATALOG_FILES = ("linord.cls", "graphs.cls", "trifree.cls", "bipartite.cls",
                 "maxdeg1.cls", "point.cls")


def catalog_text(name: str) -> str:
    return resources.files("agekit.catalog").joinpath(name).read_text()


def catalog_path(name: str) -> str:
    return str(resources.files("agekit.catalog").joinpath(name))


def age_equal_upto(a: BoundedClass, b: BoundedClass, n: int) -> bool:
    """Same age members at every size up to n (canonical representatives)."""
    if a.signature != b.signature:
        return False
    return all(enumerate_age(a, i) == enumerate_age(b, i) for i in range(n + 1))


@pytest.fixture(scope="session")
def catalog() -> Catalog:
    cat = Catalog()
    for name in CATALOG_FILES:
        parse_input(catalog_text(name), cat)
    return cat


@pytest.fixture(scope="session")
def linord(catalog):
    return catalog.bounded_class("linord")


@pytest.fixture(scope="session")
def graphs(catalog):
    return catalog.bounded_class("graphs")


@pytest.fixture(scope="session")
def trifree(catalog):
    return catalog.bounded_class("trifree")


@pytest.fixture(scope="session")
def bipartite(catalog):
    return catalog.bounded_class("bipartite")


@pytest.fixture(scope="session")
def maxdeg1(catalog):
    return catalog.bounded_class("maxdeg1")


@pytest.fixture(scope="session")
def point(catalog):
    return catalog.bounded_class("point")
