import pytest

from polyshare import (
    basis_r,
    entropy_vector,
    linear_combine,
    rank_vector_from_json,
    subset_format,
    subset_parse,
    tighten,
    validate_polymatroid,
)
from polyshare.entropy import distribution_from_json
from polyshare.lattice import by_size
from polyshare.reproduce import fixture_doc


def rank_vector_to_json(rank) -> dict:
    """The reference rank-file document, one subset_format call per subset:
    the labels, the mode, and the ranks by subset size, ties by mask."""
    ground = rank.ground
    ranks = {subset_format(ground, m): rank.value(m) for m in by_size(ground.n).tolist()}
    return {"ground": list(ground.labels), "mode": rank.mode, "ranks": ranks}


@pytest.fixture(scope="session")
def table1():
    return distribution_from_json(fixture_doc("table1.json"))


@pytest.fixture(scope="session")
def m_xi(table1):
    return entropy_vector(table1)


@pytest.fixture(scope="session")
def middle():
    return validate_polymatroid(rank_vector_from_json(fixture_doc("table2_middle.json")))


@pytest.fixture(scope="session")
def tight_fixture():
    return validate_polymatroid(rank_vector_from_json(fixture_doc("table2_tight.json")))


@pytest.fixture(scope="session")
def left_fixture():
    return rank_vector_from_json(fixture_doc("table2_left.json"))


@pytest.fixture(scope="session")
def coefficients():
    return fixture_doc("coefficients.json")


@pytest.fixture(scope="session")
def tight_pm(middle):
    return tighten(middle)


@pytest.fixture(scope="session")
def combination(m_xi, coefficients):
    terms = [(coefficients["entropy_scale"], m_xi)]
    g = m_xi.ground
    for key, coeff in coefficients["terms"].items():
        terms.append((coeff, basis_r(g, subset_parse(g, key))))
    return linear_combine(terms)
