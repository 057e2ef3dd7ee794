import pytest
from hypothesis import HealthCheck, settings

from invlat import report
from invlat.catalog import catalog_names, get_entry
from invlat.groups import group_from_json

from generated_groups import (
    CARTAN_A4, CARTAN_B3, F21, GENERATED, SAME_GROUP_TWO_WAYS, SD16, dihedral,
    in_generic_basis, weyl_from_cartan,
)

settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture(autouse=True)
def fresh_q8_analysis():
    """Each test starts as a fresh process does, with no Q8 analysis kept,
    so a test that patches a stage sees it run."""
    report._q8_analysis.cache_clear()


@pytest.fixture(scope="session")
def s3():
    return get_entry("S3-standard").group()


@pytest.fixture(scope="session")
def s4():
    return get_entry("S4-standard").group()


@pytest.fixture(scope="session")
def b2():
    return get_entry("WeylB2").group()


@pytest.fixture(scope="session")
def g4():
    return get_entry("G4").group()


@pytest.fixture(scope="session")
def q8():
    return get_entry("Q8").group()


@pytest.fixture(scope="session")
def c5():
    return get_entry("C5-zeta5").group()


@pytest.fixture(scope="session")
def oracle_groups():
    """(name, group) for the 9 catalog groups, every generated group, the
    Weyl group A4 from its Cartan matrix and the Weyl group B3 in a generic
    basis: the inputs the oracle comparisons run on."""
    out = [
        (name, get_entry(name).group())
        for name in catalog_names()
        if get_entry(name).kind == "group"
    ]
    out += [(name, group_from_json(obj)) for name, (obj, _) in GENERATED.items()]
    out.append(("WeylA4", group_from_json(weyl_from_cartan(CARTAN_A4))))
    out.append(
        ("WeylB3-generic", group_from_json(in_generic_basis(weyl_from_cartan(CARTAN_B3))))
    )
    assert len(out) == 9 + len(GENERATED) + 2
    return out


@pytest.fixture(scope="session")
def family_oracle_groups():
    """(name, group) for the dihedral groups G(m,m,2) with m = 3 ... 12, SD16,
    F21 and both writings of each SAME_GROUP_TWO_WAYS pair: conductors up to
    12, and four groups with no gcd certificate.  The oracle comparisons of
    the routes read off the character run on these besides `oracle_groups`."""
    out = [(f"G({m},{m},2)", group_from_json(dihedral(m))) for m in range(3, 13)]
    out += [("SD16", group_from_json(SD16)), ("F21", group_from_json(F21))]
    for pair, writings in sorted(SAME_GROUP_TWO_WAYS.items()):
        out += [(f"{pair}-{k}", group_from_json(obj)) for k, obj in enumerate(writings)]
    return out
