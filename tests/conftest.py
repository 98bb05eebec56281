import pytest

from ellimage.cli import _bundled_records, _special_records
from ellimage.gl2 import CartanSpec, build_cartan
from ellimage.modarith import PrimePowerModulus


@pytest.fixture(scope="session")
def records():
    return _bundled_records()


@pytest.fixture(scope="session")
def record_map(records):
    return {r.rszb_label: r for r in records}


@pytest.fixture(scope="session")
def special_records():
    return _special_records()


@pytest.fixture(scope="session")
def image49(record_map):
    return record_map["49.196.9.1"].group()


@pytest.fixture(scope="session")
def printed_index49(special_records):
    return special_records[0].group()


@pytest.fixture(scope="session")
def rigidity_inputs(records, special_records):
    """(name, group) for every bundled and special record and the five
    Cartan and Borel kinds at 7, 9, 25 and 49: the parents the rigidity
    tests run preimage_rigidity on."""
    named = [(r.rszb_label, r.group()) for r in records + special_records]
    for kind in ("borel", "split", "split-normalizer", "nonsplit", "nonsplit-normalizer"):
        for m in (7, 9, 25, 49):
            spec = CartanSpec(kind, PrimePowerModulus.from_int(m))
            named.append(("%s(%d)" % (kind, m), build_cartan(spec)))
    return named
