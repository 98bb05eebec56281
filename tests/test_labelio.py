from fractions import Fraction

import pytest

from ellimage import modarith
from ellimage.cli import main
from ellimage.errors import DataFileError, LabelError, NotInvertibleError
from ellimage.gl2 import MatrixGroup
from ellimage.knownj import GAMMA0_ISOLATED_J, GAMMA1_ISOLATED_J
from ellimage.labelio import (ImageRecord, parse_label, parse_report_lines,
                              read_generators_text, serialize_records, validate_record)
from ellimage.modarith import PrimePowerModulus


def test_parse_label_examples():
    assert parse_label("49.196.9.1") == (49, 196, 9, 1)
    assert parse_label("17.72.1.2") == (17, 72, 1, 2)
    with pytest.raises(LabelError):
        parse_label("49.196.9")
    with pytest.raises(LabelError):
        parse_label("6.5.0.1")   # 6 is not a prime power
    with pytest.raises(LabelError):
        parse_label("49.x.9.1")
    assert parse_label("1.1.0.1") == (1, 1, 0, 1)  # GL2 itself, the j-line
    with pytest.raises(LabelError):
        parse_label("0.1.0.1")


def test_level_one_records_take_any_prime_power_modulus():
    for m in (7, 49, 8):
        rec, = read_generators_text("1.1.0.1|%d|1,1,0,1;1,0,1,1;3,0,0,1\n" % m)
        assert rec.modulus == PrimePowerModulus.from_int(m)
    for m, err in ((6, "line 1: 6 is not a prime power"),
                   (1, "line 1: modulus must be a prime power in [2, 3037000499], got 1")):
        with pytest.raises(DataFileError) as exc:
            read_generators_text("1.1.0.1|%d|\n" % m)
        assert str(exc.value) == err


def test_read_generators_grammar():
    text = "# comment\n49.196.9.1|49|1,0,37,48;20,4,18,21\n"
    recs = read_generators_text(text)
    assert len(recs) == 1
    assert recs[0].rszb_label == "49.196.9.1"
    assert len(recs[0].generators) == 2
    assert recs[0].generators == ((1, 0, 37, 48), (20, 4, 18, 21))


def test_empty_file():
    assert read_generators_text("") == []
    assert read_generators_text("# only comments\n\n") == []


def test_range_error_carries_line_number():
    with pytest.raises(DataFileError) as err:
        read_generators_text("# pad\n49.196.9.1|49|49,0,0,1\n")
    assert "line 2" in str(err.value)


def test_grammar_errors():
    for text, message in [
            ("49.196.9.1|49\n", "line 1: expected 3 |-separated fields, got 2"),
            ("49.196.9|49|\n", "line 1: label '49.196.9' does not have four dot-separated fields"),
            ("6.5.0.1|6|\n", "line 1: label level 6 is not a prime power"),
            ("6.5.0.1|7|\n", "line 1: label level 6 is not a prime power"),
            ("49.196.9.1|4x9|\n", "line 1: modulus '4x9' is not an integer"),
            ("49.196.9.1|48|1,0,0,1\n", "line 1: label level 49 does not match modulus 48"),
            ("49.196.9.1|49|1,0,0\n", "line 1: matrix '1,0,0' does not have 4 entries"),
            ("49.196.9.1|49|1,a,0,1\n", "line 1: non-integer entry in '1,a,0,1'"),
            ("49.196.9.1|49|1,0,0,1;0,49,1,0\n", "line 1: entry 49 out of range [0, 49)"),
            ("49.196.9.1|49|7,0,0,7\n", "line 1: generator '7,0,0,7' is not invertible"),
            ("49.196.9.1|49|1,0,0,1\n49.196.9.1|49|1,0,0,1\n",
             "line 2: duplicate label 49.196.9.1")]:
        with pytest.raises(DataFileError) as err:
            read_generators_text(text)
        assert str(err.value) == message
    # a group built from tuples makes the same check
    with pytest.raises(NotInvertibleError):
        MatrixGroup(PrimePowerModulus(7, 2), [(1, 0, 0, 1), (7, 0, 0, 7)])


@pytest.mark.parametrize("line", ["RESULT\tx\tgamma1\t17", "RESULT\tx\tgamma1\t17:a",
                                  "x\tgamma1\t17\tfour\tkept\tnone"])
def test_report_line_with_a_bad_number(line):
    # a level:degree pair without its colon, a degree and a level that are
    # not integers: each a DataFileError that quotes the line
    with pytest.raises(DataFileError) as err:
        parse_report_lines("# comment\n%s\n" % line)
    assert repr(line) in str(err.value)


def test_round_trip(records):
    text = serialize_records(records)
    again = read_generators_text(text)
    assert [r.rszb_label for r in again] == [r.rszb_label for r in records]
    assert serialize_records(again) == text


def test_every_shipped_record_validates(records, special_records):
    for rec in records + special_records:
        rep = validate_record(rec)
        assert rep.ok, rep.to_line()


def test_records_validate_at_level_ell_cubed(records, special_records):
    # the full preimage mod ell^max(3, n) keeps the label's level, index and
    # genus
    for rec in records + special_records:
        pre = rec.group().full_preimage(max(3, rec.modulus.exponent))
        big = ImageRecord(rec.rszb_label, pre.mod, pre.gens)
        rep = validate_record(big)
        assert rep.ok, rep.to_line()


def test_full_preimage_order(records, special_records):
    # |preimage mod ell^t| = |G| * ell^(4(t - n)): the kernel of reduction
    # mod ell^n in GL2(Z/ell^t) is all of I + ell^n M2
    for rec in records + special_records:
        g, n = rec.group(), rec.modulus.exponent
        for t in range(n, n + 3):
            assert g.full_preimage(t).order() == g.order() * rec.modulus.ell ** (4 * (t - n)), \
                (rec.rszb_label, t)


def test_validation_catches_injected_faults(record_map):
    good = record_map["17.72.1.2"]
    wrong_genus = ImageRecord("17.72.2.2", good.modulus, good.generators)
    rep = validate_record(wrong_genus)
    assert not rep.genus_ok and rep.level_ok and rep.index_ok
    wrong_index = ImageRecord("17.73.1.2", good.modulus, good.generators)
    rep = validate_record(wrong_index)
    assert not rep.index_ok
    # a level-7 group labeled as level 49
    m49 = PrimePowerModulus(7, 2)
    pre = record_map["7.8.0.1"].group().full_preimage(m49)
    rec = ImageRecord("49.%d.%d.1" % (pre.index_in_ambient(), 0), m49, pre.gens)
    rep = validate_record(rec)
    assert not rep.level_ok
    # a label the reader would refuse is refused here too
    with pytest.raises(LabelError, match="label level 6 is not a prime power"):
        validate_record(ImageRecord("6.8.0.1", good.modulus, good.generators))


def test_validate_factors_each_record_once(monkeypatch, capsys):
    # the bundled validate factors each of the 43 record moduli once, when
    # the reader checks the label level; validate_record does not factor the
    # level again, and the other 31 calls prove ell prime for the
    # PrimePowerModulus(ell, 1) of MatrixGroup.level
    calls, factorize = [], modarith.factorize
    monkeypatch.setattr(modarith, "factorize", lambda n: calls.append(n) or factorize(n))
    assert main(["validate"]) == 0
    assert capsys.readouterr().out.endswith("VALIDATED\t43 records\t0 mismatches\n")
    assert len(calls) == 74


def test_known_j_tables():
    assert len(GAMMA1_ISOLATED_J) == 15
    assert len(GAMMA0_ISOLATED_J) == 19
    assert sum(1 for r in GAMMA1_ISOLATED_J if r.cm) == 13
    assert sum(1 for r in GAMMA0_ISOLATED_J if r.cm) == 13
    g1 = {r.j_invariant for r in GAMMA1_ISOLATED_J}
    g0 = {r.j_invariant for r in GAMMA0_ISOLATED_J}
    assert g1 <= g0
    assert Fraction(-7 * 11 ** 3) in g1
    assert Fraction(-17 * 373 ** 3, 2 ** 17) in g0
    for r in GAMMA0_ISOLATED_J:
        if not r.cm:
            assert r.ell in (11, 17, 37)
            assert r.j_invariant.denominator in (1, 2, 2 ** 17)
