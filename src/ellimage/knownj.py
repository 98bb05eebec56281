"""The rational isolated j-invariants: the tables of the 15 Gamma1- and 19
Gamma0-isolated rational j-invariants that the filter's surviving pairs are
read against.  No CLI verb imports this module, so `fractions` stays out
of every invocation."""

from collections import namedtuple
from fractions import Fraction

# `ell` is None for CM rows: the statement is ell-free
KnownJRecord = namedtuple("KnownJRecord", "j_invariant cm family ell citation")


_CM_J = (
    Fraction(0), Fraction(1728), Fraction(-3375), Fraction(8000),
    Fraction(-32768), Fraction(54000), Fraction(287496), Fraction(-884736),
    Fraction(-12288000), Fraction(16581375), Fraction(-884736000),
    Fraction(-147197952000), Fraction(-262537412640768000),
)

_CM_CITE = "CM point; singular moduli are isolated in every prime-power tower"


def _cm_rows(family):
    return tuple(KnownJRecord(j, True, family, None, _CM_CITE) for j in _CM_J)


GAMMA1_ISOLATED_J = _cm_rows("gamma1") + (
    KnownJRecord(Fraction(-7 * 11 ** 3), False, "gamma1", 37,
                 "degree-6 sporadic point on X1(37), van Hoeij"),
    KnownJRecord(Fraction(-7 * 137 ** 3 * 2083 ** 3), False, "gamma1", 37,
                 "degree-18 isolated point on X1(37)"),
)

GAMMA0_ISOLATED_J = _cm_rows("gamma0") + (
    KnownJRecord(Fraction(-11 * 131 ** 3), False, "gamma0", 11,
                 "rational point on X0(11)"),
    KnownJRecord(Fraction(-11 ** 2), False, "gamma0", 11,
                 "rational point on X0(11)"),
    KnownJRecord(Fraction(-(17 ** 2) * 101 ** 3, 2), False, "gamma0", 17,
                 "rational point on X0(17)"),
    KnownJRecord(Fraction(-17 * 373 ** 3, 2 ** 17), False, "gamma0", 17,
                 "rational point on X0(17)"),
    KnownJRecord(Fraction(-7 * 11 ** 3), False, "gamma0", 37,
                 "rational point on X0(37)"),
    KnownJRecord(Fraction(-7 * 137 ** 3 * 2083 ** 3), False, "gamma0", 37,
                 "rational point on X0(37)"),
)
