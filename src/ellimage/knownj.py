"""The rational isolated j-invariants: the tables of the 15 Gamma1- and 19
Gamma0-isolated rational j-invariants that the filter's surviving pairs are
read against.  The non-CM j-invariants are written once, next to the
filter's citations in isolated.ANNOTATIONS.  No CLI verb imports this
module, so `fractions` stays out of every invocation."""

from collections import namedtuple
from fractions import Fraction

from .isolated import ANNOTATIONS

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


def _non_cm_rows(family):
    "The non-CM rows, one per j-invariant of isolated.ANNOTATIONS over a family pair."
    return tuple(KnownJRecord(Fraction(num, den), False, family, level,
                              "rational point on X0(%d)" % level if degree == 1
                              else "degree-%d isolated point on X1(%d)" % (degree, level))
                 for (fam, level, degree), (_, js, _) in ANNOTATIONS.items() if fam == family
                 for num, den in js)


GAMMA1_ISOLATED_J = _cm_rows("gamma1") + _non_cm_rows("gamma1")
GAMMA0_ISOLATED_J = _cm_rows("gamma0") + _non_cm_rows("gamma0")
