"""Seeded generator files for the benchmark workloads.

Every record is conjugated by its own random invertible matrix and the
records of a file are shuffled.  Level, index, genus, orbit sizes and filter
results are invariant under conjugation in GL2(Z/N), so the labels stay valid
and the expected answers do not depend on the seed; only the generator
entries (and with them the search paths inside the program) change.

This module does not import the package under test.
"""

import os
import random

CATALOG_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "data", "catalog.txt")
# The reference subgroup of 49.196.9.1; it is validated but not filtered.
SPECIAL_LABEL = "49.9604.694.1"

# tower records: the nonsplit-Cartan normalizer mod 17^2 and Borel(3^4).
# Only the level field of a label is read by `filter`; the genus field of
# the level-289 label is a placeholder (0), because recomputing it would
# enumerate SL2(Z/289).  Index 39304 = 8 * 17^3 and 81.108.4.1 are exact.
NS_LABEL = "289.39304.0.1"
BOREL_LABEL = "81.108.4.1"
# Upper-triangular matrices mod 81: 2 generates (Z/81)^x.
BOREL_GENS = [(2, 0, 0, 1), (1, 0, 0, 2), (1, 1, 0, 1)]


def read_catalog(path=CATALOG_PATH):
    "[(label, modulus, [4-tuples])] in file order."
    out = []
    with open(path, encoding="ascii") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            label, mod, gens = line.split("|")
            mats = [tuple(int(x) for x in g.split(",")) for g in gens.split(";") if g]
            out.append((label, int(mod), mats))
    return out


def _smallest_prime_factor(n):
    d = 2
    while n % d:
        d += 1
    return d


def _mul(a, b, m):
    return ((a[0] * b[0] + a[1] * b[2]) % m, (a[0] * b[1] + a[1] * b[3]) % m,
            (a[2] * b[0] + a[3] * b[2]) % m, (a[2] * b[1] + a[3] * b[3]) % m)


def _inv(a, m):
    di = pow((a[0] * a[3] - a[1] * a[2]) % m, -1, m)
    return (a[3] * di % m, -a[1] * di % m, -a[2] * di % m, a[0] * di % m)


def random_gl2(rng, m):
    "Uniform random element of GL2(Z/m), m a prime power."
    ell = _smallest_prime_factor(m)
    while True:
        c = tuple(rng.randrange(m) for _ in range(4))
        if (c[0] * c[3] - c[1] * c[2]) % ell:
            return c


def conjugate(gens, c, m):
    ci = _inv(c, m)
    return [_mul(_mul(c, g, m), ci, m) for g in gens]


def _line(label, m, gens):
    return "%s|%d|%s" % (label, m, ";".join(",".join(str(x) for x in g) for g in gens))


def render(records, rng):
    "Conjugate each record by its own random matrix, shuffle, and serialize."
    lines = [_line(label, m, conjugate(gens, random_gl2(rng, m), m))
             for label, m, gens in records]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def nonsplit_normalizer_gens(ell, n):
    """Generators of the normalizer of the nonsplit Cartan mod ell^n (ell odd):
    a lift of a generator of F_{ell^2}^x, the kernel generators 1+ell and
    1+ell*sqrt(eps), and the involution diag(1, -1)."""
    m = ell ** n
    eps = next(e for e in range(2, ell) if pow(e, (ell - 1) // 2, ell) == ell - 1)
    q1 = ell * ell - 1

    def order(a, b):
        x, y, k = a, b, 1
        while (x, y) != (1, 0):
            x, y = (x * a + eps * y * b) % ell, (x * b + y * a) % ell
            k += 1
        return k

    a0, b0 = next((a, b) for a in range(ell) for b in range(1, ell) if order(a, b) == q1)
    gens = [(a0, eps * b0 % m, b0, a0)]
    if n >= 2:
        gens += [((1 + ell) % m, 0, 0, (1 + ell) % m), (1, eps * ell % m, ell, 1)]
    gens.append((1, 0, 0, m - 1))
    return gens


def rng_for(workload, seed, pass_no):
    "Each pass of a run gets its own conjugates, fixed by (workload, seed, pass)."
    return random.Random("%s:%d:%d" % (workload, seed, pass_no))


def write_inputs(workload, seed, pass_no, outdir):
    """Write the generator files of one pass; returns {name: path}."""
    rng = rng_for(workload, seed, pass_no)
    catalog = read_catalog()
    images = [r for r in catalog if r[0] != SPECIAL_LABEL]
    files = {}
    if workload in ("catalog", "certificate"):
        files["images"] = render(images, rng)
    if workload == "catalog":
        files["validate"] = render(catalog, rng)
    if workload == "tower":
        files["tower"] = render([(NS_LABEL, 289, nonsplit_normalizer_gens(17, 2)),
                                 (BOREL_LABEL, 81, BOREL_GENS)], rng)
    paths = {}
    for name, text in files.items():
        path = os.path.join(outdir, "%s.txt" % name)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        paths[name] = path
    return paths
