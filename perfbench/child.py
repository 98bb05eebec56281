"""One fresh interpreter for one CLI invocation.

    python3 child.py -- <ellimage arguments>
    python3 child.py --trace SPANS.json REQUEST_ID -- <ellimage arguments>
    python3 child.py --setup
    python3 child.py --reference REPS

The first form runs `ellimage.cli.main` exactly as the `ellimage` console
script does.  The second installs the span tracer first and writes the spans
to SPANS.json when the invocation exits.  `--setup` only imports
`ellimage.cli` and parses the bundled data files: the start-up cost every
invocation pays.  `--reference` times a kernel that does not use the package.
"""

import sys
import time


def _setup():
    from importlib import resources

    import ellimage.cli  # noqa: F401  (the import is what is measured)
    from ellimage.labelio import read_generators_text

    data = resources.files("ellimage").joinpath("data")
    for name in ("known_images.txt", "special_groups.txt"):
        read_generators_text(data.joinpath(name).read_text())
    return 0


def _reference(reps):
    """Print the times of `reps` runs of a fixed pure-Python kernel shaped like
    the package's hot loops: the BFS closure of SL2(Z/35) on 4-tuples in a
    set.  It calls nothing in the package, so only the machine moves it."""
    m = 35
    for _ in range(reps):
        start = time.perf_counter()
        els, frontier = {(1, 0, 0, 1)}, [(1, 0, 0, 1)]
        while frontier:
            new = []
            for a in frontier:
                for b in ((1, 1, 0, 1), (1, 0, 1, 1)):
                    c = ((a[0] * b[0] + a[1] * b[2]) % m, (a[0] * b[1] + a[1] * b[3]) % m,
                         (a[2] * b[0] + a[3] * b[2]) % m, (a[2] * b[1] + a[3] * b[3]) % m)
                    if c not in els:
                        els.add(c)
                        new.append(c)
            frontier = new
        print(time.perf_counter() - start)
    return 0


def main(argv):
    if argv == ["--setup"]:
        return _setup()
    if argv[:1] == ["--reference"]:
        return _reference(int(argv[1]))
    tracer = None
    if argv[:1] == ["--trace"]:
        import tracer as tracing
        spans_path, tracer = argv[1], tracing.Tracer(argv[2])
        argv = argv[3:]
        tracer.install()
    if argv[:1] != ["--"]:
        sys.stderr.write(__doc__)
        return 2
    from ellimage import cli
    try:
        return cli.main(argv[1:])
    finally:
        if tracer is not None:
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
