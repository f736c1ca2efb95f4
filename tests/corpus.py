"""The byte corpus: every command's report on a fixed set of inputs, hashed
one SHA-256 per group, and the golden hashes in corpus.sha256 beside it.

A run is one in-process `cli.main` call. Its hash covers its arguments, its
exit code, its report bytes and its stderr without the `elapsed` line, which
is wall clock. A group hashes its runs in order. `tests/test_corpus.py`
reruns the corpus and names every group whose hash differs from the golden
file.

    PYTHONPATH=src python tests/corpus.py            # compare with the golden file
    PYTHONPATH=src python tests/corpus.py --write    # rewrite the golden file

A change that means to change report bytes rewrites the file and names each
changed group and its reason in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

from metasub import cli

GOLDEN = Path(__file__).with_name("corpus.sha256")
KINDS = ("metric-random", "semimetric-power", "negtype-sqeuclid", "js-random", "coverage-random")
SIZES = (2, 5, 9, 12, 30, 62)
SEEDS = (0, 1, 2)
WITH_OPT_MAX = 12  # solve --with-opt runs at n up to this
SUITES = ("lemmas", "smoothness", "matching", "matroid", "ratios")
VERIFY_SEEDS = (0, 7)
ELAPSED = re.compile(r"^elapsed \S+\n", re.MULTILINE)

# The greedy tie: f({0,1,2}) and f({0,1,3}) have equal bits, and the diversity
# greedy_extend override picks 3 where the base method picks 2
TIE = {
    "n": 4,
    "function": {"kind": "diversity", "distance": [
        [0.0, 1e6, 0.5, 0.5 + 2e-11],
        [1e6, 0.0, 0.5, 0.5],
        [0.5, 0.5, 0.0, 0.5],
        [0.5 + 2e-11, 0.5, 0.5, 0.0],
    ]},
    "matroid": {"kind": "uniform", "r": 3},
}


def run(argv: list[str], stdin: bytes = b"") -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one `cli.main` call, reading stdin."""
    out, err = io.StringIO(), io.StringIO()
    stdin_was, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(stdin))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin_was
    return code, out.getvalue(), ELAPSED.sub("", err.getvalue())


class Group:
    """One SHA-256 over a sequence of runs."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def run(self, argv: list[str], stdin: bytes = b"") -> bytes:
        """Run and hash argv; the report it wrote."""
        code, out, err = run(argv, stdin)
        self.sha.update(json.dumps([argv, code, out, err]).encode() + b"\n")
        return out.encode()


def gen_group(kind: str, *options: str) -> Group:
    """Each document of the kind, then its solve, analyze and solve --with-opt."""
    group = Group()
    for n in SIZES:
        for seed in SEEDS:
            doc = group.run(["gen", kind, "--n", str(n), "--seed", str(seed), *options])
            group.run(["solve", "-"], doc)
            group.run(["analyze", "-"], doc)
            if n <= WITH_OPT_MAX:
                group.run(["solve", "-", "--with-opt"], doc)
    return group


def groups():
    """Each group's name and its runs, in the golden file's order."""
    for kind in KINDS:
        yield f"gen-{kind}", gen_group(kind)
    yield "gen-js-random-support-1", gen_group("js-random", "--support", "1")
    for suite in SUITES:
        group = Group()
        for seed in VERIFY_SEEDS:
            group.run(["verify", suite, "--seed", str(seed)])
        yield f"verify-{suite}", group
    group = Group()
    group.run(["solve", "-"], json.dumps(TIE).encode())
    yield "solve-diversity-greedy-tie", group


def hashes() -> dict[str, str]:
    return {name: group.sha.hexdigest() for name, group in groups()}


def read_golden() -> dict[str, str]:
    pairs = (line.split() for line in GOLDEN.read_text().splitlines() if line.strip())
    return {name: sha for sha, name in pairs}


def differing(got: dict[str, str], want: dict[str, str]) -> list[str]:
    """The groups, in either, whose hashes are not the same in both."""
    return [name for name in {**want, **got} if got.get(name) != want.get(name)]


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print("usage: corpus.py [--write]", file=sys.stderr)
        return 2
    got = hashes()
    if argv:
        GOLDEN.write_text("".join(f"{sha}  {name}\n" for name, sha in got.items()))
        return 0
    changed = differing(got, read_golden())
    for name in changed:
        print(f"differs: {name}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
