"""Seeded instance documents for the benchmark workloads.

Every input is built here from the workload seed, in the JSON format that
`metasub gen` writes ({"n", "function", "matroid", "metadata"}), so a change
to the program can never change what the benchmark feeds it. The graphic
matroid documents have no `metasub gen` counterpart.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    """Size parameters of one workload at one scale."""

    n: int
    r: int = 0  # uniform rank (diversity workloads)
    vertices: int = 0  # graph order (graphic workload)
    universe: int = 0  # coverage universe size
    pool: int = 2  # distinct instances cycled through in a run


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "solve" or "analyze"
    family: str  # "diversity" or "coverage-graphic"
    full: Shape
    tiny: Shape

    def shape(self, scale: str) -> Shape:
        return self.full if scale == "full" else self.tiny


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve-div-uniform", "solve", "diversity",
            full=Shape(n=62, r=20, pool=320),
            tiny=Shape(n=10, r=4, pool=2),
        ),
        Workload(
            "solve-cov-graphic", "solve", "coverage-graphic",
            full=Shape(n=62, vertices=21, universe=124, pool=320),
            tiny=Shape(n=10, vertices=6, universe=20, pool=2),
        ),
        Workload(
            "analyze-div-exact", "analyze", "diversity",
            full=Shape(n=12, r=4, pool=2),
            tiny=Shape(n=6, r=2, pool=2),
        ),
        Workload(
            "analyze-div-large", "analyze", "diversity",
            full=Shape(n=62, r=20, pool=16),
            tiny=Shape(n=16, r=5, pool=2),
        ),
    )
}

DENSITY = 0.4  # coverage: probability that an element covers a universe item
DIM = 3  # diversity: dimension of the random points


def _euclidean(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def _connected_graph(rng, vertices: int, edges: int) -> list[tuple[int, int]]:
    """Simple connected graph containing a triangle (so girth 3), edges in
    random order."""
    if not vertices - 1 <= edges <= vertices * (vertices - 1) // 2 or vertices < 3:
        raise ValueError(f"no simple connected graph with a triangle on {vertices} vertices "
                         f"and {edges} edges")
    order = [int(v) for v in rng.permutation(vertices)]
    chosen: set[tuple[int, int]] = set()

    def add(u: int, v: int) -> None:
        chosen.add((min(u, v), max(u, v)))

    a, b, c = order[:3]
    add(a, b), add(b, c), add(a, c)
    for k in range(3, vertices):
        add(order[k], order[int(rng.integers(0, k))])
    while len(chosen) < edges:
        u, v = (int(x) for x in rng.choice(vertices, size=2, replace=False))
        add(u, v)
    listed = sorted(chosen)
    return [listed[int(k)] for k in rng.permutation(len(listed))]


def make_doc(workload: Workload, shape: Shape, rng, seed: int, index: int) -> dict:
    meta = {"generator": workload.name, "seed": seed, "index": index}
    if workload.family == "diversity":
        D = _euclidean(rng.standard_normal((shape.n, DIM)))
        meta["sigma"] = 1.0
        return {
            "n": shape.n,
            "function": {"kind": "diversity", "distance": D.tolist()},
            "matroid": {"kind": "uniform", "r": shape.r},
            "metadata": meta,
        }
    cover = rng.random((shape.n, shape.universe)) < DENSITY
    weights = rng.random(shape.universe)
    edges = _connected_graph(rng, shape.vertices, shape.n)
    return {
        "n": shape.n,
        "function": {
            "kind": "coverage",
            "incidence": [[int(u) for u in np.flatnonzero(row)] for row in cover],
            "universe_weights": weights.tolist(),
        },
        "matroid": {"kind": "graphic", "vertices": shape.vertices,
                    "edges": [list(e) for e in edges]},
        "metadata": meta,
    }


def generate(workload: Workload, seed: int, scale: str = "full"):
    """Yield the encoded documents of the workload's pool; the same seed
    gives the same documents."""
    shape = workload.shape(scale)
    stream = zlib.crc32(workload.name.encode())
    rng = np.random.default_rng([seed, stream])
    for k in range(shape.pool):
        yield encode(make_doc(workload, shape, rng, seed, k))


def encode(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def write_pool(workload: Workload, seed: int, scale: str,
               directory: Path) -> tuple[list[Path], str]:
    """Write the pool to one JSON file per instance. Returns the files and a
    digest of the whole input set. Nothing of the pool stays in memory, so
    its size does not show in the run's peak RSS."""
    paths, h = [], hashlib.sha256()
    for k, blob in enumerate(generate(workload, seed, scale)):
        h.update(hashlib.sha256(blob).digest())
        paths.append(directory / f"instance-{k}.json")
        paths[-1].write_bytes(blob)
    return paths, h.hexdigest()
