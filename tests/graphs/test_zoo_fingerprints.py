"""Golden fingerprints pin every graph annotation the builder produces.

``data/zoo_fingerprints.json`` holds the :func:`graph_fingerprint` of 206
graphs: the 39 zoo models at the default shape, the same models at
64/96/224 px with 100 classes, and 50 seeded DARTS-space samples.  A
fingerprint hashes every node's op, shape, params, FLOPs and attrs plus
the edges, so any drift in op semantics -- shape or cost arithmetic,
attr names or values, node order -- shows up here as a changed hash.

Regenerate (only for a deliberate change of graph semantics) with::

    PYTHONPATH=src python tests/graphs/test_zoo_fingerprints.py
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.ghn.darts_space import sample_space
from repro.graphs import graph_fingerprint
from repro.graphs.zoo import get_model, list_models

DATA = pathlib.Path(__file__).parent / "data" / "zoo_fingerprints.json"

#: (input_size, num_classes) variants beyond each model's default shape.
SHAPES = ((64, 100), (96, 100), (224, 100))
DARTS_SAMPLES = 50


def current_fingerprints() -> dict[str, str]:
    """Fingerprint of every pinned graph, keyed by a stable label."""
    out: dict[str, str] = {}
    for name in list_models():
        out[f"{name}@default"] = graph_fingerprint(get_model(name))
        for size, classes in SHAPES:
            graph = get_model(name, input_size=size, num_classes=classes)
            out[f"{name}@{size}px/{classes}"] = graph_fingerprint(graph)
    darts = sample_space(np.random.default_rng(0), DARTS_SAMPLES, 16, 10)
    for graph in darts:
        out[f"darts/{graph.name}"] = graph_fingerprint(graph)
    return out


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(DATA.read_text())


@pytest.fixture(scope="module")
def current() -> dict[str, str]:
    return current_fingerprints()


def test_golden_covers_every_graph(golden, current):
    assert len(golden) == 206
    assert sorted(current) == sorted(golden)


def test_fingerprints_match_golden(golden, current):
    drifted = sorted(k for k in golden if current.get(k) != golden[k])
    assert not drifted, (f"{len(drifted)} graph(s) changed fingerprint, "
                         f"first: {drifted[:5]}")


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(current_fingerprints(), indent=1,
                               sort_keys=True) + "\n")
    print(f"wrote {DATA}")
