"""The shipped instances of kfractal/data/, and one instance document the
test modules share."""

from kfractal.io import load_instance, packaged_instance


def shipped(name):
    """A fresh copy of the shipped instance ``name`` (s1, p2, p2c, t0, f3, d1, d2, d3)."""
    return load_instance(packaged_instance(name))[1]


# tests/test_coding.py's _lopsided_system: a strict 1-graph on u and w whose
# completion counts differ (u receives two edges, w one)
LOPSIDED = {
    "kind": "mw", "name": "lopsided", "k": 1, "vertices": ["u", "w"], "squares": {},
    "edges": [[{"id": "a", "r": "u", "s": "u"}, {"id": "b", "r": "u", "s": "w"},
               {"id": "c", "r": "w", "s": "u"}]],
    "fibers": {v: {"metric": "euclidean", "region": {"type": "box", "min": [0.0], "max": [1.0]}}
               for v in ("u", "w")},
    "maps": {"a": {"matrix": [[0.3]], "translation": [0.1]},
             "b": {"matrix": [[0.35]], "translation": [0.55]},
             "c": {"matrix": [[0.4]], "translation": [0.2]}},
    "c": 0.4, "mode": "strict",
}
