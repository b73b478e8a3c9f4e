"""The shipped instances of kfractal/data/, for the test modules."""

from kfractal.io import load_instance, packaged_instance


def shipped(name):
    """A fresh copy of the shipped instance ``name`` (s1, p2, p2c, t0, f3, d1, d2, d3)."""
    return load_instance(packaged_instance(name))[1]
