"""Rank-k graph combinatorics, contraction systems, and certified attractors."""

__version__ = "0.1.0"
