"""Exact verification of a q-identity over convex lattice chains.

Chains live in the right triangle with legs i and j = n - i; the package
enumerates them, proves the identity by exact polynomial arithmetic,
cross-checks the probabilistic form by simulation, and searches for
abstract exponent multisets with the same unit-sum property.
"""
